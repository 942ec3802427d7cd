"""Stream data model, CSV ingestion and a synthetic biased-stream generator.

CSV rows become fixed-dimension instances in [0, 1]^d. Ingestion reads the
CSV in blocks of a bounded number of cells, so the Python objects it holds
do not grow with the stream. Numeric columns are min-max normalised with
*running* extremes: the minima/maxima are updated with the current value
before it is emitted, so no future numeric value ever influences an earlier
instance and every emitted value lands in [0, 1]. A column that has been
constant so far maps to 0.0. Categorical columns are one-hot encoded, with
the indicator columns ordered by the lexicographic order of the category
strings; that vocabulary, and so the feature dimension and column order,
comes from the whole file. The sensitive column is kept as an ordinary
(encoded) feature unless the manifest sets ``drop_sensitive``.

Every feature value, raw in a CSV cell, encoded in a :class:`Chunk`, held
in a memory bank or queried against one, must be finite with magnitude at
most ``_FEATURE_BOUND`` = 1e100 (:func:`check_features`). Then a gap between
two values (a running span too) is at most 2e100, a squared gap at most
4e200, and no distance summed over fewer than 4e107 squared gaps overflows
float64.

The JSON configs (:class:`StreamManifest`, :class:`BiasStreamConfig`, and
the engine's config) load through :func:`from_mapping`, which rejects
unknown and missing keys, and values whose type does not fit the field, with
ValueError, and write ``dataclasses.asdict`` through :func:`write_json`.

The generator produces a stream with one proxy feature whose agreement with
the group membership is controlled by ``proxy_strength``, group-dependent
positive-label rates, and an abrupt concept change at each drift point.
"""

from __future__ import annotations

import csv
import json
import numbers
from array import array
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from types import UnionType
from typing import Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .metrics import discrimination

_FEATURE_BOUND = 1e100
# Ingestion reads the CSV in blocks of at most this many cells (at least one
# row), so the strings it holds at a time do not grow with the stream.
_INGEST_CELLS = 2**15

__all__ = [
    "Chunk",
    "StreamManifest",
    "IngestResult",
    "ingest",
    "dataset_discrimination",
    "GroupRates",
    "BiasStreamConfig",
    "generate_bias_stream",
    "write_stream_csv",
    "manifest_for_generated",
    "chunk_arrays",
]


def check_features(values: np.ndarray, what: str = "feature values") -> None:
    """ValueError unless every value is finite with magnitude at most ``_FEATURE_BOUND``."""
    if not (np.abs(values) <= _FEATURE_BOUND).all():
        raise ValueError(f"{what} must be finite with magnitude at most {_FEATURE_BOUND:g}")


def check_binary(values: np.ndarray, what: str) -> None:
    """ValueError unless every value is 0 or 1; checked before any cast, so 0.5 or -1 is not rounded or wrapped."""
    if not np.isin(values, (0, 1)).all():
        raise ValueError(f"{what} must be 0 or 1")


def _conforms(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated ``hint``."""
    if get_origin(hint) in (Union, UnionType):
        return any(_conforms(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_conforms(v, get_args(hint)[0]) for v in value)
    if hint is type(None):
        return value is None
    if hint in (int, float):
        return isinstance(value, numbers.Integral if hint is int else numbers.Real) and not isinstance(value, bool)
    if hint is Path or issubclass(hint, Enum):
        return isinstance(value, (str, hint))
    if is_dataclass(hint):
        return isinstance(value, (dict, hint))
    return isinstance(value, hint)


def from_mapping(cls, data, what: str):
    """``cls(**data)`` for a dataclass ``cls``; ValueError naming any unknown or missing key.

    A value whose type does not fit its field's annotation (a string for a
    number, null for a nested config) is a ValueError naming the key too.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    known = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    unknown, missing = set(data) - known, required - set(data)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")
    hints = get_type_hints(cls)
    for key, value in data.items():
        if not _conforms(value, hints[key]):
            hint = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise ValueError(f"{what} key {key!r} must be {hint}, got {type(value).__name__}")
    return cls(**data)


def write_json(data, path: str | Path) -> None:
    """Write ``data`` as indented JSON (paths as strings), newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, default=str)
        fh.write("\n")


@dataclass(frozen=True)
class Chunk:
    """One stream window in columnar form.

    ``features`` is (n, d) float64, every value in [0, 1] when it comes from
    ingestion or the generator; any finite value of magnitude at most
    ``_FEATURE_BOUND`` is accepted. ``groups`` and ``labels`` are (n,) uint8
    holding 0/1. ``index`` is the 1-based window ordinal. Arrays are copied
    and frozen at construction.
    """

    features: np.ndarray
    groups: np.ndarray
    labels: np.ndarray
    index: int

    def __post_init__(self) -> None:
        f = np.array(self.features, dtype=np.float64, order="C")
        g, y = np.asarray(self.groups), np.asarray(self.labels)
        if f.ndim != 2 or f.shape[0] == 0 or f.shape[1] == 0:
            raise ValueError("a chunk needs a non-empty (n, d) feature matrix")
        if not (f.shape[0] == g.shape[0] == y.shape[0]):
            raise ValueError("features, groups and labels must have equal length")
        check_features(f)
        check_binary(g, "groups")
        check_binary(y, "labels")
        g, y = g.astype(np.uint8), y.astype(np.uint8)
        if int(self.index) < 1:
            raise ValueError("window index starts at 1")
        for arr in (f, g, y):
            arr.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "groups", g)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "index", int(self.index))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def chunk_arrays(
    features: np.ndarray,
    groups: np.ndarray,
    labels: np.ndarray,
    window_size: int,
) -> list[Chunk]:
    """Split columnar arrays into consecutive windows of ``window_size``.

    Every chunk has exactly ``window_size`` instances except possibly the
    last one, which holds the remainder.
    """
    if window_size < 1:
        raise ValueError("window_size must be positive")
    n = len(labels)
    chunks = []
    for t, start in enumerate(range(0, n, window_size), start=1):
        stop = min(start + window_size, n)
        chunks.append(
            Chunk(features[start:stop], groups[start:stop], labels[start:stop], t)
        )
    return chunks


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass
class StreamManifest:
    """Describes how to turn one CSV file into a labeled, group-tagged stream.

    ``protected_values`` / ``unprotected_values`` are the raw sensitive-column
    strings mapped to each group; they must be disjoint and non-empty. Columns
    listed in ``categorical_columns`` are one-hot encoded; all other feature
    columns must parse as numbers. The sensitive column is always treated as
    categorical when it is retained as a feature.
    """

    source: Path
    target_column: str
    positive_label: str
    sensitive_column: str
    protected_values: tuple[str, ...]
    unprotected_values: tuple[str, ...]
    categorical_columns: tuple[str, ...] = ()
    window_size: int = 1000
    drop_sensitive: bool = False

    def __post_init__(self) -> None:
        self.source = Path(self.source)
        self.protected_values = tuple(self.protected_values)
        self.unprotected_values = tuple(self.unprotected_values)
        self.categorical_columns = tuple(self.categorical_columns)

    def validate(self) -> None:
        if not self.protected_values or not self.unprotected_values:
            raise ValueError("both group value sets must be non-empty")
        overlap = set(self.protected_values) & set(self.unprotected_values)
        if overlap:
            raise ValueError(f"group value sets overlap: {sorted(overlap)}")
        if self.window_size < 10:
            raise ValueError("window_size must be at least 10")
        if not self.target_column or not self.sensitive_column:
            raise ValueError("target and sensitive column names are required")

    @classmethod
    def from_json(cls, path: str | Path) -> "StreamManifest":
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            manifest = from_mapping(cls, json.load(fh), "manifest")
        # Relative sources resolve against the manifest's own directory.
        if not manifest.source.is_absolute():
            manifest.source = (path.parent / manifest.source).resolve()
        return manifest

    def to_json(self, path: str | Path) -> None:
        write_json(asdict(self), path)


@dataclass
class IngestResult:
    chunks: list[Chunk]
    feature_names: list[str]
    rejected_rows: int
    n_instances: int


def _read_rows(reader, rows: int) -> list[list[str]]:
    """Up to ``rows`` further rows of ``reader``; a csv.Error becomes a ValueError naming its line."""
    try:
        return list(islice(reader, rows))
    except csv.Error as exc:
        raise ValueError(f"CSV line {reader.line_num}: {exc}") from exc


def _scale_running(block: np.ndarray, extremes: np.ndarray) -> np.ndarray:
    """Min-max scale ``block`` (r, d) by running extremes; updates ``extremes`` (2, d).

    Each accumulation starts from the carried minima and maxima (+inf and
    -inf before the first row), so it takes the same operations in the same
    order as one accumulation over the whole column: every value equals the
    whole-file result bit for bit.
    """
    lo = np.minimum.accumulate(np.vstack([extremes[0], block]), axis=0)[1:]
    hi = np.maximum.accumulate(np.vstack([extremes[1], block]), axis=0)[1:]
    extremes[0], extremes[1] = lo[-1], hi[-1]
    span = hi - lo
    safe = np.where(span > 0.0, span, 1.0)
    scaled = np.where(span > 0.0, (block - lo) / safe, 0.0)
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def ingest(manifest: StreamManifest) -> IngestResult:
    """Read the manifest's CSV into encoded, normalised chunks.

    Rows are rejected (and counted) when the target or a used feature cell is
    empty, when the sensitive value belongs to neither group, or when a
    numeric cell does not parse as a finite number of magnitude at most
    ``_FEATURE_BOUND``. Cell values are stripped of surrounding whitespace
    before any comparison. A repeated header name, or a row the ``csv``
    module cannot parse, is a ValueError.

    The CSV is read in blocks of at most ``_INGEST_CELLS`` cells (at least
    one row). Only a block's cells are held as Python strings; accepted rows
    are kept as scaled float64 values, category codes and uint8 groups and
    labels, so the memory beyond the result does not grow with the stream.
    """
    manifest.validate()
    if not manifest.source.exists():
        raise FileNotFoundError(f"stream source not found: {manifest.source}")

    with open(manifest.source, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = _read_rows(reader, 1)
        if not first:
            raise ValueError("empty CSV: no header row")
        header = [c.strip() for c in first[0]]
        repeated = sorted(name for name, count in Counter(header).items() if count > 1)
        if repeated:
            raise ValueError(f"repeated CSV header names: {repeated}")

        col_index = {name: i for i, name in enumerate(header)}
        needed = {manifest.target_column, manifest.sensitive_column, *manifest.categorical_columns}
        missing = sorted(c for c in needed if c not in col_index)
        if missing:
            raise ValueError(f"columns missing from CSV header: {missing}")

        feature_cols = [
            c
            for c in header
            if c != manifest.target_column
            and not (manifest.drop_sensitive and c == manifest.sensitive_column)
        ]
        if not feature_cols:
            raise ValueError("no feature columns left after applying the manifest")
        categorical = set(manifest.categorical_columns)
        if not manifest.drop_sensitive:
            categorical.add(manifest.sensitive_column)
        categorical &= set(feature_cols)

        protected = set(manifest.protected_values)
        unprotected = set(manifest.unprotected_values)
        t_idx = col_index[manifest.target_column]
        s_idx = col_index[manifest.sensitive_column]

        numeric_cols = [c for c in feature_cols if c not in categorical]
        num_idx = [col_index[c] for c in numeric_cols]
        cat_cols = [c for c in feature_cols if c in categorical]
        cat_idx = {c: col_index[c] for c in cat_cols}

        rejected = 0
        # Accepted rows: scaled numeric values, row-major; per categorical
        # column a first-seen vocabulary and each row's code in it; groups
        # and labels as bytes.
        scaled = array("d")
        extremes = np.repeat([[np.inf], [-np.inf]], len(num_idx), axis=1)
        vocabs: dict[str, dict[str, int]] = {c: {} for c in cat_cols}
        codes = {c: array("q") for c in cat_cols}
        groups = bytearray()
        labels = bytearray()

        n_header = len(header)
        block_rows = max(1, _INGEST_CELLS // n_header)
        while rows := _read_rows(reader, block_rows):
            block_values: list[float] = []
            for raw in rows:
                if len(raw) != n_header:
                    rejected += 1
                    continue
                cells = [c.strip() for c in raw]
                target = cells[t_idx]
                if target == "":
                    rejected += 1
                    continue
                sens = cells[s_idx]
                if sens in protected:
                    grp = 1
                elif sens in unprotected:
                    grp = 0
                else:
                    rejected += 1
                    continue
                numeric: list[float] = []
                ok = True
                for j in num_idx:
                    cell = cells[j]
                    if cell == "":
                        ok = False
                        break
                    try:
                        val = float(cell)
                    except ValueError:
                        ok = False
                        break
                    if not abs(val) <= _FEATURE_BOUND:
                        ok = False
                        break
                    numeric.append(val)
                if ok:
                    for c in cat_cols:
                        if cells[cat_idx[c]] == "":
                            ok = False
                            break
                if not ok:
                    rejected += 1
                    continue
                block_values.extend(numeric)
                for c in cat_cols:
                    vocab = vocabs[c]
                    codes[c].append(vocab.setdefault(cells[cat_idx[c]], len(vocab)))
                groups.append(grp)
                labels.append(1 if target == manifest.positive_label else 0)
            if block_values:
                block = np.array(block_values, dtype=np.float64).reshape(-1, len(num_idx))
                scaled.frombytes(_scale_running(block, extremes).tobytes())

    n = len(labels)
    if n == 0:
        raise ValueError("no usable rows in stream source")

    # One-hot columns in each column's sorted vocabulary, as if the whole
    # column had been read before encoding.
    categories = {c: sorted(vocabs[c]) for c in cat_cols}
    feature_names: list[str] = []
    for c in feature_cols:
        feature_names.extend([f"{c}={cat}" for cat in categories[c]] if c in categorical else [c])
    features = np.zeros((n, len(feature_names)), dtype=np.float64)
    num_norm = np.frombuffer(scaled, dtype=np.float64).reshape(n, len(numeric_cols))
    num_pos = {c: j for j, c in enumerate(numeric_cols)}
    col = 0
    for c in feature_cols:
        if c in categorical:
            rank = np.empty(len(categories[c]), dtype=np.int64)
            rank[[vocabs[c][cat] for cat in categories[c]]] = np.arange(len(categories[c]))
            features[np.arange(n), col + rank[np.frombuffer(codes[c], dtype=np.int64)]] = 1.0
            col += len(categories[c])
        else:
            features[:, col] = num_norm[:, num_pos[c]]
            col += 1

    chunks = chunk_arrays(
        features,
        np.frombuffer(groups, dtype=np.uint8),
        np.frombuffer(labels, dtype=np.uint8),
        manifest.window_size,
    )
    return IngestResult(chunks, feature_names, rejected, n)


def dataset_discrimination(chunks: Sequence[Chunk]) -> float:
    """Positive-label rate gap between protected and unprotected instances.

    Uses the true labels of the whole stream, so the result measures the data
    itself rather than any classifier: :func:`metrics.discrimination` with
    the labels as predictions.
    """
    if len(chunks):
        gap = discrimination(
            np.concatenate([chunk.labels for chunk in chunks]), np.concatenate([chunk.groups for chunk in chunks])
        )
        if not gap.degenerate:
            return gap.value
    raise ValueError("both groups must be present to measure discrimination")


# ---------------------------------------------------------------------------
# Synthetic biased stream
# ---------------------------------------------------------------------------

# Swing applied to the positive-label probability depending on which side of
# the active concept an instance falls (half above, half below the base rate).
_CONCEPT_EFFECT = 0.6


@dataclass
class GroupRates:
    """Positive-label base rate per group."""

    protected: float
    unprotected: float


@dataclass
class BiasStreamConfig:
    """Parameters of the synthetic biased stream.

    Feature layout: ``d_informative`` concept features, then ``d_noise``
    noise features, then one proxy feature in the last position. The proxy
    equals the group indicator with probability (1 + proxy_strength) / 2, so
    its correlation with the group is proxy_strength in expectation. Labels
    follow the group base rate shifted up or down by the active concept, and
    a fresh concept is drawn at every drift point.
    """

    n_instances: int
    d_informative: int = 5
    d_noise: int = 2
    proxy_strength: float = 0.5
    base_rates: GroupRates = field(default_factory=lambda: GroupRates(0.5, 0.5))
    drift_points: tuple[int, ...] = ()
    seed: int = 0
    window_size: int = 1000

    def __post_init__(self) -> None:
        if isinstance(self.base_rates, dict):
            self.base_rates = from_mapping(GroupRates, self.base_rates, "base_rates")
        self.drift_points = tuple(int(p) for p in self.drift_points)

    def validate(self) -> None:
        if self.n_instances < 1:
            raise ValueError("n_instances must be positive")
        if self.d_informative < 1 or self.d_noise < 0:
            raise ValueError("need at least one informative feature, noise count >= 0")
        if not 0.0 <= self.proxy_strength <= 1.0:
            raise ValueError("proxy_strength must lie in [0, 1]")
        for rate in (self.base_rates.protected, self.base_rates.unprotected):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("base rates must lie in [0, 1]")
        if list(self.drift_points) != sorted(set(self.drift_points)):
            raise ValueError("drift_points must be strictly increasing")
        if self.drift_points and not (
            0 < self.drift_points[0] and self.drift_points[-1] < self.n_instances
        ):
            raise ValueError("drift_points must fall strictly inside the stream")
        if self.window_size < 10:
            raise ValueError("window_size must be at least 10")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def n_features(self) -> int:
        return self.d_informative + self.d_noise + 1

    @classmethod
    def from_json(cls, path: str | Path) -> "BiasStreamConfig":
        with open(path, encoding="utf-8") as fh:
            return from_mapping(cls, json.load(fh), "generator")

    def to_json(self, path: str | Path) -> None:
        write_json(asdict(self), path)


def generate_bias_stream(config: BiasStreamConfig) -> list[Chunk]:
    """Draw the configured stream deterministically from its seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.n_instances

    groups = rng.integers(0, 2, n).astype(np.uint8)
    agree = rng.random(n) < (1.0 + config.proxy_strength) / 2.0
    proxy = np.where(agree, groups, 1 - groups).astype(np.float64)
    x_inf = rng.random((n, config.d_informative))
    x_noise = rng.random((n, config.d_noise))
    label_draw = rng.random(n)

    # One concept per segment: a random linear rule through the informative
    # features, thresholded at the segment median so both sides stay balanced.
    concept = np.empty(n, dtype=np.float64)
    bounds = [0, *config.drift_points, n]
    for a, b in zip(bounds[:-1], bounds[1:]):
        w = rng.standard_normal(config.d_informative)
        proj = x_inf[a:b] @ w
        concept[a:b] = (proj >= np.median(proj)).astype(np.float64)

    base = np.where(groups == 1, config.base_rates.protected, config.base_rates.unprotected)
    prob = np.clip(base + _CONCEPT_EFFECT * (concept - 0.5), 0.0, 1.0)
    labels = (label_draw < prob).astype(np.uint8)

    features = np.hstack([x_inf, x_noise, proxy[:, None]])
    return chunk_arrays(features, groups, labels, config.window_size)


def write_stream_csv(chunks: Sequence[Chunk], path: str | Path) -> None:
    """Dump chunks as a headered CSV (features, group, label)."""
    if not chunks:
        raise ValueError("nothing to write")
    d = chunks[0].n_features
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d)] + ["group", "label"])
        for chunk in chunks:
            for i in range(len(chunk)):
                row = [repr(float(v)) for v in chunk.features[i]]
                row.append("protected" if chunk.groups[i] == 1 else "unprotected")
                row.append(str(int(chunk.labels[i])))
                writer.writerow(row)


def manifest_for_generated(config: BiasStreamConfig, csv_path: str | Path) -> StreamManifest:
    """Manifest that re-ingests a CSV produced by :func:`write_stream_csv`.

    The group column is dropped from the features to mirror the generator's
    own layout; re-ingested numeric columns go through running min-max again,
    so early values can differ slightly from the directly generated stream.
    """
    return StreamManifest(
        source=Path(csv_path),
        target_column="label",
        positive_label="1",
        sensitive_column="group",
        protected_values=("protected",),
        unprotected_values=("unprotected",),
        categorical_columns=(),
        window_size=config.window_size,
        drop_sensitive=True,
    )
