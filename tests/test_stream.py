import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chunk
from emosam import stream
from emosam.stream import (
    _FEATURE_BOUND,
    BiasStreamConfig,
    Chunk,
    GroupRates,
    StreamManifest,
    chunk_arrays,
    dataset_discrimination,
    generate_bias_stream,
    ingest,
    manifest_for_generated,
    write_stream_csv,
)
from oracles import reference_ingest


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def basic_manifest(path, **overrides):
    kwargs = dict(
        source=path,
        target_column="y",
        positive_label="yes",
        sensitive_column="s",
        protected_values=("a",),
        unprotected_values=("b",),
        window_size=10,
    )
    kwargs.update(overrides)
    return StreamManifest(**kwargs)


# -- chunk model -------------------------------------------------------------------


def test_chunk_validation():
    with pytest.raises(ValueError):
        make_chunk(np.empty((0, 2)), [], [])
    with pytest.raises(ValueError):
        make_chunk([[0.1, np.nan]], [0], [1])
    with pytest.raises(ValueError):
        make_chunk([[0.1, 0.2]], [2], [1])
    with pytest.raises(ValueError):
        make_chunk([[0.1, 0.2]], [0], [3])
    with pytest.raises(ValueError):
        Chunk(np.ones((1, 2)), np.zeros(1, np.uint8), np.ones(1, np.uint8), 0)
    # checked before the cast to uint8, which would round 0.5 and 1.7 and
    # raise OverflowError on -1
    for groups, labels in (([0.5, 1], [0, 1]), ([0, 1], [1.7, 0]), ([-1, 0], [0, 1]), ([0, 1], [0, -1])):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Chunk(np.zeros((2, 1)), groups, labels, 1)
    chunk = Chunk(np.zeros((2, 1)), [1.0, 0.0], [True, False], 1)
    assert chunk.groups.dtype == chunk.labels.dtype == np.uint8
    assert chunk.groups.tolist() == chunk.labels.tolist() == [1, 0]


# magnitudes on both sides of the bound, up to the largest float64
FEATURE_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([_FEATURE_BOUND, -_FEATURE_BOUND, 1.0000001e100, -1e200, 1e300, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_chunk_rejects_features_beyond_the_bound(data):
    n, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    feats = np.array(data.draw(st.lists(st.lists(FEATURE_VALUES, min_size=d, max_size=d), min_size=n, max_size=n)))
    if np.abs(feats).max() <= _FEATURE_BOUND:
        np.testing.assert_array_equal(make_chunk(feats, [0] * n, [1] * n).features, feats)
    else:
        with pytest.raises(ValueError, match="magnitude"):
            make_chunk(feats, [0] * n, [1] * n)


@given(values=st.lists(FEATURE_VALUES, min_size=12, max_size=30))
@settings(max_examples=100, deadline=None)
def test_ingest_rejects_and_counts_cells_beyond_the_bound(values):
    # Huge raw values made the running span overflow to inf (inf / inf is
    # NaN), so one such row failed the whole ingestion.
    rows = [[repr(v), "ab"[i % 2], "yes" if i % 3 else "no"] for i, v in enumerate(values)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_csv(path, ["f0", "s", "y"], rows)
        kept = [v for v in values if abs(v) <= _FEATURE_BOUND]
        if not kept:
            with pytest.raises(ValueError, match="no usable rows"):
                ingest(basic_manifest(path))
            return
        result = ingest(basic_manifest(path))
    assert result.rejected_rows == len(values) - len(kept)
    assert result.n_instances == len(kept)
    feats = np.vstack([c.features for c in result.chunks])
    assert ((feats >= 0.0) & (feats <= 1.0)).all()


def test_chunk_arrays_are_frozen(random_chunk):
    with pytest.raises(ValueError):
        random_chunk.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        random_chunk.labels[0] = 0


def test_chunk_arrays_partition(rng):
    chunks = chunk_arrays(rng.random((5, 2)), np.zeros(5, np.uint8), np.ones(5, np.uint8), 2)
    assert [len(c) for c in chunks] == [2, 2, 1]
    assert [c.index for c in chunks] == [1, 2, 3]


# -- manifest ------------------------------------------------------------------------


def test_manifest_requires_disjoint_groups(tmp_path):
    with pytest.raises(ValueError):
        basic_manifest(tmp_path / "x.csv", protected_values=("a",), unprotected_values=("a",)).validate()


def test_manifest_rejects_small_window(tmp_path):
    with pytest.raises(ValueError):
        basic_manifest(tmp_path / "x.csv", window_size=5).validate()


def test_manifest_json_roundtrip_and_unknown_keys(tmp_path):
    csv_path = tmp_path / "data.csv"
    manifest = basic_manifest(csv_path, categorical_columns=("c",))
    mpath = tmp_path / "manifest.json"
    manifest.to_json(mpath)
    loaded = StreamManifest.from_json(mpath)
    assert loaded == manifest
    assert mpath.read_text().startswith(f'{{\n  "source": {json.dumps(str(csv_path))},\n')

    blob = json.loads(mpath.read_text())
    blob["surprise"] = 1
    mpath.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="surprise"):
        StreamManifest.from_json(mpath)
    del blob["surprise"], blob["target_column"]
    mpath.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="target_column"):
        StreamManifest.from_json(mpath)


def test_manifest_resolves_relative_source(tmp_path):
    mpath = tmp_path / "manifest.json"
    manifest = basic_manifest("data.csv")
    manifest = StreamManifest(**{**manifest.__dict__, "source": "data.csv"})
    manifest.to_json(mpath)
    loaded = StreamManifest.from_json(mpath)
    assert loaded.source == tmp_path / "data.csv"


# -- ingestion -----------------------------------------------------------------------


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest(basic_manifest(tmp_path / "absent.csv"))


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["f0", "y"], [[0.5, "yes"]])
    with pytest.raises(ValueError):
        ingest(basic_manifest(path))


def test_ingest_partitions_and_encodes(tmp_path):
    path = tmp_path / "d.csv"
    rows = [[i / 30, "a" if i % 2 else "b", "yes" if i % 3 else "no"] for i in range(30)]
    write_csv(path, ["f0", "s", "y"], rows)
    result = ingest(basic_manifest(path))
    assert [len(c) for c in result.chunks] == [10, 10, 10]
    assert result.rejected_rows == 0
    assert result.n_instances == 30
    # sensitive column kept and auto one-hot in lexicographic order
    assert result.feature_names == ["f0", "s=a", "s=b"]
    for chunk in result.chunks:
        assert chunk.features.min() >= 0.0 and chunk.features.max() <= 1.0


def test_ingest_rejects_bad_rows(tmp_path):
    path = tmp_path / "d.csv"
    rows = [
        ["0.1", "a", "yes"],
        ["0.2", "c", "yes"],  # sensitive value in neither group
        ["oops", "b", "no"],  # unparseable numeric
        ["0.3", "a", ""],  # empty target
        ["0.4", "b", "no", "extra"],  # wrong arity
        ["", "b", "no"],  # empty feature cell
        ["inf", "b", "no"],  # non-finite numeric
    ] + [["0.5", "b", "no"]] * 9
    write_csv(path, ["f0", "s", "y"], rows)
    result = ingest(basic_manifest(path))
    assert result.rejected_rows == 6
    assert result.n_instances == 10


def test_ingest_zero_usable_rows(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["f0", "s", "y"], [["0.1", "zzz", "yes"]])
    with pytest.raises(ValueError):
        ingest(basic_manifest(path))


def test_ingest_constant_column_normalizes_to_zero(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["f0", "s", "y"], [[7.5, "a" if i % 2 else "b", "yes"] for i in range(12)])
    result = ingest(basic_manifest(path))
    feats = np.vstack([c.features for c in result.chunks])
    assert (feats[:, 0] == 0.0).all()


def test_ingest_running_minmax_never_peeks(tmp_path):
    path = tmp_path / "d.csv"
    values = [5.0, 1.0, 9.0, 5.0]
    rows = [[v, "a" if i % 2 else "b", "yes"] for i, v in enumerate(values)] * 3
    write_csv(path, ["f0", "s", "y"], rows)
    result = ingest(basic_manifest(path))
    feats = np.vstack([c.features for c in result.chunks])
    # first value: constant so far -> 0; second: new minimum -> 0;
    # third: new maximum -> 1; fourth: (5-1)/(9-1) = 0.5
    np.testing.assert_allclose(feats[:4, 0], [0.0, 0.0, 1.0, 0.5])


def test_ingest_drop_sensitive_removes_column(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["f0", "s", "y"], [[i / 12, "a" if i % 2 else "b", "yes"] for i in range(12)])
    result = ingest(basic_manifest(path, drop_sensitive=True))
    assert result.feature_names == ["f0"]
    groups = np.concatenate([c.groups for c in result.chunks])
    assert set(groups.tolist()) == {0, 1}


def test_ingest_is_deterministic(tmp_path, rng):
    path = tmp_path / "d.csv"
    rows = [
        [rng.random(), "x" if rng.random() < 0.3 else "z", "a" if i % 2 else "b", "yes" if rng.random() < 0.5 else "no"]
        for i in range(40)
    ]
    write_csv(path, ["f0", "c", "s", "y"], rows)
    manifest = basic_manifest(path, categorical_columns=("c",))
    one = ingest(manifest)
    two = ingest(manifest)
    assert one.feature_names == two.feature_names
    for a, b in zip(one.chunks, two.chunks):
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.groups, b.groups)
        np.testing.assert_array_equal(a.labels, b.labels)


def test_ingest_rejects_repeated_header_names(tmp_path):
    # Otherwise the last of two equal names wins and both features read its column.
    path = tmp_path / "d.csv"
    write_csv(path, ["f0", " f0 ", "s", "y"], [[i / 12, 1 - i / 12, "ab"[i % 2], "yes"] for i in range(12)])
    with pytest.raises(ValueError, match="repeated CSV header names: \\['f0'\\]"):
        ingest(basic_manifest(path))


def test_ingest_reports_unparseable_csv_line_as_value_error(tmp_path):
    path = tmp_path / "d.csv"
    rows = [[0.5, "ab"[i % 2], "yes"] for i in range(12)]
    rows.insert(3, ["x" * (csv.field_size_limit() + 1), "a", "yes"])
    write_csv(path, ["f0", "s", "y"], rows)
    with pytest.raises(ValueError, match="CSV line 5: field larger than field limit"):
        ingest(basic_manifest(path))


def _cells(clean, odd):
    """Mostly ``clean`` cells; otherwise ``odd`` ones with Unicode whitespace or NUL around them."""
    pad = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003", "\x00"])
    odd = st.tuples(pad, odd, pad).map("".join)
    return st.sampled_from([False] * 7 + [True]).flatmap(lambda is_odd: odd if is_odd else clean)


NUMERIC_CELLS = _cells(
    st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-50, 50).map(str)),
    st.one_of(
        st.sampled_from(["-0", "1_000", "nan", "-inf", "1e400", "0x1", "\u0663", "1e100", "-1e100",
                         "1.0000001e100", "", "abc"]),
        st.floats().map(repr),
    ),
)
CATEGORY_CELLS = _cells(st.sampled_from(["x", "y", "z"]), st.sampled_from(["a,b", "two\nlines", 'say "q"', "\u00fc", ""]))
GROUP_CELLS = _cells(st.sampled_from(["a", "b"]), st.sampled_from(["a", "c", "", "a\x00"]))
TARGET_CELLS = _cells(st.sampled_from(["yes", "no"]), st.sampled_from(["yes", "", "maybe"]))


@st.composite
def csv_streams(draw):
    """A manifest's settings and CSV text: ragged rows, blank lines, quoted cells, odd numerics."""
    n_num, n_cat = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    columns = [f"n{j}" for j in range(n_num)] + [f"c{j}" for j in range(n_cat)] + ["s", "y"]
    columns = draw(st.permutations(columns))
    cells = {"s": GROUP_CELLS, "y": TARGET_CELLS}
    row = st.tuples(*(cells.get(c, CATEGORY_CELLS if c[0] == "c" else NUMERIC_CELLS) for c in columns)).map(list)
    ragged = st.one_of(row.map(lambda r: r[:-1]), row.map(lambda r: r + ["1"]), st.just(None))
    n_rows = draw(st.sampled_from(range(61)))
    shapes = st.sampled_from([False] * 7 + [True]).flatmap(lambda is_ragged: ragged if is_ragged else row)
    rows = draw(st.lists(shapes, min_size=n_rows, max_size=n_rows))
    header = [draw(st.sampled_from(["", " ", "\u2003"])) + c for c in columns]
    if draw(st.sampled_from([False] * 19 + [True])):
        header[-1] = header[0]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for r in rows:
        if r is None:
            text.write("\r\n")
        else:
            writer.writerow(r)
    categorical = tuple(c for c in columns if c[0] == "c")
    return text.getvalue(), categorical, draw(st.booleans()), draw(st.integers(10, 15))


@pytest.mark.parametrize("block_rows", [1, 3, None])
@given(case=csv_streams())
@settings(max_examples=150, deadline=None)
def test_ingest_equals_whole_file_oracle_at_any_block_size(block_rows, case):
    text, categorical, drop_sensitive, window = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        manifest = basic_manifest(path, categorical_columns=categorical, drop_sensitive=drop_sensitive,
                                  window_size=window)
        width = len(next(csv.reader(io.StringIO(text))))
        cells = stream._INGEST_CELLS if block_rows is None else block_rows * width
        with mock.patch.object(stream, "_INGEST_CELLS", cells):
            try:
                want = reference_ingest(manifest)
            except ValueError:
                with pytest.raises(ValueError):
                    ingest(manifest)
                return
            got = ingest(manifest)
    features, groups, labels, names, rejected = want
    assert got.feature_names == names
    assert got.rejected_rows == rejected
    assert got.n_instances == len(labels)
    assert [c.index for c in got.chunks] == list(range(1, -(-len(labels) // window) + 1))
    for chunk in got.chunks:
        rows = slice((chunk.index - 1) * window, chunk.index * window)
        want_bits = np.ascontiguousarray(features[rows]).view(np.uint64)
        np.testing.assert_array_equal(chunk.features.view(np.uint64), want_bits)
        np.testing.assert_array_equal(chunk.groups, groups[rows])
        np.testing.assert_array_equal(chunk.labels, labels[rows])


def test_ingest_peak_memory_beyond_the_result_does_not_grow_with_the_stream(tmp_path):
    # Beside the chunks it returns, ingestion holds the scaled numeric values
    # and the assembled feature matrix, each the size of the result's
    # features, and the groups' and labels' bytes: about twice the result,
    # allowed three times its growth here. Reading every row into Python
    # strings and floats first costs about 1.6 KB a row, some 24 times the
    # 66 bytes a row of the result at d = 8. Blocks of 2^12 cells (409 rows
    # of 10) put several blocks in both streams; at the default budget the
    # 2000-row stream would fit in one block smaller than the other's.
    extra, held = [], []
    for n in (2000, 8000):
        config = BiasStreamConfig(n_instances=n, seed=1, window_size=500)
        path = tmp_path / f"stream{n}.csv"
        write_stream_csv(generate_bias_stream(config), path)
        manifest = manifest_for_generated(config, path)
        tracemalloc.start()
        try:
            with mock.patch.object(stream, "_INGEST_CELLS", 2**12):
                result = ingest(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held.append(sum(c.features.nbytes + c.groups.nbytes + c.labels.nbytes for c in result.chunks))
        extra.append(peak - held[-1])
    assert extra[1] - extra[0] < 3 * (held[1] - held[0])


# -- dataset discrimination -----------------------------------------------------------


def test_dataset_discrimination_equal_rates():
    chunk = make_chunk(np.zeros((4, 1)), [1, 1, 0, 0], [1, 1, 1, 1])
    assert dataset_discrimination([chunk]) == 0.0


def test_dataset_discrimination_hand_count():
    groups = [1, 1, 1, 1, 0, 0, 0, 0]
    labels = [1, 1, 1, 0, 1, 0, 0, 0]
    chunk = make_chunk(np.zeros((8, 1)), groups, labels)
    assert dataset_discrimination([chunk]) == pytest.approx(0.5)


def test_dataset_discrimination_needs_both_groups():
    chunk = make_chunk(np.zeros((3, 1)), [1, 1, 1], [1, 0, 1])
    with pytest.raises(ValueError):
        dataset_discrimination([chunk])


def test_dataset_discrimination_matches_counter(rng):
    from oracles import counting_discrimination

    for _ in range(25):
        n = int(rng.integers(2, 500))
        groups = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        if len(set(groups.tolist())) < 2:
            continue
        chunks = chunk_arrays(rng.random((n, 2)), groups.astype(np.uint8), labels.astype(np.uint8), max(10, n // 3))
        want, _ = counting_discrimination(labels, groups)
        assert dataset_discrimination(chunks) == pytest.approx(want, abs=1e-12)


# -- generator -----------------------------------------------------------------------


def test_generator_deterministic():
    config = BiasStreamConfig(n_instances=500, seed=3, window_size=100)
    a = generate_bias_stream(config)
    b = generate_bias_stream(config)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.features, y.features)
        np.testing.assert_array_equal(x.groups, y.groups)
        np.testing.assert_array_equal(x.labels, y.labels)


def test_generator_zero_proxy_strength_uncorrelated():
    config = BiasStreamConfig(n_instances=10_000, proxy_strength=0.0, seed=1, window_size=1000)
    chunks = generate_bias_stream(config)
    proxy = np.concatenate([c.features[:, -1] for c in chunks])
    groups = np.concatenate([c.groups for c in chunks]).astype(np.float64)
    corr = np.corrcoef(proxy, groups)[0, 1]
    assert abs(corr) <= 0.05


def test_generator_symmetric_config_near_zero_discrimination():
    config = BiasStreamConfig(
        n_instances=10_000,
        proxy_strength=0.0,
        base_rates=GroupRates(0.5, 0.5),
        seed=2,
        window_size=1000,
    )
    chunks = generate_bias_stream(config)
    assert abs(dataset_discrimination(chunks)) <= 0.03


def test_generator_strong_proxy_tracks_group():
    config = BiasStreamConfig(n_instances=10_000, proxy_strength=0.8, seed=4, window_size=1000)
    chunks = generate_bias_stream(config)
    proxy = np.concatenate([c.features[:, -1] for c in chunks])
    groups = np.concatenate([c.groups for c in chunks]).astype(np.float64)
    agree = float((proxy == groups).mean())
    assert agree == pytest.approx(0.9, abs=0.02)  # (1 + 0.8) / 2


def test_generator_biased_config_shows_group_gap():
    config = BiasStreamConfig(
        n_instances=10_000,
        base_rates=GroupRates(0.65, 0.35),
        proxy_strength=0.8,
        seed=5,
        window_size=1000,
    )
    assert dataset_discrimination(generate_bias_stream(config)) == pytest.approx(0.3, abs=0.05)


def test_generator_config_validation():
    with pytest.raises(ValueError):
        BiasStreamConfig(n_instances=0).validate()
    with pytest.raises(ValueError):
        BiasStreamConfig(n_instances=100, proxy_strength=1.5).validate()
    with pytest.raises(ValueError):
        BiasStreamConfig(n_instances=100, drift_points=(50, 50), window_size=10).validate()
    with pytest.raises(ValueError):
        BiasStreamConfig(n_instances=100, drift_points=(100,), window_size=10).validate()


def test_generator_config_json_roundtrip(tmp_path):
    config = BiasStreamConfig(
        n_instances=1000,
        d_informative=4,
        d_noise=1,
        proxy_strength=0.6,
        base_rates=GroupRates(0.7, 0.3),
        drift_points=(400,),
        seed=9,
        window_size=100,
    )
    path = tmp_path / "gen.json"
    config.to_json(path)
    assert BiasStreamConfig.from_json(path) == config
    assert path.read_text() == (
        '{\n  "n_instances": 1000,\n  "d_informative": 4,\n  "d_noise": 1,\n  "proxy_strength": 0.6,\n'
        '  "base_rates": {\n    "protected": 0.7,\n    "unprotected": 0.3\n  },\n'
        '  "drift_points": [\n    400\n  ],\n  "seed": 9,\n  "window_size": 100\n}\n'
    )


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda blob: blob.update(surprise=1), "surprise"),
        (lambda blob: blob["base_rates"].update(majority=0.5), "majority"),
        (lambda blob: blob.pop("n_instances"), "n_instances"),
        (lambda blob: blob["base_rates"].pop("unprotected"), "unprotected"),
    ],
)
def test_generator_config_rejects_unknown_and_missing_keys(tmp_path, edit, key):
    path = tmp_path / "gen.json"
    BiasStreamConfig(n_instances=100, window_size=10).to_json(path)
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=key):
        BiasStreamConfig.from_json(path)


def test_csv_roundtrip_preserves_groups_and_labels(tmp_path):
    config = BiasStreamConfig(n_instances=300, seed=6, window_size=50)
    chunks = generate_bias_stream(config)
    csv_path = tmp_path / "stream.csv"
    write_stream_csv(chunks, csv_path)
    manifest = manifest_for_generated(config, csv_path)
    result = ingest(manifest)
    assert result.n_instances == 300
    got_groups = np.concatenate([c.groups for c in result.chunks])
    got_labels = np.concatenate([c.labels for c in result.chunks])
    np.testing.assert_array_equal(got_groups, np.concatenate([c.groups for c in chunks]))
    np.testing.assert_array_equal(got_labels, np.concatenate([c.labels for c in chunks]))
    assert len(result.feature_names) == config.n_features
