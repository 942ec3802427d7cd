"""Stream engine coupling the weighted memory KNN to trend-triggered
feature-weight optimization.

Every window is processed prequentially: predict with the current front of
weight vectors, score accuracy and discrimination, push the absolute
discrimination into the bounded history, ask the trigger policy whether
optimization should run, and only then fit the window into the memory bank.
A firing trigger replaces the front with the optimizer's archive (searched on
the window just scored, with the frozen copy of the not-yet-updated bank it
was predicted by, and scored by the window's own metrics; its first sweep
reuses the votes the window's prediction computed) and clears the
history, so freshly optimized weights first influence the next window.

With all-ones initial weights and a trigger that never fires the engine is
behaviorally identical to the plain memory classifier, which
:func:`run_sam_baseline` also implements as a loop of its own: the
reference the tests and the benchmark compare that configuration with.

Window one is special: an empty bank cannot vote, so every prediction falls
back to the configured tie label, and a trigger cannot fire until the bank
holds at least one instance.
"""

from __future__ import annotations

import json
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .metrics import WindowRecord, accuracy, discrimination
from .samknn import (
    DEFAULT_K,
    DEFAULT_LTM_CAP,
    DEFAULT_MIN_STM,
    DEFAULT_STM_CAP,
    DEFAULT_TRACKER_DECAY,
    FrozenChunkPredictor,
    MemoryBank,
    check_bank_params,
    check_weights,
)
from .smpso import Archive, ObjectivePair, SmpsoParams, knee_index, smpso_minimize
from .stream import Chunk, from_mapping
from .trend import (
    DEFAULT_MIN_INCREASE,
    DEFAULT_SMOOTHING,
    DEFAULT_TREND_THRESHOLD,
    HISTORY_CAPACITY,
    MAX_SMOOTHING,
    DiscriminationHistory,
    should_trigger_every,
    should_trigger_hp,
    should_trigger_previous,
)

__all__ = [
    "TriggerPolicy",
    "SelectionStrategy",
    "InitMode",
    "ParetoSolution",
    "EngineConfig",
    "EmosamEngine",
    "RunResult",
    "RunSummary",
    "run_stream",
    "run_sam_baseline",
    "optimize_weights",
]

_INIT_TAG = 1
_SMPSO_TAG = 2
_SELECT_TAG = 3
_CHECKPOINT_MAGIC = b"EMOC"
_CHECKPOINT_VERSION = 4
_CHECKPOINT_FIELDS = frozenset({"dim", "config", "window_index", "trigger_count", "designated", "history", "front"})


class TriggerPolicy(str, Enum):
    HP = "hp"
    EVERY = "every"
    PREVIOUS = "previous"


class SelectionStrategy(str, Enum):
    MAJORITY = "majority"
    RANDOM = "random"
    KNEE = "knee"


class InitMode(str, Enum):
    ONES = "ones"
    RANDOM = "random"


@dataclass
class ParetoSolution:
    """One front member: a weight vector and, once evaluated, its objectives."""

    alpha: np.ndarray
    objectives: ObjectivePair | None = None


@dataclass
class EngineConfig:
    """Everything that shapes a run; two runs with equal configs and equal
    streams produce identical predictions and records (wall time aside)."""

    trigger: TriggerPolicy = TriggerPolicy.HP
    selection: SelectionStrategy = SelectionStrategy.MAJORITY
    trend_threshold: float = DEFAULT_TREND_THRESHOLD
    min_increase: float = DEFAULT_MIN_INCREASE
    hp_smoothing: float = DEFAULT_SMOOTHING
    init_mode: InitMode = InitMode.ONES
    n_init_random: int = 10
    warm_start: bool = True
    tie_label: int = 1
    k: int = DEFAULT_K
    stm_cap: int = DEFAULT_STM_CAP
    ltm_cap: int = DEFAULT_LTM_CAP
    min_stm_size: int = DEFAULT_MIN_STM
    tracker_decay: float = DEFAULT_TRACKER_DECAY
    history_capacity: int = HISTORY_CAPACITY
    smpso: SmpsoParams = field(default_factory=SmpsoParams)
    seed: int = 0

    def __post_init__(self) -> None:
        self.trigger = TriggerPolicy(self.trigger)
        self.selection = SelectionStrategy(self.selection)
        self.init_mode = InitMode(self.init_mode)
        if isinstance(self.smpso, dict):
            self.smpso = from_mapping(SmpsoParams, self.smpso, "smpso")

    def validate(self) -> None:
        # Thresholds above 1 are allowed on purpose: an absolute
        # discrimination never exceeds 1, so e.g. 1.01 (or +inf) makes the
        # rising-trend policy a clean "never fire" switch for baselines. NaN,
        # which JSON configs may carry, would never fire silently.
        if not (self.trend_threshold >= 0.0 and self.min_increase >= 0.0):
            raise ValueError("trend_threshold and min_increase must be non-negative, not NaN")
        if not 0.0 < self.hp_smoothing <= MAX_SMOOTHING:
            raise ValueError(f"hp_smoothing must lie in (0, {MAX_SMOOTHING:g}]")
        if self.n_init_random < 1:
            raise ValueError("n_init_random must be positive")
        if self.tie_label not in (0, 1):
            raise ValueError("tie_label must be 0 or 1")
        # The hp rule needs 3 values and the previous rule 2: a shorter
        # history would never fire.
        shortest = {TriggerPolicy.HP: 3, TriggerPolicy.PREVIOUS: 2}.get(self.trigger, 1)
        if self.history_capacity < shortest:
            raise ValueError(f"history_capacity must be at least {shortest} for the {self.trigger.value} trigger")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        check_bank_params(self.k, self.stm_cap, self.ltm_cap, self.min_stm_size, self.tracker_decay)
        self.smpso.validate()

    def to_dict(self) -> dict:
        """Plain fields; the enums subclass ``str``, so ``json.dumps`` writes their values."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; ValueError naming any unknown key, nested ones too."""
        return from_mapping(cls, data, "engine config")


@dataclass
class RunSummary:
    """Whole-run aggregates over every prediction, not per-window averages."""

    windows: int
    instances: int
    accuracy: float
    discrimination: float
    abs_discrimination: float
    triggers: int
    wall_time_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    records: list[WindowRecord]
    summary: RunSummary
    predictions: list[np.ndarray]


class EmosamEngine:
    """Stateful prequential loop over chunks of a fixed dimensionality."""

    def __init__(self, dim: int, config: EngineConfig) -> None:
        config.validate()
        self.dim = dim
        self.config = config
        self.bank = MemoryBank(
            dim,
            k=config.k,
            stm_cap=config.stm_cap,
            ltm_cap=config.ltm_cap,
            min_stm_size=config.min_stm_size,
            tracker_decay=config.tracker_decay,
            seed=config.seed,
        )
        self.history = DiscriminationHistory(config.history_capacity)
        self.pareto_front = self._initial_front()
        self.designated = 0
        self.window_index = 0
        self.trigger_count = 0

    def _initial_front(self) -> list[ParetoSolution]:
        if self.config.init_mode is InitMode.ONES:
            return [ParetoSolution(np.ones(self.dim))]
        rng = np.random.default_rng([self.config.seed, _INIT_TAG])
        draws = rng.random((self.config.n_init_random, self.dim))
        return [ParetoSolution(draws[i]) for i in range(len(draws))]

    # -- per-window processing ------------------------------------------------

    def step(self, chunk: Chunk) -> tuple[np.ndarray, WindowRecord]:
        """Process one window; returns its predictions and their record."""
        if chunk.n_features != self.dim:
            raise ValueError("chunk dimensionality does not match the engine")
        start = time.perf_counter()
        self.window_index += 1

        # One frozen copy of the bank serves both prediction and re-tune.
        predictor = FrozenChunkPredictor(chunk.features, self.bank) if self.bank.stm_size else None
        preds, scored = self._predict_window(chunk, predictor)
        acc = accuracy(preds, chunk.labels)
        disc = discrimination(preds, chunk.groups)
        # A window missing one group has no defined parity gap; it must not
        # push the trigger either way.
        if not disc.degenerate:
            self.history.append(abs(disc.value))

        fired = self._trigger_decision() and predictor is not None
        if fired:
            self.trigger_count += 1
            warm = [s.alpha for s in self.pareto_front] if self.config.warm_start else None
            # Looked up as a module global: perfbench/harness.py (SearchTimer)
            # replaces engine.optimize_weights to time the re-tune.
            archive = optimize_weights(
                chunk,
                predictor,
                warm,
                self.config.smpso,
                [self.config.seed, _SMPSO_TAG, self.trigger_count],
                scored,
            )
            self.pareto_front = [
                ParetoSolution(e.position, ObjectivePair(*e.objectives)) for e in archive
            ]
            self._designate_member()
            self.history.clear()

        self.bank.fit_chunk(chunk)
        wall_ms = (time.perf_counter() - start) * 1000.0
        record = WindowRecord(
            window=self.window_index,
            accuracy=acc,
            discrimination=disc.value,
            abs_discrimination=abs(disc.value),
            triggered=fired,
            pareto_size=len(self.pareto_front),
            wall_time_ms=wall_ms,
        )
        return preds, record

    def _predict_window(
        self, chunk: Chunk, predictor: FrozenChunkPredictor | None
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """The window's predictions, and the weight vectors that made them with their (S, n) votes."""
        if predictor is None:
            return np.full(len(chunk), self.config.tie_label, dtype=np.uint8), None
        if self.config.selection is SelectionStrategy.MAJORITY:
            alphas = np.stack([sol.alpha for sol in self.pareto_front])
            votes = predictor.predict(alphas)
            total = votes.sum(axis=0, dtype=np.int64)
            n_members = len(self.pareto_front)
            preds = np.where(
                2 * total > n_members,
                1,
                np.where(2 * total < n_members, 0, self.config.tie_label),
            )
            return preds.astype(np.uint8), (alphas, votes)
        alphas = self.pareto_front[self.designated].alpha[None]
        votes = predictor.predict(alphas)
        return votes[0], (alphas, votes)

    def _trigger_decision(self) -> bool:
        cfg = self.config
        if cfg.trigger is TriggerPolicy.EVERY:
            return should_trigger_every()
        if cfg.trigger is TriggerPolicy.PREVIOUS:
            return should_trigger_previous(self.history, cfg.min_increase)
        return should_trigger_hp(self.history, cfg.trend_threshold, cfg.hp_smoothing)

    def _designate_member(self) -> None:
        if self.config.selection is SelectionStrategy.RANDOM:
            rng = np.random.default_rng([self.config.seed, _SELECT_TAG, self.trigger_count])
            self.designated = int(rng.integers(len(self.pareto_front)))
        elif self.config.selection is SelectionStrategy.KNEE:
            pairs = [s.objectives for s in self.pareto_front]
            self.designated = knee_index(np.asarray(pairs, dtype=np.float64))
        else:
            self.designated = 0

    # -- checkpointing -----------------------------------------------------------

    def save_checkpoint(self, path: str | Path) -> None:
        """Write a resumable snapshot (config, front, history, bank) with a CRC-32 trailer."""
        front = [
            {
                "alpha": [float(v) for v in s.alpha],
                "objectives": list(s.objectives) if s.objectives is not None else None,
            }
            for s in self.pareto_front
        ]
        head = {
            "dim": self.dim,
            "config": self.config.to_dict(),
            "window_index": self.window_index,
            "trigger_count": self.trigger_count,
            "designated": self.designated,
            "history": [float(v) for v in self.history.values],
            "front": front,
        }
        blob = json.dumps(head).encode("utf-8")
        data = b"".join(
            [_CHECKPOINT_MAGIC, struct.pack("<II", _CHECKPOINT_VERSION, len(blob)), blob, self.bank.to_bytes()]
        )
        with open(path, "wb") as fh:
            fh.write(data)
            fh.write(struct.pack("<I", zlib.crc32(data)))

    @classmethod
    def load_checkpoint(cls, path: str | Path) -> "EmosamEngine":
        """Resume from :meth:`save_checkpoint` output.

        A truncated or corrupt file, and a head that does not describe an
        engine for the stored bank, raise ValueError.
        """
        data = Path(path).read_bytes()
        if data[:4] != _CHECKPOINT_MAGIC:
            raise ValueError("not an engine checkpoint")
        if len(data) < 12:
            raise ValueError("truncated engine checkpoint header")
        version, size = struct.unpack("<II", data[4:12])
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if len(data) < 12 + size + 4:
            raise ValueError("truncated engine checkpoint")
        if struct.unpack("<I", data[-4:])[0] != zlib.crc32(data[:-4]):
            raise ValueError("engine checkpoint checksum mismatch")
        head = json.loads(data[12 : 12 + size].decode("utf-8"))
        bank = MemoryBank.from_bytes(data[12 + size : -4])
        try:
            return cls._from_head(head, bank)
        except (KeyError, TypeError) as exc:
            # A missing field or one of the wrong type, anywhere in the head.
            raise ValueError(f"malformed engine checkpoint head: {exc!r}") from exc

    @classmethod
    def _from_head(cls, head: dict, bank: MemoryBank) -> "EmosamEngine":
        """The engine a checkpoint head describes, around its restored bank."""
        if not isinstance(head, dict) or set(head) != _CHECKPOINT_FIELDS:
            raise ValueError(f"engine checkpoint head must hold exactly {sorted(_CHECKPOINT_FIELDS)}")
        engine = cls(head["dim"], EngineConfig.from_dict(head["config"]))
        settings = ("dim", "k", "stm_cap", "ltm_cap", "min_stm_size", "tracker_decay", "seed")
        if any(getattr(bank, name) != getattr(engine.bank, name) for name in settings):
            raise ValueError("engine checkpoint bank does not match its head")
        engine.bank = bank
        for name in ("window_index", "trigger_count", "designated"):
            value = head[name]
            if type(value) is not int or value < 0:
                raise ValueError(f"engine checkpoint {name} must be a non-negative integer")
            setattr(engine, name, value)
        history = _json_numbers(head["history"], "history")
        if len(history) > engine.history.capacity:
            raise ValueError("engine checkpoint history is longer than its capacity")
        for v in history:
            engine.history.append(v)
        if not head["front"]:
            raise ValueError("engine checkpoint front is empty")
        engine.pareto_front = []
        for s in head["front"]:
            alpha = check_weights(np.array(_json_numbers(s["alpha"], "front weights")), engine.dim)
            pair = s["objectives"]
            if pair is not None:
                pair = _json_numbers(pair, "front objectives")
                if len(pair) != 2 or not all(0.0 <= v <= 1.0 for v in pair):
                    raise ValueError("engine checkpoint front members need two objectives in [0, 1]")
                pair = ObjectivePair(*pair)
            engine.pareto_front.append(ParetoSolution(alpha, pair))
        if engine.designated >= len(engine.pareto_front):
            raise ValueError("engine checkpoint designates a member outside its front")
        return engine


def _json_numbers(values, what: str) -> list[float]:
    """A checkpoint's JSON list of numbers (not strings or booleans) as floats."""
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise ValueError(f"engine checkpoint {what} must be a list of numbers")
    return [float(v) for v in values]


def optimize_weights(
    chunk: Chunk,
    predictor: FrozenChunkPredictor,
    warm_start: Sequence[np.ndarray] | None,
    params: SmpsoParams,
    seed,
    scored: tuple[np.ndarray, np.ndarray] | None = None,
) -> Archive:
    """Search weight space on one scored window with the predictor it was predicted by.

    Each sweep of S weight vectors in [0, 1]^d is one kernel call, scored as
    an (S, n) stack by :func:`accuracy` and :func:`discrimination`, so every
    vector gets the (error rate, absolute discrimination) of its votes alone.
    ``scored`` hands over votes the window's prediction already computed on
    this predictor: weight vectors (F, d) and their (F, n) votes. The first
    sweep (the initial swarm, warm-started from the front) takes a vector's
    votes from there when its float64 bytes equal a handed vector's, and
    sends the kernel only the other vectors; later sweeps send every vector.
    The predictor's votes depend on the vector alone, so the archive is the
    same with or without ``scored``.
    """
    known = {} if scored is None else {np.asarray(a, dtype=np.float64).tobytes(): v for a, v in zip(*scored)}

    def votes_of(alphas: np.ndarray) -> np.ndarray:
        if not known:
            return predictor.predict(alphas)
        rows = [known.get(alpha.tobytes()) for alpha in alphas]
        known.clear()
        fresh = [i for i, row in enumerate(rows) if row is None]
        votes = np.empty((len(alphas), len(chunk)), dtype=np.uint8)
        if fresh:
            votes[fresh] = predictor.predict(alphas[fresh])
        for i, row in enumerate(rows):
            if row is not None:
                votes[i] = row
        return votes

    def objective(alphas: np.ndarray) -> np.ndarray:
        votes = votes_of(alphas)
        # Module globals on purpose: perfbench/spans.py wraps
        # engine.accuracy and engine.discrimination to time this scoring.
        return np.column_stack(
            [1.0 - accuracy(votes, chunk.labels), np.abs(discrimination(votes, chunk.groups).value)]
        )

    d = chunk.n_features
    return smpso_minimize(objective, np.zeros(d), np.ones(d), params, seed, initial_positions=warm_start)


def run_stream(chunks: Sequence[Chunk], config: EngineConfig) -> RunResult:
    """Run the engine across all chunks and pool the summary metrics."""
    if not chunks:
        raise ValueError("need at least one chunk")
    start = time.perf_counter()
    engine = EmosamEngine(chunks[0].n_features, config)
    records: list[WindowRecord] = []
    predictions: list[np.ndarray] = []
    for chunk in chunks:
        preds, record = engine.step(chunk)
        records.append(record)
        predictions.append(preds)
    summary = _summarize(chunks, predictions, records, engine.trigger_count, start)
    return RunResult(records, summary, predictions)


def run_sam_baseline(
    chunks: Sequence[Chunk],
    k: int = DEFAULT_K,
    stm_cap: int = DEFAULT_STM_CAP,
    ltm_cap: int = DEFAULT_LTM_CAP,
    min_stm_size: int = DEFAULT_MIN_STM,
    tracker_decay: float = DEFAULT_TRACKER_DECAY,
    seed: int = 0,
    tie_label: int = 1,
) -> RunResult:
    """Plain memory classifier, no weights, no triggers: the reference baseline.

    Written as its own loop, apart from :meth:`EmosamEngine.step`, so the
    tests and the benchmark's degeneracy check (which imports it) can hold
    the engine's degenerate configuration (all-ones weights, never-firing
    trigger) against it. Each window is predicted in one batch, one
    :class:`FrozenChunkPredictor` with all-ones weights, whose votes do not
    depend on the block shape. The experiment runner's baseline is that
    engine configuration, bit-identical by those checks.
    """
    if not chunks:
        raise ValueError("need at least one chunk")
    start = time.perf_counter()
    dim = chunks[0].n_features
    bank = MemoryBank(
        dim,
        k=k,
        stm_cap=stm_cap,
        ltm_cap=ltm_cap,
        min_stm_size=min_stm_size,
        tracker_decay=tracker_decay,
        seed=seed,
    )
    ones = np.ones(dim)
    records: list[WindowRecord] = []
    predictions: list[np.ndarray] = []
    for t, chunk in enumerate(chunks, start=1):
        t0 = time.perf_counter()
        if bank.stm_size == 0:
            preds = np.full(len(chunk), tie_label, dtype=np.uint8)
        else:
            preds = FrozenChunkPredictor(chunk.features, bank).predict(ones)
        acc = accuracy(preds, chunk.labels)
        disc = discrimination(preds, chunk.groups)
        bank.fit_chunk(chunk)
        records.append(
            WindowRecord(
                window=t,
                accuracy=acc,
                discrimination=disc.value,
                abs_discrimination=abs(disc.value),
                triggered=False,
                pareto_size=1,
                wall_time_ms=(time.perf_counter() - t0) * 1000.0,
            )
        )
        predictions.append(preds)
    summary = _summarize(chunks, predictions, records, 0, start)
    return RunResult(records, summary, predictions)


def _summarize(
    chunks: Sequence[Chunk],
    predictions: list[np.ndarray],
    records: list[WindowRecord],
    triggers: int,
    start: float,
) -> RunSummary:
    preds = np.concatenate(predictions)
    labels = np.concatenate([c.labels for c in chunks])
    groups = np.concatenate([c.groups for c in chunks])
    disc = discrimination(preds, groups)
    return RunSummary(
        windows=len(records),
        instances=int(preds.size),
        accuracy=accuracy(preds, labels),
        discrimination=disc.value,
        abs_discrimination=abs(disc.value),
        triggers=triggers,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
    )
