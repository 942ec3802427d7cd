"""Workloads, the closed-loop timed run, the traced run and the correctness checks.

Everything here drives the public emosam API the way ``emosam gen`` followed
by ``emosam run --manifest ... --seeds <seed>`` does: the reference stream is
written to CSV, read back through ``stream.ingest`` and stepped window by
window through an ``EmosamEngine`` whose run seed is the benchmark's
``--seed``. One client steps the next window only after the previous step
returned (closed loop, concurrency 1).

The stream is the same in every run. Memory maintenance runs unweighted on
the true labels, so the bank's sizes at every window depend on the stream
alone; with the stream fixed, every seed meets the same states and does the
same memory work, while ``--seed`` changes every swarm draw, front and
prediction after the first re-tune.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import emosam
import emosam.engine
from emosam import (
    BiasStreamConfig,
    EmosamEngine,
    EngineConfig,
    GroupRates,
    SmpsoParams,
    apply_desk_preset,
    chunk_arrays,
    generate_bias_stream,
    manifest_for_generated,
    run_sam_baseline,
    write_stream_csv,
)

import spans

REFERENCE_SEED = 11
DESK_WINDOW = 250
# Set-up takes about 0.2 s. It is repeated this many times, spread evenly
# over the timed loop so its median sees the same machine phases as the loop.
SETUP_REPEATS = 9
# Degeneracy check: the never-firing engine against the plain baseline on
# this many desk windows.
DEGENERACY_WINDOWS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    trigger: str
    desk: bool
    window: int
    swarm: tuple[int, int] | None  # (swarm_size, iterations) override
    # A pass ends at its first re-tune, and the timed loop runs whole passes.
    end_at_first_retune: bool
    # Fixed window prefix: its digest is reported, and the traced run replays
    # exactly these windows.
    schedule: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-hp", "hp", True, DESK_WINDOW, None, False, 80),
        Workload("desk-every", "every", True, DESK_WINDOW, None, False, 24),
        # The default 30x10 swarm takes about 100 s at this state, longer than
        # one run may last; 10x2 keeps the state and the per-evaluation kernel.
        Workload("default-retune", "hp", False, 1000, (10, 2), True, 7),
    )
}


def engine_config(wl: Workload, seed: int) -> EngineConfig:
    config = EngineConfig(trigger=wl.trigger, seed=seed)
    if wl.desk:
        config, _ = apply_desk_preset(config)
    if wl.swarm is not None:
        config = replace(config, smpso=SmpsoParams(swarm_size=wl.swarm[0], iterations=wl.swarm[1]))
    return config


def write_stream(wl: Workload, work: Path):
    """Write the reference stream (20k instances, d=8, drift at 7k and 14k); returns its manifest."""
    config = BiasStreamConfig(
        n_instances=20_000,
        d_informative=5,
        d_noise=2,
        proxy_strength=0.8,
        base_rates=GroupRates(0.65, 0.35),
        drift_points=(7_000, 14_000),
        seed=REFERENCE_SEED,
        window_size=wl.window,
    )
    path = work / "stream.csv"
    write_stream_csv(generate_bias_stream(config), path)
    return manifest_for_generated(config, path)


def setup(manifest, config: EngineConfig):
    """The timed set-up: ingest the stream and construct an engine on it."""
    start = time.perf_counter()
    ingested = emosam.stream.ingest(manifest)
    EmosamEngine(ingested.chunks[0].n_features, config)
    return time.perf_counter() - start, ingested


class SearchTimer:
    """Times the re-tune search inside ``engine.step`` from outside.

    One clock pair per re-tune lets a re-tuned window report the latency of
    its other phases too.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._original = None

    def __enter__(self) -> "SearchTimer":
        self._original = original = emosam.engine.optimize_weights

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.elapsed += time.perf_counter() - start

        emosam.engine.optimize_weights = timed
        return self

    def __exit__(self, *exc) -> None:
        emosam.engine.optimize_weights = self._original


def window_digest(preds: np.ndarray, engine: EmosamEngine, triggered: bool) -> bytes:
    """Digest of a window's predictions and, after a re-tune, the adopted front."""
    h = hashlib.sha256(np.ascontiguousarray(preds, dtype=np.uint8).tobytes())
    if triggered:
        for sol in engine.pareto_front:
            h.update(np.ascontiguousarray(sol.alpha, dtype="<f8").tobytes())
            h.update(np.asarray(tuple(sol.objectives), dtype="<f8").tobytes())
    return h.digest()


def combined_digest(digests: list[bytes]) -> str:
    return hashlib.sha256(b"".join(digests)).hexdigest()


def check_window(chunk, preds, record, engine: EmosamEngine, problems: list[str]) -> None:
    """Outputs of one step against counts made here, independently of emosam."""
    where = f"window {chunk.index}"
    if preds.shape != (len(chunk),) or not np.isin(preds, (0, 1)).all():
        problems.append(f"{where}: predictions are not a 0/1 vector of the window's length")
        return
    hits = int(np.count_nonzero(preds == chunk.labels))
    if record.accuracy != hits / len(chunk):
        problems.append(f"{where}: accuracy {record.accuracy} != {hits}/{len(chunk)}")
    prot = chunk.groups == 1
    n_p = int(np.count_nonzero(prot))
    n_u = len(chunk) - n_p
    if n_p and n_u:
        gap = int(np.count_nonzero(preds[prot] == 1)) / n_p - int(np.count_nonzero(preds[~prot] == 1)) / n_u
    else:
        gap = 0.0
    if record.discrimination != gap:
        problems.append(f"{where}: discrimination {record.discrimination} != {gap}")
    bank, cfg = engine.bank, engine.config
    if bank.stm_size > cfg.stm_cap or bank.ltm_size > cfg.ltm_cap:
        problems.append(f"{where}: memory over capacity ({bank.stm_size}, {bank.ltm_size})")
    if record.triggered:
        objs = []
        for sol in engine.pareto_front:
            a = np.asarray(sol.alpha)
            if a.shape != (engine.dim,) or not np.isfinite(a).all() or a.min() < 0 or a.max() > 1:
                problems.append(f"{where}: front weight outside [0, 1]^{engine.dim}")
            objs.append(tuple(sol.objectives))
        for i, a in enumerate(objs):
            for b in objs[i + 1 :]:
                if a == b or (a[0] <= b[0] and a[1] <= b[1]) or (b[0] <= a[0] and b[1] <= a[1]):
                    problems.append(f"{where}: front members {a} and {b} are not mutually non-dominated")


@dataclass
class Step:
    window: int
    instances: int  # 0 when the step raised
    step_s: float
    search_s: float
    triggered: bool
    digest: bytes
    stm: int  # bank sizes before the step, i.e. the state a re-tune searched
    ltm: int
    front: int


class Loop:
    """Closed-loop stepping over the stream, one fresh engine per pass."""

    def __init__(self, wl: Workload, chunks: list, config: EngineConfig) -> None:
        self.wl = wl
        self.chunks = chunks
        self.config = config
        self.passes: list[list[Step]] = []
        self.problems: list[str] = []
        self.failed = 0
        self.preds: list[np.ndarray] = []
        self.labels: list[np.ndarray] = []
        self.groups: list[np.ndarray] = []
        self.compress_passes = 0
        self.stm_after: list[int] = []
        self.ltm_after: list[int] = []

    @property
    def steps(self) -> list[Step]:
        return [step for steps in self.passes for step in steps]

    def new_pass(self) -> EmosamEngine:
        self.passes.append([])
        return EmosamEngine(self.chunks[0].n_features, self.config)

    def run_pass(self, limit: int | None, deadline: float | None, timer: SearchTimer, between=None) -> None:
        """Step one pass over windows 1..limit, stopping early at the deadline.

        ``between`` is called before each window, outside the step timing.
        """
        engine = self.new_pass()
        for chunk in self.chunks[:limit]:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if between is not None:
                between()
            if not self.step(engine, chunk, timer):
                return

    def step(self, engine: EmosamEngine, chunk, timer: SearchTimer) -> bool:
        """Step one window of the current pass; False when the pass ends here."""
        stm, ltm = engine.bank.stm_size, engine.bank.ltm_size
        compressed = engine.bank.compress_count
        search_before = timer.elapsed
        start = time.perf_counter()
        try:
            preds, record = engine.step(chunk)
        except Exception:
            # A failed window ends its pass: the engine state is suspect.
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.passes[-1].append(Step(chunk.index, 0, elapsed, 0.0, False, b"", stm, ltm, 0))
            return False
        elapsed = time.perf_counter() - start
        self.passes[-1].append(
            Step(
                chunk.index,
                len(chunk),
                elapsed,
                timer.elapsed - search_before,
                record.triggered,
                window_digest(preds, engine, record.triggered),
                stm,
                ltm,
                record.pareto_size,
            )
        )
        check_window(chunk, preds, record, engine, self.problems)
        self.compress_passes += engine.bank.compress_count - compressed
        self.stm_after.append(engine.bank.stm_size)
        self.ltm_after.append(engine.bank.ltm_size)
        self.preds.append(preds)
        self.labels.append(chunk.labels)
        self.groups.append(chunk.groups)
        return not (self.wl.end_at_first_retune and record.triggered)


def timed_loop(wl: Workload, chunks: list, config: EngineConfig, seconds: float, between) -> tuple[Loop, float]:
    loop = Loop(wl, chunks, config)
    with SearchTimer() as timer:
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            if wl.end_at_first_retune:
                # Whole passes only: a cut pass would skew the window mix.
                loop.run_pass(wl.schedule, None, timer, between)
            else:
                loop.run_pass(None, deadline, timer, between)
    return loop, time.perf_counter() - start


def run_schedule(wl: Workload, chunks: list, config: EngineConfig) -> Loop:
    """Step the workload's fixed window prefix once."""
    loop = Loop(wl, chunks, config)
    with SearchTimer() as timer:
        loop.run_pass(wl.schedule, None, timer)
    return loop


def repeat_check(wl: Workload, loop: Loop) -> tuple[bool, str]:
    """Every pass of one configuration and seed must give the same per-window digests."""
    passes = [[s.digest for s in steps] for steps in loop.passes]
    if len(passes) < 2 or len(passes[1]) < 2:
        again = run_schedule(wl, loop.chunks, loop.config)
        passes += [[s.digest for s in again.steps]]
    compared = 0
    for digests in passes[1:]:
        n = min(len(digests), len(passes[0]))
        if digests[:n] != passes[0][:n]:
            return False, f"pass digests differ within windows 1..{n}"
        compared += n
    return True, f"{len(passes)} passes, {compared} repeated windows identical"


def degeneracy_check(chunks: list, seed: int) -> tuple[bool, str]:
    """A never-firing desk engine must match the plain baseline bit for bit."""
    features = np.vstack([c.features for c in chunks])
    groups = np.concatenate([c.groups for c in chunks])
    labels = np.concatenate([c.labels for c in chunks])
    desk = chunk_arrays(features, groups, labels, DESK_WINDOW)[:DEGENERACY_WINDOWS]
    config, _ = apply_desk_preset(EngineConfig(trend_threshold=1.01, seed=seed))
    result = emosam.run_stream(desk, config)
    base = run_sam_baseline(desk, stm_cap=config.stm_cap, ltm_cap=config.ltm_cap, seed=seed)
    same = result.summary.triggers == 0 and all(
        np.array_equal(a, b) for a, b in zip(result.predictions, base.predictions, strict=True)
    )
    return same, f"{len(desk)} desk windows, bit-identical={same}"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def pooled_quality(loop: Loop) -> tuple[float, float]:
    """Accuracy and absolute parity gap over every prediction of the loop."""
    preds = np.concatenate(loop.preds)
    labels = np.concatenate(loop.labels)
    groups = np.concatenate(loop.groups)
    acc = int(np.count_nonzero(preds == labels)) / preds.size
    prot = groups == 1
    rate_p = np.count_nonzero(preds[prot] == 1) / np.count_nonzero(prot)
    rate_u = np.count_nonzero(preds[~prot] == 1) / np.count_nonzero(~prot)
    return acc, abs(float(rate_p - rate_u))


def retune_entry(step: Step, dim: int) -> dict:
    """STM/LTM sizes and n*m*d with m = STM + LTM, the largest store a predictor can bind."""
    return {"window": step.window, "stm": step.stm, "ltm": step.ltm,
            "nmd": step.instances * (step.stm + step.ltm) * dim}


def compact(retunes: list[dict], limit: int = 8) -> list[dict] | dict:
    """The full list when short, otherwise its count, median and maximum."""
    if len(retunes) <= limit:
        return retunes
    nmd = [r["nmd"] for r in retunes]
    stm = [r["stm"] for r in retunes]
    return {"retunes": len(retunes), "stm_median": statistics.median(stm), "stm_max": max(stm),
            "nmd_median": statistics.median(nmd), "nmd_max": max(nmd)}


def measure(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    """The untraced run: set-up, timed closed loop, then the checks."""
    config = engine_config(wl, seed)
    manifest = write_stream(wl, work)
    elapsed, ingested = setup(manifest, config)
    setups = [elapsed]
    chunks = ingested.chunks
    interval = seconds / SETUP_REPEATS
    due = [time.perf_counter() + interval]

    def repeat_setup() -> None:
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due[0]:
            setups.append(setup(manifest, config)[0])
            due[0] += interval

    loop, loop_s = timed_loop(wl, chunks, config, seconds, repeat_setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    steps = [s for s in loop.steps if s.instances]
    retunes = [s.step_s * 1e3 for s in steps if s.triggered]
    windows = [(s.step_s - s.search_s) * 1e3 for s in steps]
    if not retunes:
        raise RuntimeError("no window re-tuned inside the timed loop")
    accuracy, abs_disc = pooled_quality(loop)
    first = loop.passes[0]

    repeat_ok, repeat_note = repeat_check(wl, loop)
    degenerate_ok, degenerate_note = degeneracy_check(chunks, seed)
    checks = {
        "outputs": (not loop.problems, "; ".join(loop.problems[:5]) or "all windows consistent"),
        "repeat_digest": (repeat_ok, repeat_note),
        "degeneracy": (degenerate_ok, degenerate_note),
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ips": (sum(s.instances for s in steps) / sum(s.step_s for s in steps), "1/s"),
        "window_ms_p50": (statistics.median(windows), "ms"),
        "window_ms_p90": (percentile(windows, 90), "ms"),
        "retune_ms_p50": (statistics.median(retunes), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy": (accuracy, "ratio"),
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "stream_seed": REFERENCE_SEED,
        "loop_s": loop_s,
        "passes": len(loop.passes),
        "samples": {"window": len(windows), "retune": len(retunes), "setup": len(setups)},
        "triggers": len(retunes),
        "triggers_first_pass": sum(1 for s in first if s.triggered),
        "abs_disc": abs_disc,
        "compress_passes": loop.compress_passes,
        "ltm_size_max": max(loop.ltm_after),
        "digest": combined_digest([s.digest for s in first[: wl.schedule]]),
        "digest_windows": min(wl.schedule, len(first)),
        "retune_state": compact([retune_entry(s, chunks[0].n_features) for s in first if s.triggered]),
    }
    return {"metrics": metrics, "checks": checks, "record": record,
            "attempted": len(loop.steps), "failed": loop.failed}


def overhead(plain: Loop, traced: Loop) -> float:
    """Median over windows of traced/untraced step time, minus one."""
    ratios = [t.step_s / p.step_s for p, t in zip(plain.steps, traced.steps, strict=True)]
    return statistics.median(ratios) - 1.0


def measure_traced(wl: Workload, seed: int, work: Path) -> dict:
    """Replay the fixed schedule untraced and traced; report per-layer totals."""
    config = engine_config(wl, seed)
    manifest = write_stream(wl, work)

    tracer = spans.Tracer()
    with tracer:
        _, ingested = setup(manifest, config)
    # The untraced and the traced engine step each window back to back, so a
    # slow phase of a shared machine hits both sides of the overhead ratio.
    plain = Loop(wl, ingested.chunks, config)
    traced = Loop(wl, ingested.chunks, config)
    plain_engine, traced_engine = plain.new_pass(), traced.new_pass()
    with SearchTimer() as timer:
        for chunk in ingested.chunks[: wl.schedule]:
            more = plain.step(plain_engine, chunk, timer)
            with tracer:
                traced.step(traced_engine, chunk, timer)
            if not more:
                break
    summary = spans.summarize(tracer.spans)

    plain_digest = combined_digest([s.digest for s in plain.steps])
    traced_digest = combined_digest([s.digest for s in traced.steps])
    checks = {
        "outputs": (not traced.problems and not plain.problems,
                    "; ".join((plain.problems + traced.problems)[:5]) or "all windows consistent"),
        "traced_digest": (plain_digest == traced_digest and not traced.failed and not plain.failed,
                          f"untraced {plain_digest[:16]} traced {traced_digest[:16]}"),
    }

    total, self_t, calls = summary["total"], summary["self"], summary["calls"]
    retuned = [s for s in traced.steps if s.triggered]
    retunes = [retune_entry(s, ingested.chunks[0].n_features) for s in retuned]

    def median_of(key: str) -> float:
        return float(statistics.median([r[key] for r in retunes])) if retunes else 0.0

    metrics = {
        "samknn.fit_s": (total.get("samknn.fit", 0.0), "s"),
        "samknn.clean_s": (total.get("samknn.clean", 0.0), "s"),
        "samknn.clean_calls": (calls.get("samknn.clean", 0), "count"),
        "samknn.fit_self_s": (self_t.get("samknn.fit", 0.0), "s"),
        "samknn.compress_s": (total.get("samknn.compress", 0.0), "s"),
        "samknn.compress_passes": (traced.compress_passes, "count"),
        "samknn.stm_size_mean": (float(np.mean(traced.stm_after)), "instances"),
        "samknn.ltm_size_mean": (float(np.mean(traced.ltm_after)), "instances"),
        "samknn.build_s": (total.get("samknn.build", 0.0), "s"),
        "samknn.build_calls": (calls.get("samknn.build", 0), "count"),
        "samknn.predict_s": (total.get("samknn.predict", 0.0) - summary["eval_s"], "s"),
        "samknn.predict_calls": (calls.get("samknn.predict", 0) - summary["evals"], "count"),
        "samknn.retune_stm": (median_of("stm"), "instances"),
        "samknn.retune_nmd": (median_of("nmd"), "count"),
        "smpso.optimize_s": (total.get("smpso.optimize", 0.0), "s"),
        "smpso.evals": (summary["evals"], "count"),
        "smpso.eval_s": (summary["eval_s"], "s"),
        "smpso.self_s": (summary["self_by_layer"].get("smpso", 0.0), "s"),
        "smpso.archive_size": (float(np.mean([s.front for s in retuned])) if retuned else 0.0, "count"),
        "metrics.score_s": (total.get("metrics.score", 0.0), "s"),
        "metrics.score_calls": (calls.get("metrics.score", 0), "count"),
        "metrics.abs_disc": (pooled_quality(traced)[1], "ratio"),
        "trend.trigger_s": (total.get("trend.trigger", 0.0), "s"),
        "trend.hp_solves": (calls.get("trend.hp_filter", 0), "count"),
        "stream.ingest_s": (total.get("stream.ingest", 0.0), "s"),
        "stream.rows_rejected": (ingested.rejected_rows, "count"),
        "engine.step_s": (total.get("engine.step", 0.0), "s"),
        "engine.self_s": (self_t.get("engine.step", 0.0), "s"),
        "engine.retunes": (len(retunes), "count"),
        "trace.overhead": (overhead(plain, traced), "ratio"),
    }
    per_retune = 1e3 / max(1, len(retunes))
    record = {
        "workload": wl.name,
        "seed": seed,
        "stream_seed": REFERENCE_SEED,
        "schedule_windows": len(traced.steps),
        "untraced_s": sum(s.step_s for s in plain.steps),
        "traced_s": sum(s.step_s for s in traced.steps),
        "spans": len(tracer.spans),
        "digest": traced_digest,
        "retune_state": compact(retunes),
        "retune_step_ms_mean": sum(s.step_s for s in retuned) * per_retune,
        "per_retune_ms": {
            "optimize": total.get("smpso.optimize", 0.0) * per_retune,
            "evals": summary["eval_s"] * per_retune,
            "score_in_search": summary["search_score_s"] * per_retune,
        },
        "self_by_layer_s": summary["self_by_layer"],
        "self_by_span_s": self_t,
    }
    return {"metrics": metrics, "checks": checks, "record": record,
            "attempted": len(traced.steps) + len(plain.steps), "failed": traced.failed + plain.failed}
