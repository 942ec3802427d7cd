"""Acceptance gate for the whole package.

Each test prints a single [PASS]/[FAIL]/[SKIP] line (visible under -s) and
enforces both the numeric tolerance and the runtime budget it states. The
fairness and trigger-cost checks share one 10-seed grid over the reference
biased stream, computed once per session.
"""

import csv
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emosam.engine import EngineConfig, run_sam_baseline, run_stream
from emosam.experiments import ExperimentSpec, run_experiment
from emosam.metrics import accuracy, discrimination
from emosam.smpso import Archive, SmpsoParams, smpso_minimize
from emosam.stream import (
    BiasStreamConfig,
    StreamManifest,
    dataset_discrimination,
    generate_bias_stream,
    ingest,
)
from emosam.trend import hp_filter
from oracles import (
    counting_accuracy,
    counting_discrimination,
    dense_hp_trend,
    mutually_non_dominated,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# 20k instances, base-rate gap 0.3, two drifts; the README's commands run it too.
REFERENCE_STREAM = BiasStreamConfig.from_json(REPO_ROOT / "manifests" / "reference_stream.json")

DESK_ENGINE = dict(
    stm_cap=500,
    ltm_cap=500,
    smpso=SmpsoParams(swarm_size=20, iterations=5),
)

GRID_SEEDS = range(10)


def report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def reference_chunks():
    return generate_bias_stream(REFERENCE_STREAM)


@pytest.fixture(scope="module")
def seed_grid(reference_chunks):
    """10-seed {hp engine, every engine, unweighted baseline} summaries."""
    start = time.perf_counter()
    grid = {"hp": [], "every": [], "sam": []}
    for seed in GRID_SEEDS:
        hp_config = EngineConfig(trigger="hp", trend_threshold=0.10, seed=seed, **DESK_ENGINE)
        grid["hp"].append(run_stream(reference_chunks, hp_config).summary)
        every_config = EngineConfig(trigger="every", seed=seed, **DESK_ENGINE)
        grid["every"].append(run_stream(reference_chunks, every_config).summary)
        grid["sam"].append(
            run_sam_baseline(
                reference_chunks, stm_cap=500, ltm_cap=500, seed=seed
            ).summary
        )
    grid["elapsed_s"] = time.perf_counter() - start
    return grid


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        groups = rng.integers(0, 2, n)
        worst = max(worst, abs(accuracy(preds, labels) - counting_accuracy(preds, labels)))
        got = discrimination(preds, groups)
        want_value, want_degenerate = counting_discrimination(preds, groups)
        assert got.degenerate == want_degenerate
        worst = max(worst, abs(got.value - want_value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(ok, "metric oracle equivalence",
           f"1000 random sets, max deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_hp_filter_dense_solver_and_zero_curvature():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in range(3, 13):
        for smoothing in (1.0, 100.0, 1600.0):
            series = rng.random(n)
            dec = hp_filter(series, smoothing)
            worst = max(worst, float(np.max(np.abs(dec.trend - dense_hp_trend(series, smoothing)))))
    worst_cycle = 0.0
    for smoothing in (1.0, 100.0, 1600.0):
        for series in (np.full(8, 0.25), np.linspace(0.0, 0.7, 8)):
            dec = hp_filter(series, smoothing)
            worst_cycle = max(worst_cycle, float(np.max(np.abs(dec.cycle))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and worst_cycle < 1e-10 and elapsed < 5.0
    report(ok, "trend filter correctness",
           f"dense-solver gap {worst:.2e}, flat/affine cycle {worst_cycle:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert worst_cycle < 1e-10
    assert elapsed < 5.0


def test_plain_memory_degeneracy_at_scale(reference_chunks):
    start = time.perf_counter()
    config = EngineConfig(trigger="hp", trend_threshold=1.01, init_mode="ones",
                          seed=0, **DESK_ENGINE)
    engine_result = run_stream(reference_chunks, config)
    base_result = run_sam_baseline(reference_chunks, stm_cap=500, ltm_cap=500, seed=0)
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(engine_result.predictions, base_result.predictions)
    )
    assert engine_result.summary.triggers == 0
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 120.0
    report(ok, "unweighted degeneracy",
           f"20k instances bit-exact={identical}, {elapsed:.1f}s")
    assert identical
    assert elapsed < 120.0


def test_swarm_recovers_analytic_front():
    start = time.perf_counter()

    def schaffer(positions):
        return [
            (min(v * v, 25.0) / 25.0, min((v - 2.0) ** 2, 49.0) / 49.0)
            for v in (float(x[0]) for x in positions)
        ]

    inside = total = 0
    for seed in range(10):
        archive = smpso_minimize(
            schaffer, np.array([-5.0]), np.array([5.0]), SmpsoParams(), seed
        )
        assert mutually_non_dominated([e.objectives for e in archive])
        for entry in archive:
            total += 1
            inside += -0.05 <= float(entry.position[0]) <= 2.05
    share = inside / total

    rng = np.random.default_rng(99)
    for _ in range(300):
        archive = Archive(10)
        for i in range(int(rng.integers(1, 60))):
            archive.insert(np.array([float(i)]), (float(rng.random()), float(rng.random())))
            assert mutually_non_dominated([e.objectives for e in archive])
            assert len(archive) <= 10

    elapsed = time.perf_counter() - start
    ok = share >= 0.95 and elapsed < 10.0
    report(ok, "swarm analytic front",
           f"{share:.1%} of archive on the true front, invariants held, {elapsed:.1f}s")
    assert share >= 0.95
    assert elapsed < 10.0


def test_fairness_improvement_on_biased_stream(seed_grid):
    hp_disc = float(np.mean([s.abs_discrimination for s in seed_grid["hp"]]))
    sam_disc = float(np.mean([s.abs_discrimination for s in seed_grid["sam"]]))
    hp_acc = float(np.mean([s.accuracy for s in seed_grid["hp"]]))
    sam_acc = float(np.mean([s.accuracy for s in seed_grid["sam"]]))
    ratio = hp_disc / sam_disc
    acc_gap = abs(hp_acc - sam_acc)
    elapsed = seed_grid["elapsed_s"]
    ok = ratio <= 0.7 and acc_gap <= 0.03 and elapsed < 900.0
    report(ok, "fairness improvement",
           f"|disc| {hp_disc:.4f} vs {sam_disc:.4f} (ratio {ratio:.2f}), "
           f"accuracy {hp_acc:.4f} vs {sam_acc:.4f} (gap {acc_gap:.4f}), grid {elapsed:.0f}s")
    assert ratio <= 0.7
    assert acc_gap <= 0.03
    assert elapsed < 900.0


def test_trigger_cost_ordering(seed_grid):
    hp_wall = float(np.mean([s.wall_time_ms for s in seed_grid["hp"]]))
    every_wall = float(np.mean([s.wall_time_ms for s in seed_grid["every"]]))
    hp_triggers = [s.triggers for s in seed_grid["hp"]]
    every_triggers = [s.triggers for s in seed_grid["every"]]
    strictly_fewer = all(h < e for h, e in zip(hp_triggers, every_triggers))
    ok = every_wall > hp_wall and strictly_fewer
    report(ok, "trigger cost ordering",
           f"wall {hp_wall:.0f}ms vs {every_wall:.0f}ms, "
           f"triggers mean {np.mean(hp_triggers):.1f} vs {np.mean(every_triggers):.1f}")
    assert every_wall > hp_wall
    assert strictly_fewer


def test_adult_dataset_discrimination():
    manifest_path = REPO_ROOT / "manifests" / "adult.json"
    manifest = StreamManifest.from_json(manifest_path)
    env_source = os.environ.get("EMOSAM_ADULT")
    if env_source:
        manifest = replace(manifest, source=Path(env_source))
    if not manifest.source.exists():
        print("[SKIP] dataset-level discrimination: adult CSV not present "
              "(set EMOSAM_ADULT or place data/adult.csv)")
        pytest.skip("adult dataset not available")
    result = ingest(manifest)
    disc = dataset_discrimination(result.chunks)
    ok = abs(disc - 0.1963) <= 0.005
    report(ok, "dataset-level discrimination",
           f"{100 * disc:.2f}% on {result.n_instances} rows "
           f"({result.rejected_rows} rejected)")
    assert disc == pytest.approx(0.1963, abs=0.005)


def test_rerun_reproduces_metric_csvs(tmp_path):
    gen_path = tmp_path / "gen.json"
    replace(REFERENCE_STREAM, n_instances=4000, drift_points=(2000,)).to_json(gen_path)
    engine = EngineConfig(trigger="hp", seed=0, **DESK_ENGINE)

    def run_into(subdir: Path):
        spec = ExperimentSpec(
            engine=engine,
            generator_config_path=gen_path,
            seeds=(0, 1),
            output_dir=subdir,
        )
        run_experiment(spec)
        rows = {}
        for path in sorted(subdir.glob("windows_seed*.csv")):
            with open(path, newline="") as fh:
                rows[path.name] = list(csv.reader(fh))
        return rows

    first = run_into(tmp_path / "a")
    second = run_into(tmp_path / "b")
    assert first.keys() == second.keys()
    wall_col = 6
    identical = True
    for name in first:
        for row_a, row_b in zip(first[name], second[name], strict=True):
            if row_a[:wall_col] != row_b[:wall_col]:
                identical = False
    report(identical, "re-run determinism",
           f"{len(first)} window CSVs identical outside the wall-time column")
    assert identical
