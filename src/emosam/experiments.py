"""Batch experiment harness: multi-seed runs, CSV/JSON outputs, and the
selection-by-trigger ablation grid.

A run writes one window CSV and one summary JSON per seed plus an aggregate
JSON; each ablation grid cell is one :func:`run_stream` per seed, so any
grid cell is reproducible standalone with the same seed list.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .engine import (
    EngineConfig,
    InitMode,
    SelectionStrategy,
    TriggerPolicy,
    run_stream,
)
from .metrics import WINDOW_CSV_HEADER
from .stream import BiasStreamConfig, Chunk, StreamManifest, generate_bias_stream, ingest, write_json
from .trend import HISTORY_CAPACITY

__all__ = [
    "DESK_PRESET",
    "ExperimentSpec",
    "apply_desk_preset",
    "load_chunks",
    "run_experiment",
    "compare_ablations",
    "ABLATION_HEADER",
]

# Small-footprint settings for laptop-class smoke runs: shorter windows,
# tighter memories, and a lighter optimizer.
DESK_PRESET = {
    "window_size": 250,
    "stm_cap": 500,
    "ltm_cap": 500,
    "swarm_size": 20,
    "iterations": 5,
}

ABLATION_HEADER = [
    "selection",
    "trigger",
    "seeds",
    "mean_error",
    "mean_abs_discrimination",
    "mean_triggers",
    "mean_wall_time_ms",
]


def apply_desk_preset(config: EngineConfig, window_size: int | None = None) -> tuple[EngineConfig, int]:
    """Overlay the desk preset onto a config; returns (config, window_size)."""
    smpso = replace(
        config.smpso,
        swarm_size=DESK_PRESET["swarm_size"],
        iterations=DESK_PRESET["iterations"],
    )
    cfg = replace(
        config,
        stm_cap=DESK_PRESET["stm_cap"],
        ltm_cap=DESK_PRESET["ltm_cap"],
        smpso=smpso,
    )
    return cfg, (window_size if window_size is not None else DESK_PRESET["window_size"])


@dataclass
class ExperimentSpec:
    """What to run: one data source, one engine config, a list of seeds.

    Exactly one of ``manifest_path`` and ``generator_config_path`` must be
    set. ``window_size`` overrides the source's own window when given.
    """

    engine: EngineConfig = field(default_factory=EngineConfig)
    manifest_path: Path | None = None
    generator_config_path: Path | None = None
    seeds: tuple[int, ...] = tuple(range(30))
    output_dir: Path = Path("results")
    include_baseline: bool = False
    window_size: int | None = None

    def __post_init__(self) -> None:
        if self.manifest_path is not None:
            self.manifest_path = Path(self.manifest_path)
        if self.generator_config_path is not None:
            self.generator_config_path = Path(self.generator_config_path)
        self.output_dir = Path(self.output_dir)
        self.seeds = tuple(int(s) for s in self.seeds)

    def validate(self) -> None:
        have_manifest = self.manifest_path is not None
        have_generator = self.generator_config_path is not None
        if have_manifest == have_generator:
            raise ValueError("set exactly one of manifest_path and generator_config_path")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if min(self.seeds) < 0:
            raise ValueError("seeds must be non-negative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be unique")
        if self.window_size is not None and self.window_size < 10:
            raise ValueError("window_size must be at least 10")
        self.engine.validate()


def load_chunks(spec: ExperimentSpec) -> list[Chunk]:
    """Materialize the spec's stream as windows, honoring any window override."""
    if spec.manifest_path is not None:
        manifest = StreamManifest.from_json(spec.manifest_path)
        if spec.window_size is not None:
            manifest = replace(manifest, window_size=spec.window_size)
            manifest.validate()
        return ingest(manifest).chunks
    gen = BiasStreamConfig.from_json(spec.generator_config_path)
    if spec.window_size is not None:
        gen = replace(gen, window_size=spec.window_size)
    return generate_bias_stream(gen)


def _baseline_config(config: EngineConfig) -> EngineConfig:
    """The config's memory settings with all-ones weights and a trigger that never fires.

    An absolute discrimination never exceeds 1, so a series of them never
    has a trend endpoint of 1.01 with the series above it. Such a run is the
    plain memory classifier, bit-identical to :func:`run_sam_baseline`. The
    history has the default length, long enough for the hp rule whatever
    trigger the config's own history was sized for.
    """
    return replace(
        config,
        trigger=TriggerPolicy.HP,
        trend_threshold=1.01,
        history_capacity=HISTORY_CAPACITY,
        init_mode=InitMode.ONES,
        selection=SelectionStrategy.MAJORITY,
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Header plus rows; floats are written as their repr (``str`` of a float)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _aggregate(summaries: list[dict]) -> dict:
    """Across-seed best/mean/std; std is the population standard deviation.

    "Best" means highest accuracy but lowest discrimination; for the other
    keys no direction is privileged and only the spread is reported.
    """
    keys = ("accuracy", "abs_discrimination", "triggers", "wall_time_ms")
    out: dict = {"seeds": [s["seed"] for s in summaries]}
    for key in keys:
        values = np.array([s[key] for s in summaries], dtype=np.float64)
        stats = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "min": float(values.min()),
            "max": float(values.max()),
        }
        if key == "accuracy":
            stats["best"] = stats["max"]
        elif key == "abs_discrimination":
            stats["best"] = stats["min"]
        out[key] = stats
    best = max(summaries, key=lambda s: s["accuracy"])
    out["best_seed_by_accuracy"] = best["seed"]
    return out


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run every seed, write per-seed and aggregate outputs, return the aggregate."""
    spec.validate()
    chunks = load_chunks(spec)
    spec.output_dir.mkdir(parents=True, exist_ok=True)

    # name: (config, output file prefix)
    runs = {"engine": (spec.engine, "")}
    if spec.include_baseline:
        runs["baseline"] = (_baseline_config(spec.engine), "baseline_")
    summaries: dict[str, list[dict]] = {name: [] for name in runs}
    for seed in spec.seeds:
        for name, (config, prefix) in runs.items():
            result = run_stream(chunks, replace(config, seed=seed))
            rows = (record.to_csv_row() for record in result.records)
            _write_csv(spec.output_dir / f"{prefix}windows_seed{seed:04d}.csv", WINDOW_CSV_HEADER, rows)
            summary = {"seed": seed, **result.summary.to_dict()}
            write_json(summary, spec.output_dir / f"{prefix}summary_seed{seed:04d}.json")
            summaries[name].append(summary)

    aggregate = {name: _aggregate(s) for name, s in summaries.items()}
    write_json(aggregate, spec.output_dir / "aggregate.json")
    return aggregate


def compare_ablations(spec: ExperimentSpec, output_path: Path | None = None) -> list[dict]:
    """Full 3x3 grid of selection strategies by trigger policies over the spec's stream.

    Every cell runs the spec's seeds through :func:`run_stream` with the
    spec's engine config, so a cell's numbers match a standalone run with
    that selection and trigger. The spec and every cell's config are
    validated before the stream is loaded; the spec's output directory and
    baseline flag are not used.
    """
    spec.validate()
    cells = [replace(spec.engine, selection=s, trigger=t) for s in SelectionStrategy for t in TriggerPolicy]
    for config in cells:
        config.validate()
    chunks = load_chunks(spec)
    rows: list[dict] = []
    for config in cells:
        summaries = [run_stream(chunks, replace(config, seed=seed)).summary for seed in spec.seeds]
        rows.append(
            {
                "selection": config.selection.value,
                "trigger": config.trigger.value,
                "seeds": len(spec.seeds),
                "mean_error": float(np.mean([1.0 - s.accuracy for s in summaries])),
                "mean_abs_discrimination": float(np.mean([s.abs_discrimination for s in summaries])),
                "mean_triggers": float(np.mean([s.triggers for s in summaries])),
                "mean_wall_time_ms": float(np.mean([s.wall_time_ms for s in summaries])),
            }
        )
    if output_path is not None:
        output_path = Path(output_path)
        output_path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(output_path, ABLATION_HEADER, ([row[name] for name in ABLATION_HEADER] for row in rows))
    return rows
