"""Command line front end.

Subcommands:
  run      prequential runs over a manifest or generator config
  ablate   the 3x3 selection-by-trigger grid
  gen      synthesize a biased stream CSV (plus optional manifest)
  inspect  ingest a manifest and report dataset-level numbers

Option precedence, lowest to highest: built-in defaults, --config JSON,
--preset, explicit flags. Flags default to None so "not given" is
distinguishable from "given the default value".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .engine import EngineConfig, InitMode, SelectionStrategy, TriggerPolicy
from .experiments import (
    ExperimentSpec,
    apply_desk_preset,
    compare_ablations,
    run_experiment,
)
from .stream import (
    BiasStreamConfig,
    StreamManifest,
    dataset_discrimination,
    generate_bias_stream,
    ingest,
    manifest_for_generated,
    write_stream_csv,
)

__all__ = ["main", "build_parser", "parse_seeds"]


def parse_seeds(text: str) -> tuple[int, ...]:
    """Accept "a:b" (half-open range) or a comma list like "0,3,7"."""
    text = text.strip()
    if ":" in text:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi <= lo:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(lo, hi))
    seeds = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trigger", choices=[p.value for p in TriggerPolicy], default=None)
    parser.add_argument("--selection", choices=[s.value for s in SelectionStrategy], default=None)
    parser.add_argument("--trend-threshold", type=float, default=None)
    parser.add_argument("--min-increase", type=float, default=None)
    parser.add_argument(
        "--hp-lambda", "--hp-smoothing", dest="hp_smoothing", type=float, default=None
    )
    parser.add_argument("--init", choices=[m.value for m in InitMode], default=None)
    parser.add_argument("--n-init-random", type=int, default=None)
    parser.add_argument("--no-warm-start", action="store_true")
    parser.add_argument("--tie-label", type=int, choices=[0, 1], default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--stm-cap", type=int, default=None)
    parser.add_argument("--ltm-cap", type=int, default=None)
    parser.add_argument("--min-stm-size", type=int, default=None)
    parser.add_argument("--swarm", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--archive-cap", type=int, default=None)
    parser.add_argument("--config", type=Path, default=None, help="engine config JSON")
    parser.add_argument("--preset", choices=["desk"], default=None)


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", type=Path, default=None)
    source.add_argument("--generator", type=Path, default=None, help="generator config JSON")
    parser.add_argument("--window-size", type=int, default=None)


def _spec_from_args(args: argparse.Namespace, **fields) -> ExperimentSpec:
    """The experiment that run's and ablate's flags describe.

    The engine config merges defaults, config file, preset, and flags; the
    experiment functions validate the spec before they load its stream.
    """
    config = EngineConfig()
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = EngineConfig.from_dict(json.load(fh))

    window_size = args.window_size
    if args.preset == "desk":
        config, window_size = apply_desk_preset(config, window_size)

    smpso = config.smpso
    if args.swarm is not None:
        smpso = replace(smpso, swarm_size=args.swarm)
    if args.iterations is not None:
        smpso = replace(smpso, iterations=args.iterations)
    if args.archive_cap is not None:
        smpso = replace(smpso, archive_capacity=args.archive_cap)
    config = replace(config, smpso=smpso)

    overrides = {
        "trigger": TriggerPolicy(args.trigger) if args.trigger else None,
        "selection": SelectionStrategy(args.selection) if args.selection else None,
        "trend_threshold": args.trend_threshold,
        "min_increase": args.min_increase,
        "hp_smoothing": args.hp_smoothing,
        "init_mode": InitMode(args.init) if args.init else None,
        "n_init_random": args.n_init_random,
        "tie_label": args.tie_label,
        "k": args.k,
        "stm_cap": args.stm_cap,
        "ltm_cap": args.ltm_cap,
        "min_stm_size": args.min_stm_size,
    }
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    if args.no_warm_start:
        config = replace(config, warm_start=False)
    return ExperimentSpec(
        engine=config,
        manifest_path=args.manifest,
        generator_config_path=args.generator,
        seeds=parse_seeds(args.seeds),
        window_size=window_size,
        **fields,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emosam",
        description="Fairness-aware stream classification with trend-triggered weight search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="multi-seed prequential runs")
    _add_source_flags(run)
    _add_engine_flags(run)
    run.add_argument("--seeds", type=str, default="0:30", help='"a:b" range or comma list')
    run.add_argument("--out", type=Path, default=Path("results"))
    run.add_argument("--baseline", action="store_true", help="also run the unweighted baseline")

    ablate = sub.add_parser("ablate", help="3x3 selection-by-trigger grid")
    _add_source_flags(ablate)
    _add_engine_flags(ablate)
    ablate.add_argument("--seeds", type=str, default="0:10")
    ablate.add_argument("--out", type=Path, default=Path("results/ablation.csv"))

    gen = sub.add_parser("gen", help="synthesize a biased stream CSV")
    gen.add_argument("--generator", type=Path, required=True, help="generator config JSON")
    gen.add_argument("--out", type=Path, required=True, help="CSV destination")
    gen.add_argument("--manifest-out", type=Path, default=None)

    inspect = sub.add_parser("inspect", help="ingest and summarize a manifest")
    inspect.add_argument("--manifest", type=Path, required=True)
    inspect.add_argument("--window-size", type=int, default=None)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    aggregate = run_experiment(_spec_from_args(args, output_dir=args.out, include_baseline=args.baseline))
    print(json.dumps(aggregate, indent=2))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    rows = compare_ablations(_spec_from_args(args), output_path=args.out)
    print(json.dumps(rows, indent=2))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    gen_config = BiasStreamConfig.from_json(args.generator)
    chunks = generate_bias_stream(gen_config)
    # Both directories exist before anything is written, so a bad path
    # leaves no CSV without its manifest.
    for path in (args.out, args.manifest_out):
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
    write_stream_csv(chunks, args.out)
    payload: dict = {
        "csv": str(args.out),
        "instances": sum(len(c) for c in chunks),
        "dimension": chunks[0].n_features,
    }
    if args.manifest_out is not None:
        # A manifest's relative source resolves against its own directory.
        source = os.path.relpath(args.out.resolve(), args.manifest_out.resolve().parent)
        manifest = manifest_for_generated(gen_config, source)
        manifest.to_json(args.manifest_out)
        payload["manifest"] = str(args.manifest_out)
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    manifest = StreamManifest.from_json(args.manifest)
    if args.window_size is not None:
        manifest = replace(manifest, window_size=args.window_size)
        manifest.validate()
    result = ingest(manifest)
    disc = dataset_discrimination(result.chunks)
    payload = {
        "instances": result.n_instances,
        "dimension": len(result.feature_names),
        "discrimination": disc,
        "discrimination_pct": round(100.0 * disc, 2),
        "rejected_rows": result.rejected_rows,
    }
    print(json.dumps(payload, indent=2))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "ablate": _cmd_ablate,
    "gen": _cmd_gen,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
