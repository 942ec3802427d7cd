"""emosam benchmark: prequential workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk-every --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs the closed-loop timed measurement and prints the end-to-end
metrics; ``--trace 1`` replays the workload's fixed window schedule untraced
and then traced, and prints the per-layer metrics. Both run the correctness
checks and exit non-zero when one fails. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in its own process.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("desk-hp", "desk-every", "default-retune")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def import_package() -> None:
    """Put the checkout's own src/ first on the path and import emosam from it."""
    src = ROOT / "src"
    if not (src / "emosam" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no emosam package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import emosam

    if Path(emosam.__file__).resolve().parent != (src / "emosam").resolve():
        raise SystemExit(f"perfbench: imported emosam from {emosam.__file__}, not {src}")


def run_one(args: argparse.Namespace) -> int:
    import_package()
    import harness

    wl = harness.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            out = harness.measure_traced(wl, args.seed, work)
        else:
            out = harness.measure(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    out["record"]["env"] = environment()
    out["record"]["checks"] = {k: {"ok": ok, "detail": d} for k, (ok, d) in out["checks"].items()}
    print(json.dumps(out["record"], default=str))
    for name, (value, unit) in out["metrics"].items():
        print(f"{wl.name:>15}  {name:<24} {value:>16.6g} {unit}")
    for name, (ok, detail) in out["checks"].items():
        print(f"{wl.name:>15}  check {name:<18} {'PASS' if ok else 'FAIL'}  {detail}")
    correct = all(ok for ok, _ in out["checks"].values())
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process, so peak memory and allocator state are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} exited with {proc.returncode} and no result", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        status = status or proc.returncode
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Pinned before numpy loads, so the BLAS pool never exceeds the core count.
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
