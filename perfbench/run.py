"""Benchmark entry point for oel.

    python3 perfbench/run.py --workload catalog_small --seed 1 --seconds 20 --trace 0

Run from the root of an oel checkout (the benchmark finds the checkout as
the parent of its own directory and imports oel from its ``src/``).  With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
measures the first half of the time untraced and the second half with the
per-layer spans of ``layertrace`` installed, and reports the per-layer
metrics plus the tracing overhead.

Standard output: a ``manifest:`` line, a human-readable metrics line, and as
the last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every output gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("catalog_small", "catalog_large", "triage", "integral_grids")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # one client, one thread: steadier than sharing the cores with BLAS workers


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(root: Path, args, workload, notes: dict) -> dict:
    import numpy as np
    import oel

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "oel_version": oel.__version__,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload.manifest(),
        **notes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "oel" / "__init__.py").is_file():
        print(f"error: no oel source tree at {root / 'src' / 'oel'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    result, notes = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), root, workload)
    print("manifest: " + json.dumps(manifest(root, args, workload, notes)))
    metrics = result["metrics"]
    if args.trace:
        units = {k: workloads.layer_unit(k) for k in metrics}
    else:
        units = dict(workloads.END_TO_END)
        shown = {workload.aliases.get(k, k): (v, units[k]) for k, v in metrics.items()}
        shown["error_rate"] = (result["failed"] / result["attempted"], "1")
        print(f"{args.workload}: " + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in shown.items()))
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
