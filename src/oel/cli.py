"""Command-line interface.

Subcommands
-----------
verify    run randomized trials of the inequality catalog and report margins
probe     reproduce pinned scalar spot-values, or difference two scalar fns
integral  check the quadrature identity for the entropy family
report    aggregate JSON-lines trial reports into a summary

Exit codes: 0 all checks passed, 1 verification failures, 2 usage error,
3 I/O or parse error, 4 numerical breakdown or hypothesis violation in a
trial.  The master seed is --seed, 42 by default.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, scalars
from .errors import DomainError, HypothesisError, InvalidInput, InvalidWeight, NumericalBreakdown, ReportError
from .spd_core import ORDER_TOL

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TRIAL = 4


def _dims_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")


def _floats_arg(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty float list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oel",
        description="Verify positive-definite order inequalities for operator "
        "means and relative operator entropies on random SPD pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run randomized trials of the inequality catalog")
    v.add_argument("--case", default="*", help="case id or glob matched against ids and groups (default: all)")
    v.add_argument("--trials", type=int, default=harness.DEFAULT_TRIALS, help="trials per case")
    v.add_argument("--dims", type=_dims_arg, default=harness.DEFAULT_DIMS, help="comma list of matrix sizes to cycle")
    v.add_argument("--seed", type=int, default=harness.DEFAULT_SEED, help="master seed (default: %(default)s)")
    v.add_argument("--out", default=None, help="write per-trial reports to this path")
    v.add_argument("--format", choices=("json", "csv"), default=None, help="--out file format (default json = JSON lines)")

    p = sub.add_parser("probe", help="reproduce pinned scalar values or difference two scalar functions")
    p.add_argument("probe_id", nargs="?", default=None, help="pinned probe id (default: run all)")
    p.add_argument("--fns", default=None, help="FIRST,SECOND registered scalar ids; prints SECOND - FIRST on the --x grid")
    p.add_argument("--x", type=_floats_arg, default=None, help="comma list of evaluation points")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--out", default=None, help="write values to this path")
    p.add_argument("--format", choices=("json", "csv"), default=None, help="--out file format (default json)")

    i = sub.add_parser("integral", help="check the quadrature identity for the entropy family")
    i.add_argument("--trials", type=int, default=harness.INTEGRAL_TRIALS, help="random pairs to sample")
    i.add_argument("--p-grid", dest="p_grid", type=_floats_arg,
                   default=harness.INTEGRAL_P_GRID, help="comma list of weights")
    i.add_argument("--nodes", type=int, default=harness.INTEGRAL_NODES, help="quadrature nodes")
    i.add_argument("--tol", type=float, default=ORDER_TOL, help="residual tolerance relative to scale")
    i.add_argument("--seed", type=int, default=harness.DEFAULT_SEED, help="master seed (default: %(default)s)")
    i.add_argument("--dims", type=_dims_arg, default=harness.DEFAULT_DIMS)

    r = sub.add_parser("report", help="aggregate JSON-lines trial reports")
    r.add_argument("paths", nargs="+", help="report files to merge")
    r.add_argument("--out", default=None, help="write the summary JSON to this path")

    return parser


def _cmd_verify(args) -> int:
    # --out rows are held as column blocks until written: no report object per row
    collect = harness.ReportBlocks() if args.out else None
    results = harness.run_all(
        args.case,
        trials=args.trials,
        dims=args.dims,
        seed=args.seed,
        collect=collect,
    )
    for r in results:
        status = "ok" if r.failures == 0 else "FAIL"
        print(
            f"{r.case_id}: {status} trials={r.trials} failures={r.failures} "
            f"worst_margin={r.worst_margin:.6e} worst_seed={r.worst_seed} ({r.elapsed_ms} ms)"
        )
    if args.out:
        if args.format == "csv":
            harness.write_reports_csv(collect, args.out)
        else:
            harness.write_reports_jsonl(collect, args.out)
    summary = harness.suite_results_to_dict(results)
    print("summary: " + json.dumps({k: summary[k] for k in ("total_trials", "total_failures", "worst_margin")}))
    return EXIT_OK if summary["total_failures"] == 0 else EXIT_FAILURES


def _cmd_probe(args) -> int:
    if not args.fns and any(v is not None for v in (args.x, args.p, args.c)):
        raise InvalidInput("--x, --p and --c need --fns; a pinned probe has its own points")
    all_ok = True
    if args.fns:
        if args.probe_id is not None:
            raise InvalidInput("give either a probe id or --fns, not both")
        ids = [tok.strip() for tok in args.fns.split(",")]
        if len(ids) != 2:
            raise InvalidInput("--fns takes exactly two comma-separated ids")
        if args.x is None:
            raise InvalidInput("--fns mode needs an --x grid")
        params = {k: v for k, v in (("p", args.p), ("c", args.c)) if v is not None}
        first, second = (scalars.grid_rows(fn_id, args.x, **params) for fn_id in ids)
        for r1, r2 in zip(first, second):
            diff = r2["value"] - r1["value"]
            print(f"x={r1['x']:g}: {ids[0]}={r1['value']:.9g} {ids[1]}={r2['value']:.9g} diff={diff:.9g}")
        rows = payload = first + second
    else:
        payload, rows = [], []
        for pid in [args.probe_id] if args.probe_id else sorted(scalars.PROBES):
            vals, spec, ok = scalars.run_probe(pid)
            all_ok = all_ok and ok
            for label, v, e in zip(spec.labels, vals, spec.expected):
                mark = "ok" if abs(v - e) <= spec.tol else "FAIL"
                print(f"probe {pid} [{label}]: {v:.6f} expected {e:.6f} ({mark})")
            payload.append({"probe_id": pid, "values": vals, "expected": list(spec.expected), "ok": ok})
            rows.extend(scalars._probe_rows(pid, vals, spec))
    if args.out:
        if args.format == "csv":
            scalars.export_rows_csv(rows, args.out)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
    return EXIT_OK if all_ok else EXIT_FAILURES


def _cmd_integral(args) -> int:
    results = harness.integral_sweep(
        trials=args.trials,
        p_grid=args.p_grid,
        nodes=args.nodes,
        tol=args.tol,
        seed=args.seed,
        dims=args.dims,
    )
    ok = True
    for r in results:
        mark = "ok" if r.holds else "FAIL"
        print(f"p={r.p:+.3g}: max residual {r.max_residual:.3e} (allowed {r.max_allowed:.3e}) over {r.trials} pairs ({mark})")
        ok = ok and r.holds
    return EXIT_OK if ok else EXIT_FAILURES


def _cmd_report(args) -> int:
    reports = []
    for path in args.paths:
        reports.extend(harness.read_reports(path))
    summary = harness.summarize(reports)
    text = json.dumps(summary, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK if summary["total_failures"] == 0 else EXIT_FAILURES


_COMMANDS = {
    "verify": _cmd_verify,
    "probe": _cmd_probe,
    "integral": _cmd_integral,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; keep its code
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        if getattr(args, "format", None) and not args.out:  # --format chooses the --out file's format
            raise InvalidInput("--format needs --out")
        return _COMMANDS[args.command](args)
    except (ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidInput, InvalidWeight, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalBreakdown, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRIAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
