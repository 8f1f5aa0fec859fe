"""Randomized verification harness over the inequality catalog.

Every trial is reconstructible from (case_id, seed, n) alone: the per-trial
seed keys one counter-based Philox stream, read in two bulk calls (see
:func:`oel.sampler.stream_draws`).  Its first words are the case's plan
(parameters and sandwich targets), the rest are the pair's spectra and
bases; there is no second seed.  Reports carry that per-trial seed so any
failure can be replayed exactly.

A suite works through its trials in windows of ``WINDOW_TRIALS``, in trial
order.  It groups a window's trials by n and evaluates each group as stacks
of shape ``(k, n, n)``, with k * n * n at most ``STACK_ENTRIES``: the stack's
streams are read into ``(k, ...)`` arrays, the planner maps their plan words
at once, and every later step is one numpy call for the k trials.  The
reports are folded into the suite's totals before the next window, so its
memory does not grow with the trial count.  :func:`run_trial` (and so
:func:`replay`) is the same kernel with k = 1, and stacked numpy calls give
each matrix the bits of a call on that matrix alone, so a replay reproduces
its suite row exactly.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from operator import attrgetter, itemgetter

import numpy as np

from .catalog import (
    InequalityCase,
    MarginReport,
    Region,
    case_index,
    catalog_with_duals,  # noqa: F401  (perfbench wraps the case lookups by this name)
    evaluate_trials,
    find_cases,
)
from .errors import HypothesisError, InvalidInput, NumericalBreakdown, ReportError
from .means import quadrature_tsallis, tsallis_entropy
from .sampler import dims_cycle, sandwich_stack, stream_draws
from .spd_core import ORDER_TOL

DEFAULT_TRIALS = 1000
DEFAULT_DIMS = (1, 2, 3, 4, 6, 8)
DEFAULT_SEED = 42
_MASK64 = (1 << 64) - 1

# The trials a suite draws, evaluates and folds at a time, and the most matrix
# entries (k * n * n) in one stack of a window's trials.  Both are the smallest
# powers of two past which larger values were not measurably faster (2-core VM,
# one BLAS thread): all 50 cases at n = 16, 32, 64 took about 1.9 ms per trial
# at 1 << 12 entries and 1.5-1.7 ms at 1 << 14 to 1 << 16 (peak RSS 40.0 ->
# 47.5 MB); 4096 trials at n = 1..8 took about 105 us per trial in windows of
# 256 and 80-95 us in windows of 1024 or 4096 (peak RSS 39.1 -> 45.9 MB).
WINDOW_TRIALS = 1024
STACK_ENTRIES = 1 << 14

# a report row's keys, in MarginReport field order
_REPORT_FIELDS = tuple(f.name for f in fields(MarginReport))
_report_values = attrgetter(*_REPORT_FIELDS)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):  # nan or inf decides every comparison one way
        raise InvalidInput(f"tolerance must be a finite number >= 0, got {tol}")


def case_by_id(case_id: str) -> InequalityCase:
    case = case_index().get(case_id)
    if case is None:
        raise InvalidInput(f"unknown case id: {case_id!r}")
    return case


def _evaluate_stack(case: InequalityCase, seeds: list[int], n: int, order_tol: float) -> list[MarginReport]:
    """The trial kernel: k trials of dimension n read from their seeds'
    streams, planned and built as one stacked pair, and evaluated at once."""
    plan_words, pair_words, normals = stream_draws(seeds, n)
    params, u_target, v_target = case.plan(plan_words)
    pair = sandwich_stack(pair_words, normals, u_target, v_target)
    return evaluate_trials(case, pair, params, seeds, order_tol=order_tol)


def run_trial(case: InequalityCase, trial_seed: int, n: int, *, order_tol: float = ORDER_TOL) -> MarginReport:
    """One deterministic trial: draw plan, sample pair, evaluate the case.
    A non-finite or negative ``order_tol`` is an InvalidInput."""
    _check_tol(order_tol)
    return _evaluate_stack(case, [trial_seed], n, order_tol)[0]


def replay(case_id: str, seed: int, n: int, *, order_tol: float = ORDER_TOL) -> MarginReport:
    """Reproduce a reported trial bit-for-bit from its identifying triple."""
    return run_trial(case_by_id(case_id), seed, n, order_tol=order_tol)


@dataclass(frozen=True)
class SuiteResult:
    """Aggregate outcome of many trials of one case."""

    case_id: str
    trials: int
    failures: int
    worst_margin: float
    worst_seed: int
    mean_margin: float
    elapsed_ms: int


def run_suite(
    case: InequalityCase,
    *,
    trials: int = DEFAULT_TRIALS,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    seed: int = DEFAULT_SEED,
    order_tol: float = ORDER_TOL,
    collect: list[MarginReport] | None = None,
) -> SuiteResult:
    """Run ``trials`` deterministic trials of one case, cycling dimensions.

    The trials are evaluated in windows and stacks (see the module notes);
    reports keep trial order.  A trial's NumericalBreakdown or
    HypothesisError is re-raised with its ``(case_id, seed, n)``, after the
    reports of the trials before it have been collected.  A non-finite or
    negative ``order_tol`` is an InvalidInput."""
    if trials < 1:
        raise InvalidInput("trials must be positive")
    _check_tol(order_tol)
    t0 = time.perf_counter()
    schedule = dims_cycle(dims, trials)
    failures = 0
    worst_margin = np.inf
    worst_seed = 0
    margin_sum = 0.0
    for lo in range(0, trials, WINDOW_TRIALS):
        window = [((seed ^ i) & _MASK64, n) for i, n in enumerate(schedule[lo : lo + WINDOW_TRIALS], start=lo)]
        for report in _window_reports(case, window, order_tol):
            margin_sum += report.margin
            if report.margin < worst_margin:
                worst_margin = report.margin
                worst_seed = report.seed
            if not report.holds:
                failures += 1
            if collect is not None:
                collect.append(report)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1e3))
    return SuiteResult(
        case_id=case.id,
        trials=trials,
        failures=failures,
        worst_margin=float(worst_margin),
        worst_seed=worst_seed,
        mean_margin=margin_sum / trials,
        elapsed_ms=elapsed_ms,
    )


def _stacks(window: list[tuple[int, int]]):
    """Positions in ``window`` (its trials' (seed, n)) grouped by n, in trial
    order within a group, cut to ``STACK_ENTRIES``; with each group's n."""
    groups: dict[int, list[int]] = {}
    for i, (_, n) in enumerate(window):
        groups.setdefault(n, []).append(i)
    for n, group in groups.items():
        size = max(1, STACK_ENTRIES // (n * n))
        for lo in range(0, len(group), size):
            yield group[lo : lo + size], n


def _window_reports(case: InequalityCase, window: list[tuple[int, int]], order_tol: float):
    """The window's reports, in trial order.  If a stack raises, the window is
    rerun one trial at a time through the same kernel: the reports before the
    earliest failing trial are yielded, then that trial's error is raised."""
    reports: list[MarginReport] = [None] * len(window)
    try:
        for stack, n in _stacks(window):
            for i, report in zip(stack, _evaluate_stack(case, [window[i][0] for i in stack], n, order_tol)):
                reports[i] = report
    except Exception as stack_exc:
        for seed, n in window:
            try:
                report = _evaluate_stack(case, [seed], n, order_tol)[0]
            except (NumericalBreakdown, HypothesisError) as exc:
                raise type(exc)(f"trial (case_id, seed, n) = ({case.id!r}, {seed}, {n}): {exc}") from exc
            yield report
        raise stack_exc  # no trial fails on its own
    yield from reports


def run_all(
    pattern: str = "*",
    *,
    trials: int = DEFAULT_TRIALS,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    seed: int = DEFAULT_SEED,
    order_tol: float = ORDER_TOL,
    collect: list[MarginReport] | None = None,
) -> list[SuiteResult]:
    """Run the suite for every case matching ``pattern`` (ids and groups)."""
    cases = find_cases(pattern)
    if not cases:
        raise InvalidInput(f"no cases match pattern {pattern!r}")
    return [
        run_suite(c, trials=trials, dims=dims, seed=seed, order_tol=order_tol, collect=collect)
        for c in cases
    ]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def report_to_dict(report: MarginReport) -> dict:
    """A report's fields by name, in field order (every value a plain Python scalar or None)."""
    return dict(zip(_REPORT_FIELDS, _report_values(report)))


def write_reports_jsonl(reports: list[MarginReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(report_to_dict(r)) + "\n")


def write_reports_csv(reports: list[MarginReport], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_FIELDS)
        for r in reports:
            d = report_to_dict(r)
            writer.writerow(["" if d[k] is None else d[k] for k in _REPORT_FIELDS])


def _finite(x) -> bool:
    return (type(x) is float or type(x) is int) and math.isfinite(x)


def _finite_or_null(x) -> bool:
    return x is None or _finite(x)


# what read_reports accepts in each field, as written (JSON booleans are not integers)
_FIELD_RULES = {
    "case_id": (lambda x: type(x) is str, "a string"),
    "seed": (lambda x: type(x) is int and x >= 0, "an integer >= 0"),
    "n": (lambda x: type(x) is int and x >= 1, "an integer >= 1"),
    "p": (_finite_or_null, "null or a finite number"),
    "q": (_finite_or_null, "null or a finite number"),
    "c": (_finite_or_null, "null or a finite number"),
    "u": (_finite, "a finite number"),
    "v": (_finite, "a finite number"),
    "margin": (_finite, "a finite number"),
    "scale": (_finite, "a finite number"),
    "holds": (lambda x: type(x) is bool, "true or false"),
}
_RULES = tuple((name, *_FIELD_RULES[name]) for name in _REPORT_FIELDS)
_report_items = itemgetter(*_REPORT_FIELDS)


def read_reports(path: str) -> list[MarginReport]:
    """Parse a JSONL report stream, pointing at the first malformed line.
    Values are taken as written, never coerced (see ``_FIELD_RULES``)."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values = _report_items(json.loads(line))
                for (name, ok, kind), x in zip(_RULES, values):
                    if not ok(x):
                        raise TypeError(f"{name!r} must be {kind}, got {x!r}")
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ReportError(f"{path}: malformed report on line {lineno}: {exc}") from exc
            case_id, seed, n, p, q, c, u, v, margin, scale, holds = values
            out.append(
                MarginReport(
                    case_id, seed, n,
                    p if p is None else float(p),
                    q if q is None else float(q),
                    c if c is None else float(c),
                    float(u), float(v), float(margin), float(scale),
                    holds,
                )
            )
    return out


def summarize(reports: list[MarginReport]) -> dict:
    """Per-case margin statistics plus run totals, JSON-ready."""
    per_case: dict[str, dict] = {}
    for r in reports:
        entry = per_case.setdefault(
            r.case_id,
            {"trials": 0, "failures": 0, "min_margin": np.inf, "mean_margin": 0.0},
        )
        entry["trials"] += 1
        entry["failures"] += not r.holds
        entry["min_margin"] = min(entry["min_margin"], r.margin)
        entry["mean_margin"] += r.margin
    for entry in per_case.values():
        entry["mean_margin"] /= entry["trials"]
        entry["min_margin"] = float(entry["min_margin"])
    return {
        "cases": dict(sorted(per_case.items())),
        "total_trials": len(reports),
        "total_failures": sum(not r.holds for r in reports),
    }


_SWEEP_REGION = Region(window=(0.25, 4.0))  # integral_sweep's sandwich targets


@dataclass(frozen=True)
class IntegralResult:
    """Worst quadrature-vs-closed-form residual across sampled pairs."""

    p: float
    trials: int
    max_residual: float
    max_allowed: float
    holds: bool


def integral_sweep(
    *,
    trials: int = 100,
    p_grid: tuple[float, ...] = (0.1, -0.1, 0.5, -0.5, 1.0, -1.0),
    nodes: int = 32,
    tol: float = ORDER_TOL,
    seed: int = DEFAULT_SEED,
    dims: tuple[int, ...] = DEFAULT_DIMS,
) -> list[IntegralResult]:
    """Check the averaged-entropy identity: the unit-interval quadrature of
    the entropy family reproduces the closed form on every sampled pair.
    A non-finite or negative ``tol`` is an InvalidInput."""
    if trials < 1:
        raise InvalidInput("trials must be positive")
    _check_tol(tol)
    for p in p_grid:
        if not (0.0 < abs(p) <= 1.0):
            raise InvalidInput(f"p grid value outside [-1, 1] \\ {{0}}: {p}")
    pairs = []
    for i, n in enumerate(dims_cycle(dims, trials)):
        plan_words, pair_words, normals = stream_draws([(seed ^ i) & _MASK64], n)
        _, u_target, v_target = _SWEEP_REGION.plan(plan_words)
        pairs.append(sandwich_stack(pair_words[0], normals[0], u_target[0], v_target[0]))
    out = []
    for p in p_grid:
        worst = 0.0
        worst_allowed = tol
        ok = True
        for pair in pairs:
            quad = quadrature_tsallis(pair, p, nodes=nodes)
            closed = tsallis_entropy(pair, p)
            resid = float(np.linalg.norm(quad - closed, 2))
            scale = max(1.0, float(np.linalg.norm(quad, 2)), float(np.linalg.norm(closed, 2)))
            allowed = tol * scale
            if resid > worst:
                worst = resid
                worst_allowed = allowed
            if resid > allowed:
                ok = False
        out.append(IntegralResult(p=p, trials=trials, max_residual=worst, max_allowed=worst_allowed, holds=ok))
    return out


def suite_results_to_dict(results: list[SuiteResult]) -> dict:
    return {
        "cases": [asdict(r) for r in results],
        "total_trials": sum(r.trials for r in results),
        "total_failures": sum(r.failures for r in results),
        "worst_margin": min((r.worst_margin for r in results), default=float("inf")),
    }
