"""Randomized verification harness over the inequality catalog.

Every trial is reconstructible from (case_id, seed, n) alone: the per-trial
seed feeds one counter-based generator that first draws the case's plan
(parameters and sandwich targets), then a pair seed for the matrix sampler.
Reports carry that per-trial seed so any failure can be replayed exactly.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .catalog import InequalityCase, MarginReport, catalog_with_duals, evaluate, find_cases
from .errors import HypothesisError, InvalidInput, NumericalBreakdown, ReportError
from .means import quadrature_tsallis, tsallis_entropy
from .sampler import SamplerConfig, dims_cycle, generator, sandwich_pair
from .spd_core import ORDER_TOL

DEFAULT_TRIALS = 1000
DEFAULT_DIMS = (1, 2, 3, 4, 6, 8)
DEFAULT_SEED = 42
_MASK64 = (1 << 64) - 1

_REPORT_FIELDS = ("case_id", "seed", "n", "p", "q", "c", "u", "v", "margin", "scale", "holds")


def case_by_id(case_id: str) -> InequalityCase:
    for c in catalog_with_duals():
        if c.id == case_id:
            return c
    raise InvalidInput(f"unknown case id: {case_id!r}")


def run_trial(case: InequalityCase, trial_seed: int, n: int, *, order_tol: float = ORDER_TOL) -> MarginReport:
    """One deterministic trial: draw plan, sample pair, evaluate the case."""
    rng = generator(trial_seed)
    plan = case.plan(rng)
    pair_seed = int(rng.integers(0, 1 << 63))
    cfg = SamplerConfig(seed=pair_seed, n=n, sandwich=(plan.u_target, plan.v_target))
    pair = sandwich_pair(cfg)
    return evaluate(case, pair, plan.params, order_tol=order_tol, seed=trial_seed)


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
    A trial's NumericalBreakdown or HypothesisError is re-raised with its
    ``(case_id, seed, n)``."""
    if trials < 1:
        raise InvalidInput("trials must be positive")
    t0 = time.perf_counter()
    failures = 0
    worst_margin = np.inf
    worst_seed = 0
    margin_sum = 0.0
    for i, n in enumerate(dims_cycle(dims, trials)):
        trial_seed = (seed ^ i) & _MASK64
        try:
            report = run_trial(case, trial_seed, n, order_tol=order_tol)
        except (NumericalBreakdown, HypothesisError) as exc:
            raise type(exc)(f"trial (case_id, seed, n) = ({case.id!r}, {trial_seed}, {n}): {exc}") from exc
        margin_sum += report.margin
        if report.margin < worst_margin:
            worst_margin = report.margin
            worst_seed = trial_seed
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
    return asdict(report)


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


def read_reports(path: str) -> list[MarginReport]:
    """Parse a JSONL report stream, pointing at the first malformed line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                out.append(
                    MarginReport(
                        case_id=str(raw["case_id"]),
                        seed=int(raw["seed"]),
                        n=int(raw["n"]),
                        p=None if raw["p"] is None else float(raw["p"]),
                        q=None if raw["q"] is None else float(raw["q"]),
                        c=None if raw["c"] is None else float(raw["c"]),
                        u=float(raw["u"]),
                        v=float(raw["v"]),
                        margin=float(raw["margin"]),
                        scale=float(raw["scale"]),
                        holds=bool(raw["holds"]),
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ReportError(f"{path}: malformed report on line {lineno}: {exc}") from exc
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
    the entropy family reproduces the closed form on every sampled pair."""
    for p in p_grid:
        if not (0.0 < abs(p) <= 1.0):
            raise InvalidInput(f"p grid value outside [-1, 1] \\ {{0}}: {p}")
    pairs = []
    for i, n in enumerate(dims_cycle(dims, trials)):
        trial_seed = (seed ^ i) & _MASK64
        rng = generator(trial_seed)
        pair_seed = int(rng.integers(0, 1 << 63))
        lo, hi = np.sort(rng.uniform(0.25, 4.0, 2))
        cfg = SamplerConfig(seed=pair_seed, n=n, sandwich=(float(lo), float(hi)))
        pairs.append(sandwich_pair(cfg))
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
