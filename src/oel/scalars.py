"""Scalar companions of the operator inequalities.

Every operator mean and relative entropy in this package acts on the spectrum
of the contraction C = A^{-1/2} B A^{-1/2} through a scalar representing
function.  This module collects those scalar functions, the auxiliary bound
families built from them, and grid-based checkers (chain verification, sign
tables, and spot-value probes) that certify the scalar inequalities
independently of any matrix machinery.  The chains (:data:`CHAINS`) are
filled by :mod:`oel.catalog`, which declares each inequality once: every
declaration yields one chain, its terms on its hypothesis region, so every
case (duals included) has its scalar check.  The check evaluates the
terms' scalar twins on every row of the region's grid, built when the chain
is verified on the grid's own axes: a :class:`Params` whose arrays
broadcast to the row shape (p, q and c each on an axis of its own), the
points x (one ``(1, 1, 1, m)`` row that every row shares, or on the axes
its sandwich edges read), and a mask of the rows (``(p < q) & (lo < hi)``)
or None.  On a shared x row each twin is evaluated once, by broadcasting,
on the axes it reads: once per value of the weight it reads.  Only the
kept rows are visited.  A grid row outside its region would be a bug of
the grid, not a point to skip, so no row is filtered but by the grid's own
mask; a scan on another grid is ``replace(spec, region=obj)`` for any
``obj`` whose ``grid()`` returns the three (flat ``(G, 1, 1)`` fields with
``(G, 1, 1, m)`` x and no mask is one such grid).  The sign tables
(:data:`SIGN_CLAIMS`) are the dense sweeps through the frozen probes, where
neither bound dominates.

Conventions: ``x`` (or ``t``) is a positive real, ``p``/``q`` are weight
parameters, ``c`` is a curvature coefficient.  All functions are vectorized
over ``x``; the representing functions and the twins of catalog terms also
take one parameter per matrix of a stack, shaped to broadcast against ``x``.
"""

from __future__ import annotations

import csv
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, HypothesisError, InvalidInput

if TYPE_CHECKING:  # catalog imports this module (through means)
    from .catalog import Region, Term

# sign witnesses must clear this threshold ...
SIGN_WITNESS = 1e-10
# ... while violations may not exceed this one
SIGN_SLACK = 1e-12


@dataclass(frozen=True)
class Params:
    """Scalar parameters of a trial or of a chain grid's rows; unused ones
    stay None.  Inside :func:`oel.catalog.evaluate_trials` the terms see one
    Params whose fields hold the trials' values as ``(k, 1, 1)`` arrays, and
    in :func:`verify_scalar_chain` the twins see a grid's axes with an x
    axis appended (``(P, 1, 1, 1)`` p, ``(1, Q, 1, 1)`` q and
    ``(1, 1, C, 1)`` c), or a block of its kept rows (``(b, 1)``)."""

    p: float | None = None
    q: float | None = None
    c: float | None = None


def _pos(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any() or not np.isfinite(x).all():
        raise DomainError("arguments must be finite and strictly positive")
    return x


# ---------------------------------------------------------------------------
# representing functions of the basic means and entropies
# ---------------------------------------------------------------------------

def tsallis_log(x, p: float):
    """(x**p - 1)/p, with the p -> 0 limit log(x); stable via expm1/log.
    An array ``p`` (one weight per matrix of a stack) takes the limit where it is 0."""
    return _tsallis_of_log(np.log(_pos(x)), p)


def _tsallis_of_log(lg, p: float):
    """:func:`tsallis_log` from ``lg = log(x)``."""
    if getattr(p, "ndim", 0):  # one weight per matrix of a stack
        if not (p == 0.0).any():
            return np.expm1(p * lg) / p
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p == 0.0, lg, np.expm1(p * lg) / p)
    return lg if p == 0.0 else np.expm1(p * lg) / p


def power_log(x, p: float):
    """x**p * log(x)."""
    x = _pos(x)
    return x ** p * np.log(x)


def arith_rep(x, p: float):
    """(1-p) + p*x, the weighted arithmetic mean of 1 and x."""
    return (1.0 - p) + p * np.asarray(x, dtype=float)


def harm_rep(x, p: float):
    """x / ((1-p)*x + p), the weighted harmonic mean of 1 and x."""
    x = _pos(x)
    return x / ((1.0 - p) * x + p)


def power_rep(x, p: float):
    """x**p, the weighted geometric mean of 1 and x."""
    return _pos(x) ** p


# ---------------------------------------------------------------------------
# bound families around the Tsallis gap (t**p - 1)/p
# ---------------------------------------------------------------------------

def tsallis_half_gap(x, p: float):
    """(tsallis_log(x, p) - tsallis_log(x, p-1)) / 2."""
    return 0.5 * (tsallis_log(x, p) - tsallis_log(x, p - 1.0))


def tsallis_mid_gap(x, p: float):
    """4 * (tsallis_log(m, p) - tsallis_log(m, p-1)) at the midpoint m = (x+1)/2."""
    m = 0.5 * (_pos(x) + 1.0)
    return 4.0 * (tsallis_log(m, p) - tsallis_log(m, p - 1.0))


def tsallis_end_slope(x, p: float):
    """(tsallis_log(x, p) - (x-1)) / (p-1): slope of p |-> tsallis_log between p and 1."""
    if np.any(p == 1.0):
        raise DomainError("end slope is undefined at p = 1")
    x = _pos(x)
    return (tsallis_log(x, p) - (x - 1.0)) / (p - 1.0)


def mid_gap_excess(x, p: float):
    """tsallis_mid_gap - tsallis_half_gap (nonnegative for x >= 1)."""
    return tsallis_mid_gap(x, p) - tsallis_half_gap(x, p)


def mid_power_decay(x, p: float):
    """((x+1)/2)**(p-2) - x**(p-2)/2; equals 1/2 at x = 1, decays for large x."""
    x = _pos(x)
    return (0.5 * (x + 1.0)) ** (p - 2.0) - 0.5 * x ** (p - 2.0)


def hh_lower(x, p: float):
    """((x+1)/2)**(p-1) * (x-1), midpoint-rule lower bound for the Tsallis gap."""
    x = _pos(x)
    return (0.5 * (x + 1.0)) ** (p - 1.0) * (x - 1.0)


def hh_upper(x, p: float):
    """((x**(p-1) + 1)/2) * (x-1), trapezoid-rule upper bound for the Tsallis gap."""
    x = _pos(x)
    return 0.5 * (x ** (p - 1.0) + 1.0) * (x - 1.0)


def quad_lower(x, p: float):
    """Quadratic-correction lower bound:
    (x**(p-1) - 1)/(p-3) + (p-1)/(2*(3-p)) * (x**2 - 1) + (x - 1)."""
    x = _pos(x)
    return (x ** (p - 1.0) - 1.0) / (p - 3.0) + (p - 1.0) / (2.0 * (3.0 - p)) * (x * x - 1.0) + (x - 1.0)


def quad_upper_probe(x, p: float):
    """Spot-value probe form of the quadratic-correction upper bound:
    (x-1) + 2*((x+1)/2)**(p-1) - 4*tsallis_log((x+1)/2, p).

    Not a valid upper bound for the Tsallis gap; kept verbatim because the
    frozen reference spot-values are computed from exactly this expression.
    """
    x = _pos(x)
    m = 0.5 * (x + 1.0)
    return (x - 1.0) + 2.0 * m ** (p - 1.0) - 4.0 * tsallis_log(m, p)


def quad_upper(x, p: float):
    """Exact quadratic-correction upper bound:
    (x-1) + 2*(x-1)*((x+1)/2)**(p-1) - 4*tsallis_log((x+1)/2, p)."""
    x = _pos(x)
    m = 0.5 * (x + 1.0)
    return (x - 1.0) + 2.0 * (x - 1.0) * m ** (p - 1.0) - 4.0 * tsallis_log(m, p)


def avg_power_log(x, p: float):
    """(log(x) + power_log(x, p)) / 2 = ((x**p + 1)/2) * log(x)."""
    x = _pos(x)
    return 0.5 * (np.log(x) + power_log(x, p))


# the four crossings: each is swept by its sign claim and pinned by a probe
def lower_gap(x, p: float):
    """quad_lower - hh_lower: sign decides which lower bound is tighter."""
    return quad_lower(x, p) - hh_lower(x, p)


def upper_gap(x, p: float):
    """hh_upper - quad_upper_probe: sign decides which upper bound is tighter."""
    return hh_upper(x, p) - quad_upper_probe(x, p)


def entropy_lower_gap(x, p: float):
    """power_log(x, p/2) - hh_lower: sign decides which entropy lower member is larger."""
    return power_log(x, p / 2.0) - hh_lower(x, p)


def entropy_upper_gap(x, p: float):
    """hh_upper - avg_power_log: sign decides which entropy upper member is larger."""
    return hh_upper(x, p) - avg_power_log(x, p)


# ---------------------------------------------------------------------------
# logarithmic defect family (drives the entropy-difference monotonicity)
# ---------------------------------------------------------------------------

def log_defect(x, c: float):
    """1 - x + x*log(x) - c*x*log(x)**2."""
    x = _pos(x)
    lg = np.log(x)
    return 1.0 - x + x * lg - c * x * lg * lg


def entropy_drift(x, p: float, c: float):
    """tsallis_log(x, p) - c * power_log(x, p): the per-eigenvalue difference
    of the Tsallis gap and c times the generalized entropy term, both from
    one check of x and one log(x)."""
    x = _pos(x)
    lg = np.log(x)
    return _tsallis_of_log(lg, p) - c * (x ** p * lg)


# ---------------------------------------------------------------------------
# weighted-mean gap family
# ---------------------------------------------------------------------------

def mean_gap(x, p: float):
    """tsallis_log(x, p) - (x - 1) = (x**p - 1 - p*(x-1))/p."""
    x = _pos(x)
    return tsallis_log(x, p) - (x - 1.0)


def mean_gap_scaled(x, p: float):
    """((1-p) + p*x - x**p) / (p*(1-p)): arithmetic-geometric gap, normalized."""
    if np.any((p == 0.0) | (p == 1.0)):
        raise DomainError("normalized gap undefined at p in {0, 1}")
    x = _pos(x)
    return ((1.0 - p) + p * x - x ** p) / (p * (1.0 - p))


def geom_harm_gap_rate(x, p: float):
    """(power_rep - harm_rep) / p: geometric-harmonic gap per unit weight."""
    if np.any(p == 0.0):
        raise DomainError("gap rate undefined at p = 0")
    return (power_rep(x, p) - harm_rep(x, p)) / p


def geom_to_harm_ratio(x, p: float):
    """x**p / ((1-p) + p/x): geometric mean over harmonic mean."""
    x = _pos(x)
    return x ** p / ((1.0 - p) + p / x)


def harm_drop_rate(x, p: float):
    """((1-p) + p/x - x**(-p)) / p: arithmetic-geometric gap at 1/x, per unit weight."""
    if np.any(p == 0.0):
        raise DomainError("drop rate undefined at p = 0")
    x = _pos(x)
    return ((1.0 - p) + p / x - x ** (-p)) / p


def chord_log_ratio(x):
    """(x - 1)/log(x), continuously extended to 1 at x = 1."""
    x = _pos(x)
    near_one = np.abs(x - 1.0) < 1e-12
    safe = np.where(near_one, 2.0, x)
    return np.where(near_one, 1.0, (x - 1.0) / np.log(safe))


def harm_secant(x, p: float):
    """(x - 1) / ((1-p)*x + p)."""
    x = _pos(x)
    return (x - 1.0) / ((1.0 - p) * x + p)


def geom_harm_log2(x, p: float):
    """geom_harm_gap_rate(x, p) + p * log(x)**2."""
    x = _pos(x)
    return geom_harm_gap_rate(x, p) + p * np.log(x) ** 2


# ---------------------------------------------------------------------------
# registry (for CSV export and the CLI probe machinery)
# ---------------------------------------------------------------------------

# each function takes x, then the parameters its signature names after it
REGISTRY: dict[str, Callable] = {
    "tsallis": tsallis_log,
    "gen_entropy": power_log,
    "arith": arith_rep,
    "harm": harm_rep,
    "power": power_rep,
    "half_gap": tsallis_half_gap,
    "mid_gap": tsallis_mid_gap,
    "end_slope": tsallis_end_slope,
    "mid_gap_excess": mid_gap_excess,
    "mid_power_decay": mid_power_decay,
    "quad_lower": quad_lower,
    "quad_upper_probe": quad_upper_probe,
    "quad_upper": quad_upper,
    "lower_gap": lower_gap,
    "upper_gap": upper_gap,
    "hh_lower": hh_lower,
    "hh_upper": hh_upper,
    "avg_power_log": avg_power_log,
    "log_defect": log_defect,
    "entropy_drift": entropy_drift,
    "mean_gap": mean_gap,
    "mean_gap_scaled": mean_gap_scaled,
    "geom_harm_gap_rate": geom_harm_gap_rate,
    "geom_to_harm_ratio": geom_to_harm_ratio,
    "harm_drop_rate": harm_drop_rate,
    "chord_log_ratio": chord_log_ratio,
    "harm_secant": harm_secant,
    "geom_harm_log2": geom_harm_log2,
}


def _lookup(table: dict, key: str, what: str):
    """The entry of ``table`` (one of this module's registries) at ``key``;
    a key that is not a string in it is an InvalidInput listing the known ones."""
    if not isinstance(key, str) or key not in table:
        raise InvalidInput(f"unknown {what} {key!r}; known: {sorted(table)}")
    return table[key]


# ---------------------------------------------------------------------------
# frozen reference spot-values (reproduction targets for the probe command)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeSpec:
    """A named spot-check: ``fn(x, p)`` at each labeled ``(fn, x, p)`` of ``points``, with frozen targets."""

    probe_id: str
    description: str
    labels: tuple[str, ...]
    points: tuple[tuple[Callable, float, float], ...]
    expected: tuple[float, ...]
    tol: float = 1e-5


PROBES: dict[str, ProbeSpec] = {
    s.probe_id: s
    for s in [
        ProbeSpec(
            "2.3i",
            "entropy lower members cross: x^{p/2} log x vs ((x+1)/2)^{p-1}(x-1) at x=3",
            ("p=0.25", "p=0.75"),
            ((entropy_lower_gap, 3.0, 0.25), (entropy_lower_gap, 3.0, 0.75)),
            (0.071123, -0.023104),
        ),
        ProbeSpec(
            "2.3ii",
            "entropy upper members cross: ((x^{p-1}+1)/2)(x-1) vs ((x^p+1)/2) log x at x=3",
            ("p=0.25", "p=0.75"),
            ((entropy_upper_gap, 3.0, 0.25), (entropy_upper_gap, 3.0, 0.75)),
            (0.166458, -0.0416177),
        ),
        ProbeSpec(
            "2.5",
            "quadratic-correction vs midpoint/trapezoid bounds at p=1/2: "
            "lower_gap then upper_gap at x=3/2 and x=5/2",
            ("lower_gap@1.5", "lower_gap@2.5", "upper_gap@1.5", "upper_gap@2.5"),
            ((lower_gap, 1.5, 0.5), (lower_gap, 2.5, 0.5), (upper_gap, 1.5, 0.5), (upper_gap, 2.5, 0.5)),
            (0.00118777, -0.0118756, -0.890458, 0.795489),
        ),
    ]
}


def run_probe(probe_id: str) -> tuple[list[float], ProbeSpec, bool]:
    """Evaluate a registered probe; returns (values, spec, all_within_tol)."""
    spec = _lookup(PROBES, probe_id, "probe id")
    vals = [float(fn(x, p)) for fn, x, p in spec.points]
    ok = all(abs(v - e) <= spec.tol for v, e in zip(vals, spec.expected))
    return vals, spec, ok


# ---------------------------------------------------------------------------
# chain verification on dense grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """An ordered family of catalog terms, ``members`` (each with its name and
    its scalar twin ``f(x, params)``), claimed as member_i <= member_{i+1}
    on the rows of ``region.grid()``: a :class:`Params` whose arrays
    broadcast to a 3-axis row shape, an x array with one more axis
    (``(1, 1, 1, m)`` shared by every row, or spanning the row axes that
    x varies on), and a boolean mask that broadcasts to the row shape, or
    None."""

    chain_id: str
    members: tuple[Term, ...]
    region: Region


@dataclass(frozen=True)
class ChainResult:
    chain_id: str
    worst_violation: float
    points_checked: int
    worst_point: tuple


# Filled in place by oel.catalog at import (catalog imports means, which
# imports this module, so the chains cannot be built here): one per catalog
# declaration, its terms on the grid of its region.
CHAINS: dict[str, ChainSpec] = {}

STACK_POINTS = 1 << 14  # kept points per block of verify_scalar_chain


def _rows(a: np.ndarray, at: tuple[np.ndarray, ...]) -> np.ndarray:
    """A grid array (three row axes, then one more) at the rows ``at``, one
    index array per row axis: ``(b, n)``, or the shared ``(n,)`` when every
    row axis of ``a`` has one point."""
    return a[tuple(i if n > 1 else 0 for i, n in zip(at, a.shape))]


def verify_scalar_chain(chain_id: str) -> ChainResult:
    """Check every adjacent pair of the chain ``CHAINS[chain_id]`` on every
    row of its region's grid; an empty grid is a HypothesisError.

    Returns
    -------
    ChainResult
        ``worst_violation`` is the minimum over the grid of
        (member_{i+1} - member_i), at the earliest row that attains it (rows
        in row-major order, x innermost); nonnegative (up to -1e-12) when
        the chain holds, and NaN when a difference is not a number.

    The grid is evaluated on its own axes: the members' twins see one
    :class:`Params` whose fields are the grid's with an x axis appended, and
    x as given.  Where x is one shared row, each twin is called once, so its
    output spans only the axes it reads (a member at q is evaluated once per
    value of q); where x varies by row, the twins are called per block.
    Only the kept rows of the grid's mask are visited, in row-major order,
    in blocks of at most ``STACK_POINTS`` points (at least one row), each
    gathered from the axes as ``(b, m)``.
    """
    spec = _lookup(CHAINS, chain_id, "chain id")
    params, xs, rows = spec.region.grid()
    grid = [a if a is None else a[..., None] for a in (params.p, params.q, params.c)]
    shape = np.broadcast_shapes(xs.shape, *(a.shape for a in grid if a is not None))
    kept = np.flatnonzero(np.broadcast_to(True if rows is None else rows, shape[:-1]))
    m = shape[-1]
    if kept.size * m == 0:
        raise HypothesisError(f"the grid of chain {chain_id!r} has no point")
    shared = xs.size == m  # one x row for every row: each twin once, on the axes it reads
    if shared:
        vals = [t.f(xs, Params(*grid)) for t in spec.members]
    worst = np.inf
    worst_point: tuple = ()
    step = max(1, STACK_POINTS // m)
    for start in range(0, kept.size, step):
        at = np.unravel_index(kept[start : start + step], shape[:-1])
        block = [a if a is None else _rows(a, at) for a in grid]
        x = _rows(xs, at)
        if shared:
            block_vals = [_rows(v, at) for v in vals]
        else:
            block_vals = [t.f(x, Params(*block)) for t in spec.members]
        for lo_vals, hi_vals in zip(block_vals[:-1], block_vals[1:]):
            diff = np.broadcast_to(hi_vals - lo_vals, (len(at[0]), m))  # the block's points, in row-major order
            i = int(np.argmin(diff))  # the first NaN, if there is one
            if not (np.isnan(worst) or diff.flat[i] >= worst):
                worst = float(diff.flat[i])
                worst_point = tuple(float(np.broadcast_to(a, diff.shape).flat[i]) for a in (*block, x) if a is not None)
    return ChainResult(chain_id, float(worst), kept.size * m, worst_point)


# ---------------------------------------------------------------------------
# sign tables: dense sweeps through the frozen probes, where no bound dominates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignClaim:
    """A claim about the sign of ``fn(x, p)`` over a dense sample of x or of p."""

    claim_id: str
    description: str
    fn: Callable
    x: float | np.ndarray
    p: float | np.ndarray
    expected: str  # "nonnegative" | "nonpositive" | "mixed"


@dataclass(frozen=True)
class SignReport:
    claim_id: str
    classification: str
    min_value: float
    max_value: float
    points: int


_MIXED_X = np.linspace(1.0, 3.0, 12000)
_MIXED_P = np.linspace(0.05, 0.95, 10000)
_MIXED_X.flags.writeable = _MIXED_P.flags.writeable = False  # every caller shares them

SIGN_CLAIMS: dict[str, SignClaim] = {
    s.claim_id: s
    for s in [
        SignClaim(
            "lower_gap_mixed",
            "quad_lower - hh_lower changes sign on x in [1, 3] at p = 1/2",
            lower_gap, _MIXED_X, 0.5,
            "mixed",
        ),
        SignClaim(
            "upper_gap_mixed",
            "hh_upper - quad_upper_probe changes sign on x in [1, 3] at p = 1/2",
            upper_gap, _MIXED_X, 0.5,
            "mixed",
        ),
        SignClaim(
            "entropy_lower_members_mixed",
            "x^{p/2} log x - hh_lower changes sign over p in (0,1) at x = 3",
            entropy_lower_gap, 3.0, _MIXED_P,
            "mixed",
        ),
        SignClaim(
            "entropy_upper_members_mixed",
            "hh_upper - avg_power_log changes sign over p in (0,1) at x = 3",
            entropy_upper_gap, 3.0, _MIXED_P,
            "mixed",
        ),
    ]
}


def sign_table(claim_id: str) -> SignReport:
    """Classify a registered sign claim on its dense sample; a value that is
    not finite is a DomainError naming the first point that gives one.

    Classification: "mixed" when witnesses of both signs exceed 1e-10;
    otherwise "nonnegative"/"nonpositive" when no violation exceeds 1e-12.
    """
    claim = _lookup(SIGN_CLAIMS, claim_id, "sign claim")
    vals = np.asarray(claim.fn(claim.x, claim.p), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        x, p = (float(np.broadcast_to(a, vals.shape).flat[i]) for a in (claim.x, claim.p))
        raise DomainError(f"sign claim {claim_id!r} is {vals.flat[i]} at x = {x!r}, p = {p!r}")
    if vals.size < 1000:
        raise InvalidInput(f"sign claim {claim_id!r} sampled only {vals.size} points")
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if lo < -SIGN_WITNESS and hi > SIGN_WITNESS:
        cls = "mixed"
    elif lo >= -SIGN_SLACK:
        cls = "nonnegative"
    elif hi <= SIGN_SLACK:
        cls = "nonpositive"
    else:
        cls = "mixed"
    return SignReport(claim_id, cls, lo, hi, int(vals.size))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("fn_id", "p", "c", "x", "value")


def export_rows_csv(rows: Iterable[dict], path: str) -> None:
    """Write rows with keys (fn_id, p, c, x, value) as CSV to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        w = csv.DictWriter(stream, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in CSV_COLUMNS})


def _real(value, what: str) -> float:
    """One number given as an integer or a float (numpy scalars included); a
    string, a bool, an array or any other kind is an InvalidInput."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf" or a.ndim != 0:
        raise InvalidInput(f"{what} must be an integer or a float, got {value!r}")
    return float(a)


def grid_rows(fn_id: str, xs: Sequence[float], **params) -> list[dict]:
    """Evaluate a registered scalar function on a grid, as CSV-ready rows,
    each recording the parameters the function takes (its arguments after
    x).  A parameter other than p or c, a missing one, one that is not a
    finite integer or float (whether or not the function takes it), or a
    point x that is not a finite integer or float > 0, is an InvalidInput."""
    fn = _lookup(REGISTRY, fn_id, "scalar fn")
    takes = list(inspect.signature(fn).parameters)[1:]
    unknown = sorted(set(params) - {"p", "c"})
    if unknown:
        raise InvalidInput(f"unknown parameters {unknown}; known: ['c', 'p']")
    missing = [k for k in takes if k not in params]
    if missing:
        raise InvalidInput(f"{fn_id} needs parameters {missing}")
    params = {k: _real(v, f"{fn_id} parameter {k}") for k, v in params.items()}
    if not np.isfinite(list(params.values())).all():
        raise InvalidInput(f"{fn_id} needs finite parameters, got {params}")
    xs = [_real(x, f"{fn_id} point x") for x in xs]
    bad = [x for x in xs if not (np.isfinite(x) and x > 0.0)]
    if bad:
        raise InvalidInput(f"{fn_id} needs finite points x > 0, got {bad[0]}")
    args = [params[k] for k in takes]
    rows = []
    for x in xs:
        rows.append(
            {
                "fn_id": fn_id,
                **{k: params[k] if k in takes else "" for k in ("p", "c")},
                "x": x,
                "value": float(fn(x, *args)),
            }
        )
    return rows


def probe_rows(probe_id: str) -> list[dict]:
    """CSV-ready rows for a registered probe's point evaluations."""
    vals, spec, _ = run_probe(probe_id)
    return _probe_rows(probe_id, vals, spec)


def _probe_rows(probe_id: str, vals: list[float], spec: ProbeSpec) -> list[dict]:
    """The rows of :func:`probe_rows` from the values ``run_probe`` returned."""
    rows = []
    for label, v, e in zip(spec.labels, vals, spec.expected):
        rows.append({"fn_id": f"probe:{probe_id}:{label}", "p": "", "c": "", "x": "", "value": v})
        rows.append({"fn_id": f"probe:{probe_id}:{label}:expected", "p": "", "c": "", "x": "", "value": e})
    return rows

