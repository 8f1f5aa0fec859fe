"""Scalar companions of the operator inequalities.

Every operator mean and relative entropy in this package acts on the spectrum
of the contraction C = A^{-1/2} B A^{-1/2} through a scalar representing
function.  This module collects those scalar functions, the auxiliary bound
families built from them, and grid-based checkers (chain verification, sign
tables, and spot-value probes) that certify the scalar inequalities
independently of any matrix machinery.

Conventions: ``x`` (or ``t``) is a positive real, ``p``/``q`` are weight
parameters, ``c`` is a curvature coefficient.  All functions are vectorized
over ``x`` and take scalar parameters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, HypothesisError, InvalidInput

# sign witnesses must clear this threshold ...
SIGN_WITNESS = 1e-10
# ... while violations may not exceed this one
SIGN_SLACK = 1e-12


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
    x = _pos(x)
    lg = np.log(x)
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
    if p == 1.0:
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


def lower_gap(x, p: float):
    """quad_lower - hh_lower: sign decides which lower bound is tighter."""
    return quad_lower(x, p) - hh_lower(x, p)


def upper_gap(x, p: float):
    """hh_upper - quad_upper_probe: sign decides which upper bound is tighter."""
    return hh_upper(x, p) - quad_upper_probe(x, p)


def avg_power_log(x, p: float):
    """(log(x) + power_log(x, p)) / 2 = ((x**p + 1)/2) * log(x)."""
    x = _pos(x)
    return 0.5 * (np.log(x) + power_log(x, p))


# ---------------------------------------------------------------------------
# logarithmic defect family (drives the entropy-difference monotonicity)
# ---------------------------------------------------------------------------

def log_defect(x, c: float):
    """1 - x + x*log(x) - c*x*log(x)**2."""
    x = _pos(x)
    lg = np.log(x)
    return 1.0 - x + x * lg - c * x * lg * lg


def log_defect_edge(c: float):
    """1 + (1 - 4c) * exp((1 - 2c)/c): value controlling the defect's sign edge."""
    if c == 0.0:
        raise DomainError("edge value undefined at c = 0")
    with np.errstate(over="ignore"):
        return 1.0 + (1.0 - 4.0 * c) * np.exp((1.0 - 2.0 * c) / c)


def entropy_drift(x, p: float, c: float):
    """tsallis_log(x, p) - c * power_log(x, p): the per-eigenvalue difference
    of the Tsallis gap and c times the generalized entropy term."""
    return tsallis_log(x, p) - c * power_log(x, p)


# ---------------------------------------------------------------------------
# weighted-mean gap family
# ---------------------------------------------------------------------------

def mean_gap(x, p: float):
    """tsallis_log(x, p) - (x - 1) = (x**p - 1 - p*(x-1))/p."""
    x = _pos(x)
    return tsallis_log(x, p) - (x - 1.0)


def mean_gap_scaled(x, p: float):
    """((1-p) + p*x - x**p) / (p*(1-p)): arithmetic-geometric gap, normalized."""
    if p in (0.0, 1.0):
        raise DomainError("normalized gap undefined at p in {0, 1}")
    x = _pos(x)
    return ((1.0 - p) + p * x - x ** p) / (p * (1.0 - p))


def geom_harm_gap_rate(x, p: float):
    """(power_rep - harm_rep) / p: geometric-harmonic gap per unit weight."""
    if p == 0.0:
        raise DomainError("gap rate undefined at p = 0")
    return (power_rep(x, p) - harm_rep(x, p)) / p


def geom_to_harm_ratio(x, p: float):
    """x**p / ((1-p) + p/x): geometric mean over harmonic mean."""
    x = _pos(x)
    return x ** p / ((1.0 - p) + p / x)


def harm_drop_rate(x, p: float):
    """((1-p) + p/x - x**(-p)) / p: arithmetic-geometric gap at 1/x, per unit weight."""
    if p == 0.0:
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

@dataclass(frozen=True)
class ScalarFn:
    """A registered scalar function with its parameter names."""

    fn_id: str
    fn: Callable
    params: tuple[str, ...]
    doc: str


REGISTRY: dict[str, ScalarFn] = {
    s.fn_id: s
    for s in [
        ScalarFn("tsallis", tsallis_log, ("p",), "(x^p - 1)/p"),
        ScalarFn("gen_entropy", power_log, ("p",), "x^p log x"),
        ScalarFn("arith", arith_rep, ("p",), "(1-p) + p x"),
        ScalarFn("harm", harm_rep, ("p",), "x/((1-p)x + p)"),
        ScalarFn("power", power_rep, ("p",), "x^p"),
        ScalarFn("half_gap", tsallis_half_gap, ("p",), "(t_p - t_{p-1})/2"),
        ScalarFn("mid_gap", tsallis_mid_gap, ("p",), "4(t_p - t_{p-1}) at midpoint"),
        ScalarFn("end_slope", tsallis_end_slope, ("p",), "(t_p - (x-1))/(p-1)"),
        ScalarFn("mid_gap_excess", mid_gap_excess, ("p",), "mid_gap - half_gap"),
        ScalarFn("mid_power_decay", mid_power_decay, ("p",), "((x+1)/2)^{p-2} - x^{p-2}/2"),
        ScalarFn("quad_lower", quad_lower, ("p",), "quadratic-correction lower bound"),
        ScalarFn("quad_upper_probe", quad_upper_probe, ("p",), "probe form of the upper bound"),
        ScalarFn("quad_upper", quad_upper, ("p",), "exact quadratic-correction upper bound"),
        ScalarFn("lower_gap", lower_gap, ("p",), "quad_lower - hh_lower"),
        ScalarFn("upper_gap", upper_gap, ("p",), "hh_upper - quad_upper_probe"),
        ScalarFn("hh_lower", hh_lower, ("p",), "((x+1)/2)^{p-1}(x-1)"),
        ScalarFn("hh_upper", hh_upper, ("p",), "((x^{p-1}+1)/2)(x-1)"),
        ScalarFn("avg_power_log", avg_power_log, ("p",), "((x^p+1)/2) log x"),
        ScalarFn("log_defect", log_defect, ("c",), "1 - x + x log x - c x (log x)^2"),
        ScalarFn("entropy_drift", entropy_drift, ("p", "c"), "t_p - c x^p log x"),
        ScalarFn("mean_gap", mean_gap, ("p",), "t_p - (x-1)"),
        ScalarFn("mean_gap_scaled", mean_gap_scaled, ("p",), "((1-p)+px-x^p)/(p(1-p))"),
        ScalarFn("geom_harm_gap_rate", geom_harm_gap_rate, ("p",), "(x^p - harm)/p"),
        ScalarFn("geom_to_harm_ratio", geom_to_harm_ratio, ("p",), "x^p/((1-p)+p/x)"),
        ScalarFn("harm_drop_rate", harm_drop_rate, ("p",), "((1-p)+p/x-x^{-p})/p"),
        ScalarFn("chord_log_ratio", chord_log_ratio, (), "(x-1)/log x"),
        ScalarFn("harm_secant", harm_secant, ("p",), "(x-1)/((1-p)x+p)"),
        ScalarFn("geom_harm_log2", geom_harm_log2, ("p",), "(x^p - harm)/p + p (log x)^2"),
    ]
}


def probe_difference(f: Callable, g: Callable, points: Sequence[tuple]) -> list[float]:
    """Evaluate f - g at a list of (params..., x) points.

    Each point is a tuple whose last entry is x and whose leading entries are
    the scalar parameters passed positionally after x.
    """
    out = []
    for pt in points:
        *params, x = pt
        out.append(float(f(x, *params) - g(x, *params)))
    return out


# ---------------------------------------------------------------------------
# frozen reference spot-values (reproduction targets for the probe command)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeSpec:
    """A named spot-check: labeled point evaluations with frozen targets."""

    probe_id: str
    description: str
    labels: tuple[str, ...]
    values: Callable[[], list[float]]
    expected: tuple[float, ...]
    tol: float = 1e-5


def _probe_23i() -> list[float]:
    d = probe_difference(lambda x, p: power_log(x, p / 2.0), hh_lower, [(0.25, 3.0), (0.75, 3.0)])
    return d


def _probe_23ii() -> list[float]:
    return probe_difference(hh_upper, avg_power_log, [(0.25, 3.0), (0.75, 3.0)])


def _probe_25() -> list[float]:
    return [
        float(lower_gap(1.5, 0.5)),
        float(lower_gap(2.5, 0.5)),
        float(upper_gap(1.5, 0.5)),
        float(upper_gap(2.5, 0.5)),
    ]


PROBES: dict[str, ProbeSpec] = {
    s.probe_id: s
    for s in [
        ProbeSpec(
            "2.3i",
            "entropy lower members cross: x^{p/2} log x vs ((x+1)/2)^{p-1}(x-1) at x=3",
            ("p=0.25", "p=0.75"),
            _probe_23i,
            (0.071123, -0.023104),
        ),
        ProbeSpec(
            "2.3ii",
            "entropy upper members cross: ((x^{p-1}+1)/2)(x-1) vs ((x^p+1)/2) log x at x=3",
            ("p=0.25", "p=0.75"),
            _probe_23ii,
            (0.166458, -0.0416177),
        ),
        ProbeSpec(
            "2.5",
            "quadratic-correction vs midpoint/trapezoid bounds at p=1/2: "
            "lower_gap then upper_gap at x=3/2 and x=5/2",
            ("lower_gap@1.5", "lower_gap@2.5", "upper_gap@1.5", "upper_gap@2.5"),
            _probe_25,
            (0.00118777, -0.0118756, -0.890458, 0.795489),
        ),
    ]
}


def run_probe(probe_id: str) -> tuple[list[float], ProbeSpec, bool]:
    """Evaluate a registered probe; returns (values, spec, all_within_tol)."""
    if probe_id not in PROBES:
        raise InvalidInput(f"unknown probe id {probe_id!r}; known: {sorted(PROBES)}")
    spec = PROBES[probe_id]
    vals = spec.values()
    ok = all(abs(v - e) <= spec.tol for v, e in zip(vals, spec.expected))
    return vals, spec, ok


# ---------------------------------------------------------------------------
# chain verification on dense grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """An ordered family of scalar bounds: member_i(x, params) <= member_{i+1}."""

    chain_id: str
    members: tuple[tuple[str, Callable], ...]
    grid: Callable[[], Iterable[tuple[tuple, np.ndarray]]]
    admissible: Callable[[tuple], bool]


@dataclass(frozen=True)
class ChainResult:
    chain_id: str
    worst_violation: float
    points_checked: int
    points_filtered: int
    worst_point: tuple


def _p_grid(lo: float, hi: float, n: int = 101, exclude: tuple = ()) -> np.ndarray:
    """Uniform parameter grid with open exclusion windows removed."""
    g = np.linspace(lo, hi, n)
    for (a, b) in exclude:
        g = g[(g <= a) | (g >= b)]
    return g

def _x_up() -> np.ndarray:
    return np.geomspace(1.0 + 1e-3, 1e3, 120)


def _x_down() -> np.ndarray:
    return np.geomspace(1e-3, 1.0 - 1e-3, 120)


def _x_full() -> np.ndarray:
    return np.geomspace(1e-3, 1e3, 160)


def _grid_p(xs: Callable, lo: float, hi: float, exclude: tuple = ()):
    def gen():
        x = xs()
        for p in _p_grid(lo, hi, 101, exclude):
            yield (float(p),), x
    return gen


def _grid_pq(xs: Callable, lo: float, hi: float, exclude: tuple = ()):
    def gen():
        x = xs()
        ps = _p_grid(lo, hi, 21, exclude)
        for i, p in enumerate(ps):
            for q in ps[i:]:
                yield (float(p), float(q)), x
    return gen


_EXCL_P0 = ((-1e-3, 1e-3),)
_EXCL_P01 = ((-1e-3, 1e-3), (1.0 - 1e-3, 1.0 + 1e-3))

CHAINS: dict[str, ChainSpec] = {
    s.chain_id: s
    for s in [
        ChainSpec(
            "means_order",
            (
                ("harm", lambda x, p: harm_rep(x, p)),
                ("power", lambda x, p: power_rep(x, p)),
                ("arith", lambda x, p: arith_rep(x, p)),
            ),
            _grid_p(_x_full, 0.0, 1.0),
            lambda params: 0.0 <= params[0] <= 1.0,
        ),
        ChainSpec(
            "entropy_bounds",
            (
                ("power_log[p/2]", lambda x, p: power_log(x, p / 2.0)),
                ("tsallis[p]", tsallis_log),
                ("avg_power_log[p]", avg_power_log),
            ),
            _grid_p(_x_up, -1.0, 1.0, _EXCL_P0),
            lambda params: 0.0 < abs(params[0]) <= 1.0,
        ),
        ChainSpec(
            "entropy_bounds_rev",
            (
                ("avg_power_log[p]", avg_power_log),
                ("tsallis[p]", tsallis_log),
                ("power_log[p/2]", lambda x, p: power_log(x, p / 2.0)),
            ),
            _grid_p(_x_down, -1.0, 1.0, _EXCL_P0),
            lambda params: 0.0 < abs(params[0]) <= 1.0,
        ),
        ChainSpec(
            "gap_chain",
            (
                ("half_gap", tsallis_half_gap),
                ("mid_gap", tsallis_mid_gap),
                ("end_slope", tsallis_end_slope),
                ("half_gap + (x-1)^2/4", lambda x, p: tsallis_half_gap(x, p) + 0.25 * (x - 1.0) ** 2),
            ),
            _grid_p(_x_up, -1.0, 1.0, _EXCL_P01),
            lambda params: 0.0 < abs(params[0]) <= 1.0 and params[0] != 1.0,
        ),
        ChainSpec(
            "curvature_bounds",
            (
                ("quad_lower", quad_lower),
                ("tsallis[p]", tsallis_log),
                ("quad_upper", quad_upper),
            ),
            _grid_p(_x_up, -1.0, 1.0, _EXCL_P0),
            lambda params: 0.0 < abs(params[0]) <= 1.0,
        ),
        ChainSpec(
            "gap_rate_monotone",
            (
                ("mean_gap[p]", lambda x, p, q: mean_gap(x, p)),
                ("mean_gap[q]", lambda x, p, q: mean_gap(x, q)),
            ),
            _grid_pq(_x_full, -1.0, 1.0, _EXCL_P0),
            lambda params: params[0] <= params[1],
        ),
    ]
}


def verify_scalar_chain(chain_id: str, grid=None) -> ChainResult:
    """Check every adjacent pair of a chain on a dense grid.

    Parameters
    ----------
    chain_id : str
        Key into ``CHAINS``.
    grid : iterable of (params_tuple, x_array), optional
        Custom grid; defaults to the chain's built-in dense grid.  Points
        whose parameters violate the chain's hypothesis are filtered and
        counted; if nothing remains, HypothesisError is raised.

    Returns
    -------
    ChainResult
        ``worst_violation`` is the minimum over the grid of
        (member_{i+1} - member_i); nonnegative (up to -1e-12) when the
        chain holds.
    """
    if chain_id not in CHAINS:
        raise InvalidInput(f"unknown chain id {chain_id!r}; known: {sorted(CHAINS)}")
    spec = CHAINS[chain_id]
    worst = np.inf
    worst_point: tuple = ()
    checked = 0
    filtered = 0
    for params, xs in (grid if grid is not None else spec.grid()):
        if not spec.admissible(params):
            filtered += int(np.size(xs))
            continue
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        vals = [fn(xs, *params) for _, fn in spec.members]
        checked += xs.size
        for lo_vals, hi_vals in zip(vals[:-1], vals[1:]):
            diff = np.asarray(hi_vals) - np.asarray(lo_vals)
            i = int(np.argmin(diff))
            if diff[i] < worst:
                worst = float(diff[i])
                worst_point = (*params, float(xs[i]))
    if checked == 0:
        raise HypothesisError(f"no grid point satisfies the hypothesis of {chain_id!r}")
    return ChainResult(chain_id, float(worst), checked, filtered, worst_point)


# ---------------------------------------------------------------------------
# sign tables for the pointwise claims behind the drift monotonicity cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignClaim:
    """A claim that a scalar expression keeps one sign over a region."""

    claim_id: str
    description: str
    values: Callable[[], np.ndarray]
    expected: str  # "nonnegative" | "nonpositive" | "mixed"


@dataclass(frozen=True)
class SignReport:
    claim_id: str
    classification: str
    min_value: float
    max_value: float
    points: int


def _vals_xc(fn: Callable, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    return np.concatenate([np.atleast_1d(fn(xs, float(c))) for c in cs])


def _edge_bound(c: float) -> float:
    return float(np.exp((1.0 - 2.0 * c) / c))


def _defect_region_b() -> np.ndarray:
    # 1 <= x <= exp((1-2c)/c) for c in (0, 1/2]
    chunks = []
    for c in np.linspace(0.02, 0.5, 50):
        hi = _edge_bound(float(c))
        xs = np.geomspace(1.0, max(hi, 1.0 + 1e-9), 220)
        chunks.append(log_defect(xs, float(c)))
    return np.concatenate(chunks)


def _defect_region_d() -> np.ndarray:
    # exp((1-2c)/c) <= x <= 1 for c in [1/2, 2]
    chunks = []
    for c in np.linspace(0.5, 2.0, 50):
        lo = _edge_bound(float(c))
        xs = np.geomspace(min(lo, 1.0 - 1e-9), 1.0, 220)
        chunks.append(log_defect(xs, float(c)))
    return np.concatenate(chunks)


SIGN_CLAIMS: dict[str, SignClaim] = {
    s.claim_id: s
    for s in [
        SignClaim(
            "log_defect_above_one",
            "1 - x + x log x - x (log x)^2 <= 0 for x >= 1",
            lambda: np.atleast_1d(log_defect(np.geomspace(1.0, 1e3, 12000), 1.0)),
            "nonpositive",
        ),
        SignClaim(
            "log_defect_unit_band",
            "1 - x + x log x - x (log x)^2 <= 0 for exp(-1) <= x <= 1",
            lambda: np.atleast_1d(log_defect(np.linspace(np.exp(-1.0), 1.0, 12000), 1.0)),
            "nonpositive",
        ),
        SignClaim(
            "half_defect_below_one",
            "1 - x + x log x - x (log x)^2/2 >= 0 for 0 < x <= 1",
            lambda: np.atleast_1d(log_defect(np.geomspace(1e-4, 1.0, 12000), 0.5)),
            "nonnegative",
        ),
        SignClaim(
            "half_defect_above_one",
            "1 - x + x log x - x (log x)^2/2 <= 0 for x >= 1",
            lambda: np.atleast_1d(log_defect(np.geomspace(1.0, 1e3, 12000), 0.5)),
            "nonpositive",
        ),
        SignClaim(
            "c_defect_below_one_small_c",
            "defect >= 0 for 0 < x <= 1, 0 < c <= 1/2",
            lambda: _vals_xc(log_defect, np.geomspace(1e-4, 1.0, 250), np.linspace(0.02, 0.5, 50)),
            "nonnegative",
        ),
        SignClaim(
            "c_defect_band_small_c",
            "defect >= 0 for 1 <= x <= exp((1-2c)/c), 0 < c <= 1/2",
            _defect_region_b,
            "nonnegative",
        ),
        SignClaim(
            "c_defect_nonpos_c",
            "defect >= 0 for all x > 0 when c <= 0",
            lambda: _vals_xc(log_defect, np.geomspace(1e-3, 1e3, 250), np.linspace(-2.0, 0.0, 50)),
            "nonnegative",
        ),
        SignClaim(
            "c_defect_band_large_c",
            "defect <= 0 for exp((1-2c)/c) <= x <= 1, c >= 1/2",
            _defect_region_d,
            "nonpositive",
        ),
        SignClaim(
            "c_defect_above_one_large_c",
            "defect <= 0 for x >= 1, c >= 1/2",
            lambda: _vals_xc(log_defect, np.geomspace(1.0, 1e3, 250), np.linspace(0.5, 2.0, 50)),
            "nonpositive",
        ),
        SignClaim(
            "defect_edge_low",
            "1 + (1-4c) exp((1-2c)/c) >= 0 for c <= 1/2 (c != 0)",
            lambda: np.array(
                [log_defect_edge(float(c)) for c in np.concatenate([np.linspace(-2.0, -1e-3, 6000), np.linspace(0.02, 0.5, 6000)])]
            ),
            "nonnegative",
        ),
        SignClaim(
            "defect_edge_high",
            "1 + (1-4c) exp((1-2c)/c) <= 0 for c >= 1/2",
            lambda: np.array([log_defect_edge(float(c)) for c in np.linspace(0.5, 3.0, 12000)]),
            "nonpositive",
        ),
        SignClaim(
            "affine_chord_below_one",
            "(1-p) + p x >= (x-1)/log x for 0 < x <= 1, 0 <= p <= 1/2",
            lambda: _vals_xc(
                lambda x, p: arith_rep(x, p) - chord_log_ratio(x),
                np.geomspace(1e-4, 1.0, 250),
                np.linspace(0.0, 0.5, 50),
            ),
            "nonnegative",
        ),
        SignClaim(
            "affine_chord_above_one",
            "(1-p) + p x >= (x-1)/log x for x >= 1, 1/2 <= p <= 1",
            lambda: _vals_xc(
                lambda x, p: arith_rep(x, p) - chord_log_ratio(x),
                np.geomspace(1.0, 1e3, 250),
                np.linspace(0.5, 1.0, 50),
            ),
            "nonnegative",
        ),
        SignClaim(
            "log_over_secant_above_one",
            "log x >= (x-1)/((1-p)x+p) for x >= 1, 0 <= p <= 1/2",
            lambda: _vals_xc(
                lambda x, p: np.log(x) - harm_secant(x, p),
                np.geomspace(1.0, 1e3, 250),
                np.linspace(0.0, 0.5, 50),
            ),
            "nonnegative",
        ),
        SignClaim(
            "secant_nonneg_above_one",
            "(x-1)/((1-p)x+p) >= 0 for x >= 1",
            lambda: _vals_xc(harm_secant, np.geomspace(1.0, 1e3, 250), np.linspace(0.0, 0.5, 50)),
            "nonnegative",
        ),
        SignClaim(
            "log_under_secant_below_one",
            "log x <= (x-1)/((1-p)x+p) for 0 < x <= 1, 1/2 <= p <= 1",
            lambda: _vals_xc(
                lambda x, p: np.log(x) - harm_secant(x, p),
                np.geomspace(1e-4, 1.0, 250),
                np.linspace(0.5, 1.0, 50),
            ),
            "nonpositive",
        ),
        SignClaim(
            "secant_nonpos_below_one",
            "(x-1)/((1-p)x+p) <= 0 for 0 < x <= 1",
            lambda: _vals_xc(harm_secant, np.geomspace(1e-4, 1.0, 250), np.linspace(0.5, 1.0, 50)),
            "nonpositive",
        ),
        SignClaim(
            "log_plus_inv_ge_one",
            "log t + 1/t - 1 >= 0 for t > 0 (monotonicity of the Tsallis gap in p)",
            lambda: np.atleast_1d(np.log(np.geomspace(1e-4, 1e4, 12000)) + 1.0 / np.geomspace(1e-4, 1e4, 12000) - 1.0),
            "nonnegative",
        ),
        SignClaim(
            "lower_gap_mixed",
            "quad_lower - hh_lower changes sign on x in [1, 3] at p = 1/2",
            lambda: np.atleast_1d(lower_gap(np.linspace(1.0, 3.0, 12000), 0.5)),
            "mixed",
        ),
        SignClaim(
            "upper_gap_mixed",
            "hh_upper - quad_upper_probe changes sign on x in [1, 3] at p = 1/2",
            lambda: np.atleast_1d(upper_gap(np.linspace(1.0, 3.0, 12000), 0.5)),
            "mixed",
        ),
        SignClaim(
            "entropy_lower_members_mixed",
            "x^{p/2} log x - hh_lower changes sign over p in (0,1) at x = 3",
            lambda: np.array([power_log(3.0, p / 2.0) - hh_lower(3.0, p) for p in np.linspace(0.05, 0.95, 10000)]),
            "mixed",
        ),
        SignClaim(
            "entropy_upper_members_mixed",
            "hh_upper - avg_power_log changes sign over p in (0,1) at x = 3",
            lambda: np.array([hh_upper(3.0, p) - avg_power_log(3.0, p) for p in np.linspace(0.05, 0.95, 10000)]),
            "mixed",
        ),
    ]
}


def sign_table(claim_id: str) -> SignReport:
    """Classify a registered sign claim on its dense sample.

    Classification: "mixed" when witnesses of both signs exceed 1e-10;
    otherwise "nonnegative"/"nonpositive" when no violation exceeds 1e-12.
    """
    if claim_id not in SIGN_CLAIMS:
        raise InvalidInput(f"unknown sign claim {claim_id!r}; known: {sorted(SIGN_CLAIMS)}")
    vals = np.asarray(SIGN_CLAIMS[claim_id].values(), dtype=float)
    vals = vals[np.isfinite(vals)]
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

CSV_COLUMNS = ("fn_id", "p", "q", "c", "x", "value")


def export_rows_csv(rows: Iterable[dict], out) -> None:
    """Write rows with keys (fn_id, p, q, c, x, value) as CSV.

    ``out`` is a writable text stream or a path.
    """
    own = isinstance(out, (str, bytes))
    stream = open(out, "w", newline="") if own else out
    try:
        w = csv.DictWriter(stream, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    finally:
        if own:
            stream.close()


def grid_rows(fn_id: str, xs: Sequence[float], **params) -> list[dict]:
    """Evaluate a registered scalar function on a grid, as CSV-ready rows."""
    if fn_id not in REGISTRY:
        raise InvalidInput(f"unknown scalar fn {fn_id!r}; known: {sorted(REGISTRY)}")
    spec = REGISTRY[fn_id]
    missing = [k for k in spec.params if k not in params]
    if missing:
        raise InvalidInput(f"{fn_id} needs parameters {missing}")
    args = [params[k] for k in spec.params]
    rows = []
    for x in xs:
        rows.append(
            {
                "fn_id": fn_id,
                "p": params.get("p", ""),
                "q": params.get("q", ""),
                "c": params.get("c", ""),
                "x": float(x),
                "value": float(spec.fn(float(x), *args)),
            }
        )
    return rows


def probe_rows(probe_id: str) -> list[dict]:
    """CSV-ready rows for a registered probe's point evaluations."""
    vals, spec, _ = run_probe(probe_id)
    rows = []
    for label, v, e in zip(spec.labels, vals, spec.expected):
        rows.append({"fn_id": f"probe:{probe_id}:{label}", "p": "", "q": "", "c": "", "x": "", "value": v})
        rows.append({"fn_id": f"probe:{probe_id}:{label}:expected", "p": "", "q": "", "c": "", "x": "", "value": e})
    return rows


def export_probe_csv(probe_id: str, out) -> None:
    export_rows_csv(probe_rows(probe_id), out)
