"""Registry of the operator inequalities the harness verifies.

Each entry states one comparison ``lhs <= rhs`` in the positive-semidefinite
order, together with the spectral/parameter hypothesis under which it is
claimed and a sampling plan that draws admissible trials.  Multi-term chains
are registered as one sub-case per adjacent pair (ids ``G.1``, ``G.2``, ...),
and statements holding on several parameter regions get one sub-case per
region (ids like ``M3.b1``).  Where a reversed form holds under the dual
hypothesis, :func:`dual` produces it (ids gain/lose a ``.rev`` suffix).

All terms are built from the public mean/entropy operations so the catalog
exercises the same code paths users call.  :func:`evaluate_trials` runs k
trials of one case on a stacked pair: each term is then one ``(k, n, n)``
stack, and the trials' weights reach it as ``(k, 1, 1)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fnmatch import fnmatch
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import HypothesisError, InvalidInput, NoDual
from .means import (
    OperatorPair,
    arithmetic_mean,
    generalized_entropy,
    geometric_mean,
    harmonic_mean,
    natural_power_mean,
    relative_operator_entropy,
    tsallis_entropy,
)
from .spd_core import ORDER_TOL, loewner_leq, symmetrize

HYP_SLACK = 1e-10  # slack applied to every hypothesis comparison
_P_EPS = 1e-3      # sampled weights keep this distance from removable singularities


@dataclass(frozen=True)
class Params:
    """Scalar parameters of a trial; unused ones stay None.  Inside
    :func:`evaluate_trials` the terms see one Params whose fields hold the
    trials' values as ``(k, 1, 1)`` arrays."""

    p: float | None = None
    q: float | None = None
    c: float | None = None


@dataclass(frozen=True)
class Hypothesis:
    """Decidable admissibility predicate over (u, v, params)."""

    hyp_id: str
    text: str
    check: Callable[[float, float, Params], bool]


@dataclass(frozen=True)
class Term:
    """A named operator expression over a trial context."""

    name: str
    fn: Callable


@dataclass(frozen=True)
class TrialPlan:
    """One admissible draw: parameters plus contraction-spectrum targets."""

    params: Params
    u_target: float
    v_target: float


@dataclass(frozen=True)
class InequalityCase:
    """One registered comparison ``lhs <= rhs`` under ``hypothesis``."""

    id: str
    group: str
    statement: str
    lhs: Term
    rhs: Term
    hypothesis: Hypothesis
    plan: Callable[[np.random.Generator], TrialPlan]
    expected: str = "holds"
    dual_hypothesis: Hypothesis | None = None
    dual_plan: Callable | None = None


@dataclass(frozen=True)
class MarginReport:
    """Outcome of one trial of one case."""

    case_id: str
    seed: int
    n: int
    p: float | None
    q: float | None
    c: float | None
    u: float
    v: float
    margin: float
    scale: float
    holds: bool


class TrialContext:
    """Per-trial cache: the pair plus derived pairs used by chain terms."""

    __slots__ = ("pair", "_mid", "_gap")

    def __init__(self, pair: OperatorPair) -> None:
        self.pair = pair
        self._mid = None
        self._gap = None

    @property
    def mid(self) -> OperatorPair:
        """The pair (A, (A+B)/2), reusing A's cached roots."""
        if self._mid is None:
            self._mid = self.pair.with_second(0.5 * (self.pair.A.mat + self.pair.B.mat))
        return self._mid

    @property
    def gap(self) -> OperatorPair:
        """The pair (A, B - A); requires B - A strictly positive."""
        if self._gap is None:
            self._gap = self.pair.with_second(self.pair.B.mat - self.pair.A.mat)
        return self._gap


# ---------------------------------------------------------------------------
# term library
# ---------------------------------------------------------------------------

def _eye(pair: OperatorPair) -> np.ndarray:
    return np.eye(pair.n)


def _tsallis_raw(pair: OperatorPair, r: float) -> np.ndarray:
    # (A nat_r B - A)/r without the public |r| <= 1 gate (chains need r-1 in [-2, 0))
    return (natural_power_mean(pair, r).mat - pair.A.mat) / r


def _low_inv(pair: OperatorPair) -> np.ndarray:
    # A - A B^{-1} A
    a = pair.A.mat
    return symmetrize(a - a @ np.linalg.solve(pair.B.mat, a))


def _b_ainv_b(pair: OperatorPair) -> np.ndarray:
    # B A^{-1} B
    b = pair.B.mat
    return symmetrize(b @ np.linalg.solve(pair.A.mat, b))


def _log_sq(pair: OperatorPair) -> np.ndarray:
    # A^{1/2} (log C)^2 A^{1/2} via an explicit matrix square
    lg = pair.fn_of_contraction(np.log)
    r = pair.sqrt_a.mat
    return symmetrize(r @ symmetrize(lg @ lg) @ r)


T_A = Term("A", lambda ctx, pr: ctx.pair.A.mat)
T_B = Term("B", lambda ctx, pr: ctx.pair.B.mat)
T_HARM = Term("harmonic[p]", lambda ctx, pr: harmonic_mean(ctx.pair, pr.p).mat)
T_GEOM = Term("geometric[p]", lambda ctx, pr: geometric_mean(ctx.pair, pr.p).mat)
T_ARITH = Term("arithmetic[p]", lambda ctx, pr: arithmetic_mean(ctx.pair, pr.p).mat)
T_S = Term("S", lambda ctx, pr: relative_operator_entropy(ctx.pair))
T_SP = Term("S[p]", lambda ctx, pr: generalized_entropy(ctx.pair, pr.p))
T_SP_HALF = Term("S[p/2]", lambda ctx, pr: generalized_entropy(ctx.pair, 0.5 * pr.p))
T_S_SP_AVG = Term(
    "(S + S[p])/2",
    lambda ctx, pr: 0.5 * (relative_operator_entropy(ctx.pair) + generalized_entropy(ctx.pair, pr.p)),
)
T_TS = Term("T[p]", lambda ctx, pr: tsallis_entropy(ctx.pair, pr.p))
T_TS_Q = Term("T[q]", lambda ctx, pr: tsallis_entropy(ctx.pair, pr.q))
T_B_MINUS_A = Term("B - A", lambda ctx, pr: ctx.pair.B.mat - ctx.pair.A.mat)
T_LOW_INV = Term("A - A B^-1 A", lambda ctx, pr: _low_inv(ctx.pair))


def _ta_lower(ctx: TrialContext, pr: Params) -> np.ndarray:
    # A^{1/2} ((C+I)/2)^{p-1} (C - I) A^{1/2}
    pair = ctx.pair
    g = pair.fn_of_contraction(lambda t: (0.5 * (t + 1.0)) ** (pr.p - 1.0))
    core = symmetrize(g @ (pair.contraction.mat - _eye(pair)))
    r = pair.sqrt_a.mat
    return symmetrize(r @ core @ r)


def _ta_upper(ctx: TrialContext, pr: Params) -> np.ndarray:
    pair = ctx.pair
    return 0.5 * (
        natural_power_mean(pair, pr.p).mat
        - natural_power_mean(pair, pr.p - 1.0).mat
        + pair.B.mat
        - pair.A.mat
    )


T_TA_LOW = Term("A^1/2 ((C+I)/2)^{p-1} (C-I) A^1/2", _ta_lower)
T_TA_UP = Term("(nat[p] - nat[p-1] + B - A)/2", _ta_upper)

T_T2_HALF = Term(
    "(T[p] - T[p-1])/2",
    lambda ctx, pr: 0.5 * (tsallis_entropy(ctx.pair, pr.p) - _tsallis_raw(ctx.pair, pr.p - 1.0)),
)
T_T2_MID = Term(
    "4 (T[p] - T[p-1]) at (A, (A+B)/2)",
    lambda ctx, pr: 4.0 * (tsallis_entropy(ctx.mid, pr.p) - _tsallis_raw(ctx.mid, pr.p - 1.0)),
)
T_T2_SLOPE = Term(
    "(T[p] - (B - A))/(p - 1)",
    lambda ctx, pr: (tsallis_entropy(ctx.pair, pr.p) - (ctx.pair.B.mat - ctx.pair.A.mat)) / (pr.p - 1.0),
)
T_T2_UP = Term(
    "(T[p] - T[p-1])/2 + nat2(A, B-A)/4",
    lambda ctx, pr: 0.5 * (tsallis_entropy(ctx.pair, pr.p) - _tsallis_raw(ctx.pair, pr.p - 1.0))
    + 0.25 * natural_power_mean(ctx.gap, 2.0).mat,
)


def _t3_lower(ctx: TrialContext, pr: Params) -> np.ndarray:
    pair = ctx.pair
    p = pr.p
    return (
        pair.B.mat
        - 1.5 * pair.A.mat
        - (1.0 - p) / (2.0 * (3.0 - p)) * _b_ainv_b(pair)
        - natural_power_mean(pair, p - 1.0).mat / (3.0 - p)
    )


def _t3_upper(ctx: TrialContext, pr: Params) -> np.ndarray:
    pair = ctx.pair
    ba_inv = np.linalg.solve(pair.A.mat, pair.B.mat).swapaxes(-1, -2)  # = B A^{-1}
    g = natural_power_mean(ctx.mid, pr.p - 1.0).mat
    mid_term = symmetrize(2.0 * (ba_inv - _eye(pair)) @ g)
    return pair.B.mat - pair.A.mat + mid_term - 4.0 * tsallis_entropy(ctx.mid, pr.p)


T_T3_LOW = Term("B - 3A/2 - (1-p)/(2(3-p)) B A^-1 B - nat[p-1]/(3-p)", _t3_lower)
T_T3_UP = Term("B - A + 2(B A^-1 - I) nat[p-1](A, (A+B)/2) - 4 T[p](A, (A+B)/2)", _t3_upper)


def _c1_mid_lower(ctx: TrialContext, pr: Params) -> np.ndarray:
    # 4 (S - T_{-1}) at the pair (A, (A+B)/2)
    mid = ctx.mid
    return 4.0 * (relative_operator_entropy(mid) - _low_inv(mid))


T_C1_HALF = Term("(S - (A - A B^-1 A))/2", lambda ctx, pr: 0.5 * (relative_operator_entropy(ctx.pair) - _low_inv(ctx.pair)))
T_C1_MID = Term("4 (S - T[-1]) at (A, (A+B)/2)", _c1_mid_lower)
T_C1_SLOPE = Term("(B - A) - S", lambda ctx, pr: ctx.pair.B.mat - ctx.pair.A.mat - relative_operator_entropy(ctx.pair))
T_C1_UP = Term(
    "(S - (A - A B^-1 A))/2 + nat2(A, B-A)/4",
    lambda ctx, pr: 0.5 * (relative_operator_entropy(ctx.pair) - _low_inv(ctx.pair))
    + 0.25 * natural_power_mean(ctx.gap, 2.0).mat,
)


def _w1_rate(ctx: TrialContext, r: float) -> np.ndarray:
    return (arithmetic_mean(ctx.pair, r).mat - natural_power_mean(ctx.pair, r).mat) / r


def _w2_rate(ctx: TrialContext, r: float) -> np.ndarray:
    return (arithmetic_mean(ctx.pair, r).mat - natural_power_mean(ctx.pair, r).mat) / (r * (1.0 - r))


def _w3_rate(ctx: TrialContext, r: float) -> np.ndarray:
    return (natural_power_mean(ctx.pair, r).mat - harmonic_mean(ctx.pair, r).mat) / r


def _w4_term(ctx: TrialContext, r: float) -> np.ndarray:
    return _w3_rate(ctx, r) + r * _log_sq(ctx.pair)


T_W1_P = Term("(arith[p] - nat[p])/p", lambda ctx, pr: _w1_rate(ctx, pr.p))
T_W1_Q = Term("(arith[q] - nat[q])/q", lambda ctx, pr: _w1_rate(ctx, pr.q))
T_W2_P = Term("(arith[p] - nat[p])/(p(1-p))", lambda ctx, pr: _w2_rate(ctx, pr.p))
T_W2_Q = Term("(arith[q] - nat[q])/(q(1-q))", lambda ctx, pr: _w2_rate(ctx, pr.q))
T_W3_P = Term("(nat[p] - harm[p])/p", lambda ctx, pr: _w3_rate(ctx, pr.p))
T_W3_Q = Term("(nat[q] - harm[q])/q", lambda ctx, pr: _w3_rate(ctx, pr.q))
T_W4_P = Term("(nat[p] - harm[p])/p + p (log C)^2 lift", lambda ctx, pr: _w4_term(ctx, pr.p))
T_W4_Q = Term("(nat[q] - harm[q])/q + q (log C)^2 lift", lambda ctx, pr: _w4_term(ctx, pr.q))


def _drift(ctx: TrialContext, r: float, c: float) -> np.ndarray:
    return tsallis_entropy(ctx.pair, r) - c * generalized_entropy(ctx.pair, r)


def _drift_term(which: str, c_fixed: float | None) -> Term:
    def fn(ctx: TrialContext, pr: Params, _w=which, _c=c_fixed) -> np.ndarray:
        r = pr.p if _w == "p" else pr.q
        c = pr.c if _c is None else _c
        return _drift(ctx, r, c)

    c_txt = "c" if c_fixed is None else f"{c_fixed:g}"
    return Term(f"T[{which}] - {c_txt} S[{which}]", fn)


T_DRIFT1_P = _drift_term("p", 1.0)
T_DRIFT1_Q = _drift_term("q", 1.0)
T_DRIFT_HALF_P = _drift_term("p", 0.5)
T_DRIFT_HALF_Q = _drift_term("q", 0.5)
T_DRIFT_C_P = _drift_term("p", None)
T_DRIFT_C_Q = _drift_term("q", None)


# ---------------------------------------------------------------------------
# hypothesis predicates (every comparison gets HYP_SLACK of slack)
# ---------------------------------------------------------------------------

def _ge(a: float, b: float) -> bool:
    return a >= b - HYP_SLACK


def _le(a: float, b: float) -> bool:
    return a <= b + HYP_SLACK


def _exp_capped(z: float) -> float:
    return float(np.exp(min(z, 700.0)))


def _p_in_unit(p: float | None) -> bool:
    return p is not None and 0.0 < abs(p) and _le(abs(p), 1.0)


def _pq_pos(pr: Params, hi: float = 1.0) -> bool:
    return (
        pr.p is not None
        and pr.q is not None
        and pr.p > 0.0
        and _le(pr.p, pr.q)
        and _le(pr.q, hi)
    )


def _pq_neg(pr: Params) -> bool:
    return (
        pr.p is not None
        and pr.q is not None
        and _ge(pr.p, -1.0)
        and _le(pr.p, pr.q)
        and pr.q < 0.0
    )


HYP_ANY_P01 = Hypothesis("p01", "p in [0, 1]", lambda u, v, pr: pr.p is not None and _ge(pr.p, 0.0) and _le(pr.p, 1.0))
HYP_ANY_PU = Hypothesis("punit", "p in [-1, 1] \\ {0}", lambda u, v, pr: _p_in_unit(pr.p))
HYP_PLEQ = Hypothesis(
    "pleq",
    "p <= q, both in [-1, 1] \\ {0}",
    lambda u, v, pr: _p_in_unit(pr.p) and _p_in_unit(pr.q) and _le(pr.p, pr.q),
)
HYP_U1_PU = Hypothesis("u1_punit", "u >= 1 and p in [-1, 1] \\ {0}", lambda u, v, pr: _ge(u, 1.0) and _p_in_unit(pr.p))
HYP_V1_PU = Hypothesis("v1_punit", "v <= 1 and p in [-1, 1] \\ {0}", lambda u, v, pr: _le(v, 1.0) and _p_in_unit(pr.p))
HYP_U1_PPOS = Hypothesis("u1_ppos", "u >= 1 and 0 < p <= 1", lambda u, v, pr: _ge(u, 1.0) and pr.p is not None and pr.p > 0.0 and _le(pr.p, 1.0))
HYP_V1_PNEG = Hypothesis("v1_pneg", "v <= 1 and -1 <= p < 0", lambda u, v, pr: _le(v, 1.0) and pr.p is not None and pr.p < 0.0 and _ge(pr.p, -1.0))
HYP_T2 = Hypothesis(
    "u1strict_punit",
    "u >= 1 + 1e-6 and p in [-1, 1) \\ {0}",
    lambda u, v, pr: _ge(u, 1.0 + 1e-6) and _p_in_unit(pr.p) and pr.p < 1.0,
)
HYP_C1 = Hypothesis("u1strict", "u >= 1 + 1e-6", lambda u, v, pr: _ge(u, 1.0 + 1e-6))

HYP_M1_I = Hypothesis("m1i", "u >= 1 and 0 < p <= q <= 1", lambda u, v, pr: _ge(u, 1.0) and _pq_pos(pr))
HYP_M1_II = Hypothesis("m1ii", "v <= 1 and -1 <= p <= q < 0", lambda u, v, pr: _le(v, 1.0) and _pq_neg(pr))
HYP_M1_III = Hypothesis(
    "m1iii",
    "exp(-1/q) <= u, v <= 1, 0 < p <= q <= 1",
    lambda u, v, pr: _pq_pos(pr) and _ge(u, _exp_capped(-1.0 / pr.q)) and _le(v, 1.0),
)
HYP_M1_IV = Hypothesis(
    "m1iv",
    "1 <= u, v <= exp(-1/p), -1 <= p <= q < 0",
    lambda u, v, pr: _pq_neg(pr) and _ge(u, 1.0) and _le(v, _exp_capped(-1.0 / pr.p)),
)
HYP_M2_I = Hypothesis("m2i", "u >= 1 and -1 <= p <= q < 0", lambda u, v, pr: _ge(u, 1.0) and _pq_neg(pr))
HYP_M2_II = Hypothesis("m2ii", "v <= 1 and 0 < p <= q <= 1", lambda u, v, pr: _le(v, 1.0) and _pq_pos(pr))


def _c_small(pr: Params) -> bool:
    return pr.c is not None and pr.c > 0.0 and _le(pr.c, 0.5)


def _c_large(pr: Params) -> bool:
    return pr.c is not None and _ge(pr.c, 0.5)


HYP_M3_A1 = Hypothesis("m3a1", "0 < c <= 1/2, u >= 1, -1 <= p <= q < 0", lambda u, v, pr: _c_small(pr) and _ge(u, 1.0) and _pq_neg(pr))
HYP_M3_A2 = Hypothesis("m3a2", "0 < c <= 1/2, v <= 1, 0 < p <= q <= 1", lambda u, v, pr: _c_small(pr) and _le(v, 1.0) and _pq_pos(pr))
HYP_M3_B1 = Hypothesis(
    "m3b1",
    "0 < c <= 1/2, 1 <= u, v <= exp((1-2c)/(c q)), 0 < p <= q <= 1",
    lambda u, v, pr: _c_small(pr) and _pq_pos(pr) and _ge(u, 1.0) and _le(v, _exp_capped((1.0 - 2.0 * pr.c) / (pr.c * pr.q))),
)
HYP_M3_B2 = Hypothesis(
    "m3b2",
    "0 < c <= 1/2, exp((1-2c)/(c p)) <= u, v <= 1, -1 <= p <= q < 0",
    lambda u, v, pr: _c_small(pr) and _pq_neg(pr) and _ge(u, _exp_capped((1.0 - 2.0 * pr.c) / (pr.c * pr.p))) and _le(v, 1.0),
)
HYP_M3_C = Hypothesis(
    "m3c",
    "c < 0, p <= q, both in [-1, 1] \\ {0}",
    lambda u, v, pr: pr.c is not None and pr.c < 0.0 and _p_in_unit(pr.p) and _p_in_unit(pr.q) and _le(pr.p, pr.q),
)
HYP_M3_D1 = Hypothesis(
    "m3d1",
    "c >= 1/2, exp((1-2c)/(c q)) <= u, v <= 1, 0 < p <= q <= 1",
    lambda u, v, pr: _c_large(pr) and _pq_pos(pr) and _ge(u, _exp_capped((1.0 - 2.0 * pr.c) / (pr.c * pr.q))) and _le(v, 1.0),
)
HYP_M3_D2 = Hypothesis(
    "m3d2",
    "c >= 1/2, 1 <= u, v <= exp((1-2c)/(c p)), -1 <= p <= q < 0",
    lambda u, v, pr: _c_large(pr) and _pq_neg(pr) and _ge(u, 1.0) and _le(v, _exp_capped((1.0 - 2.0 * pr.c) / (pr.c * pr.p))),
)
HYP_M3_E1 = Hypothesis("m3e1", "c >= 1/2, u >= 1, 0 < p <= q <= 1", lambda u, v, pr: _c_large(pr) and _ge(u, 1.0) and _pq_pos(pr))
HYP_M3_E2 = Hypothesis("m3e2", "c >= 1/2, v <= 1, -1 <= p <= q < 0", lambda u, v, pr: _c_large(pr) and _le(v, 1.0) and _pq_neg(pr))

HYP_W1 = Hypothesis("w1", "0 < p <= q <= 1", lambda u, v, pr: _pq_pos(pr))
HYP_W2 = Hypothesis("w2", "v <= 1 and 0 < p <= q < 1", lambda u, v, pr: _le(v, 1.0) and _pq_pos(pr) and pr.q < 1.0)
HYP_W2_DUAL = Hypothesis("w2rev", "u >= 1 and 0 < p <= q < 1", lambda u, v, pr: _ge(u, 1.0) and _pq_pos(pr) and pr.q < 1.0)
HYP_W4_I = Hypothesis("w4i", "u >= 1 and 0 < p <= q <= 1/2", lambda u, v, pr: _ge(u, 1.0) and _pq_pos(pr, hi=0.5))
HYP_W4_II = Hypothesis(
    "w4ii",
    "v <= 1 and 1/2 <= p <= q <= 1",
    lambda u, v, pr: _le(v, 1.0) and _pq_pos(pr) and _ge(pr.p, 0.5),
)


# ---------------------------------------------------------------------------
# sampling plans (parameters + contraction-spectrum targets)
# ---------------------------------------------------------------------------

def _sorted2(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, float]:
    a, b = np.sort(rng.uniform(lo, hi, 2))
    return float(a), float(b)


def _sw_above(rng: np.random.Generator, hi: float = 4.0) -> tuple[float, float]:
    if rng.random() < 0.1:
        return 1.0, float(rng.uniform(1.0, hi))
    return _sorted2(rng, 1.0, hi)


def _sw_below(rng: np.random.Generator, lo: float = 0.2) -> tuple[float, float]:
    if rng.random() < 0.1:
        return float(rng.uniform(lo, 1.0)), 1.0
    return _sorted2(rng, lo, 1.0)


def _sw_any(rng: np.random.Generator) -> tuple[float, float]:
    r = rng.random()
    if r < 0.05:
        return 1.0, float(rng.uniform(1.0, 4.0))
    if r < 0.1:
        return float(rng.uniform(0.25, 1.0)), 1.0
    return _sorted2(rng, 0.25, 4.0)


def _sw_in(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, float]:
    """Sandwich targets inside [lo, hi], pinning one edge 10% of the time."""
    if hi <= lo:
        return lo, lo
    r = rng.random()
    if r < 0.05:
        return lo, float(rng.uniform(lo, hi))
    if r < 0.1:
        return float(rng.uniform(lo, hi)), hi
    return _sorted2(rng, lo, hi)


def _p_pos(rng: np.random.Generator, lo: float = _P_EPS, hi: float = 1.0) -> float:
    return float(rng.uniform(lo, hi))


def _p_signed(rng: np.random.Generator) -> float:
    m = _p_pos(rng)
    return m if rng.random() < 0.5 else -m


def _pq_signed(rng: np.random.Generator) -> tuple[float, float]:
    a, b = sorted((_p_signed(rng), _p_signed(rng)))
    return float(a), float(b)


def _plan_h1(rng):
    p = float(rng.uniform(0.0, 1.0))
    u, v = _sw_any(rng)
    return TrialPlan(Params(p=p), u, v)


def _plan_h2(rng):
    p = _p_signed(rng)
    u, v = _sw_any(rng)
    return TrialPlan(Params(p=p), u, v)


def _plan_t0(rng):
    p, q = _pq_signed(rng)
    u, v = _sw_any(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_u1_psigned(rng):
    p = _p_signed(rng)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p), u, v)


def _plan_v1_psigned(rng):
    p = _p_signed(rng)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p), u, v)


def _plan_t1r(rng):
    p = _p_pos(rng)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p), u, v)


def _plan_t1r_dual(rng):
    p = -_p_pos(rng)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p), u, v)


def _plan_t2(rng):
    while True:
        p = float(rng.uniform(-1.0, 1.0 - _P_EPS))
        if abs(p) >= _P_EPS:
            break
    u, v = _sorted2(rng, 1.0 + _P_EPS, 3.0)
    return TrialPlan(Params(p=p), u, v)


def _plan_c1(rng):
    u, v = _sorted2(rng, 1.0 + _P_EPS, 3.0)
    return TrialPlan(Params(), u, v)


def _plan_m1_i(rng):
    p, q = _sorted2(rng, _P_EPS, 1.0)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_m1_ii(rng):
    p, q = _sorted2(rng, -1.0, -_P_EPS)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_m1_iii(rng):
    p, q = _sorted2(rng, _P_EPS, 1.0)
    lo = _exp_capped(-1.0 / q)
    u, v = _sw_in(rng, lo, 1.0)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_m1_iv(rng):
    p, q = _sorted2(rng, -1.0, -_P_EPS)
    hi = min(_exp_capped(-1.0 / p), 4.0)
    u, v = _sw_in(rng, 1.0, hi)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_m2_i(rng):
    p, q = _sorted2(rng, -1.0, -_P_EPS)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_m2_ii(rng):
    p, q = _sorted2(rng, _P_EPS, 1.0)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _c_lo(rng):
    return float(rng.uniform(1e-3, 0.5))


def _c_hi(rng):
    return float(rng.uniform(0.5, 2.0))


def _plan_m3_a1(rng):
    c = _c_lo(rng)
    p, q = _sorted2(rng, -1.0, -_P_EPS)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_a2(rng):
    c = _c_lo(rng)
    p, q = _sorted2(rng, _P_EPS, 1.0)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_b1(rng):
    c = _c_lo(rng)
    p, q = _sorted2(rng, _P_EPS, 1.0)
    hi = min(_exp_capped((1.0 - 2.0 * c) / (c * q)), 4.0)
    u, v = _sw_in(rng, 1.0, hi)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_b2(rng):
    c = _c_lo(rng)
    p, q = _sorted2(rng, -1.0, -_P_EPS)
    lo = max(_exp_capped((1.0 - 2.0 * c) / (c * p)), 0.2)
    u, v = _sw_in(rng, lo, 1.0)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_c(rng):
    c = float(rng.uniform(-2.0, -1e-3))
    p, q = _pq_signed(rng)
    u, v = _sw_any(rng)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_d1(rng):
    c = _c_hi(rng)
    p, q = _sorted2(rng, _P_EPS, 1.0)
    lo = max(_exp_capped((1.0 - 2.0 * c) / (c * q)), 0.2)
    u, v = _sw_in(rng, lo, 1.0)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_d2(rng):
    c = _c_hi(rng)
    p, q = _sorted2(rng, -1.0, -_P_EPS)
    hi = min(_exp_capped((1.0 - 2.0 * c) / (c * p)), 4.0)
    u, v = _sw_in(rng, 1.0, hi)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_e1(rng):
    c = _c_hi(rng)
    p, q = _sorted2(rng, _P_EPS, 1.0)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_m3_e2(rng):
    c = _c_hi(rng)
    p, q = _sorted2(rng, -1.0, -_P_EPS)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p, q=q, c=c), u, v)


def _plan_w1(rng):
    p, q = _sorted2(rng, _P_EPS, 1.0)
    u, v = _sw_any(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_w2(rng):
    p, q = _sorted2(rng, _P_EPS, 1.0 - _P_EPS)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_w2_dual(rng):
    p, q = _sorted2(rng, _P_EPS, 1.0 - _P_EPS)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_w4_i(rng):
    p, q = _sorted2(rng, _P_EPS, 0.5)
    u, v = _sw_above(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


def _plan_w4_ii(rng):
    p, q = _sorted2(rng, 0.5, 1.0)
    u, v = _sw_below(rng)
    return TrialPlan(Params(p=p, q=q), u, v)


# ---------------------------------------------------------------------------
# case construction
# ---------------------------------------------------------------------------

def _chain(group, statement, hyp, plan, members, dual_hyp=None, dual_plan=None):
    cases = []
    for i in range(len(members) - 1):
        cases.append(
            InequalityCase(
                id=f"{group}.{i + 1}",
                group=group,
                statement=statement,
                lhs=members[i],
                rhs=members[i + 1],
                hypothesis=hyp,
                plan=plan,
                dual_hypothesis=dual_hyp,
                dual_plan=dual_plan,
            )
        )
    return cases


def _single(case_id, group, statement, hyp, plan, lhs, rhs, dual_hyp=None, dual_plan=None):
    return [
        InequalityCase(
            id=case_id,
            group=group,
            statement=statement,
            lhs=lhs,
            rhs=rhs,
            hypothesis=hyp,
            plan=plan,
            dual_hypothesis=dual_hyp,
            dual_plan=dual_plan,
        )
    ]


@lru_cache(maxsize=1)
def _build() -> tuple[InequalityCase, ...]:
    cases: list[InequalityCase] = []
    cases += _chain(
        "H1",
        "weighted harmonic <= geometric <= arithmetic mean, p in [0, 1]",
        HYP_ANY_P01,
        _plan_h1,
        [T_HARM, T_GEOM, T_ARITH],
    )
    cases += _chain(
        "H2",
        "A - A B^-1 A <= T[p] <= B - A for p in [-1, 1] \\ {0}",
        HYP_ANY_PU,
        _plan_h2,
        [T_LOW_INV, T_TS, T_B_MINUS_A],
    )
    cases += _single(
        "T0.1",
        "T0",
        "T[p] <= T[q] when p <= q",
        HYP_PLEQ,
        _plan_t0,
        T_TS,
        T_TS_Q,
    )
    cases += _chain(
        "TA",
        "midpoint lower and endpoint-average upper bounds for T[p] when u >= 1",
        HYP_U1_PU,
        _plan_u1_psigned,
        [T_TA_LOW, T_TS, T_TA_UP],
    )
    cases += _chain(
        "T1",
        "S[p/2] <= T[p] <= (S + S[p])/2 when u >= 1 (reversed when v <= 1)",
        HYP_U1_PU,
        _plan_u1_psigned,
        [T_SP_HALF, T_TS, T_S_SP_AVG],
        dual_hyp=HYP_V1_PU,
        dual_plan=_plan_v1_psigned,
    )
    cases += _chain(
        "T1R",
        "S <= S[p/2] <= T[p] <= (S + S[p])/2 <= S[p] when u >= 1, 0 < p <= 1 "
        "(reversed when v <= 1, -1 <= p < 0)",
        HYP_U1_PPOS,
        _plan_t1r,
        [T_S, T_SP_HALF, T_TS, T_S_SP_AVG, T_SP],
        dual_hyp=HYP_V1_PNEG,
        dual_plan=_plan_t1r_dual,
    )
    cases += _chain(
        "T2",
        "(T[p]-T[p-1])/2 <= 4(T[p]-T[p-1])@(A,(A+B)/2) <= (T[p]-T[1])/(p-1) "
        "<= (T[p]-T[p-1])/2 + nat2(A,B-A)/4 when u > 1",
        HYP_T2,
        _plan_t2,
        [T_T2_HALF, T_T2_MID, T_T2_SLOPE, T_T2_UP],
    )
    cases += _chain(
        "T3",
        "closed-form lower/upper envelope for T[p] when u >= 1",
        HYP_U1_PU,
        _plan_u1_psigned,
        [T_T3_LOW, T_TS, T_T3_UP],
    )
    cases += _chain(
        "C1",
        "p -> 0 limit chain: (S-T[-1])/2 <= 4(S-T[-1])@(A,(A+B)/2) <= (B-A)-S "
        "<= (S-T[-1])/2 + nat2(A,B-A)/4 when u > 1",
        HYP_C1,
        _plan_c1,
        [T_C1_HALF, T_C1_MID, T_C1_SLOPE, T_C1_UP],
    )
    # monotonicity of p -> T[p] - c S[p] (four sign regions per coefficient c)
    cases += _single("M1.i", "M1", "T[q]-S[q] <= T[p]-S[p]: u >= 1, 0 < p <= q <= 1", HYP_M1_I, _plan_m1_i, T_DRIFT1_Q, T_DRIFT1_P)
    cases += _single("M1.ii", "M1", "T[q]-S[q] <= T[p]-S[p]: v <= 1, p <= q < 0", HYP_M1_II, _plan_m1_ii, T_DRIFT1_Q, T_DRIFT1_P)
    cases += _single("M1.iii", "M1", "T[q]-S[q] <= T[p]-S[p]: exp(-1/q) <= u <= v <= 1", HYP_M1_III, _plan_m1_iii, T_DRIFT1_Q, T_DRIFT1_P)
    cases += _single("M1.iv", "M1", "T[q]-S[q] <= T[p]-S[p]: 1 <= u <= v <= exp(-1/p)", HYP_M1_IV, _plan_m1_iv, T_DRIFT1_Q, T_DRIFT1_P)
    cases += _single("M2.i", "M2", "T[p]-S[p]/2 <= T[q]-S[q]/2: u >= 1, p <= q < 0", HYP_M2_I, _plan_m2_i, T_DRIFT_HALF_P, T_DRIFT_HALF_Q)
    cases += _single("M2.ii", "M2", "T[p]-S[p]/2 <= T[q]-S[q]/2: v <= 1, 0 < p <= q", HYP_M2_II, _plan_m2_ii, T_DRIFT_HALF_P, T_DRIFT_HALF_Q)
    cases += _single("M2.iii", "M2", "T[q]-S[q]/2 <= T[p]-S[p]/2: u >= 1, 0 < p <= q", HYP_M1_I, _plan_m1_i, T_DRIFT_HALF_Q, T_DRIFT_HALF_P)
    cases += _single("M2.iv", "M2", "T[q]-S[q]/2 <= T[p]-S[p]/2: v <= 1, p <= q < 0", HYP_M1_II, _plan_m1_ii, T_DRIFT_HALF_Q, T_DRIFT_HALF_P)
    cases += _single("M3.a1", "M3", "T[p]-cS[p] <= T[q]-cS[q]: 0 < c <= 1/2, u >= 1, p <= q < 0", HYP_M3_A1, _plan_m3_a1, T_DRIFT_C_P, T_DRIFT_C_Q)
    cases += _single("M3.a2", "M3", "T[p]-cS[p] <= T[q]-cS[q]: 0 < c <= 1/2, v <= 1, 0 < p <= q", HYP_M3_A2, _plan_m3_a2, T_DRIFT_C_P, T_DRIFT_C_Q)
    cases += _single("M3.b1", "M3", "T[p]-cS[p] <= T[q]-cS[q]: 0 < c <= 1/2, 1 <= u <= v <= exp((1-2c)/(cq))", HYP_M3_B1, _plan_m3_b1, T_DRIFT_C_P, T_DRIFT_C_Q)
    cases += _single("M3.b2", "M3", "T[p]-cS[p] <= T[q]-cS[q]: 0 < c <= 1/2, exp((1-2c)/(cp)) <= u <= v <= 1", HYP_M3_B2, _plan_m3_b2, T_DRIFT_C_P, T_DRIFT_C_Q)
    cases += _single("M3.c", "M3", "T[p]-cS[p] <= T[q]-cS[q]: c < 0, p <= q", HYP_M3_C, _plan_m3_c, T_DRIFT_C_P, T_DRIFT_C_Q)
    cases += _single("M3.d1", "M3", "T[q]-cS[q] <= T[p]-cS[p]: c >= 1/2, exp((1-2c)/(cq)) <= u <= v <= 1", HYP_M3_D1, _plan_m3_d1, T_DRIFT_C_Q, T_DRIFT_C_P)
    cases += _single("M3.d2", "M3", "T[q]-cS[q] <= T[p]-cS[p]: c >= 1/2, 1 <= u <= v <= exp((1-2c)/(cp))", HYP_M3_D2, _plan_m3_d2, T_DRIFT_C_Q, T_DRIFT_C_P)
    cases += _single("M3.e1", "M3", "T[q]-cS[q] <= T[p]-cS[p]: c >= 1/2, u >= 1, 0 < p <= q", HYP_M3_E1, _plan_m3_e1, T_DRIFT_C_Q, T_DRIFT_C_P)
    cases += _single("M3.e2", "M3", "T[q]-cS[q] <= T[p]-cS[p]: c >= 1/2, v <= 1, p <= q < 0", HYP_M3_E2, _plan_m3_e2, T_DRIFT_C_Q, T_DRIFT_C_P)
    cases += _single(
        "W1.1",
        "W1",
        "(arith[q]-nat[q])/q <= (arith[p]-nat[p])/p when 0 < p <= q <= 1",
        HYP_W1,
        _plan_w1,
        T_W1_Q,
        T_W1_P,
    )
    cases += _single(
        "W2.1",
        "W2",
        "(arith[q]-nat[q])/(q(1-q)) <= (arith[p]-nat[p])/(p(1-p)) when v <= 1 "
        "(reversed when u >= 1)",
        HYP_W2,
        _plan_w2,
        T_W2_Q,
        T_W2_P,
        dual_hyp=HYP_W2_DUAL,
        dual_plan=_plan_w2_dual,
    )
    cases += _single(
        "W3.1",
        "W3",
        "(nat[q]-harm[q])/q <= (nat[p]-harm[p])/p when v <= 1, 0 < p <= q <= 1",
        HYP_M2_II,
        _plan_m2_ii,
        T_W3_Q,
        T_W3_P,
    )
    cases += _single(
        "W4.i",
        "W4",
        "F[p] <= F[q] with F[r] = (nat[r]-harm[r])/r + r (log C)^2 lift: u >= 1, 0 < p <= q <= 1/2",
        HYP_W4_I,
        _plan_w4_i,
        T_W4_P,
        T_W4_Q,
    )
    cases += _single(
        "W4.ii",
        "W4",
        "F[p] <= F[q] with F[r] = (nat[r]-harm[r])/r + r (log C)^2 lift: v <= 1, 1/2 <= p <= q <= 1",
        HYP_W4_II,
        _plan_w4_ii,
        T_W4_P,
        T_W4_Q,
    )
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids)), "duplicate case ids"
    return tuple(cases)


def catalog() -> list[InequalityCase]:
    """All primary cases (chains pre-expanded into adjacent comparisons)."""
    return list(_build())


def dual(case: InequalityCase) -> InequalityCase:
    """The reversed comparison under the dual hypothesis; involutive."""
    if case.dual_hypothesis is None or case.dual_plan is None:
        raise NoDual(f"case {case.id} has no stated reverse")
    new_id = case.id[: -len(".rev")] if case.id.endswith(".rev") else case.id + ".rev"
    expected = "holds" if case.expected != "holds" else "reversed-under-dual-hypothesis"
    return replace(
        case,
        id=new_id,
        lhs=case.rhs,
        rhs=case.lhs,
        hypothesis=case.dual_hypothesis,
        plan=case.dual_plan,
        expected=expected,
        dual_hypothesis=case.hypothesis,
        dual_plan=case.plan,
    )


def catalog_with_duals() -> list[InequalityCase]:
    """Primary cases followed by every defined dual."""
    out = catalog()
    out.extend(dual(c) for c in catalog() if c.dual_hypothesis is not None)
    return out


@lru_cache(maxsize=1)
def case_index() -> dict[str, InequalityCase]:
    """Every case (including duals) by id, built once."""
    return {c.id: c for c in catalog_with_duals()}


def find_cases(pattern: str) -> list[InequalityCase]:
    """Cases (including duals) whose id or group matches the glob pattern."""
    return [c for c in catalog_with_duals() if fnmatch(c.id, pattern) or fnmatch(c.group, pattern)]


def evaluate(
    case: InequalityCase,
    pair: OperatorPair,
    params: Params,
    *,
    order_tol: float = ORDER_TOL,
    seed: int = 0,
) -> MarginReport:
    """Evaluate one case on one pair.

    Raises HypothesisError when (u, v, params) fall outside the case's
    hypothesis (with slack ``HYP_SLACK``); otherwise returns the margin
    verdict of ``lhs <= rhs``.
    """
    return evaluate_trials(case, pair, [params], [seed], order_tol=order_tol)[0]


def _per_trial(x) -> list:
    """A stack's values (or a single pair's value) as a list of Python scalars."""
    return x.tolist() if isinstance(x, np.ndarray) else [x]


def _stacked_params(params: Sequence[Params]) -> Params:
    """The trials' parameters as ``(k, 1, 1)`` arrays (a plan sets the same fields every draw)."""

    def column(name: str):
        vals = [getattr(pr, name) for pr in params]
        return None if vals[0] is None else np.array(vals, dtype=float).reshape(-1, 1, 1)

    return Params(p=column("p"), q=column("q"), c=column("c"))


def evaluate_trials(
    case: InequalityCase,
    pair: OperatorPair,
    params: Sequence[Params],
    seeds: Sequence[int],
    *,
    order_tol: float = ORDER_TOL,
) -> list[MarginReport]:
    """Evaluate one case on k pairs at once: ``pair`` holds ``(k, n, n)``
    stacks (or one pair, with k = 1) and trial i has ``params[i]`` and
    ``seeds[i]``.  Reports come back in that order.

    Raises HypothesisError for the first trial whose (u, v, params) fall
    outside the case's hypothesis (with slack ``HYP_SLACK``).
    """
    us = _per_trial(pair.u)
    vs = _per_trial(pair.v)
    if not len(us) == len(params) == len(seeds):
        raise InvalidInput(f"{len(us)} pairs for {len(params)} params and {len(seeds)} seeds")
    for u, v, pr in zip(us, vs, params):
        if not case.hypothesis.check(u, v, pr):
            raise HypothesisError(
                f"case {case.id} hypothesis [{case.hypothesis.text}] violated at "
                f"u={u:.6g}, v={v:.6g}, params={pr}"
            )
    ctx = TrialContext(pair)
    stacked = _stacked_params(params) if isinstance(pair.u, np.ndarray) else params[0]
    lhs = case.lhs.fn(ctx, stacked)
    rhs = case.rhs.fn(ctx, stacked)
    verdict = loewner_leq(lhs, rhs, order_tol)
    margins = _per_trial(verdict.margin)
    scales = _per_trial(verdict.scale)
    holds = _per_trial(verdict.holds)
    return [
        MarginReport(
            case_id=case.id,
            seed=seed,
            n=pair.n,
            p=pr.p,
            q=pr.q,
            c=pr.c,
            u=u,
            v=v,
            margin=margin,
            scale=scale,
            holds=ok,
        )
        for seed, pr, u, v, margin, scale, ok in zip(seeds, params, us, vs, margins, scales, holds)
    ]
