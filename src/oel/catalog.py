"""Registry of the operator inequalities the harness verifies.

Each entry states one comparison ``lhs <= rhs`` in the positive-semidefinite
order, together with the hypothesis region under which it is claimed.  A
region is declared once (:class:`Region`) and yields the admissibility gate,
the planner that draws admissible trials and the hypothesis text.  Every
term carries its scalar twin f: the term is ``A^{1/2} f(C) A^{1/2}`` for the
contraction C, so ``lhs <= rhs`` holds exactly when the twins are ordered on
spec(C).
Multi-term chains are registered as one sub-case per adjacent pair (ids
``G.1``, ``G.2``, ...), and statements holding on several parameter regions
get one sub-case per region (ids like ``M3.b1``).  A case's statement comes
from its members' names and its regions, its group from its id's prefix.
Where a reversed form holds under the dual region, :func:`dual` produces it
(ids gain/lose a ``.rev`` suffix).  Every declaration also yields the chain
of its twins on its region's grid for :mod:`oel.scalars` (see :func:`_cases`),
so each case, dual included, is checked by exactly one scalar chain.

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

from . import scalars
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
class Term:
    """A named operator expression ``fn(ctx, params)`` with its scalar twin
    ``f(x, params)``: the term is ``A^{1/2} f(C) A^{1/2}``, f applied to the
    spectrum of the contraction C."""

    name: str
    fn: Callable
    f: Callable


@dataclass(frozen=True)
class InequalityCase:
    """One registered comparison ``lhs <= rhs`` under ``hypothesis``, whose
    trials ``plan`` draws from their plan words (the region's own planner,
    kept as a field so a tracer can swap it in)."""

    id: str
    statement: str
    lhs: Term
    rhs: Term
    hypothesis: Region
    plan: Callable[[np.ndarray], tuple[Params, np.ndarray, np.ndarray]]
    expected: str = "holds"
    dual_region: Region | None = None

    @property
    def group(self) -> str:
        """The id's prefix (``T1R`` for ``T1R.2.rev``)."""
        return self.id.split(".", 1)[0]


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


def _weighted(name: str, op: Callable, twin: Callable) -> tuple[Term, Term]:
    """The term ``op(ctx, r, c)`` at the weight r = p and at r = q (``{r}`` in
    ``name`` reads p or q), with twin ``twin(x, r, c)``; c is the trial's c."""
    return tuple(
        Term(
            name.format(r=r),
            lambda ctx, pr, _r=r: op(ctx, getattr(pr, _r), pr.c),
            lambda x, pr, _r=r: twin(x, getattr(pr, _r), pr.c),
        )
        for r in "pq"
    )


def _at_p(twin: Callable) -> Callable:
    """The twin ``twin(x, p)`` at the trial's p."""
    return lambda x, pr: twin(x, pr.p)


T_HARM = Term("harmonic[p]", lambda ctx, pr: harmonic_mean(ctx.pair, pr.p).mat, _at_p(scalars.harm_rep))
T_GEOM = Term("geometric[p]", lambda ctx, pr: geometric_mean(ctx.pair, pr.p).mat, _at_p(scalars.power_rep))
T_ARITH = Term("arithmetic[p]", lambda ctx, pr: arithmetic_mean(ctx.pair, pr.p).mat, _at_p(scalars.arith_rep))
T_S = Term("S", lambda ctx, pr: relative_operator_entropy(ctx.pair), lambda x, pr: np.log(x))
T_SP = Term("S[p]", lambda ctx, pr: generalized_entropy(ctx.pair, pr.p), _at_p(scalars.power_log))
T_SP_HALF = Term(
    "S[p/2]",
    lambda ctx, pr: generalized_entropy(ctx.pair, 0.5 * pr.p),
    lambda x, pr: scalars.power_log(x, 0.5 * pr.p),
)
T_S_SP_AVG = Term(
    "(S + S[p])/2",
    lambda ctx, pr: 0.5 * (relative_operator_entropy(ctx.pair) + generalized_entropy(ctx.pair, pr.p)),
    _at_p(scalars.avg_power_log),
)
T_TS, T_TS_Q = _weighted(
    "T[{r}]", lambda ctx, r, c: tsallis_entropy(ctx.pair, r), lambda x, r, c: scalars.tsallis_log(x, r)
)
T_B_MINUS_A = Term("B - A", lambda ctx, pr: ctx.pair.B.mat - ctx.pair.A.mat, lambda x, pr: x - 1.0)
T_LOW_INV = Term("A - A B^-1 A", lambda ctx, pr: _low_inv(ctx.pair), lambda x, pr: 1.0 - 1.0 / x)


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


T_TA_LOW = Term("A^1/2 ((C+I)/2)^{p-1} (C-I) A^1/2", _ta_lower, _at_p(scalars.hh_lower))
T_TA_UP = Term("(nat[p] - nat[p-1] + B - A)/2", _ta_upper, _at_p(scalars.hh_upper))


def _gap_upper_twin(x, p: float):
    # half gap + (x - 1)^2/4, the twin of the nat2(A, B-A)/4 correction
    return scalars.tsallis_half_gap(x, p) + 0.25 * (x - 1.0) ** 2


T_T2_HALF = Term(
    "(T[p] - T[p-1])/2",
    lambda ctx, pr: 0.5 * (tsallis_entropy(ctx.pair, pr.p) - _tsallis_raw(ctx.pair, pr.p - 1.0)),
    _at_p(scalars.tsallis_half_gap),
)
T_T2_MID = Term(
    "4 (T[p] - T[p-1]) at (A, (A+B)/2)",
    lambda ctx, pr: 4.0 * (tsallis_entropy(ctx.mid, pr.p) - _tsallis_raw(ctx.mid, pr.p - 1.0)),
    _at_p(scalars.tsallis_mid_gap),
)
T_T2_SLOPE = Term(
    "(T[p] - (B - A))/(p - 1)",
    lambda ctx, pr: (tsallis_entropy(ctx.pair, pr.p) - (ctx.pair.B.mat - ctx.pair.A.mat)) / (pr.p - 1.0),
    _at_p(scalars.tsallis_end_slope),
)
T_T2_UP = Term(
    "(T[p] - T[p-1])/2 + nat2(A, B-A)/4",
    lambda ctx, pr: 0.5 * (tsallis_entropy(ctx.pair, pr.p) - _tsallis_raw(ctx.pair, pr.p - 1.0))
    + 0.25 * natural_power_mean(ctx.gap, 2.0).mat,
    _at_p(_gap_upper_twin),
)


def _t3_lower(ctx: TrialContext, pr: Params) -> np.ndarray:
    pair = ctx.pair
    p = pr.p
    return (
        pair.B.mat
        - 0.5 * pair.A.mat
        - (1.0 - p) / (2.0 * (3.0 - p)) * _b_ainv_b(pair)
        - natural_power_mean(pair, p - 1.0).mat / (3.0 - p)
    )


def _t3_upper(ctx: TrialContext, pr: Params) -> np.ndarray:
    pair = ctx.pair
    ba_inv = np.linalg.solve(pair.A.mat, pair.B.mat).swapaxes(-1, -2)  # = B A^{-1}
    g = natural_power_mean(ctx.mid, pr.p - 1.0).mat
    mid_term = symmetrize(2.0 * (ba_inv - _eye(pair)) @ g)
    return pair.B.mat - pair.A.mat + mid_term - 4.0 * tsallis_entropy(ctx.mid, pr.p)


T_T3_LOW = Term("B - A/2 - (1-p)/(2(3-p)) B A^-1 B - nat[p-1]/(3-p)", _t3_lower, _at_p(scalars.quad_lower))
T_T3_UP = Term(
    "B - A + 2(B A^-1 - I) nat[p-1](A, (A+B)/2) - 4 T[p](A, (A+B)/2)", _t3_upper, _at_p(scalars.quad_upper)
)


def _c1_mid_lower(ctx: TrialContext, pr: Params) -> np.ndarray:
    # 4 (S - T_{-1}) at the pair (A, (A+B)/2)
    mid = ctx.mid
    return 4.0 * (relative_operator_entropy(mid) - _low_inv(mid))


# the C1 terms are the T2 terms at p = 0, where T[0] = S
T_C1_HALF = Term(
    "(S - (A - A B^-1 A))/2",
    lambda ctx, pr: 0.5 * (relative_operator_entropy(ctx.pair) - _low_inv(ctx.pair)),
    lambda x, pr: scalars.tsallis_half_gap(x, 0.0),
)
T_C1_MID = Term("4 (S - T[-1]) at (A, (A+B)/2)", _c1_mid_lower, lambda x, pr: scalars.tsallis_mid_gap(x, 0.0))
T_C1_SLOPE = Term(
    "(B - A) - S",
    lambda ctx, pr: ctx.pair.B.mat - ctx.pair.A.mat - relative_operator_entropy(ctx.pair),
    lambda x, pr: scalars.tsallis_end_slope(x, 0.0),
)
T_C1_UP = Term(
    "(S - (A - A B^-1 A))/2 + nat2(A, B-A)/4",
    lambda ctx, pr: 0.5 * (relative_operator_entropy(ctx.pair) - _low_inv(ctx.pair))
    + 0.25 * natural_power_mean(ctx.gap, 2.0).mat,
    lambda x, pr: _gap_upper_twin(x, 0.0),
)


def _w3_rate(ctx: TrialContext, r: float) -> np.ndarray:
    return (natural_power_mean(ctx.pair, r).mat - harmonic_mean(ctx.pair, r).mat) / r


T_W1_P, T_W1_Q = _weighted(
    "(arith[{r}] - nat[{r}])/{r}",
    lambda ctx, r, c: (arithmetic_mean(ctx.pair, r).mat - natural_power_mean(ctx.pair, r).mat) / r,
    lambda x, r, c: (scalars.arith_rep(x, r) - scalars.power_rep(x, r)) / r,
)
T_W2_P, T_W2_Q = _weighted(
    "(arith[{r}] - nat[{r}])/({r}(1-{r}))",
    lambda ctx, r, c: (arithmetic_mean(ctx.pair, r).mat - natural_power_mean(ctx.pair, r).mat) / (r * (1.0 - r)),
    lambda x, r, c: scalars.mean_gap_scaled(x, r),
)
T_W3_P, T_W3_Q = _weighted(
    "(nat[{r}] - harm[{r}])/{r}", lambda ctx, r, c: _w3_rate(ctx, r), lambda x, r, c: scalars.geom_harm_gap_rate(x, r)
)
T_W4_P, T_W4_Q = _weighted(
    "(nat[{r}] - harm[{r}])/{r} + {r} (log C)^2 lift",
    lambda ctx, r, c: _w3_rate(ctx, r) + r * _log_sq(ctx.pair),
    lambda x, r, c: scalars.geom_harm_log2(x, r),
)


def _drift(ctx: TrialContext, r: float, c: float) -> np.ndarray:
    return tsallis_entropy(ctx.pair, r) - c * generalized_entropy(ctx.pair, r)


def _drift_terms(c_fixed: float | None) -> tuple[Term, Term]:
    """T[r] - c S[r] at r = p and r = q, with c fixed or (None) the trial's c."""
    c_txt = "c" if c_fixed is None else f"{c_fixed:g}"
    return _weighted(
        f"T[{{r}}] - {c_txt} S[{{r}}]",
        lambda ctx, r, c: _drift(ctx, r, c if c_fixed is None else c_fixed),
        lambda x, r, c: scalars.entropy_drift(x, r, c if c_fixed is None else c_fixed),
    )


T_DRIFT1_P, T_DRIFT1_Q = _drift_terms(1.0)
T_DRIFT_HALF_P, T_DRIFT_HALF_Q = _drift_terms(0.5)
T_DRIFT_C_P, T_DRIFT_C_Q = _drift_terms(None)


# ---------------------------------------------------------------------------
# hypothesis regions: one declaration yields the gate, the planner and the text
# ---------------------------------------------------------------------------

_WINDOW = (0.2, 4.0)        # sandwich targets are drawn inside this window,
_FREE_WINDOW = (0.25, 4.0)  # or inside this one in a region without sandwich edges
_PIN_SHARE = 0.1            # share of draws pinned to a sandwich edge
_REACH = 2.0                # draws and grids stop here in a box with an unbounded end
_X_RANGE = (1e-3, 1e3)      # the x span of a scalar chain grid
_X_ONLY = 10_000            # x points of a chain grid without a p box


def _ge(a, b):
    return a >= b - HYP_SLACK


def _le(a, b):
    return a <= b + HYP_SLACK


def _num(x: float) -> str:
    return f"{x:.12g}"


def _sorted2(lo, hi, w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two words mapped onto [lo, hi], in order."""
    a, b = lo + (hi - lo) * w1, lo + (hi - lo) * w2
    return np.minimum(a, b), np.maximum(a, b)


@dataclass(frozen=True)
class Box:
    """An interval for one scalar parameter.  Closed ends are checked with
    HYP_SLACK, open ends strictly, and a box that straddles 0 excludes 0
    (elementwise on arrays).  Draws keep ``_P_EPS`` off open ends and off 0,
    and stop at ``_REACH`` in an unbounded end."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def admits(self, x):
        ok = (x > self.lo if self.lo_open else _ge(x, self.lo)) & (x < self.hi if self.hi_open else _le(x, self.hi))
        return ok & (x != 0.0) if self.lo < 0.0 < self.hi else ok

    def draw(self, words: np.ndarray) -> np.ndarray:
        """Words in [0, 1) mapped in order onto the drawn range ``[lo, hi]``,
        or onto ``[lo, -_P_EPS) U [_P_EPS, hi]`` when it straddles 0."""
        lo = max(self.lo + _P_EPS if self.lo_open else self.lo, -_REACH)
        hi = min(self.hi - _P_EPS if self.hi_open else self.hi, _REACH)
        if not lo < 0.0 < hi:
            return lo + (hi - lo) * words
        x = lo + (hi - lo - 2.0 * _P_EPS) * words
        return np.where(x < -_P_EPS, x, x + 2.0 * _P_EPS)

    def grid(self, count: int) -> np.ndarray:
        """``count`` evenly spaced points, stopping at ``_REACH`` in an
        unbounded end, less those within ``_P_EPS`` of an open end and of 0
        in a box that straddles it."""
        g = np.linspace(max(self.lo, -_REACH), min(self.hi, _REACH), count)
        cuts = [0.0] * (self.lo < 0.0 < self.hi) + [self.lo] * self.lo_open + [self.hi] * self.hi_open
        for x in cuts:
            g = g[(g <= x - _P_EPS) | (g >= x + _P_EPS)]
        return g

    def text(self, names: str) -> str:
        if self.lo < 0.0 < self.hi:
            left, right = "(["[not self.lo_open], ")]"[not self.hi_open]
            return f"{names} in {left}{_num(self.lo)}, {_num(self.hi)}{right} \\ {{0}}"
        left = "" if self.lo == -np.inf else f"{_num(self.lo)} {'<' if self.lo_open else '<='} "
        right = "" if self.hi == np.inf else f" {'<' if self.hi_open else '<='} {_num(self.hi)}"
        return left + names + right


@dataclass(frozen=True)
class ExpEdge:
    """A sandwich edge ``exp(z)`` that moves with the parameters (z capped at 700)."""

    z_text: str
    z: Callable[[Params], float]


def _edge_at(edge: float | ExpEdge, pr: Params):
    """The edge at the parameters (arrays for a stack's)."""
    return np.exp(np.minimum(edge.z(pr), 700.0)) if isinstance(edge, ExpEdge) else edge


def _edge_text(edge: float | ExpEdge) -> str:
    return f"exp({edge.z_text})" if isinstance(edge, ExpEdge) else _num(edge)


@dataclass(frozen=True)
class Region:
    """One hypothesis region: ``p`` in a box (``p <= q``, both in it, when
    ``ordered``), ``c`` in a box, and the sandwich ``u >= u_lo``,
    ``v <= v_hi``; None leaves that part free.  The declaration yields the
    gate (:meth:`check`), the planner (:meth:`plan`) and the :attr:`text`.

    The planner maps a stack of plan words (c, p, q, a pin selector and two
    targets; see :data:`oel.sampler.PLAN_WORDS`) onto parameters and
    sandwich targets, each word onto its own value.  Targets come
    from ``_WINDOW`` with each stated edge clamped into it, or from
    ``_FREE_WINDOW`` when no edge is stated.  A ``_PIN_SHARE`` of draws puts
    u on its lower edge or v on its upper edge, where the inequalities are
    tight (split evenly when both are stated); without edges those pins sit
    at u = 1 and v = 1, where the paper's regions meet.  A region with its
    own ``window`` draws plainly inside it, without pins.

    It also yields the grid of its scalar chain (:meth:`grid`)."""

    p: Box | None = None
    ordered: bool = False
    c: Box | None = None
    u_lo: float | ExpEdge | None = None
    v_hi: float | ExpEdge | None = None
    window: tuple[float, float] | None = None

    def admits(self, pr: Params):
        """Whether the parameters lie in the region's boxes, with ``HYP_SLACK``
        of slack; elementwise when they are arrays.  A missing one does not."""
        ok = True
        if self.p is not None:
            if pr.p is None or (self.ordered and pr.q is None):
                return False
            ok = self.p.admits(pr.p)
            if self.ordered:
                ok = ok & self.p.admits(pr.q) & _le(pr.p, pr.q)
        if self.c is not None:
            if pr.c is None:
                return False
            ok = ok & self.c.admits(pr.c)
        return ok

    def check(self, u, v, pr: Params):
        """Whether (u, v, params) lie in the region, with ``HYP_SLACK`` of
        slack; elementwise when they are arrays (a stack's)."""
        ok = self.admits(pr)
        if not np.any(ok):  # the edges may not be defined off the boxes
            return ok
        if self.u_lo is not None:
            ok = ok & _ge(u, _edge_at(self.u_lo, pr))
        if self.v_hi is not None:
            ok = ok & _le(v, _edge_at(self.v_hi, pr))
        return ok

    def grid(self):
        """The scalar chain grid, as ``(params, xs)`` rows.  ``params`` is
        ``(p,)`` for 101 points of the p box, ``(p, q)`` for each p < q of
        21 points when ``ordered`` (at p = q the members are the same twin),
        or ``()`` without a p box; with a c box (every one is ordered) each
        is followed by 5 points of c.  xs runs geometrically from the lower
        sandwich edge to the upper one, each evaluated at the row's
        parameters and capped to ``_X_RANGE`` (its end where an edge is not
        stated), and keeps ``_P_EPS`` off an edge within ``_P_EPS`` of 1; a
        row whose range is empty is left out.  It has 120 points, 160
        without edges, or ``_X_ONLY`` without a p box."""
        if self.p is None:
            rows = [()]
        elif not self.ordered:
            rows = [(p,) for p in self.p.grid(101).tolist()]
        else:
            ps = self.p.grid(21).tolist()
            rows = [(p, q) for i, p in enumerate(ps) for q in ps[i + 1 :]]
        if self.c is not None:
            cs = self.c.grid(5).tolist()
            rows = [(*r, c) for r in rows for c in cs]
        count = _X_ONLY if self.p is None else 160 if self.u_lo is None and self.v_hi is None else 120
        pr = Params(*np.array(rows, dtype=float).reshape(len(rows), -1).T)  # each row's edges at once
        lo = _X_RANGE[0] if self.u_lo is None else np.maximum(_edge_at(self.u_lo, pr), _X_RANGE[0])
        hi = _X_RANGE[1] if self.v_hi is None else np.minimum(_edge_at(self.v_hi, pr), _X_RANGE[1])
        lo = np.broadcast_to(np.where(np.abs(lo - 1.0) <= _P_EPS, 1.0 + _P_EPS, lo), len(rows)).tolist()
        hi = np.broadcast_to(np.where(np.abs(hi - 1.0) <= _P_EPS, 1.0 - _P_EPS, hi), len(rows)).tolist()
        xs_at = {}
        for params, lo, hi in zip(rows, lo, hi):
            if lo < hi:
                xs = xs_at.get((lo, hi))
                if xs is None:
                    xs = xs_at[lo, hi] = np.geomspace(lo, hi, count)
                yield params, xs

    def plan(self, words: np.ndarray) -> tuple[Params, np.ndarray, np.ndarray]:
        """Admissible draws from ``(k, PLAN_WORDS)`` plan words: the
        parameters as ``(k,)`` arrays (None where the region has no box),
        then the ``(k,)`` sandwich targets u and v."""
        c = None if self.c is None else self.c.draw(words[:, 0])
        p = q = None
        if self.p is not None:
            p = self.p.draw(words[:, 1])
            if self.ordered:
                other = self.p.draw(words[:, 2])
                p, q = np.minimum(p, other), np.maximum(p, other)
        pr = Params(p=p, q=q, c=c)
        return (pr, *self._targets(pr, *words[:, 3:6].T))

    def _targets(self, pr: Params, pin: np.ndarray, w1: np.ndarray, w2: np.ndarray):
        if self.window is not None:
            return _sorted2(*self.window, w1, w2)
        if self.u_lo is None and self.v_hi is None:
            (lo, hi), u_pin, v_pin = _FREE_WINDOW, 1.0, 1.0
        else:
            lo = _WINDOW[0] if self.u_lo is None else np.maximum(_edge_at(self.u_lo, pr), _WINDOW[0])
            hi = _WINDOW[1] if self.v_hi is None else np.minimum(_edge_at(self.v_hi, pr), _WINDOW[1])
            u_pin = None if self.u_lo is None else lo
            v_pin = None if self.v_hi is None else hi
        u, v = _sorted2(lo, hi, w1, w2)
        # a pin on u takes precedence over one on v
        if v_pin is not None:
            at = pin < _PIN_SHARE
            u, v = np.where(at, lo + (v_pin - lo) * w1, u), np.where(at, v_pin, v)
        if u_pin is not None:
            at = pin < (_PIN_SHARE if v_pin is None else _PIN_SHARE / 2)
            u, v = np.where(at, u_pin, u), np.where(at, u_pin + (hi - u_pin) * w1, v)
        empty = hi <= lo  # the edges cross inside the window
        return np.where(empty, lo, u), np.where(empty, lo, v)

    @property
    def text(self) -> str:
        parts = []
        if self.u_lo is not None:
            parts.append(f"u >= {_edge_text(self.u_lo)}")
        if self.v_hi is not None:
            parts.append(f"v <= {_edge_text(self.v_hi)}")
        if self.p is not None:
            parts.append(self.p.text("p <= q" if self.ordered else "p"))
        if self.c is not None:
            parts.append(self.c.text("c"))
        return ", ".join(parts)


_UNIT = Box(-1.0, 1.0)
_POS = Box(0.0, 1.0, lo_open=True)
_NEG = Box(-1.0, 0.0, hi_open=True)
_POS_OPEN = Box(0.0, 1.0, lo_open=True, hi_open=True)
_C_SMALL = Box(0.0, 0.5, lo_open=True)
_C_LARGE = Box(0.5, np.inf)
_EXP_Q = ExpEdge("-1/q", lambda pr: -1.0 / pr.q)
_EXP_P = ExpEdge("-1/p", lambda pr: -1.0 / pr.p)
_EXP_CQ = ExpEdge("(1-2c)/(c q)", lambda pr: (1.0 - 2.0 * pr.c) / (pr.c * pr.q))
_EXP_CP = ExpEdge("(1-2c)/(c p)", lambda pr: (1.0 - 2.0 * pr.c) / (pr.c * pr.p))
# T2 and C1 need u > 1 (their gap pair B - A must stay positive definite), so
# they draw u, v plainly from a window that keeps _P_EPS off 1
_GAP_WINDOW = (1.0 + _P_EPS, 3.0)

R_P01 = Region(p=Box(0.0, 1.0))
R_PUNIT = Region(p=_UNIT)
R_PLEQ = Region(p=_UNIT, ordered=True)
R_U1_PUNIT = Region(p=_UNIT, u_lo=1.0)
R_V1_PUNIT = Region(p=_UNIT, v_hi=1.0)
R_U1_PPOS = Region(p=_POS, u_lo=1.0)
R_V1_PNEG = Region(p=_NEG, v_hi=1.0)
R_T2 = Region(p=Box(-1.0, 1.0, hi_open=True), u_lo=1.0 + 1e-6, window=_GAP_WINDOW)
R_C1 = Region(u_lo=1.0 + 1e-6, window=_GAP_WINDOW)
R_M1_I = Region(p=_POS, ordered=True, u_lo=1.0)
R_M1_II = Region(p=_NEG, ordered=True, v_hi=1.0)
R_M1_III = Region(p=_POS, ordered=True, u_lo=_EXP_Q, v_hi=1.0)
R_M1_IV = Region(p=_NEG, ordered=True, u_lo=1.0, v_hi=_EXP_P)
R_M2_I = Region(p=_NEG, ordered=True, u_lo=1.0)
R_M2_II = Region(p=_POS, ordered=True, v_hi=1.0)
R_M3_A1 = Region(p=_NEG, ordered=True, c=_C_SMALL, u_lo=1.0)
R_M3_A2 = Region(p=_POS, ordered=True, c=_C_SMALL, v_hi=1.0)
R_M3_B1 = Region(p=_POS, ordered=True, c=_C_SMALL, u_lo=1.0, v_hi=_EXP_CQ)
R_M3_B2 = Region(p=_NEG, ordered=True, c=_C_SMALL, u_lo=_EXP_CP, v_hi=1.0)
R_M3_C = Region(p=_UNIT, ordered=True, c=Box(-np.inf, 0.0, hi_open=True))
R_M3_D1 = Region(p=_POS, ordered=True, c=_C_LARGE, u_lo=_EXP_CQ, v_hi=1.0)
R_M3_D2 = Region(p=_NEG, ordered=True, c=_C_LARGE, u_lo=1.0, v_hi=_EXP_CP)
R_M3_E1 = Region(p=_POS, ordered=True, c=_C_LARGE, u_lo=1.0)
R_M3_E2 = Region(p=_NEG, ordered=True, c=_C_LARGE, v_hi=1.0)
R_W1 = Region(p=_POS, ordered=True)
R_W2 = Region(p=_POS_OPEN, ordered=True, v_hi=1.0)
R_W2_DUAL = Region(p=_POS_OPEN, ordered=True, u_lo=1.0)
R_W4_I = Region(p=Box(0.0, 0.5, lo_open=True), ordered=True, u_lo=1.0)
R_W4_II = Region(p=Box(0.5, 1.0), ordered=True, v_hi=1.0)


# ---------------------------------------------------------------------------
# case construction
# ---------------------------------------------------------------------------

def _statement(members: Sequence[Term], region: Region, dual_region: Region | None) -> str:
    text = f"{' <= '.join(t.name for t in members)} when {region.text}"
    return text if dual_region is None else f"{text} (reversed when {dual_region.text})"


def _scalar_chain(chain_id: str, region: Region, members: Sequence[Term]) -> None:
    # oel.scalars cannot import this module (catalog imports means, which
    # imports scalars), so the catalog fills scalars.CHAINS in place at import
    scalars.CHAINS[chain_id] = scalars.ChainSpec(
        chain_id,
        tuple((t.name, lambda x, *params, _f=t.f: _f(x, Params(*params))) for t in members),
        region.grid,
        lambda params: region.admits(Params(*params)),
    )


def _cases(ids, region, members, dual_region, chain_id):
    """The cases ``ids[i]``: ``members[i] <= members[i+1]``.  The members'
    twins also make the scalar chain ``chain_id`` on the region's grid, and
    ``chain_id + "_rev"`` (members reversed) on the dual region."""
    _scalar_chain(chain_id, region, members)
    if dual_region is not None:
        _scalar_chain(chain_id + "_rev", dual_region, members[::-1])
    statement = _statement(members, region, dual_region)
    return [
        InequalityCase(case_id, statement, lhs, rhs, region, region.plan, dual_region=dual_region)
        for case_id, lhs, rhs in zip(ids, members, members[1:])
    ]


def _case(case_id, region, lhs, rhs):
    """One case, whose scalar chain is named by its id."""
    return _cases([case_id], region, [lhs, rhs], None, case_id)[0]


def _chain(group, region, members, dual_region=None, chain_id=None):
    """One case per adjacent pair of ``members`` (ids ``group.1``, ...), and
    one scalar chain, ``chain_id`` or else ``group``."""
    ids = [f"{group}.{i}" for i in range(1, len(members))]
    return _cases(ids, region, members, dual_region, chain_id or group)


def _build() -> tuple[InequalityCase, ...]:
    cases: list[InequalityCase] = []
    cases += _chain("H1", R_P01, [T_HARM, T_GEOM, T_ARITH], chain_id="means_order")
    cases += _chain("H2", R_PUNIT, [T_LOW_INV, T_TS, T_B_MINUS_A])
    cases += _chain("T0", R_PLEQ, [T_TS, T_TS_Q], chain_id="gap_rate_monotone")
    cases += _chain("TA", R_U1_PUNIT, [T_TA_LOW, T_TS, T_TA_UP])
    cases += _chain(
        "T1", R_U1_PUNIT, [T_SP_HALF, T_TS, T_S_SP_AVG], dual_region=R_V1_PUNIT, chain_id="entropy_bounds"
    )
    cases += _chain("T1R", R_U1_PPOS, [T_S, T_SP_HALF, T_TS, T_S_SP_AVG, T_SP], dual_region=R_V1_PNEG)
    cases += _chain("T2", R_T2, [T_T2_HALF, T_T2_MID, T_T2_SLOPE, T_T2_UP], chain_id="gap_chain")
    cases += _chain("T3", R_U1_PUNIT, [T_T3_LOW, T_TS, T_T3_UP], chain_id="curvature_bounds")
    cases += _chain("C1", R_C1, [T_C1_HALF, T_C1_MID, T_C1_SLOPE, T_C1_UP])
    # monotonicity of p -> T[p] - c S[p] (four sign regions per coefficient c)
    cases += [
        _case("M1.i", R_M1_I, T_DRIFT1_Q, T_DRIFT1_P),
        _case("M1.ii", R_M1_II, T_DRIFT1_Q, T_DRIFT1_P),
        _case("M1.iii", R_M1_III, T_DRIFT1_Q, T_DRIFT1_P),
        _case("M1.iv", R_M1_IV, T_DRIFT1_Q, T_DRIFT1_P),
        _case("M2.i", R_M2_I, T_DRIFT_HALF_P, T_DRIFT_HALF_Q),
        _case("M2.ii", R_M2_II, T_DRIFT_HALF_P, T_DRIFT_HALF_Q),
        _case("M2.iii", R_M1_I, T_DRIFT_HALF_Q, T_DRIFT_HALF_P),
        _case("M2.iv", R_M1_II, T_DRIFT_HALF_Q, T_DRIFT_HALF_P),
        _case("M3.a1", R_M3_A1, T_DRIFT_C_P, T_DRIFT_C_Q),
        _case("M3.a2", R_M3_A2, T_DRIFT_C_P, T_DRIFT_C_Q),
        _case("M3.b1", R_M3_B1, T_DRIFT_C_P, T_DRIFT_C_Q),
        _case("M3.b2", R_M3_B2, T_DRIFT_C_P, T_DRIFT_C_Q),
        _case("M3.c", R_M3_C, T_DRIFT_C_P, T_DRIFT_C_Q),
        _case("M3.d1", R_M3_D1, T_DRIFT_C_Q, T_DRIFT_C_P),
        _case("M3.d2", R_M3_D2, T_DRIFT_C_Q, T_DRIFT_C_P),
        _case("M3.e1", R_M3_E1, T_DRIFT_C_Q, T_DRIFT_C_P),
        _case("M3.e2", R_M3_E2, T_DRIFT_C_Q, T_DRIFT_C_P),
    ]
    cases += _chain("W1", R_W1, [T_W1_Q, T_W1_P])
    cases += _chain("W2", R_W2, [T_W2_Q, T_W2_P], dual_region=R_W2_DUAL)
    cases += _chain("W3", R_M2_II, [T_W3_Q, T_W3_P])
    cases += [_case("W4.i", R_W4_I, T_W4_P, T_W4_Q), _case("W4.ii", R_W4_II, T_W4_P, T_W4_Q)]
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids)), "duplicate case ids"
    return tuple(cases)


_CASES = _build()


def catalog() -> list[InequalityCase]:
    """All primary cases (chains pre-expanded into adjacent comparisons)."""
    return list(_CASES)


def dual(case: InequalityCase) -> InequalityCase:
    """The reversed comparison under the dual region; involutive."""
    if case.dual_region is None:
        raise NoDual(f"case {case.id} has no stated reverse")
    new_id = case.id[: -len(".rev")] if case.id.endswith(".rev") else case.id + ".rev"
    expected = "holds" if case.expected != "holds" else "reversed-under-dual-hypothesis"
    return replace(
        case,
        id=new_id,
        lhs=case.rhs,
        rhs=case.lhs,
        hypothesis=case.dual_region,
        plan=case.dual_region.plan,
        expected=expected,
        dual_region=case.hypothesis,
    )


def catalog_with_duals() -> list[InequalityCase]:
    """Primary cases followed by every defined dual."""
    out = catalog()
    out.extend(dual(c) for c in catalog() if c.dual_region is not None)
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
    return evaluate_trials(case, pair, params, [seed], order_tol=order_tol)[0]


def _per_trial(x) -> list:
    """A stack's values (or a single pair's value) as a list of Python scalars."""
    return x.tolist() if isinstance(x, np.ndarray) else [x]


def evaluate_trials(
    case: InequalityCase,
    pair: OperatorPair,
    params: Params,
    seeds: Sequence[int],
    *,
    order_tol: float = ORDER_TOL,
) -> list[MarginReport]:
    """Evaluate one case on k pairs at once: ``pair`` holds ``(k, n, n)``
    stacks and the fields of ``params`` are ``(k,)`` arrays (or one pair and
    its numbers, with k = 1); trial i has seed ``seeds[i]``.  Reports come
    back in that order.

    Raises HypothesisError for the first trial whose (u, v, params) fall
    outside the case's hypothesis (with slack ``HYP_SLACK``).
    """
    k, n = len(seeds), pair.n
    us = _per_trial(pair.u)
    vs = _per_trial(pair.v)
    cols = [(x,) * k if x is None else _per_trial(x) for x in (params.p, params.q, params.c)]
    if not all(len(col) == k for col in (us, *cols)):
        raise InvalidInput(f"{len(us)} pairs for {k} seeds and params {params}")
    ok = np.broadcast_to(case.hypothesis.check(pair.u, pair.v, params), k)
    if not ok.all():
        i = int(np.argmin(ok))
        raise HypothesisError(
            f"case {case.id} hypothesis [{case.hypothesis.text}] violated at "
            f"u={us[i]:.6g}, v={vs[i]:.6g}, params={Params(*(col[i] for col in cols))}"
        )
    if isinstance(pair.u, np.ndarray):  # each trial's parameters as a (k, 1, 1) column
        params = Params(*(x if x is None else np.reshape(x, (-1, 1, 1)) for x in (params.p, params.q, params.c)))
    ctx = TrialContext(pair)
    lhs = case.lhs.fn(ctx, params)
    rhs = case.rhs.fn(ctx, params)
    verdict = loewner_leq(lhs, rhs, order_tol)
    margins = _per_trial(verdict.margin)
    scales = _per_trial(verdict.scale)
    holds = _per_trial(verdict.holds)
    return [
        MarginReport(
            case_id=case.id,
            seed=seed,
            n=n,
            p=p,
            q=q,
            c=c,
            u=u,
            v=v,
            margin=margin,
            scale=scale,
            holds=ok,
        )
        for seed, p, q, c, u, v, margin, scale, ok in zip(seeds, *cols, us, vs, margins, scales, holds)
    ]
