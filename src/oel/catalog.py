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
so each case, dual included, is checked by exactly one scalar chain.  The
paper's gap chain is declared once (:func:`_gap_chain`): T2 is it at the
weight p, and C1 is it at p = 0, with T[0] = S and T[-1] = A - A B^-1 A by
its own solve (the route independent of T2's spectral T[p-1]).

A term is of one of two kinds.  A lift is declared by its twin alone
(:func:`_lifted`): its value is the lift of f, one product on X.  T[p],
S, S[p], and the combinations M1-M3's T[r] - c S[r] and T1's (S + S[p])/2
are lifts; the gap chain's T[w] (T[p] in T2, S in C1) and T3's T[p] at
(A, (A+B)/2) are those lifts too.  A route is an explicit operation
independent of the twin: the public means (with their certificates), the
harmonic solve, the explicit solves and products, and the gap chain's
T[w-1].  No trial calls an entropy wrapper.
A term at a derived pair builds it (:func:`_mid`, :func:`_gap`) as a lift
of the pair's contraction C (:meth:`~oel.means.OperatorPair.lift_pair`):
its second matrix is certified as the lift of its twin f, and its
contraction is f(C), held as C's basis and f on spec(C) (assembled only if
read), with no eigensolve.  A derived pair that loses definiteness is a NumericalBreakdown
of the trial.
:func:`check_stack` checks k trials of one case's plan against the case's
hypothesis once and returns them as a :class:`CheckedStack`: the stacked
pair, the seeds, each trial's weights as ``(k, 1, 1)`` arrays and its u, v,
p, q and c as ``(k,)`` columns.  :func:`evaluate_trials` takes only a
checked stack, so no term is read on an unchecked pair; each term is then
one ``(k, n, n)`` stack.  Its verdict is the comparator of
:func:`oel.spd_core.loewner_leq` (one ``eigvalsh`` of the ``(k, n, n)``
stack ``Y - X``, scaled by row-sum norms) at ``ORDER_TOL``, without the
input checks, as its terms are computed.  No caller sets that tolerance, so
a row is a function of its pair and parameters alone; another tolerance is
:func:`~oel.spd_core.loewner_leq` on ``case.lhs.fn(pair, params)`` and
``case.rhs.fn(pair, params)``.  It returns the margins, scales and verdicts
as ``(k,)`` arrays; a row becomes a :class:`MarginReport` only where it
leaves the package, built by one function (``_reports``) for
:func:`evaluate` and the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fnmatch import fnmatch
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import scalars
from .errors import HypothesisError, InvalidInput, NoDual
from .means import OperatorPair, arithmetic_mean, geometric_mean, harmonic_mean, natural_power_mean
from .sampler import _FREE_WINDOW, _is_word
from .scalars import Params
from .spd_core import ORDER_TOL, _loewner, symmetrize

HYP_SLACK = 1e-10  # slack applied to every hypothesis comparison
_P_EPS = 1e-3      # sampled weights keep this distance from removable singularities


@dataclass(frozen=True)
class Term:
    """A named operator expression ``fn(pair, params)`` with its scalar twin
    ``f(x, params)``: the term is ``A^{1/2} f(C) A^{1/2}``, f applied to the
    spectrum of the contraction C of the (possibly stacked) pair."""

    name: str
    fn: Callable
    f: Callable


@dataclass(frozen=True)
class InequalityCase:
    """One registered comparison ``lhs <= rhs`` under ``hypothesis``, whose
    trials ``plan`` draws from their plan words.  ``plan`` is the region's
    own planner (a dual's, its dual region's), so the cases of one region
    share it; a ``run_all`` memo keys the checked stacks it shares on it and
    the hypothesis, and the term values on it.  It is kept as a field so a
    tracer can swap it in, and a swapped planner gets memo entries of its own."""

    id: str
    statement: str
    lhs: Term
    rhs: Term
    hypothesis: Region
    plan: Callable[[np.ndarray], tuple[Params, np.ndarray, np.ndarray]]
    dual_region: Region | None = None

    @property
    def group(self) -> str:
        """The id's prefix (``T1R`` for ``T1R.2.rev``)."""
        return self.id.split(".", 1)[0]

    @property
    def expected(self) -> str:
        """What the case claims: a ``.rev`` id is the reversed comparison."""
        return "reversed-under-dual-hypothesis" if self.id.endswith(".rev") else "holds"


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


_REPORT_FIELDS = tuple(f.name for f in fields(MarginReport))


def _report(*values) -> MarginReport:
    """``MarginReport(*values)``, built by filling the instance's ``__dict__``
    in one step instead of the frozen ``__init__``'s one ``object.__setattr__``
    per field.  The report is the same frozen dataclass instance: equality,
    hash, repr, ``asdict`` and ``replace`` see the same fields."""
    report = object.__new__(MarginReport)
    report.__dict__.update(zip(_REPORT_FIELDS, values))
    return report


def _mid(pair: OperatorPair) -> OperatorPair:
    """The pair (A, (A+B)/2): (A+B)/2 is the lift of (1 + t)/2, its
    contraction (I + C)/2."""
    return pair.lift_pair(0.5 * (pair.A.mat + pair.B.mat), lambda t: 0.5 * (1.0 + t), "derived pair (A, (A+B)/2)")


def _gap(pair: OperatorPair) -> OperatorPair:
    """The pair (A, B - A): B - A is the lift of t - 1, its contraction
    C - I.  Where B - A is not strictly positive, the derived pair is a
    NumericalBreakdown."""
    return pair.lift_pair(pair.B.mat - pair.A.mat, lambda t: t - 1.0, "derived pair (A, B - A)")


# ---------------------------------------------------------------------------
# term library
# ---------------------------------------------------------------------------

def _eye(pair: OperatorPair) -> np.ndarray:
    return np.eye(pair.n)


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
    """The term ``op(pair, r, c)`` at the weight r = p and at r = q (``{r}`` in
    ``name`` reads p or q), with twin ``twin(x, r, c)``; c is the trial's c."""
    return tuple(
        Term(
            name.format(r=r),
            lambda pair, pr, _r=r: op(pair, getattr(pr, _r), pr.c),
            lambda x, pr, _r=r: twin(x, getattr(pr, _r), pr.c),
        )
        for r in "pq"
    )


def _lifted(name: str, f: Callable) -> Term:
    """The term declared by its twin ``f(x, params)`` alone: its value is the
    lift of f, one product on X."""
    return Term(name, lambda pair, pr: pair.transform(lambda t: f(t, pr)), f)


def _at_p(twin: Callable) -> Callable:
    """The twin ``twin(x, p)`` at the trial's p."""
    return lambda x, pr: twin(x, pr.p)


T_HARM = Term("harmonic[p]", lambda pair, pr: harmonic_mean(pair, pr.p).mat, _at_p(scalars.harm_rep))
T_GEOM = Term("geometric[p]", lambda pair, pr: geometric_mean(pair, pr.p).mat, _at_p(scalars.power_rep))
T_ARITH = Term("arithmetic[p]", lambda pair, pr: arithmetic_mean(pair, pr.p).mat, _at_p(scalars.arith_rep))
T_S = _lifted("S", lambda x, pr: np.log(x))
T_SP = _lifted("S[p]", _at_p(scalars.power_log))
T_SP_HALF = _lifted("S[p/2]", lambda x, pr: scalars.power_log(x, 0.5 * pr.p))
T_S_SP_AVG = _lifted("(S + S[p])/2", _at_p(scalars.avg_power_log))
T_TS = _lifted("T[p]", _at_p(scalars.tsallis_log))
T_TS_Q = _lifted("T[q]", lambda x, pr: scalars.tsallis_log(x, pr.q))
T_B_MINUS_A = Term("B - A", lambda pair, pr: pair.B.mat - pair.A.mat, lambda x, pr: x - 1.0)
T_LOW_INV = Term("A - A B^-1 A", lambda pair, pr: _low_inv(pair), lambda x, pr: 1.0 - 1.0 / x)


def _ta_lower(pair: OperatorPair, pr: Params) -> np.ndarray:
    # A^{1/2} ((C+I)/2)^{p-1} (C - I) A^{1/2}
    g = pair.fn_of_contraction(lambda t: (0.5 * (t + 1.0)) ** (pr.p - 1.0))
    core = symmetrize(g @ (pair.contraction.mat - _eye(pair)))
    r = pair.sqrt_a.mat
    return symmetrize(r @ core @ r)


def _ta_upper(pair: OperatorPair, pr: Params) -> np.ndarray:
    return 0.5 * (
        natural_power_mean(pair, pr.p).mat
        - natural_power_mean(pair, pr.p - 1.0).mat
        + pair.B.mat
        - pair.A.mat
    )


T_TA_LOW = Term("A^1/2 ((C+I)/2)^{p-1} (C-I) A^1/2", _ta_lower, _at_p(scalars.hh_lower))
T_TA_UP = Term("(nat[p] - nat[p-1] + B - A)/2", _ta_upper, _at_p(scalars.hh_upper))


def _gap_chain(names: Sequence[str], top: Term, low: Callable, weight: Callable) -> list[Term]:
    """The paper's Hermite-Hadamard chain on the gap T[w] - T[w-1] at the
    weight w = ``weight(pr)``: T[w] is the lifted term ``top``, T[w-1] the
    route ``low(pair, w)``.  Its members are the half gap, 4 times the gap at
    (A, (A+B)/2), the end slope (T[w] - (B - A))/(w - 1), and the half gap
    plus the nat2(A, B - A)/4 correction.  The first three are named
    ``names``, the last by the first's name; each member's twin is taken at w."""

    def gap(pair, pr):
        return top.fn(pair, pr) - low(pair, weight(pr))

    def slope(pair, pr):
        return (top.fn(pair, pr) - (pair.B.mat - pair.A.mat)) / (weight(pr) - 1.0)

    fns = (
        lambda pair, pr: 0.5 * gap(pair, pr),
        lambda pair, pr: 4.0 * gap(_mid(pair), pr),
        slope,
        lambda pair, pr: 0.5 * gap(pair, pr) + 0.25 * natural_power_mean(_gap(pair), 2.0).mat,
    )
    twins = (
        scalars.tsallis_half_gap,
        scalars.tsallis_mid_gap,
        scalars.tsallis_end_slope,
        lambda x, w: scalars.tsallis_half_gap(x, w) + 0.25 * (x - 1.0) ** 2,
    )
    return [
        Term(name, fn, lambda x, pr, _f=f: _f(x, weight(pr)))
        for name, fn, f in zip((*names, f"{names[0]} + nat2(A, B-A)/4"), fns, twins)
    ]


# T2's T[p-1] keeps its explicit route (A nat_{p-1} B - A)/(p - 1), independent of T[p]'s lift
T2_CHAIN = _gap_chain(
    ("(T[p] - T[p-1])/2", "4 (T[p] - T[p-1]) at (A, (A+B)/2)", "(T[p] - (B - A))/(p - 1)"),
    T_TS,
    lambda pair, w: (natural_power_mean(pair, w - 1.0).mat - pair.A.mat) / (w - 1.0),
    lambda pr: pr.p,
)
# C1 is T2 at p = 0, where T[0] = S; its T[-1] = A - A B^-1 A is one solve
C1_CHAIN = _gap_chain(
    ("(S - (A - A B^-1 A))/2", "4 (S - T[-1]) at (A, (A+B)/2)", "(B - A) - S"),
    T_S,
    lambda pair, w: _low_inv(pair),
    lambda pr: 0.0,
)


def _t3_lower(pair: OperatorPair, pr: Params) -> np.ndarray:
    p = pr.p
    return (
        pair.B.mat
        - 0.5 * pair.A.mat
        - (1.0 - p) / (2.0 * (3.0 - p)) * _b_ainv_b(pair)
        - natural_power_mean(pair, p - 1.0).mat / (3.0 - p)
    )


def _t3_upper(pair: OperatorPair, pr: Params) -> np.ndarray:
    ba_inv = np.linalg.solve(pair.A.mat, pair.B.mat).swapaxes(-1, -2)  # = B A^{-1}
    mid = _mid(pair)
    g = natural_power_mean(mid, pr.p - 1.0).mat
    mid_term = symmetrize(2.0 * (ba_inv - _eye(pair)) @ g)
    return pair.B.mat - pair.A.mat + mid_term - 4.0 * T_TS.fn(mid, pr)


T_T3_LOW = Term("B - A/2 - (1-p)/(2(3-p)) B A^-1 B - nat[p-1]/(3-p)", _t3_lower, _at_p(scalars.quad_lower))
T_T3_UP = Term(
    "B - A + 2(B A^-1 - I) nat[p-1](A, (A+B)/2) - 4 T[p](A, (A+B)/2)", _t3_upper, _at_p(scalars.quad_upper)
)


def _w3_rate(pair: OperatorPair, r: float) -> np.ndarray:
    return (natural_power_mean(pair, r).mat - harmonic_mean(pair, r).mat) / r


T_W1_P, T_W1_Q = _weighted(
    "(arith[{r}] - nat[{r}])/{r}",
    lambda pair, r, c: (arithmetic_mean(pair, r).mat - natural_power_mean(pair, r).mat) / r,
    lambda x, r, c: (scalars.arith_rep(x, r) - scalars.power_rep(x, r)) / r,
)
T_W2_P, T_W2_Q = _weighted(
    "(arith[{r}] - nat[{r}])/({r}(1-{r}))",
    lambda pair, r, c: (arithmetic_mean(pair, r).mat - natural_power_mean(pair, r).mat) / (r * (1.0 - r)),
    lambda x, r, c: scalars.mean_gap_scaled(x, r),
)
T_W3_P, T_W3_Q = _weighted(
    "(nat[{r}] - harm[{r}])/{r}", lambda pair, r, c: _w3_rate(pair, r), lambda x, r, c: scalars.geom_harm_gap_rate(x, r)
)
T_W4_P, T_W4_Q = _weighted(
    "(nat[{r}] - harm[{r}])/{r} + {r} (log C)^2 lift",
    lambda pair, r, c: _w3_rate(pair, r) + r * _log_sq(pair),
    lambda x, r, c: scalars.geom_harm_log2(x, r),
)


def _drift_terms(c_fixed: float | None) -> tuple[Term, Term]:
    """T[r] - c S[r] at r = p and r = q, with c fixed or (None) the trial's c:
    the lift of its twin."""
    c_txt = "c" if c_fixed is None else f"{c_fixed:g}"
    return tuple(
        _lifted(
            f"T[{r}] - {c_txt} S[{r}]",
            lambda x, pr, _r=r: scalars.entropy_drift(x, getattr(pr, _r), pr.c if c_fixed is None else c_fixed),
        )
        for r in "pq"
    )


T_DRIFT1_P, T_DRIFT1_Q = _drift_terms(1.0)
T_DRIFT_HALF_P, T_DRIFT_HALF_Q = _drift_terms(0.5)
T_DRIFT_C_P, T_DRIFT_C_Q = _drift_terms(None)


# ---------------------------------------------------------------------------
# hypothesis regions: one declaration yields the gate, the planner and the text
# ---------------------------------------------------------------------------

_WINDOW = (0.2, 4.0)        # sandwich targets are drawn inside this window (without edges, _FREE_WINDOW)
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
    at u = 1 and v = 1, where the paper's regions meet.

    It also yields the grid of its scalar chain (:meth:`grid`)."""

    p: Box | None = None
    ordered: bool = False
    c: Box | None = None
    u_lo: float | ExpEdge | None = None
    v_hi: float | ExpEdge | None = None

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
        lo, hi = self.span(pr, (0.0, np.inf))
        return ok & _ge(u, lo) & _le(v, hi)

    def span(self, pr: Params, bounds: tuple[float, float]):
        """The sandwich span ``(lo, hi)`` at the parameters (arrays for
        arrays): each stated edge clamped into ``bounds``, and the bound
        itself where no edge is stated."""
        lo = bounds[0] if self.u_lo is None else np.maximum(_edge_at(self.u_lo, pr), bounds[0])
        hi = bounds[1] if self.v_hi is None else np.minimum(_edge_at(self.v_hi, pr), bounds[1])
        return lo, hi

    def grid(self) -> tuple[Params, np.ndarray, np.ndarray | None]:
        """The scalar chain grid on its own axes: a :class:`Params` whose
        arrays broadcast to a row shape, an array of x points with one more
        (innermost) axis, and a boolean mask that broadcasts to the row
        shape and marks the grid's rows (None: every row is one), each row
        making, with its x, one row of the grid.  ``p`` is a ``(P, 1, 1)``
        axis of 101 points of the p box, or of 21 when ``ordered``, and then
        ``q`` is a ``(1, Q, 1)`` axis of the same 21; ``c`` is a
        ``(1, 1, C)`` axis of 5 points of a c box.  Each axis leaves out
        what :meth:`Box.grid` does (a c box open at 0 keeps 4).

        A row's x runs geometrically from the lower sandwich edge to the
        upper one (:meth:`span` in ``_X_RANGE``), and keeps ``_P_EPS`` off
        an edge within ``_P_EPS`` of 1.  It has 120 points, 160 without
        edges, or ``_X_ONLY`` without a p box.  x lies on the axes that the
        edges read: one ``(1, 1, 1, m)`` row that every row shares where
        neither edge moves with the parameters, ``(1, Q, C, m)`` where they
        read q and c.  The mask is ``(p < q) & (lo < hi)`` (at p = q the
        members are the same twin; a row whose edges cross has no point),
        so a grid whose fixed edges cross keeps no row."""
        p = q = c = None
        if self.p is not None and not self.ordered:
            p = self.p.grid(101)[:, None, None]
        elif self.p is not None:
            ps = self.p.grid(21)
            p, q = ps[:, None, None], ps[None, :, None]
        if self.c is not None:
            c = self.c.grid(5)[None, None, :]
        pr = Params(p, q, c)
        count = _X_ONLY if self.p is None else 160 if self.u_lo is None and self.v_hi is None else 120
        lo, hi = self.span(pr, _X_RANGE)
        lo = np.where(np.abs(lo - 1.0) <= _P_EPS, 1.0 + _P_EPS, lo)
        hi = np.where(np.abs(hi - 1.0) <= _P_EPS, 1.0 - _P_EPS, hi)
        rows = (lo < hi) & (True if q is None else p < q)
        xs = np.geomspace(lo, hi, count, axis=-1)
        return pr, xs.reshape(*(xs.shape[:-1] or (1, 1, 1)), count), None if rows.all() else rows

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
        if self.u_lo is None and self.v_hi is None:
            (lo, hi), u_pin, v_pin = _FREE_WINDOW, 1.0, 1.0
        else:
            lo, hi = self.span(pr, _WINDOW)
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

R_P01 = Region(p=Box(0.0, 1.0))
R_PUNIT = Region(p=_UNIT)
R_PLEQ = Region(p=_UNIT, ordered=True)
R_U1_PUNIT = Region(p=_UNIT, u_lo=1.0)
R_V1_PUNIT = Region(p=_UNIT, v_hi=1.0)
R_U1_PPOS = Region(p=_POS, u_lo=1.0)
R_V1_PNEG = Region(p=_NEG, v_hi=1.0)
# T2 and C1 need u > 1 (their gap pair B - A must stay positive definite);
# their edge is the one their grids start at (at u = 1 + 1e-6 sampled pairs'
# nat2(A, B - A) could not be certified positive definite)
R_T2 = Region(p=Box(-1.0, 1.0, hi_open=True), u_lo=1.0 + _P_EPS)
R_C1 = Region(u_lo=1.0 + _P_EPS)
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


def _cases(ids, region, members, dual_region, chain_id):
    """The cases ``ids[i]``: ``members[i] <= members[i+1]``.  The members
    also make the scalar chain ``chain_id`` on the region, and
    ``chain_id + "_rev"`` (members reversed) on the dual region."""
    # oel.scalars cannot import this module (catalog imports means, which
    # imports scalars), so the catalog fills scalars.CHAINS in place at import
    scalars.CHAINS[chain_id] = scalars.ChainSpec(chain_id, tuple(members), region)
    if dual_region is not None:
        scalars.CHAINS[chain_id + "_rev"] = scalars.ChainSpec(chain_id + "_rev", tuple(members[::-1]), dual_region)
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
    cases += _chain("T2", R_T2, T2_CHAIN, chain_id="gap_chain")
    cases += _chain("T3", R_U1_PUNIT, [T_T3_LOW, T_TS, T_T3_UP], chain_id="curvature_bounds")
    cases += _chain("C1", R_C1, C1_CHAIN)
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


def catalog() -> list[InequalityCase]:
    """All primary cases (chains pre-expanded into adjacent comparisons)."""
    return list(_CASES)


def _check_case(case) -> None:
    """``case`` is an InequalityCase (an id is not), else an InvalidInput."""
    if not isinstance(case, InequalityCase):
        raise InvalidInput(f"expected an InequalityCase, got {case!r} (look a case id up with oel.harness.case_by_id)")


def dual(case: InequalityCase) -> InequalityCase:
    """The reversed comparison under the dual region; involutive.  A
    ``case`` that is not an InequalityCase is an InvalidInput."""
    _check_case(case)
    if case.dual_region is None:
        raise NoDual(f"case {case.id} has no stated reverse")
    new_id = case.id[: -len(".rev")] if case.id.endswith(".rev") else case.id + ".rev"
    return replace(
        case,
        id=new_id,
        lhs=case.rhs,
        rhs=case.lhs,
        hypothesis=case.dual_region,
        plan=case.dual_region.plan,
        dual_region=case.hypothesis,
    )


# the case table, built once at import: the primary cases, then their duals,
# and a read-only index over them that every lookup shares
_CASES = _build()
_WITH_DUALS = _CASES + tuple(dual(c) for c in _CASES if c.dual_region is not None)
_INDEX = MappingProxyType({c.id: c for c in _WITH_DUALS})


def catalog_with_duals() -> list[InequalityCase]:
    """Primary cases followed by every defined dual."""
    return list(_WITH_DUALS)


def case_index() -> Mapping[str, InequalityCase]:
    """Every case (including duals) by id, a read-only view: the one table
    behind every lookup in the process, which no caller can change."""
    return _INDEX


def find_cases(pattern: str) -> list[InequalityCase]:
    """Cases (including duals) whose id or group matches the glob pattern (a
    string, else an InvalidInput)."""
    if not isinstance(pattern, str):
        raise InvalidInput(f"case pattern must be a string, got {pattern!r}")
    return [c for c in _WITH_DUALS if fnmatch(c.id, pattern) or fnmatch(c.group, pattern)]


@dataclass(frozen=True)
class CheckedStack:
    """k trials of one plan that passed a hypothesis: the stacked pair (or
    one pair, k = 1), the trials' seeds, their weights as the terms read them
    (``(k, 1, 1)`` arrays for a stack, the numbers of one pair), and each
    trial's u, v, p, q and c as ``(k,)`` columns (None where the plan has no
    such parameter)."""

    pair: OperatorPair
    seeds: Sequence[int]
    weights: Params
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray | None
    q: np.ndarray | None
    c: np.ndarray | None


def check_stack(case: InequalityCase, pair: OperatorPair, params: Params, seeds: Sequence[int]) -> CheckedStack:
    """The trials of ``seeds`` on ``pair`` (``(k, n, n)`` stacks, the fields
    of ``params`` ``(k,)`` arrays; or one pair and its numbers, k = 1),
    checked against ``case.hypothesis`` in one elementwise call.  Raises
    HypothesisError for the first trial whose (u, v, params) fall outside it
    (with slack ``HYP_SLACK``), and InvalidInput when the pairs, seeds and
    parameters do not count the same trials."""
    k = len(seeds)
    u, v = np.asarray(pair.u).reshape(-1), np.asarray(pair.v).reshape(-1)
    cols = [None if x is None else np.asarray(x).reshape(-1) for x in (params.p, params.q, params.c)]
    if not all(len(col) == k for col in (u, *cols) if col is not None):
        raise InvalidInput(f"{len(u)} pairs for {k} seeds and params {params}")
    ok = np.asarray(case.hypothesis.check(pair.u, pair.v, params))
    if not ok.all():
        i = int(np.argmin(np.broadcast_to(ok, k)))
        raise HypothesisError(
            f"case {case.id} hypothesis [{case.hypothesis.text}] violated at "
            f"u={u[i]:.6g}, v={v[i]:.6g}, params={Params(*(None if x is None else x[i].item() for x in cols))}"
        )
    weights = params
    if isinstance(pair.u, np.ndarray):  # each trial's parameters as a (k, 1, 1) column
        weights = Params(*(None if x is None else x.reshape(-1, 1, 1) for x in cols))
    return CheckedStack(pair, seeds, weights, u, v, *cols)


def evaluate(case: InequalityCase, pair: OperatorPair, params: Params, *, seed: int = 0) -> MarginReport:
    """Evaluate one case on one pair.

    Raises HypothesisError when (u, v, params) fall outside the case's
    hypothesis (with slack ``HYP_SLACK``); otherwise returns the margin
    verdict of ``lhs <= rhs`` at ``ORDER_TOL``.  A seed that is not an
    integer in ``[0, 2^64)`` (numpy integers are accepted, bools not) is an
    InvalidInput, as is a ``case`` that is not an InequalityCase."""
    _check_case(case)
    if not _is_word(seed):
        raise InvalidInput(f"trial seed must be an integer in [0, 2^64), got {seed!r}")
    stack = check_stack(case, pair, params, [int(seed)])
    return _reports(case.id, stack, evaluate_trials(case, stack))[0]


def evaluate_trials(
    case: InequalityCase, stack: CheckedStack, *, terms: Callable[[Term], np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate one case on a stack its hypothesis passed
    (:func:`check_stack`): the trials' margins, scales and verdicts as
    ``(k,)`` arrays, in the stack's trial order.

    Each side's value is ``terms(term)`` when ``terms`` is given (the
    harness's memo of one run), else ``term.fn(stack.pair, stack.weights)``.
    Raises NumericalBreakdown when a term is not finite."""
    value = (lambda term: term.fn(stack.pair, stack.weights)) if terms is None else terms
    verdict = _loewner(value(case.lhs), value(case.rhs), ORDER_TOL)
    return tuple(x.reshape(-1) for x in verdict)


def _reports(case_id: str, stack: CheckedStack, verdict: tuple) -> list[MarginReport]:
    """The reports of a checked stack's trials from their
    :func:`evaluate_trials` columns, in trial order: the one place a column
    becomes Python scalars."""
    k = len(stack.seeds)
    cols = [(None,) * k if x is None else x.tolist() for x in (stack.p, stack.q, stack.c)]
    numbers = (x.tolist() for x in (stack.u, stack.v, *verdict))
    return list(map(_report, (case_id,) * k, stack.seeds, (stack.pair.n,) * k, *cols, *numbers))
