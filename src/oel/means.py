"""Operator means and relative operator entropies for SPD pairs.

Every binary operation here factors through the contraction
``C = A^{-1/2} B A^{-1/2}``: an operation with scalar representing function
``f`` equals ``A^{1/2} f(C) A^{1/2}``.  :class:`OperatorPair` holds the
spectral data of A and C from construction: C's basis ``Q_C`` and spectrum
and ``X = A^{1/2} Q_C``, so that every such lift is one product,
``(X diag f(spec C)) X^T``, the eigendata product
:func:`~oel.spd_core.spectral_assemble` on X, and a whole family of means and
entropies is evaluated against one decomposition.  The spectral bounds
``u = lambda_min(C)``, ``v = lambda_max(C)`` give the tight sandwich
``u A <= B <= v A``.  Every pair assembles C itself only where its
``contraction`` is read, and a sampled pair forms B only where B is read
(then keeps it, as the cases sharing a pair may read it again): a lift
that reads only X and spec(C), such as the quadrature identity, never
forms B.

A pair may hold ``(k, n, n)`` stacks of A and B: k pairs evaluated by the
same code, one numpy call per step for the whole stack.  Then ``u`` and
``v`` are arrays of shape ``(k,)`` and a weight may be one number or one per
pair, shaped ``(k, 1, 1)``; the scalar function ``f`` of a lift receives the
eigenvalues of each contraction as a row, shaped ``(k, 1, n)`` (``(1, n)``
for a single pair), so such weights broadcast against them.  A weight may
also have a leading axis of its own, shaped ``(P, 1, 1, 1)`` (``(P, 1, 1)``
for a single pair): P weights for every pair, so that f's values are
``(P, k, 1, n)`` and a lift is a ``(P, k, n, n)`` stack, the k pairs at each
weight in turn.  Every step is the same per-matrix operation broadcast over
the weight axis, so each matrix of the entropies and of the quadrature has
the bits of the call with its weight alone (not so for ``t ** p``, which
numpy computes through ``sqrt`` for a scalar exponent 0.5).

A mean computed here is such a lift, and so are the sampled B and the
catalog's derived pairs: Ostrowski's theorem bounds its spectrum by
``lambda_min(A) min f`` and ``lambda_max(A) max f`` on spec(C), numbers the
pair already holds.  :meth:`OperatorPair.certify` checks a computed lift on
those bounds over the values of f it was formed from, widened by a stated
rounding bound (``_LIFT_ROUNDINGS``), with no eigensolve; only where they
do not decide does it fall back to the full check.  The harmonic mean is
the literal second path, not a lift: one LU solve of the parallel sum,
certified by its own Cholesky factorization (with the full check where that
fails) and never by the pair's spectra.

A derived pair ``(A, M)`` for such a lift M of f (the catalog's
``(A, (A+B)/2)`` and ``(A, B - A)``) is built by
:meth:`OperatorPair.lift_pair`: its contraction is ``f(C)``, with C's basis
and spectrum ``f(spec(C))``, so it needs no eigensolve and shares its
parent's ``A^{1/2}``, basis and X.  Only the public constructor solves: one
``eigh`` of A and one of C.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from . import scalars
from .errors import InvalidInput, InvalidWeight
from .spd_core import (
    SpdMatrix,
    _computed,
    _eval_on_spectrum,
    _gamma,
    _row,
    _scalar_or_stack,
    _strict_extremes,
    _text_matrices,
    as_spd,
    dump_matrix,
    spd_by_cholesky,
    spd_certified,
    spd_from_basis,
    spectral_assemble,
    symmetrize,
)


# Rounding bound of a certified lift.  In exact arithmetic a lift M is
# X diag(f) X^T with X = A^{1/2} Q (Q the basis of C), whose eigenvalues
# Ostrowski's theorem (Horn and Johnson, Matrix Analysis, Thm 4.5.9) puts in
# [lambda_min(A) min f, lambda_max(A) max|f|].  The computed M is reached
# through at most four rounded n x n products: the assembly Q diag(w) Q^T of
# A^{1/2}, the product X = A^{1/2} Q (once per stack), the one product
# (X diag f) X^T of the lift (spectral_assemble on X), and the sum or
# scaling with A (itself assembled from its spectrum) in the arithmetic mean
# and the derived pairs.  Each is no further from the exact product than
# gamma_n |X| |Y| entrywise (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Sec. 3.5), so than n gamma_n ||X||_2 ||Y||_2 in the
# 2-norm (as || |X| ||_2 <= sqrt(n) ||X||_2), and every operand is at most
# lambda_max(A) * size in norm, with size = max(1, v, max|f|) bounding the
# twins of A, B and f(C) on spec(C) (so the cancellation in B - A is
# covered).  The budget of _LIFT_ROUNDINGS such errors holds those four, the
# departure of LAPACK's bases from orthogonality and eigvalsh's own backward
# error (each a few n gamma_n ||M||) and the rounding of the bounds, with
# room to spare.  By Weyl's theorem each eigenvalue moves by at most delta
# below, so a certified matrix passes the full check too.  Where C was
# computed from B (a public pair, and the pairs lifted from it), A^{-1/2} amplifies
# C's rounding by up to kappa(A) = lambda_max(A)/lambda_min(A) against ||C||:
# the lower bound loses that factor again to lambda_min(A), the upper one does
# not, so delta grows by 1 + kappa(A) there.  tests/test_means.py checks the
# bounds against eigvalsh on every matrix certified in catalog runs and in
# wide sampler configurations up to n = 128, public pairs included: with the
# one-product lifts, a budget of 2 fails all five of those checks, 3 fails two
# of them (a sampled B at A's spectrum in [1e-3, 1e3], a power mean at A = I)
# and 4 passes them all.
_LIFT_ROUNDINGS = 16
_CONTRACTION = "contraction A^{-1/2} B A^{-1/2}"


def _weights(p, what: str) -> np.ndarray:
    """``p`` as an array of weights: integers or floats, the one dtype check
    of a weight (a bool, a string, None or ragged data is an InvalidWeight)."""
    try:
        weights = np.asarray(p)
    except ValueError:  # ragged nesting
        weights = None
    if weights is None or weights.dtype.kind not in "iuf":
        raise InvalidWeight(f"{what} needs real weights, got {p!r}")
    return weights


def _check_weight(p, lo: float, hi: float, what: str) -> None:
    p = _weights(p, what)
    ok = (lo <= p) & (p <= hi)
    if not ok.all():
        raise InvalidWeight(f"{what} needs weight in [{lo}, {hi}], got {p.flat[np.argmin(ok)]}")


class OperatorPair:
    """An ordered pair (A, B) of SPD matrices with cached spectral data.

    A pair holds C's basis ``Q_C`` and spectrum (``u`` and ``v`` its
    extremes, so ``u A <= B <= v A`` with equality directions attained on
    the corresponding eigenvectors) and ``X = A^{1/2} Q_C``, by which every
    lift of the pair is one product (:meth:`transform`); X is formed with the
    pair, as it is one n x n product and every lift, certified mean and
    derived pair reads it.  The public constructor computes them and
    ``A^{1/2}`` with one ``eigh(A)`` (and an ``A^{-1/2}`` read only to form
    C) and one ``eigh(C)``.  A and B may be equal-shaped stacks of matrices
    (see the module notes).  A pair the package builds from spectral data it
    already holds (a sampled pair, :meth:`lift_pair`) passes SpdMatrix
    operands of one shape and ``_spectra = (A^{1/2}, X, C's basis, spec(C)
    as a row, drift)`` instead: no eigensolve and no input check.  A
    sampled pair passes ``b=None``: its B is the lift of spec(C), formed and
    certified on the first read of :attr:`B` and kept.  Every pair takes
    ``u`` and ``v`` from spec(C), checked positive at construction, and
    holds no C: each read of :attr:`contraction` assembles C from its basis
    and spectrum.
    """

    __slots__ = ("A", "_b", "u", "v", "sqrt_a", "_x", "_q", "_w", "_drift")

    def __init__(self, a, b, _spectra=None) -> None:
        if _spectra is None:
            a = as_spd(a)
            b = as_spd(b)
            if a.mat.shape != b.mat.shape:
                raise InvalidInput(f"dimension mismatch: A is {a.mat.shape}, B is {b.mat.shape}")
            w, q = np.linalg.eigh(a.mat)
            s = _row(np.sqrt(w))
            inv_sqrt_a = spectral_assemble(q, 1.0 / s)
            w_c, q_c = np.linalg.eigh(symmetrize(inv_sqrt_a @ b.mat @ inv_sqrt_a))
            root = spd_from_basis(q, s, "sqrt(A)")
            x = root.mat @ q_c
            x.flags.writeable = False
            _spectra = (root, x, q_c, _row(w_c), a.eig_max / a.eig_min)  # drift: see _LIFT_ROUNDINGS
        self.A = a
        self._b = b
        self.sqrt_a, self._x, self._q, self._w, self._drift = _spectra
        lo, hi = _computed(_strict_extremes, self._w, _CONTRACTION)
        shape = a.mat.shape[:-2]
        self.u = _scalar_or_stack(lo.reshape(shape))
        self.v = _scalar_or_stack(hi.reshape(shape))

    @property
    def B(self) -> SpdMatrix:
        """B as given, or for a sampled pair the lift ``(X diag spec C) X^T``,
        certified by A's and C's extreme eigenvalues (a NumericalBreakdown
        "sampled B: ..." where it fails), formed on the first read and kept."""
        if self._b is None:
            # B's spectrum is not known (congruence mixes A's and C's), but A's
            # and C's extreme eigenvalues bound it; where those bounds do not
            # decide, B gets the full check, and losing definiteness there is a
            # breakdown of the draw
            self._b = self.certify(spectral_assemble(self._x, self._w), self._w, "sampled B")
        return self._b

    @property
    def contraction(self) -> SpdMatrix:
        """``C = A^{-1/2} B A^{-1/2}``, assembled from C's basis and spectrum
        on each read (only the TA lower term reads it in a catalog run), so a
        kept pair holds B alone."""
        return spd_from_basis(self._q, self._w, _CONTRACTION)

    @property
    def n(self) -> int:
        return self.A.n

    def lift_pair(self, m: np.ndarray, f: Callable, context: str) -> "OperatorPair":
        """The pair (A, m) for ``m`` computed as the lift of f (see
        :meth:`certify`, which checks it on f's values): its contraction is
        f(C), held as C's basis and those values, so it shares this pair's
        ``A^{1/2}``, X and basis and needs no eigensolve."""
        fw = _eval_on_spectrum(f, self._w)
        spectra = (self.sqrt_a, self._x, self._q, fw, self._drift)
        return OperatorPair(self.A, self.certify(m, fw, context), _spectra=spectra)

    def fn_of_contraction(self, f: Callable) -> np.ndarray:
        """``f(C)`` assembled from the cached eigendecomposition of C."""
        return spectral_assemble(self._q, _eval_on_spectrum(f, self._w))

    def transform(self, f: Callable) -> np.ndarray:
        """``A^{1/2} f(C) A^{1/2}``: the operator lift of the scalar f, one
        product ``(X diag f(spec C)) X^T`` (:func:`spectral_assemble` on X), a
        ``(P, k, n, n)`` stack where f's values carry a weight axis (see the
        module notes)."""
        return spectral_assemble(self._x, _eval_on_spectrum(f, self._w))

    def certify(self, m: np.ndarray, fw: np.ndarray, context: str) -> SpdMatrix:
        """Wrap ``m``, computed as the lift ``A^{1/2} f(C) A^{1/2}`` from f's
        values ``fw`` on spec(C), as an SpdMatrix certified on the bounds
        ``lambda_min(A) min f - delta`` and ``lambda_max(A) max|f| + delta``
        over ``fw`` (see ``_LIFT_ROUNDINGS``; the pair's drift is 0 where B
        was built from spec(C), else kappa(A)): no eigensolve where they
        prove it positive definite, else the full check, a
        NumericalBreakdown prefixed with ``context`` on failure."""
        n, w, a = m.shape[-1], self._w, self.A
        with np.errstate(all="ignore"):  # a bound that is not finite only fails to certify
            f_hi = np.abs(fw).max(axis=(-2, -1))
            size = np.maximum(np.maximum(1.0, w.max(axis=(-2, -1))), f_hi)
            delta = _LIFT_ROUNDINGS * n * _gamma(n) * (1.0 + self._drift) * a.eig_max * size
            lo = a.eig_min * fw.min(axis=(-2, -1)) - delta
            hi = a.eig_max * f_hi + delta
        return spd_certified(m, lo, hi, context)

    def __repr__(self) -> str:
        if isinstance(self.u, np.ndarray):
            return f"OperatorPair(n={self.n}, stack={np.shape(self.u)})"
        return f"OperatorPair(n={self.n}, u={self.u:.4g}, v={self.v:.4g})"


def arithmetic_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """Weighted arithmetic mean ``(1-p) A + p B`` for p in [0, 1]."""
    _check_weight(p, 0.0, 1.0, "arithmetic mean")
    return pair.certify((1.0 - p) * pair.A.mat + p * pair.B.mat, 1.0 - p + p * pair._w, "arithmetic mean")


def harmonic_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """Weighted harmonic mean ``((1-p) A^{-1} + p B^{-1})^{-1}`` for p in [0, 1].

    Computed as the parallel sum ``B ((1-p) B + p A)^{-1} A`` (Anderson and
    Duffin, J. Math. Anal. Appl. 1969), the same matrix, from one LU solve,
    and certified by its own Cholesky factorization (:func:`spd_by_cholesky`);
    this is deliberately a second numerical path that reads no spectral data,
    independent of the spectral transform used by the power means and
    entropies.
    """
    _check_weight(p, 0.0, 1.0, "harmonic mean")
    a, b = pair.A.mat, pair.B.mat
    return spd_by_cholesky(symmetrize(b @ np.linalg.solve((1.0 - p) * b + p * a, a)), "harmonic mean")


def natural_power_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """``A^{1/2} (A^{-1/2} B A^{-1/2})^p A^{1/2}`` for any real p.

    Interpolates A (p=0) to B (p=1); coincides with the weighted geometric
    mean on [0, 1] and extends it outside.
    """
    p = _weights(p, "natural power mean")
    at_a, at_b = p == 0.0, p == 1.0
    endpoint = (at_a | at_b).any()
    if endpoint and np.broadcast_shapes(pair.A.mat.shape, p.shape) == pair.A.mat.shape:
        if at_a.all():
            return pair.A
        if at_b.all():
            return pair.B
    fw = _eval_on_spectrum(lambda t: t ** p, pair._w)
    m = spectral_assemble(pair._x, fw)
    if endpoint:  # some weights at an endpoint, or all on an axis the pair lacks: those matrices get that operand
        m = np.where(at_a, pair.A.mat, np.where(at_b, pair.B.mat, m))
    return pair.certify(m, fw, f"natural power mean (p={p.item() if p.size == 1 else 'per pair'})")


def geometric_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """Weighted geometric mean, the natural power mean gated to p in [0, 1]."""
    _check_weight(p, 0.0, 1.0, "geometric mean")
    return natural_power_mean(pair, p)


def relative_operator_entropy(pair: OperatorPair) -> np.ndarray:
    """``S(A|B) = A^{1/2} log(A^{-1/2} B A^{-1/2}) A^{1/2}`` (symmetric)."""
    return pair.transform(np.log)


def generalized_entropy(pair: OperatorPair, p: float) -> np.ndarray:
    """``S_p(A|B) = A^{1/2} C^p log(C) A^{1/2}`` with C the contraction."""
    _weights(p, "generalized entropy")
    return pair.transform(lambda t: scalars.power_log(t, p))


def tsallis_entropy(pair: OperatorPair, p: float) -> np.ndarray:
    """``T_p(A|B) = (A nat_p B - A)/p`` for p in [-1, 1] \\ {0}, extended to
    the relative operator entropy at p = 0.

    Evaluated through the stable scalar form expm1(p log t)/p, which agrees
    with the defining quotient to machine precision and degrades gracefully
    as p -> 0.
    """
    _check_weight(p, -1.0, 1.0, "tsallis entropy")
    return pair.transform(lambda t: scalars.tsallis_log(t, p))


@lru_cache(maxsize=16)
def _unit_gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of order ``nodes`` moved to [0, 1]: nodes and
    weights, computed once per order and read-only (every caller shares them)."""
    z, wz = np.polynomial.legendre.leggauss(nodes)
    ts, wts = 0.5 * (z + 1.0), 0.5 * wz
    ts.flags.writeable = wts.flags.writeable = False
    return ts, wts


def _check_nodes(nodes) -> None:
    """A Gauss-Legendre order is an integer in [2, 100] (bools not), else an InvalidInput."""
    if not isinstance(nodes, (int, np.integer)) or isinstance(nodes, bool) or not 2 <= nodes <= 100:
        raise InvalidInput(f"nodes must be an integer in [2, 100], got {nodes!r}")


def quadrature_tsallis(pair: OperatorPair, p: float, nodes: int = 32) -> np.ndarray:
    """Gauss-Legendre evaluation of ``integral_0^1 S_{p t}(A|B) dt``.

    The integral equals the Tsallis relative entropy T_p exactly; this
    operation exists to certify that identity numerically.  ``p`` is one
    weight, one per pair or a weight axis (see the module notes), each in
    [-1, 1] \\ {0}.  ``nodes`` is the Gauss-Legendre order on [0, 1]: an
    integer in [2, 100], the orders numpy documents ``leggauss`` as tested
    for (its cost grows as nodes**3).
    """
    p = _weights(p, "quadrature")
    ok = (-1.0 <= p) & (p <= 1.0) & (p != 0.0)
    if not ok.all():
        raise InvalidWeight(f"quadrature needs p in [-1, 1], p != 0, got {p.flat[np.argmin(ok)]}")
    _check_nodes(nodes)
    ts, wts = _unit_gauss_legendre(int(nodes))
    pts = p[..., None] * ts  # p * s_i, the nodes on a last axis

    def integrated(t_vals: np.ndarray) -> np.ndarray:
        # sum_i w_i * t^(p*s_i) * log t per eigenvalue
        lg = np.log(t_vals)[..., None]
        return (np.exp(pts * lg) * lg) @ wts

    return pair.transform(integrated)


# ---------------------------------------------------------------------------
# pair serialization: two consecutive matrices in the plain-text format
# ---------------------------------------------------------------------------

def dump_pair(pair: OperatorPair) -> str:
    """Serialize (A, B) as two consecutive plain-text matrices."""
    return dump_matrix(pair.A) + dump_matrix(pair.B)


def load_pair(text: str) -> OperatorPair:
    """Parse two consecutive plain-text matrices into an OperatorPair, which
    checks each once; text that is not a string is an InvalidInput."""
    return OperatorPair(*_text_matrices(text, "pair", 2))
