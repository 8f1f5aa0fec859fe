"""Operator means and relative operator entropies for SPD pairs.

Every binary operation here factors through the contraction
``C = A^{-1/2} B A^{-1/2}``: an operation with scalar representing function
``f`` equals ``A^{1/2} f(C) A^{1/2}``.  :class:`OperatorPair` caches the
spectral data of A and C at construction (never lazily), so a whole family
of means and entropies can be evaluated against one decomposition, and the
spectral bounds ``u = lambda_min(C)``, ``v = lambda_max(C)`` give the tight
sandwich ``u A <= B <= v A``.

A pair may hold ``(k, n, n)`` stacks of A and B: k pairs evaluated by the
same code, one numpy call per step for the whole stack.  Then ``u`` and
``v`` are arrays of shape ``(k,)`` and a weight may be one number or one per
pair, shaped ``(k, 1, 1)``; the scalar function ``f`` of a lift receives the
eigenvalues of each contraction as a row, shaped ``(k, 1, n)`` (``(1, n)``
for a single pair), so such weights broadcast against them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import scalars
from .errors import InvalidInput, InvalidWeight
from .spd_core import (
    SpdMatrix,
    _eval_on_spectrum,
    _rebuild_spd,
    _row,
    as_spd,
    dump_matrix,
    load_matrix,
    spd_from_spectrum,
    spectral_assemble,
    symmetrize,
)


def _check_weight(p, lo: float, hi: float, what: str) -> None:
    p = np.asarray(p)
    ok = (lo <= p) & (p <= hi)
    if not ok.all():
        raise InvalidWeight(f"{what} needs weight in [{lo}, {hi}], got {p.flat[np.argmin(ok)]}")


class OperatorPair:
    """An ordered pair (A, B) of SPD matrices with cached spectral data.

    Construction computes ``A^{1/2}``, ``A^{-1/2}``, the contraction
    ``C = A^{-1/2} B A^{-1/2}`` and its eigendecomposition; ``u`` and ``v``
    are the extreme eigenvalues of C, so ``u A <= B <= v A`` with equality
    directions attained on the corresponding eigenvectors.  The roots come
    from one ``eigh(A)``; C is checked positive on its one ``eigh(C)``.
    A and B may be equal-shaped stacks of matrices (see the module notes).
    The sampler, which knows the roots and C's spectrum and basis, passes
    them as ``_roots`` and ``_contraction = (C, Q, w)``: no eigensolve.
    """

    __slots__ = ("A", "B", "sqrt_a", "inv_sqrt_a", "contraction", "u", "v", "_w", "_q")

    def __init__(self, a, b, _roots: tuple[SpdMatrix, SpdMatrix] | None = None, _contraction=None) -> None:
        a = as_spd(a)
        b = as_spd(b)
        if a.mat.shape != b.mat.shape:
            raise InvalidInput(f"dimension mismatch: A is {a.mat.shape}, B is {b.mat.shape}")
        self.A = a
        self.B = b
        if _roots is None:
            w, q = np.linalg.eigh(a.mat)
            s = _row(np.sqrt(w))
            self.sqrt_a = spd_from_spectrum(spectral_assemble(q, s), s, "sqrt(A)")
            self.inv_sqrt_a = spd_from_spectrum(spectral_assemble(q, s, inverse=True), 1.0 / s, "inv_sqrt(A)")
        else:
            self.sqrt_a, self.inv_sqrt_a = _roots
        if _contraction is None:
            c = symmetrize(self.inv_sqrt_a.mat @ b.mat @ self.inv_sqrt_a.mat)
            w, q = np.linalg.eigh(c)
        else:
            c, q, w = _contraction
        self.contraction = spd_from_spectrum(c, w, "contraction A^{-1/2} B A^{-1/2}")
        self._w = _row(w)
        self._q = q
        self.u = self.contraction.eig_min
        self.v = self.contraction.eig_max

    @property
    def n(self) -> int:
        return self.A.n

    def with_second(self, b) -> "OperatorPair":
        """A new pair (A, b) reusing the cached roots of A."""
        return OperatorPair(self.A, b, _roots=(self.sqrt_a, self.inv_sqrt_a))

    def fn_of_contraction(self, f: Callable) -> np.ndarray:
        """``f(C)`` assembled from the cached eigendecomposition of C."""
        return spectral_assemble(self._q, _eval_on_spectrum(f, self._w))

    def transform(self, f: Callable) -> np.ndarray:
        """``A^{1/2} f(C) A^{1/2}``: the operator lift of the scalar f."""
        r = self.sqrt_a.mat
        return symmetrize(r @ self.fn_of_contraction(f) @ r)

    def __repr__(self) -> str:
        if isinstance(self.u, np.ndarray):
            return f"OperatorPair(n={self.n}, stack={np.shape(self.u)})"
        return f"OperatorPair(n={self.n}, u={self.u:.4g}, v={self.v:.4g})"


def arithmetic_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """Weighted arithmetic mean ``(1-p) A + p B`` for p in [0, 1]."""
    _check_weight(p, 0.0, 1.0, "arithmetic mean")
    return _rebuild_spd((1.0 - p) * pair.A.mat + p * pair.B.mat, "arithmetic mean")


def harmonic_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """Weighted harmonic mean ``((1-p) A^{-1} + p B^{-1})^{-1}`` for p in [0, 1].

    Computed literally via matrix inversions; this is deliberately a second
    numerical path, independent of the spectral transform used by the
    power means and entropies.
    """
    _check_weight(p, 0.0, 1.0, "harmonic mean")
    mix = (1.0 - p) * np.linalg.inv(pair.A.mat) + p * np.linalg.inv(pair.B.mat)
    return _rebuild_spd(symmetrize(np.linalg.inv(mix)), "harmonic mean")


def natural_power_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """``A^{1/2} (A^{-1/2} B A^{-1/2})^p A^{1/2}`` for any real p.

    Interpolates A (p=0) to B (p=1); coincides with the weighted geometric
    mean on [0, 1] and extends it outside.
    """
    p = np.asarray(p)
    at_a, at_b = p == 0.0, p == 1.0
    endpoint = (at_a | at_b).any()
    if endpoint and at_a.all():
        return pair.A
    if endpoint and at_b.all():
        return pair.B
    m = pair.transform(lambda t: t ** p)
    if endpoint:  # per-pair weights, some at an endpoint: those pairs get that operand
        m = np.where(at_a, pair.A.mat, np.where(at_b, pair.B.mat, m))
    return _rebuild_spd(m, f"natural power mean (p={p.item() if p.size == 1 else 'per pair'})")


def geometric_mean(pair: OperatorPair, p: float) -> SpdMatrix:
    """Weighted geometric mean, the natural power mean gated to p in [0, 1]."""
    _check_weight(p, 0.0, 1.0, "geometric mean")
    return natural_power_mean(pair, p)


def relative_operator_entropy(pair: OperatorPair) -> np.ndarray:
    """``S(A|B) = A^{1/2} log(A^{-1/2} B A^{-1/2}) A^{1/2}`` (symmetric)."""
    return pair.transform(np.log)


def generalized_entropy(pair: OperatorPair, p: float) -> np.ndarray:
    """``S_p(A|B) = A^{1/2} C^p log(C) A^{1/2}`` with C the contraction."""
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


def quadrature_tsallis(pair: OperatorPair, p: float, nodes: int = 32) -> np.ndarray:
    """Gauss-Legendre evaluation of ``integral_0^1 S_{p t}(A|B) dt``.

    The integral equals the Tsallis relative entropy T_p exactly; this
    operation exists to certify that identity numerically.  ``nodes`` is the
    Gauss-Legendre order on [0, 1] (>= 2).
    """
    if not (-1.0 <= p <= 1.0) or p == 0.0:
        raise InvalidWeight(f"quadrature needs p in [-1, 1], p != 0, got {p}")
    if int(nodes) != nodes or nodes < 2:
        raise InvalidInput(f"nodes must be an integer >= 2, got {nodes}")
    z, wz = np.polynomial.legendre.leggauss(int(nodes))
    ts = 0.5 * (z + 1.0)
    wts = 0.5 * wz

    def integrated(t_vals: np.ndarray) -> np.ndarray:
        lg = np.log(t_vals)
        # sum_i w_i * t^(p*s_i) * log t, evaluated per eigenvalue
        acc = np.zeros_like(t_vals)
        for s, w in zip(ts, wts):
            acc += w * np.exp(p * s * lg) * lg
        return acc

    return pair.transform(integrated)


# ---------------------------------------------------------------------------
# pair serialization: two consecutive matrices in the plain-text format
# ---------------------------------------------------------------------------

def dump_pair(pair: OperatorPair) -> str:
    """Serialize (A, B) as two consecutive plain-text matrices."""
    return dump_matrix(pair.A) + dump_matrix(pair.B)


def load_pair(text: str) -> OperatorPair:
    """Parse two consecutive plain-text matrices into an OperatorPair."""
    tokens = text.split()
    if not tokens:
        raise InvalidInput("empty pair text")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise InvalidInput(f"bad dimension header {tokens[0]!r}") from exc
    first = 1 + n * n
    if len(tokens) <= first:
        raise InvalidInput("pair text ends before the second matrix")
    a = load_matrix(" ".join(tokens[:first]))
    b = load_matrix(" ".join(tokens[first:]))
    return OperatorPair(SpdMatrix(a), SpdMatrix(b))
