"""Spectral engine for real symmetric positive definite matrices.

Everything downstream reduces to a handful of primitives implemented here:
eigendecomposition, scalar functional calculus ``Q diag(f(w)) Q^T``,
congruence transforms ``C X C^T``, and the positive-semidefinite order
comparison used to pass verdicts on operator inequalities.

Matrices are plain float64 numpy arrays.  Strict positive definiteness is
enforced once per :class:`SpdMatrix` (on a spectrum the code already holds,
via :func:`spd_from_spectrum`), after which the wrapped array is frozen;
all operations are pure functions of their inputs.

Every primitive acts on the last two axes, so a ``(k, n, n)`` stack of
matrices goes through the same code as one ``(n, n)`` matrix, as k numpy
calls folded into one.  A spectrum that is assembled is passed as a row,
shaped ``(n,)`` or ``(..., 1, n)``, so that ``Q * w`` scales the columns of
every ``Q`` in the stack.  Checks, bounds and verdicts of a stack are arrays
over its leading axis; those of a single matrix are Python scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInput, NumericalBreakdown

# lambda_min must exceed this fraction of lambda_max to count as strictly PD
STRICTNESS_TOL = 1e-12
# relative asymmetry accepted (and averaged away) at construction
SYMMETRY_TOL = 1e-12
# default relative tolerance for Loewner-order verdicts
ORDER_TOL = 1e-8


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average away the skew part: (M + M^T)/2 (``swapaxes`` transposes each
    matrix of a stack, where ``.T`` would also reverse the stack)."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _scalar_or_stack(x):
    """A Python scalar for one matrix's result, the array itself for a stack's."""
    return x.item() if x.ndim == 0 else x


def _square_float(m) -> np.ndarray:
    a = np.array(m, dtype=float, copy=True)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")
    return a


def _force_symmetric(m) -> np.ndarray:
    """Validate shape and finiteness, then return the symmetrized matrix.

    Asymmetry beyond ``SYMMETRY_TOL`` relative to max(1, largest entry) is
    rejected rather than silently averaged (matrix by matrix in a stack).
    """
    a = _square_float(m)
    skew = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = skew > SYMMETRY_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if bad.any():
        raise InvalidInput(f"matrix is not symmetric (max asymmetry {skew.flat[np.argmax(bad)]:.3e})")
    return symmetrize(a)


class SpdMatrix:
    """Symmetric positive definite matrix, validated once and then immutable.

    Entries are symmetrized at construction (asymmetry beyond ``SYMMETRY_TOL``
    is rejected) and the spectrum must satisfy
    ``lambda_min > STRICTNESS_TOL * lambda_max``.  A ``(k, n, n)`` stack is
    k matrices checked one by one; its ``eig_min``/``eig_max`` are arrays.

    Parameters
    ----------
    entries : array_like
        Square matrix data, or a stack of it; a scalar is treated as a 1x1
        matrix.
    """

    __slots__ = ("_mat", "_lo", "_hi")

    def __init__(self, entries) -> None:
        m = _force_symmetric(entries)
        self._freeze(m, np.linalg.eigvalsh(m))

    def _freeze(self, m: np.ndarray, w: np.ndarray) -> None:
        lo = w.min(axis=-1)
        hi = w.max(axis=-1)
        ok = lo > STRICTNESS_TOL * hi  # as lo <= hi, this also needs hi > 0
        if not ok.all():
            i = np.argmin(ok)
            raise InvalidInput(
                "matrix is not strictly positive definite "
                f"(eigenvalue range [{lo.flat[i]:.6e}, {hi.flat[i]:.6e}])"
            )
        m.flags.writeable = False
        self._mat = m
        self._lo = lo
        self._hi = hi

    @property
    def mat(self) -> np.ndarray:
        """The wrapped (read-only) ndarray."""
        return self._mat

    @property
    def n(self) -> int:
        return self._mat.shape[-1]

    @property
    def eig_min(self) -> float | np.ndarray:
        return _scalar_or_stack(self._lo.reshape(self._mat.shape[:-2]))

    @property
    def eig_max(self) -> float | np.ndarray:
        return _scalar_or_stack(self._hi.reshape(self._mat.shape[:-2]))

    def __repr__(self) -> str:
        if self._mat.ndim > 2:
            return f"SpdMatrix(n={self.n}, stack={self._mat.shape[:-2]})"
        return f"SpdMatrix(n={self.n}, eig_range=[{self.eig_min:.4g}, {self.eig_max:.4g}])"


def as_spd(m) -> SpdMatrix:
    """Coerce an array (or SpdMatrix) to SpdMatrix."""
    return m if isinstance(m, SpdMatrix) else SpdMatrix(m)


def _rebuild_spd(m: np.ndarray, context: str) -> SpdMatrix:
    """Wrap a computed matrix, translating positivity loss to NumericalBreakdown."""
    try:
        return SpdMatrix(m)
    except InvalidInput as exc:
        raise NumericalBreakdown(f"{context}: {exc}") from exc


def spd_from_spectrum(m: np.ndarray, w: np.ndarray, context: str) -> SpdMatrix:
    """Wrap symmetric ``m`` (frozen in place) whose eigenvalues ``w`` are known,
    checking strict positivity on ``w`` instead of a second eigensolve.  Raises
    NumericalBreakdown, prefixed with ``context``, when ``w`` fails the check.
    ``w`` holds each matrix's eigenvalues along its last axis."""
    spd = SpdMatrix.__new__(SpdMatrix)
    try:
        spd._freeze(m, w)
    except InvalidInput as exc:
        raise NumericalBreakdown(f"{context}: {exc}") from exc
    return spd


def spectral_assemble(q: np.ndarray, w: np.ndarray, *, inverse: bool = False) -> np.ndarray:
    """Symmetrized ``Q diag(w) Q^T``, or ``Q diag(w)^{-1} Q^T`` when ``inverse``
    (dividing by w, which rounds differently from multiplying by 1/w).
    ``w`` is a row: ``(n,)`` for one ``Q``, ``(..., 1, n)`` for a stack."""
    qw = q / w if inverse else q * w
    return symmetrize(qw @ q.swapaxes(-1, -2))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Assemble ``Q diag(f(w)) Q^T`` for a scalar function ``f``."""
        return spectral_assemble(self.eigenvectors, _eval_on_spectrum(f, _row(self.eigenvalues)))


def _row(w: np.ndarray) -> np.ndarray:
    """Eigenvalues ``(..., n)`` as the row ``(..., 1, n)`` that
    :func:`spectral_assemble` and per-matrix weights ``(..., 1, 1)`` broadcast with."""
    return w[..., None, :]


def _eval_on_spectrum(f: Callable, w: np.ndarray) -> np.ndarray:
    """``f`` receives the eigenvalue array ``w`` and returns an array of its
    shape (or a scalar); DomainError unless every value is finite."""
    with np.errstate(all="ignore"):
        vals = np.asarray(f(w), dtype=float)
    if vals.ndim == 0:
        vals = np.full_like(w, float(vals))
    if vals.shape != w.shape:
        raise DomainError(f"scalar function returned shape {vals.shape} for spectrum of shape {w.shape}")
    if not np.isfinite(vals).all():
        raise DomainError("scalar function is not finite on the spectrum")
    return vals


def spectral_decompose(m) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix.

    Parameters
    ----------
    m : array_like or SpdMatrix
        Symmetric matrix (asymmetry beyond ``SYMMETRY_TOL`` rejected).

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and orthonormal eigenvectors with
        ``Q diag(w) Q^T`` reconstructing the input to rounding error.
    """
    a = m.mat if isinstance(m, SpdMatrix) else _force_symmetric(m)
    w, q = np.linalg.eigh(a)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=q)


def apply_scalar_function(a: SpdMatrix, f: Callable) -> np.ndarray:
    """Functional calculus: ``Q diag(f(w)) Q^T`` for ``a = Q diag(w) Q^T``.

    ``f`` receives the eigenvalue array; DomainError if it is not finite there.
    """
    return spectral_decompose(as_spd(a)).apply(f)


def mat_power(a: SpdMatrix, p: float) -> SpdMatrix:
    """Real matrix power ``a**p`` of an SPD matrix (SPD for every real p)."""
    a = as_spd(a)
    if p == 0.0:
        return spd_from_spectrum(np.eye(a.n), np.ones(a.n), "mat_power(p=0)")
    if p == 1.0:
        return a
    dec = spectral_decompose(a)
    wp = _eval_on_spectrum(lambda t: t ** p, _row(dec.eigenvalues))
    return spd_from_spectrum(spectral_assemble(dec.eigenvectors, wp), wp, f"mat_power(p={p})")


def mat_log(a: SpdMatrix) -> np.ndarray:
    """Matrix logarithm of an SPD matrix (symmetric, not necessarily PD)."""
    return apply_scalar_function(as_spd(a), np.log)


def mat_inv(a: SpdMatrix) -> SpdMatrix:
    """Inverse of an SPD matrix (via LU, then symmetrized and revalidated)."""
    a = as_spd(a)
    return _rebuild_spd(symmetrize(np.linalg.inv(a.mat)), "mat_inv")


def mat_sqrt(a: SpdMatrix) -> SpdMatrix:
    """Principal square root of an SPD matrix."""
    return mat_power(a, 0.5)


def mat_inv_sqrt(a: SpdMatrix) -> SpdMatrix:
    """Inverse principal square root of an SPD matrix."""
    return mat_power(a, -0.5)


def congruence(c, x) -> np.ndarray:
    """Congruence transform ``C X C`` for symmetric C and X.

    Products are symmetrized to absorb rounding-induced skew.
    """
    cm = c.mat if isinstance(c, SpdMatrix) else _force_symmetric(c)
    xm = x.mat if isinstance(x, SpdMatrix) else _force_symmetric(x)
    if cm.shape != xm.shape:
        raise InvalidInput(f"dimension mismatch: {cm.shape} vs {xm.shape}")
    return symmetrize(cm @ xm @ cm)


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a positive-semidefinite order comparison X <= Y.

    ``margin`` is the smallest eigenvalue of Y - X; ``scale`` is
    max(1, ||X||_2, ||Y||_2); the comparison holds when
    ``margin >= -order_tol * scale``.
    """

    margin: float | np.ndarray
    scale: float | np.ndarray
    holds: bool | np.ndarray


def loewner_leq(x, y, order_tol: float = ORDER_TOL) -> LoewnerVerdict:
    """Decide X <= Y in the positive-semidefinite order, with margin.

    Parameters
    ----------
    x, y : array_like or SpdMatrix
        Symmetric matrices of equal dimension, or equal stacks of them (one
        verdict per matrix, as arrays).
    order_tol : float
        Relative tolerance; the verdict holds iff
        ``lambda_min(Y - X) >= -order_tol * max(1, ||X||_2, ||Y||_2)``.
    """
    xm = x.mat if isinstance(x, SpdMatrix) else _force_symmetric(x)
    ym = y.mat if isinstance(y, SpdMatrix) else _force_symmetric(y)
    if xm.shape != ym.shape:
        raise InvalidInput(f"dimension mismatch: {xm.shape} vs {ym.shape}")
    margin = np.linalg.eigvalsh(ym - xm)[..., 0]
    norm_x = np.abs(np.linalg.eigvalsh(xm)).max(axis=-1)
    norm_y = np.abs(np.linalg.eigvalsh(ym)).max(axis=-1)
    scale = np.maximum(1.0, np.maximum(norm_x, norm_y))
    return LoewnerVerdict(
        margin=_scalar_or_stack(margin),
        scale=_scalar_or_stack(scale),
        holds=_scalar_or_stack(margin >= -order_tol * scale),
    )


# ---------------------------------------------------------------------------
# plain-text matrix serialization
#
# Line 1: the dimension n.  Lines 2..n+1: n whitespace-separated floats each.
# Matrices must be symmetric within SYMMETRY_TOL (relative) or are rejected.
# ---------------------------------------------------------------------------

def dump_matrix(m) -> str:
    """Serialize a symmetric matrix to the plain-text format."""
    a = m.mat if isinstance(m, SpdMatrix) else _force_symmetric(m)
    lines = [str(a.shape[0])]
    lines.extend(" ".join(repr(float(x)) for x in row) for row in a)
    return "\n".join(lines) + "\n"


def load_matrix(text: str) -> np.ndarray:
    """Parse the plain-text matrix format; rejects malformed or asymmetric data."""
    tokens = text.split()
    if not tokens:
        raise InvalidInput("empty matrix text")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise InvalidInput(f"bad dimension header {tokens[0]!r}") from exc
    if n <= 0:
        raise InvalidInput(f"bad dimension {n}")
    if len(tokens) != 1 + n * n:
        raise InvalidInput(f"expected {n * n} entries for n={n}, got {len(tokens) - 1}")
    try:
        vals = np.array([float(t) for t in tokens[1:]], dtype=float)
    except ValueError as exc:
        raise InvalidInput(f"non-numeric matrix entry: {exc}") from exc
    return _force_symmetric(vals.reshape(n, n))
