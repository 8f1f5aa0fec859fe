"""Spectral engine for real symmetric positive definite matrices.

Everything downstream reduces to a handful of primitives implemented here:
scalar functional calculus ``Q diag(f(w)) Q^T`` on a spectrum that is
sampled or solved for with one ``eigh`` (:func:`spectral_assemble`), and
the positive-semidefinite order comparison used to pass verdicts on
operator inequalities: one ``eigvalsh`` of ``Y - X``, with a tolerance
scaled by row-sum bounds on the operators' norms (:func:`loewner_leq`).

Matrices are plain float64 numpy arrays.  Strict positive definiteness is
enforced once per :class:`SpdMatrix`, after which the wrapped array is
frozen; all operations are pure functions of their inputs.  Raw entries get
the full check (one ``eigvalsh``); a matrix the code assembled from a basis
and its spectrum is checked on that spectrum (:func:`spd_from_basis`); and a
computed matrix whose spectrum is bounded by proven bounds is checked on
those bounds (:func:`spd_certified`), with the full check only where they do
not decide.  A computed matrix with no such bounds (the harmonic mean, an
inverse) finds them in one Cholesky factorization of itself, shifted
(:func:`spd_by_cholesky`), with the full check where that fails.  A matrix
checked without a solve finds its extreme eigenvalues when they are first
read.

Every primitive acts on the last two axes, so a ``(k, n, n)`` stack of
matrices goes through the same code as one ``(n, n)`` matrix, as k numpy
calls folded into one.  A spectrum that is assembled is passed as a row,
shaped ``(n,)`` or ``(..., 1, n)``, so that ``Q * w`` scales the columns of
every ``Q`` in the stack.  Checks, bounds and verdicts of a stack are arrays
over its leading axis; those of a single matrix are Python scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidInput, NumericalBreakdown

# lambda_min must exceed this fraction of lambda_max to count as strictly PD
STRICTNESS_TOL = 1e-12
# relative asymmetry accepted (and averaged away) at construction
SYMMETRY_TOL = 1e-12
# default relative tolerance for Loewner-order verdicts
ORDER_TOL = 1e-8
# the largest double, and the largest entry accepted from outside: sums of
# two such entries stay finite
_MAX_DOUBLE = np.finfo(float).max
_MAX_ENTRY = _MAX_DOUBLE / 2
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Rounding bound of the Cholesky certificate (spd_by_cholesky).  Where the
# Cholesky factorization of the computed M = H - sigma I runs to completion,
# its factor R is the exact factor of M + dM with |dM| <= gamma_{n+1} |R^T| |R|
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3),
# so ||dM||_2 <= n gamma_{n+1} ||M + dM||_2, and lambda_min(M) >= -||dM||_2.
# With s = ||H||_inf >= lambda_max(H) and ||M||_2 <= s + sigma, a budget of
# _CHOLESKY_ROUNDINGS such errors, b = _CHOLESKY_ROUNDINGS n gamma_{n+1}, and
# the shift sigma = (STRICTNESS_TOL + 2 b) s leave lambda_min(H) >=
# (STRICTNESS_TOL + b) s, and lambda_max(H) <= (1 + b) s: the budget holds
# that backward error, the rounding of the shift and of s, and eigvalsh's own
# backward error (each a few n gamma_n s), with room to spare.
# tests/test_means.py checks the bounds against eigvalsh on every matrix the
# factorization certifies in catalog runs, in wide sampler configurations up
# to n = 128, on public pairs (harmonic means at weights 0, 1e-12, 0.3,
# 1 - 1e-12 and 1, scalar and one per pair, and mat_inv) and across the
# shift: a budget of 0 fails the lower bound across the shift, 0.5 fails the
# upper one at A = I, and 1 passes them all.
_CHOLESKY_ROUNDINGS = 4


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average away the skew part: (M + M^T)/2 (``swapaxes`` transposes each
    matrix of a stack, where ``.T`` would also reverse the stack)."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _scalar_or_stack(x):
    """A Python scalar for one matrix's result, the array itself for a stack's."""
    return x.item() if x.ndim == 0 else x


def _square_float(m) -> np.ndarray:
    """A float copy of square matrix data, or of a stack of it.  Only integer
    or floating entries are read: complex, string, boolean, object or ragged
    data is an InvalidInput, not coerced."""
    try:
        a = np.asarray(m)
    except ValueError as exc:  # ragged nesting
        raise InvalidInput(f"matrix data is not a rectangular array: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise InvalidInput(f"matrix entries must be integers or floats, got dtype {a.dtype}")
    a = a.astype(float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


def _force_symmetric(m) -> np.ndarray:
    """Validate shape, finiteness and size (``_MAX_ENTRY``), then return the
    symmetrized matrix.  Asymmetry beyond ``SYMMETRY_TOL`` relative to max(1,
    largest entry) is rejected rather than silently averaged (matrix by matrix
    in a stack)."""
    a = _square_float(m)
    size = np.abs(a).max(axis=(-2, -1))  # nan where a matrix holds a nan
    if not (size <= _MAX_ENTRY).all():
        raise InvalidInput(f"matrix has an entry that is not finite or exceeds {_MAX_ENTRY:.3e} in magnitude")
    skew = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = skew > SYMMETRY_TOL * np.maximum(1.0, size)
    if bad.any():
        raise InvalidInput(f"matrix is not symmetric (max asymmetry {skew.flat[np.argmax(bad)]:.3e})")
    return symmetrize(a)


class SpdMatrix:
    """Symmetric positive definite matrix, validated once and then immutable.

    Entries are symmetrized at construction (asymmetry beyond ``SYMMETRY_TOL``
    is rejected) and the spectrum must satisfy
    ``lambda_min > STRICTNESS_TOL * lambda_max``.  A ``(k, n, n)`` stack is
    k matrices checked one by one; its ``eig_min``/``eig_max`` are arrays,
    the computed extreme eigenvalues (of a certified matrix, solved for on
    first access and kept).

    Parameters
    ----------
    entries : array_like
        Square matrix data, or a stack of it; a scalar is treated as a 1x1
        matrix.
    """

    __slots__ = ("_mat", "_lo", "_hi")

    def __init__(self, entries) -> None:
        m = _force_symmetric(entries)
        self._freeze(m, *_strict_extremes(np.linalg.eigvalsh(m)))

    def _freeze(self, m: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
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

    def _extremes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._lo is None:  # certified without a solve (spd_certified)
            w = np.linalg.eigvalsh(self._mat)
            self._lo, self._hi = w.min(axis=-1), w.max(axis=-1)
        return self._lo, self._hi

    @property
    def eig_min(self) -> float | np.ndarray:
        return _scalar_or_stack(self._extremes()[0].reshape(self._mat.shape[:-2]))

    @property
    def eig_max(self) -> float | np.ndarray:
        return _scalar_or_stack(self._extremes()[1].reshape(self._mat.shape[:-2]))

    def __repr__(self) -> str:
        if self._mat.ndim > 2:
            return f"SpdMatrix(n={self.n}, stack={self._mat.shape[:-2]})"
        return f"SpdMatrix(n={self.n}, eig_range=[{self.eig_min:.4g}, {self.eig_max:.4g}])"


def _strict_extremes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and largest of each matrix's eigenvalues ``w`` (along the
    last axis), which must satisfy ``lambda_min > STRICTNESS_TOL * lambda_max``;
    else an InvalidInput."""
    lo = w.min(axis=-1)
    hi = w.max(axis=-1)
    ok = lo > STRICTNESS_TOL * hi  # as lo <= hi, this also needs hi > 0
    if not ok.all():
        i = np.argmin(ok)
        raise InvalidInput(
            "matrix is not strictly positive definite "
            f"(eigenvalue range [{lo.flat[i]:.6e}, {hi.flat[i]:.6e}])"
        )
    return lo, hi


def as_spd(m) -> SpdMatrix:
    """Coerce an array (or SpdMatrix) to SpdMatrix."""
    return m if isinstance(m, SpdMatrix) else SpdMatrix(m)


def _computed(check: Callable, x: np.ndarray, context: str):
    """``check(x)`` (``SpdMatrix``, or ``_strict_extremes`` of a spectrum)
    on an array the code computed: its InvalidInput, a loss of positivity,
    is a NumericalBreakdown prefixed with ``context``."""
    try:
        return check(x)
    except InvalidInput as exc:
        raise NumericalBreakdown(f"{context}: {exc}") from exc


def spd_from_spectrum(m: np.ndarray, w: np.ndarray, context: str) -> SpdMatrix:
    """Wrap symmetric ``m`` (frozen in place) whose eigenvalues ``w`` are known,
    checking strict positivity on ``w`` instead of a second eigensolve.  Raises
    NumericalBreakdown, prefixed with ``context``, when ``w`` fails the check.
    ``w`` holds each matrix's eigenvalues along its last axis."""
    spd = SpdMatrix.__new__(SpdMatrix)
    spd._freeze(m, *_computed(_strict_extremes, w, context))
    return spd


def spd_certified(m: np.ndarray, lo, hi, context: str) -> SpdMatrix:
    """Wrap the computed, exactly symmetric ``m`` (frozen in place) whose
    eigenvalues are proven to lie in ``[lo, hi]`` (per matrix of a stack).
    When ``m`` is finite and every ``lo > STRICTNESS_TOL * hi`` (with ``hi``
    at most the largest entry accepted from outside), no eigensolve is made;
    otherwise ``m`` gets the full check, whose failure is a
    NumericalBreakdown prefixed with ``context``."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    if (lo > STRICTNESS_TOL * hi).all() and (hi <= _MAX_ENTRY).all() and np.isfinite(m).all():
        spd = SpdMatrix.__new__(SpdMatrix)
        spd._freeze(m, None, None)
        return spd
    return _computed(SpdMatrix, m, context)


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n u / (1 - n u)``, the relative error bound of a
    sum or dot product of n terms in unit roundoff u."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def spd_by_cholesky(m: np.ndarray, context: str) -> SpdMatrix:
    """Wrap the computed, exactly symmetric ``m`` (frozen in place), certified
    by one Cholesky factorization of ``m - sigma I`` (per matrix of a stack)
    instead of an eigensolve: where it succeeds, ``m``'s eigenvalues lie in
    ``[(STRICTNESS_TOL + b) s, (1 + b) s]`` for ``s = ||m||_inf`` and the
    rounding budget ``b`` (see ``_CHOLESKY_ROUNDINGS``), which
    :func:`spd_certified` takes.  Where it fails, or ``m`` is not finite,
    ``m`` gets the full check, whose failure is a NumericalBreakdown prefixed
    with ``context``."""
    if np.isfinite(m).all():
        n = m.shape[-1]
        budget = _CHOLESKY_ROUNDINGS * n * _gamma(n + 1)
        s = _row_sum_norm(m)
        try:
            np.linalg.cholesky(m - ((STRICTNESS_TOL + 2.0 * budget) * s)[..., None, None] * np.eye(n))
        except np.linalg.LinAlgError:
            pass
        else:
            return spd_certified(m, (STRICTNESS_TOL + budget) * s, (1.0 + budget) * s, context)
    return _computed(SpdMatrix, m, context)


def spectral_assemble(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetrized ``Q diag(w) Q^T``; ``w`` is a row: ``(n,)`` for one ``Q``,
    ``(..., 1, n)`` for a stack."""
    return symmetrize((q * w) @ q.swapaxes(-1, -2))


def spd_from_basis(q: np.ndarray, w: np.ndarray, context: str) -> SpdMatrix:
    """The SpdMatrix ``Q diag(w) Q^T`` of an orthogonal basis ``q`` and its
    spectrum ``w``, a row as :func:`spectral_assemble` takes it, checked on
    ``w`` (:func:`spd_from_spectrum`): no eigensolve."""
    return spd_from_spectrum(spectral_assemble(q, w), w, context)


def _row(w: np.ndarray) -> np.ndarray:
    """Eigenvalues ``(..., n)`` as the row ``(..., 1, n)`` that
    :func:`spectral_assemble` and per-matrix weights ``(..., 1, 1)`` broadcast with."""
    return w[..., None, :]


def _eval_on_spectrum(f: Callable, w: np.ndarray) -> np.ndarray:
    """``f`` receives the eigenvalue array ``w`` and returns an array of its
    shape (or a scalar), or one with more leading axes: values ``(P, ..., 1,
    n)`` for P weights at once (a weight axis ``(P, 1, ..., 1)`` broadcast
    against the row ``w``), which the assembly broadcasts to P stacks over
    the same basis.  Any other shape, or a value that is not finite, is a
    DomainError."""
    with np.errstate(all="ignore"):
        vals = np.asarray(f(w), dtype=float)
    if vals.ndim == 0:
        vals = np.full_like(w, float(vals))
    if vals.shape[vals.ndim - w.ndim :] != w.shape:
        raise DomainError(f"scalar function returned shape {vals.shape} for spectrum of shape {w.shape}")
    if not np.isfinite(vals).all():
        raise DomainError("scalar function is not finite on the spectrum")
    return vals


def mat_power(a: SpdMatrix, p) -> SpdMatrix:
    """Real matrix power ``a**p`` of an SPD matrix (SPD for every real p);
    a stack's matrices one by one, at one p or at one p per matrix (shaped
    ``(k, 1, 1)``), each matrix with the bits of its call at its p alone."""
    a = as_spd(a)
    p = np.asarray(p)
    at_0, at_1 = p == 0.0, p == 1.0
    shape = np.broadcast_shapes(a.mat.shape, p.shape)
    if at_1.all() and shape == a.mat.shape:
        return a
    eye = np.broadcast_to(np.eye(a.n), shape)
    if at_0.all():
        return spd_from_spectrum(eye.copy(), np.ones(eye.shape[:-1]), "mat_power(p=0)")
    w, q = np.linalg.eigh(a.mat)
    w = _row(w)
    # each distinct p is a scalar exponent, as in its call alone: numpy takes
    # some scalar exponents by another route (0.5 by sqrt, 2 by square, -1 by
    # reciprocal); a p that equals no p (nan) fails in _eval_on_spectrum
    wp = np.empty(np.broadcast_shapes(w.shape, p.shape))
    for e in np.unique(p):
        wp = np.where(p == e, _eval_on_spectrum(lambda t: t ** e, w), wp)
    m = np.where(at_0, eye, np.where(at_1, a.mat, spectral_assemble(q, wp)))
    return spd_from_spectrum(m, wp, f"mat_power(p={p.item() if p.size == 1 else 'per matrix'})")


def mat_log(a: SpdMatrix) -> np.ndarray:
    """Matrix logarithm of an SPD matrix (symmetric, not necessarily PD)."""
    w, q = np.linalg.eigh(as_spd(a).mat)
    return spectral_assemble(q, _eval_on_spectrum(np.log, _row(w)))


def mat_inv(a: SpdMatrix) -> SpdMatrix:
    """Inverse of an SPD matrix (via LU, then symmetrized and certified by its
    own Cholesky factorization, :func:`spd_by_cholesky`)."""
    a = as_spd(a)
    return spd_by_cholesky(symmetrize(np.linalg.inv(a.mat)), "mat_inv")


def mat_sqrt(a: SpdMatrix) -> SpdMatrix:
    """Principal square root of an SPD matrix."""
    return mat_power(a, 0.5)


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a positive-semidefinite order comparison X <= Y.

    ``margin`` is the smallest eigenvalue of Y - X; ``scale`` is
    max(1, ||X||_inf, ||Y||_inf), the largest absolute row sums, which bound
    the spectral norms from above (and exceed them by at most sqrt(n)); the
    comparison holds when ``margin >= -order_tol * scale``.
    """

    margin: float | np.ndarray
    scale: float | np.ndarray
    holds: bool | np.ndarray


def _check_tol(tol: float) -> None:
    """An order tolerance must be a finite real number >= 0 (a bool, a string
    or None is not one): nan or inf decides every comparison one way."""
    if not (isinstance(tol, Real) and not isinstance(tol, bool) and 0.0 <= tol < np.inf):
        raise InvalidInput(f"tolerance must be a finite number >= 0, got {tol!r}")


def _row_sum_norm(m: np.ndarray) -> np.ndarray:
    """``||M||_inf``, the largest absolute row sum of each matrix, an upper
    bound on its spectral norm for symmetric M (Horn & Johnson, *Matrix
    Analysis*, Thm 5.6.9).  A sum past the largest double is clamped to it,
    so the bound stays finite and at least any finite ``||M||_2``."""
    with np.errstate(over="ignore"):
        return np.minimum(np.abs(m).sum(axis=-1).max(axis=-1), _MAX_DOUBLE)


def _loewner(xm: np.ndarray, ym: np.ndarray, order_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The margins, scales and verdicts of ``xm <= ym`` over the leading axes
    of two symmetric arrays (0-d for one matrix), from one ``eigvalsh`` of
    ``Y - X``; the scale is ``max(1, ||X||_inf, ||Y||_inf)``.  A non-finite
    operand is a NumericalBreakdown."""
    gap = ym - xm
    if not np.isfinite(gap).all():  # also where X or Y holds an inf or a nan
        raise NumericalBreakdown("a term of the comparison is not finite")
    margin = np.linalg.eigvalsh(gap)[..., 0]
    scale = np.maximum(1.0, np.maximum(_row_sum_norm(xm), _row_sum_norm(ym)))
    return margin, scale, margin >= -order_tol * scale


def loewner_leq(x, y, order_tol: float = ORDER_TOL) -> LoewnerVerdict:
    """Decide X <= Y in the positive-semidefinite order, with margin.

    Parameters
    ----------
    x, y : array_like or SpdMatrix
        Symmetric matrices of equal dimension, or equal stacks of them (one
        verdict per matrix, as arrays).
    order_tol : float
        Relative tolerance, a finite number >= 0; the verdict holds iff
        ``lambda_min(Y - X) >= -order_tol * max(1, ||X||_inf, ||Y||_inf)``,
        where ``||.||_inf`` is the largest absolute row sum (at least the
        spectral norm, at most sqrt(n) times it).
    """
    _check_tol(order_tol)
    xm = x.mat if isinstance(x, SpdMatrix) else _force_symmetric(x)
    ym = y.mat if isinstance(y, SpdMatrix) else _force_symmetric(y)
    if xm.shape != ym.shape:
        raise InvalidInput(f"dimension mismatch: {xm.shape} vs {ym.shape}")
    return LoewnerVerdict(*map(_scalar_or_stack, _loewner(xm, ym, order_tol)))


# ---------------------------------------------------------------------------
# plain-text matrix serialization
#
# Line 1: the dimension n.  Lines 2..n+1: n whitespace-separated floats each.
# Matrices must be symmetric within SYMMETRY_TOL (relative) or are rejected.
# ---------------------------------------------------------------------------

def dump_matrix(m) -> str:
    """Serialize a symmetric matrix to the plain-text format, which holds one
    matrix: a stack is an InvalidInput."""
    a = m.mat if isinstance(m, SpdMatrix) else _force_symmetric(m)
    if a.ndim != 2:
        raise InvalidInput(f"the text format holds one matrix, got shape {a.shape}")
    lines = [str(a.shape[0])]
    lines.extend(" ".join(repr(float(x)) for x in row) for row in a)
    return "\n".join(lines) + "\n"


def _text_matrices(text: str, what: str, count: int) -> list[np.ndarray]:
    """The ``count`` consecutive matrices of the plain-text format in ``text``,
    parsed, not yet checked; malformed ``what`` text is an InvalidInput."""
    if not isinstance(text, str):
        raise InvalidInput(f"{what} text must be a string, got {text!r}")
    tokens = text.split()
    if not tokens:
        raise InvalidInput(f"empty {what} text")
    matrices, start = [], 0
    for i in range(1, count + 1):
        try:
            n = int(tokens[start])
        except ValueError as exc:
            raise InvalidInput(f"bad dimension header {tokens[start]!r}") from exc
        if n <= 0:
            raise InvalidInput(f"bad dimension {n}")
        end = start + 1 + n * n
        if i < count and len(tokens) <= end:
            raise InvalidInput(f"{what} text ends before the second matrix")
        if i == count and len(tokens) != end:
            raise InvalidInput(f"expected {n * n} entries for n={n}, got {len(tokens) - start - 1}")
        try:
            vals = np.array([float(t) for t in tokens[start + 1 : end]], dtype=float)
        except ValueError as exc:
            raise InvalidInput(f"non-numeric matrix entry: {exc}") from exc
        matrices.append(vals.reshape(n, n))
        start = end
    return matrices


def load_matrix(text: str) -> np.ndarray:
    """Parse the plain-text matrix format; rejects malformed or asymmetric
    data, and text that is not a string."""
    return _force_symmetric(_text_matrices(text, "matrix", 1)[0])
