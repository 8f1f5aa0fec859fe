"""Deterministic generation of SPD matrices and spectrally constrained pairs.

The generator is numpy's Philox (4x64 counter-based, splittable): streams
keyed by different 64-bit integers are independent by construction, and a
draw is bit-reproducible from its key on a given platform.  Orthogonal
bases come from QR of a standard Gaussian matrix with the sign convention
``diag(R) > 0`` fixed, and spectra are placed explicitly, so a sampled
matrix's eigenvalues land exactly where requested (up to assembly rounding).
A trial reads one stream keyed by its seed, opened by :func:`generator`
(the one way a stream is opened), in two bulk calls (:func:`stream_draws`):
its plan words, then the pair's spectra, then the pair's Gaussians.  k
pairs are built from those draws as one stacked pair, from their spectra,
in two steps: :func:`stack_base` (A, its square root, C's basis and
``X = A^{1/2} Q_C``, which do not depend on the case) and
:func:`pair_from_base` (C's spectrum and B from the case's targets), so one
base can serve every case that reads the same streams, and every pair built
on it shares its square root and X.  :func:`sandwich_pair` is the two steps
at k = 1, at one seed.  No step eigensolves: A and its square root are
assembled from their spectra (:func:`oel.spd_core.spd_from_basis`, as a
commuting pair's A and B are), and B and C are formed only where they are
read: B as the one product ``(X diag mu) X^T`` on C's spectrum mu
(:func:`oel.spd_core.spectral_assemble` on X, as every lift is), on the
first read of the pair's ``B``, which keeps it; C from its basis and
spectrum, which the pair keeps, on each read of its ``contraction``
(``A^{-1/2}`` is never formed).  B is certified by A's and C's extreme
eigenvalues (:meth:`oel.means.OperatorPair.certify`), with the full check only
where those bounds do not decide; a B that fails both raises its
NumericalBreakdown ("sampled B: ...") at that first read.
Every public draw reads that stream: :func:`random_spd` is the A of
:func:`stack_base` at ``cfg.seed`` (assembled alone), and
:func:`commuting_spectra` takes A's basis and spectrum and maps C's interior
words onto its ratios mu/lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .means import OperatorPair
from .spd_core import SpdMatrix, _row, spd_from_basis

RNG_ALGORITHM = "philox4x64"
# a trial stream's first words, read by the case's planner: c, p, q, the pin
# selector and two sandwich targets
PLAN_WORDS = 6
_A_SPECTRUM = (0.5, 2.0)  # the default range of A's eigenvalues
_FREE_WINDOW = (0.25, 4.0)  # C's spectrum where no sandwich is stated (commuting pairs, catalog, integral)

_WORD_MASK = (1 << 64) - 1


def generator(seed: int) -> np.random.Generator:
    """The package-wide RNG: Philox keyed directly by the seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _is_count(x, least: int) -> bool:
    """``x`` is an integer (numpy's included, a bool not) and at least ``least``."""
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= least


def _is_word(x) -> bool:
    """``x`` is a 64-bit word: an integer (numpy's included, a bool not) in
    ``[0, 2^64)``, the range of the trial seeds and the master seeds."""
    return _is_count(x, 0) and x <= _WORD_MASK


def _is_range(r) -> bool:
    """``r`` is a tuple or list of two finite numbers (not bools), ``0 < lo <= hi``."""
    ok = isinstance(r, (tuple, list)) and len(r) == 2
    return ok and all(isinstance(x, Real) and not isinstance(x, bool) for x in r) and 0.0 < r[0] <= r[1] < np.inf


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration for one deterministic draw, checked on construction:
    ``seed`` an integer in ``[0, 2^64)``, ``n`` an integer >= 1, each range a pair of
    finite numbers ``0 < lo <= hi`` (anything else is an InvalidInput).

    ``spectrum_range`` bounds the eigenvalues of A; ``sandwich``, when set,
    bounds the spectrum of the contraction C = A^{-1/2} B A^{-1/2} of a
    generated pair, i.e. targets u A <= B <= v A.
    """

    seed: int
    n: int
    spectrum_range: tuple[float, float] = _A_SPECTRUM
    sandwich: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not _is_word(self.seed):
            raise InvalidInput(f"sampler config 'seed' must be an integer in [0, 2^64), got {self.seed!r}")
        if not _is_count(self.n, 1):
            raise InvalidInput(f"sampler config 'n' must be an integer >= 1, got {self.n!r}")
        if not _is_range(self.spectrum_range):
            raise InvalidInput(f"bad spectrum range {self.spectrum_range!r}")
        if self.sandwich is not None and not _is_range(self.sandwich):
            raise InvalidInput(f"bad sandwich range {self.sandwich!r}")


def _orthogonal(g: np.ndarray) -> np.ndarray:
    """Haar-ish orthogonal matrix from QR of the Gaussian ``g`` (or a stack), sign-fixed."""
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0.0, 1.0, d)
    return q * _row(d)


def random_spd(cfg: SamplerConfig) -> SpdMatrix:
    """One SPD matrix with eigenvalues drawn uniformly in ``spectrum_range``:
    the A of ``cfg.seed``'s trial stream, bit for bit ``sandwich_pair(cfg).A``
    (assembled as :func:`stack_base` assembles it, and nothing else)."""
    lam, q = _a_draw(*_pair_draws(cfg), cfg.spectrum_range)
    return spd_from_basis(q[0], lam, "sampled A")


def stream_draws(seeds: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trial streams of ``seeds`` at dimension n, one Philox stream per
    seed, ``generator(seed)``, read in two bulk calls: ``PLAN_WORDS + 2n``
    uniform words (the plan's words, then A's spectrum, then C's interior
    spectrum), then the ``(2, n, n)`` normals of A's basis and C's basis.  Returned stacked, as
    ``(k, PLAN_WORDS)`` plan words, ``(k, 2n)`` pair words and
    ``(k, 2, n, n)`` normals."""
    words = np.empty((len(seeds), PLAN_WORDS + 2 * n))
    normals = np.empty((len(seeds), 2, n, n))
    for i, seed in enumerate(seeds):
        rng = generator(seed)
        rng.random(out=words[i])
        rng.standard_normal(out=normals[i])
    return words[:, :PLAN_WORDS], words[:, PLAN_WORDS:], normals


def sandwich_pair(cfg: SamplerConfig) -> OperatorPair:
    """A pair (A, B) with the contraction spectrum inside cfg.sandwich, built
    by :func:`pair_from_base` on the :func:`stack_base` of the pair words and
    normals of ``generator(cfg.seed)``'s trial stream (see
    :func:`stream_draws`), so a trial's pair is ``sandwich_pair`` at the
    trial seed and its targets.  ``u_target == v_target`` forces C to a
    multiple of the identity, so B is that multiple of A up to rounding."""
    if cfg.sandwich is None:
        raise InvalidInput("sandwich_pair needs cfg.sandwich")
    return pair_from_base(stack_base(*_pair_draws(cfg), cfg.spectrum_range), *cfg.sandwich)


def _pair_draws(cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The pair words and normals of ``cfg.seed``'s trial stream at ``cfg.n``."""
    _, words, normals = stream_draws([cfg.seed], cfg.n)
    return words[0], normals[0]


def _a_draw(words, normals, spectrum_range) -> tuple[np.ndarray, np.ndarray]:
    """A's spectrum, uniform in ``spectrum_range``, and the ``(2, n, n)``
    orthogonal bases of A and C (one ``qr``), from a pair's draws."""
    lo, hi = spectrum_range
    return lo + (hi - lo) * words[..., : normals.shape[-1]], _orthogonal(normals)


@dataclass(frozen=True)
class StackBase:
    """The target-free part of a stack of pairs: A with its square root, C's
    basis ``Q_C``, ``X = A^{1/2} Q_C`` (by which every lift of a pair on the
    base is one product, :func:`oel.spd_core.spectral_assemble` on X) and the
    words that place C's interior eigenvalues.  The same base serves every
    case whose trials read the same streams; its C basis, X and words are
    read-only."""

    a: SpdMatrix
    sqrt_a: SpdMatrix
    q_c: np.ndarray
    x: np.ndarray
    mu_words: np.ndarray


def stack_base(words, normals, spectrum_range=_A_SPECTRUM) -> StackBase:
    """A, its square root, C's basis and ``X = A^{1/2} Q_C`` from each pair's
    ``2n`` pair words and ``(2, n, n)`` normals (as :func:`stream_draws`
    reads them, over any leading axes): A's eigenvalues are uniform in
    ``spectrum_range``, and one ``qr`` gives A's basis and C's.  A and its
    square root are assembled from A's spectrum, with no eigensolve."""
    lam, q = _a_draw(words, normals, spectrum_range)
    q_a = q[..., 0, :, :]
    sqrt_a = spd_from_basis(q_a, _row(np.sqrt(lam)), "sqrt(A)")
    q_c = np.ascontiguousarray(q[..., 1, :, :])  # a copy: a kept base does not keep A's basis
    x = sqrt_a.mat @ q_c
    mu_words = words[..., lam.shape[-1] :]
    q_c.flags.writeable = x.flags.writeable = mu_words.flags.writeable = False  # a base may be shared
    return StackBase(spd_from_basis(q_a, _row(lam), "sampled A"), sqrt_a, q_c, x, mu_words)


def pair_from_base(base: StackBase, u_target, v_target) -> OperatorPair:
    """The pairs of ``base`` (one stacked pair) whose contractions C have the
    targets as extreme eigenvalues (both placed exactly when n >= 2) and
    uniform ones between.  ``B = A^{1/2} C A^{1/2}`` is the lift of that
    spectrum, one product on the base's X, certified by it with no
    eigensolve, formed on the first read of the pair's ``B`` (a case that
    reads only lifts never forms it); C itself is assembled only if the
    pair's ``contraction`` is read."""
    u = np.asarray(u_target, dtype=float)
    v = np.asarray(v_target, dtype=float)
    mu = u[..., None] + (v - u)[..., None] * base.mu_words
    if mu.shape[-1] >= 2:
        mu[..., 0] = u
        mu[..., 1] = v
    return OperatorPair(base.a, None, _spectra=(base.sqrt_a, base.x, base.q_c, _row(mu), 0.0))


def commuting_spectra(cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared basis Q and spectra (lam, mu) for a commuting pair.

    Q and lam are the basis and spectrum of A in ``cfg.seed``'s trial
    stream (so the pair's A is :func:`random_spd`'s), and the ratios mu/lam
    are C's interior words mapped onto ``cfg.sandwich`` when set, else onto
    ``_FREE_WINDOW``, [0.25, 4].  Exposed separately so oracles can evaluate
    scalar formulas eigenwise against exactly the generated data.
    """
    words, normals = _pair_draws(cfg)
    lam, q = _a_draw(words, normals, cfg.spectrum_range)
    lo, hi = cfg.sandwich if cfg.sandwich is not None else _FREE_WINDOW
    return q[0], lam, lam * (lo + (hi - lo) * words[cfg.n :])


def commuting_pair(cfg: SamplerConfig) -> OperatorPair:
    """A commuting pair: A and B diagonal in one shared basis."""
    q, lam, mu = commuting_spectra(cfg)
    return OperatorPair(spd_from_basis(q, lam, "sampled A"), spd_from_basis(q, mu, "sampled B"))
