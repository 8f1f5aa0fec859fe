"""Deterministic generation of SPD matrices and spectrally constrained pairs.

The generator is numpy's Philox (4x64 counter-based, splittable): streams
keyed by different 64-bit integers are independent by construction, and a
draw is bit-reproducible from its key on a given platform.  Orthogonal
bases come from QR of a standard Gaussian matrix with the sign convention
``diag(R) > 0`` fixed, and spectra are placed explicitly, so a sampled
matrix's eigenvalues land exactly where requested (up to assembly rounding).
A trial reads one stream keyed by its seed in two bulk calls
(:func:`stream_draws`): its plan words, then the pair's spectra, then the
pair's Gaussians.  k pairs are built from those draws as one stacked pair,
from their spectra, in two steps: :func:`stack_base` (A, its roots and C's
basis, which do not depend on the case) and :func:`pair_from_base` (C and B
from the case's targets), so one base can serve every case that reads the
same streams.  :func:`sandwich_pair` is the two steps at k = 1, at one seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .means import OperatorPair
from .spd_core import SpdMatrix, _rebuild_spd, _row, spd_from_spectrum, spectral_assemble, symmetrize

RNG_ALGORITHM = "philox4x64"
# a trial stream's first words, read by the case's planner: c, p, q, the pin
# selector and two sandwich targets
PLAN_WORDS = 6
_A_SPECTRUM = (0.5, 2.0)  # the default range of A's eigenvalues

_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1


def _philox_key(seed: int) -> int:
    """The 128-bit Philox key of a seed (its low 128 bits)."""
    return int(seed) & _KEY_MASK


def generator(seed: int) -> np.random.Generator:
    """The package-wide RNG: Philox keyed directly by the seed."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed)))


def reseed(rng: np.random.Generator, seed: int) -> np.random.Generator:
    """Restart ``rng`` (made by :func:`generator`) in place at the first draw
    of ``generator(seed)``'s stream.  Cheaper than a new generator, whose
    Philox also draws OS entropy for a seed sequence it never uses."""
    key = _philox_key(seed)
    rng.bit_generator.state = {  # the setter copies each word, so plain ints do (and cost less than arrays)
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & _WORD_MASK, key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _finite_pair(x) -> bool:
    return type(x) is list and len(x) == 2 and all(type(v) in (int, float) and math.isfinite(v) for v in x)


# what SamplerConfig.from_json accepts in each field, as written (JSON booleans
# are not integers); the seed and n rules and the range orders are also
# checked on construction
_CONFIG_RULES = {
    "seed": (lambda x: type(x) is int and x >= 0, "an integer >= 0"),
    "n": (lambda x: type(x) is int and x >= 1, "an integer >= 1"),
    "spectrum": (_finite_pair, "a list of two finite numbers"),
    "sandwich": (lambda x: x is None or _finite_pair(x), "null or a list of two finite numbers"),
}


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration for one deterministic draw.

    ``spectrum_range`` bounds the eigenvalues of A; ``sandwich``, when set,
    bounds the spectrum of the contraction C = A^{-1/2} B A^{-1/2} of a
    generated pair, i.e. targets u A <= B <= v A.
    """

    seed: int
    n: int
    spectrum_range: tuple[float, float] = _A_SPECTRUM
    sandwich: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name in ("seed", "n"):
            ok, kind = _CONFIG_RULES[name]
            if not ok(getattr(self, name)):
                raise InvalidInput(f"sampler config {name!r} must be {kind}, got {getattr(self, name)!r}")
        lo, hi = self.spectrum_range
        if not (0.0 < lo <= hi) or not np.isfinite(hi):
            raise InvalidInput(f"bad spectrum range {self.spectrum_range}")
        if self.sandwich is not None:
            u, v = self.sandwich
            if not (0.0 < u <= v) or not np.isfinite(v):
                raise InvalidInput(f"bad sandwich range {self.sandwich}")

    @classmethod
    def from_json(cls, text: str) -> "SamplerConfig":
        """Parse a config as :meth:`to_json` writes it.  Values are taken as
        written, never coerced (see ``_CONFIG_RULES``)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"bad sampler config JSON: {exc}") from exc
        if not isinstance(data, dict) or "seed" not in data or "n" not in data:
            raise InvalidInput("sampler config needs at least 'seed' and 'n'")
        for name, (ok, kind) in _CONFIG_RULES.items():
            if name in data and not ok(data[name]):
                raise InvalidInput(f"sampler config {name!r} must be {kind}, got {data[name]!r}")
        kwargs = {"seed": data["seed"], "n": data["n"]}
        if "spectrum" in data:
            kwargs["spectrum_range"] = tuple(map(float, data["spectrum"]))
        if data.get("sandwich") is not None:
            kwargs["sandwich"] = tuple(map(float, data["sandwich"]))
        return cls(**kwargs)

    def to_json(self) -> str:
        data = {"seed": self.seed, "n": self.n, "spectrum": list(self.spectrum_range)}
        if self.sandwich is not None:
            data["sandwich"] = list(self.sandwich)
        return json.dumps(data)


def _orthogonal(g: np.ndarray) -> np.ndarray:
    """Haar-ish orthogonal matrix from QR of the Gaussian ``g`` (or a stack), sign-fixed."""
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d = np.where(d == 0.0, 1.0, d)
    return q * _row(d)


def random_spd(cfg: SamplerConfig) -> SpdMatrix:
    """One SPD matrix with eigenvalues drawn uniformly in ``spectrum_range``."""
    rng = generator(cfg.seed)
    lo, hi = cfg.spectrum_range
    lam = rng.uniform(lo, hi, cfg.n)
    q = _orthogonal(rng.standard_normal((cfg.n, cfg.n)))
    return spd_from_spectrum(spectral_assemble(q, lam), lam, "sampled A")


def stream_draws(seeds: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trial streams of ``seeds`` at dimension n, one Philox stream per
    seed read in two bulk calls: ``PLAN_WORDS + 2n`` uniform words (the
    plan's words, then A's spectrum, then C's interior spectrum), then the
    ``(2, n, n)`` normals of A's basis and C's basis.  Returned stacked, as
    ``(k, PLAN_WORDS)`` plan words, ``(k, 2n)`` pair words and
    ``(k, 2, n, n)`` normals."""
    words = np.empty((len(seeds), PLAN_WORDS + 2 * n))
    normals = np.empty((len(seeds), 2, n, n))
    rng = generator(seeds[0])
    for i, seed in enumerate(seeds):
        if i:
            reseed(rng, seed)
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
    _, words, normals = stream_draws([cfg.seed], cfg.n)
    return pair_from_base(stack_base(words[0], normals[0], cfg.spectrum_range), *cfg.sandwich)


@dataclass(frozen=True)
class StackBase:
    """The target-free part of a stack of pairs: A with its roots, C's basis
    and the words that place C's interior eigenvalues.  The same base serves
    every case whose trials read the same streams."""

    a: SpdMatrix
    roots: tuple[SpdMatrix, SpdMatrix]
    q_c: np.ndarray
    mu_words: np.ndarray


def stack_base(words, normals, spectrum_range=_A_SPECTRUM) -> StackBase:
    """A, its roots and C's basis from each pair's ``2n`` pair words and
    ``(2, n, n)`` normals (as :func:`stream_draws` reads them, over any
    leading axes): A's eigenvalues are uniform in ``spectrum_range``, and
    one ``qr`` gives A's basis and C's.  A and its roots are assembled from
    A's spectrum, with no eigensolve."""
    n = normals.shape[-1]
    lo, hi = spectrum_range
    lam = lo + (hi - lo) * words[..., :n]
    q = _orthogonal(normals)
    q_a = q[..., 0, :, :]
    s = _row(np.sqrt(lam))
    a = spd_from_spectrum(spectral_assemble(q_a, _row(lam)), lam, "sampled A")
    roots = (
        spd_from_spectrum(spectral_assemble(q_a, s), s, "sqrt(A)"),
        spd_from_spectrum(spectral_assemble(q_a, s, inverse=True), 1.0 / s, "inv_sqrt(A)"),
    )
    q_c = np.ascontiguousarray(q[..., 1, :, :])  # a copy: a kept base does not keep A's basis
    mu_words = words[..., n:]
    q_c.flags.writeable = mu_words.flags.writeable = False  # a base may be shared
    return StackBase(a, roots, q_c, mu_words)


def pair_from_base(base: StackBase, u_target, v_target) -> OperatorPair:
    """The pairs of ``base`` (one stacked pair) whose contractions C have the
    targets as extreme eigenvalues (both placed exactly when n >= 2) and
    uniform ones between: C is assembled from that spectrum, and only
    ``B = A^{1/2} C A^{1/2}`` needs an eigensolve."""
    u = np.asarray(u_target, dtype=float)
    v = np.asarray(v_target, dtype=float)
    mu = u[..., None] + (v - u)[..., None] * base.mu_words
    if mu.shape[-1] >= 2:
        mu[..., 0] = u
        mu[..., 1] = v
    root = base.roots[0].mat
    c = spectral_assemble(base.q_c, _row(mu))
    # B's spectrum is not known (congruence mixes A's and C's), so it gets the
    # full check; losing definiteness there is a breakdown of the draw
    b = _rebuild_spd(symmetrize(root @ c @ root), "sampled B")
    return OperatorPair(base.a, b, _roots=base.roots, _contraction=(c, base.q_c, mu))


def commuting_spectra(cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared basis Q and spectra (lam, mu) for a commuting pair.

    The ratio mu/lam is drawn from ``cfg.sandwich`` when set, else from
    [0.25, 4].  Exposed separately so oracles can evaluate scalar formulas
    eigenwise against exactly the generated data.
    """
    rng = generator(cfg.seed)
    lo, hi = cfg.spectrum_range
    lam = rng.uniform(lo, hi, cfg.n)
    ratio_lo, ratio_hi = cfg.sandwich if cfg.sandwich is not None else (0.25, 4.0)
    ratios = rng.uniform(ratio_lo, ratio_hi, cfg.n)
    q = _orthogonal(rng.standard_normal((cfg.n, cfg.n)))
    return q, lam, lam * ratios


def commuting_pair(cfg: SamplerConfig) -> OperatorPair:
    """A commuting pair: A and B diagonal in one shared basis."""
    q, lam, mu = commuting_spectra(cfg)
    a = spd_from_spectrum(spectral_assemble(q, lam), lam, "sampled A")
    b = spd_from_spectrum(spectral_assemble(q, mu), mu, "sampled B")
    return OperatorPair(a, b)


def dims_cycle(dims: Sequence[int], trials: int) -> list[int]:
    """The dimension schedule used by suite runs: cycle dims (integers >= 1, not bools) in order."""
    if not dims or not all(isinstance(d, Integral) and not isinstance(d, bool) and d >= 1 for d in dims):
        raise InvalidInput(f"bad dims {dims!r}")
    return [int(dims[i % len(dims)]) for i in range(trials)]
