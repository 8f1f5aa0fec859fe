"""Deterministic generation of SPD matrices and spectrally constrained pairs.

The generator is numpy's Philox (4x64 counter-based, splittable): streams
keyed by different 64-bit integers are independent by construction, and a
draw is bit-reproducible from its key on a given platform.  Orthogonal
bases come from QR of a standard Gaussian matrix with the sign convention
``diag(R) > 0`` fixed, and spectra are placed explicitly, so a sampled
matrix's eigenvalues land exactly where requested (up to assembly rounding).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .means import OperatorPair
from .spd_core import SpdMatrix, spd_from_spectrum, spectral_assemble, symmetrize

RNG_ALGORITHM = "philox4x64"

_KEY_MASK = (1 << 128) - 1


def generator(seed: int) -> np.random.Generator:
    """The package-wide RNG: Philox keyed directly by the seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration for one deterministic draw.

    ``spectrum_range`` bounds the eigenvalues of A; ``sandwich``, when set,
    bounds the spectrum of the contraction C = A^{-1/2} B A^{-1/2} of a
    generated pair, i.e. targets u A <= B <= v A.
    """

    seed: int
    n: int
    spectrum_range: tuple[float, float] = (0.5, 2.0)
    sandwich: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInput(f"dimension must be >= 1, got {self.n}")
        lo, hi = self.spectrum_range
        if not (0.0 < lo <= hi) or not np.isfinite(hi):
            raise InvalidInput(f"bad spectrum range {self.spectrum_range}")
        if self.sandwich is not None:
            u, v = self.sandwich
            if not (0.0 < u <= v) or not np.isfinite(v):
                raise InvalidInput(f"bad sandwich range {self.sandwich}")

    @classmethod
    def from_json(cls, text: str) -> "SamplerConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"bad sampler config JSON: {exc}") from exc
        if not isinstance(data, dict) or "seed" not in data or "n" not in data:
            raise InvalidInput("sampler config needs at least 'seed' and 'n'")
        kwargs = {"seed": int(data["seed"]), "n": int(data["n"])}
        if "spectrum" in data:
            lo, hi = data["spectrum"]
            kwargs["spectrum_range"] = (float(lo), float(hi))
        if "sandwich" in data and data["sandwich"] is not None:
            u, v = data["sandwich"]
            kwargs["sandwich"] = (float(u), float(v))
        return cls(**kwargs)

    def to_json(self) -> str:
        data = {"seed": self.seed, "n": self.n, "spectrum": list(self.spectrum_range)}
        if self.sandwich is not None:
            data["sandwich"] = list(self.sandwich)
        return json.dumps(data)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from QR of a Gaussian, sign-fixed."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d = np.where(d == 0.0, 1.0, d)
    return q * d


def random_spd(cfg: SamplerConfig) -> SpdMatrix:
    """One SPD matrix with eigenvalues drawn uniformly in ``spectrum_range``."""
    rng = generator(cfg.seed)
    lo, hi = cfg.spectrum_range
    lam = rng.uniform(lo, hi, cfg.n)
    q = _orthogonal(rng, cfg.n)
    return spd_from_spectrum(spectral_assemble(q, lam), lam, "sampled A")


def _sandwich_spectrum(rng: np.random.Generator, n: int, u: float, v: float) -> np.ndarray:
    """Contraction eigenvalues filling [u, v]; endpoints hit exactly for n >= 2."""
    if u == v:
        return np.full(n, u)
    if n == 1:
        return np.array([rng.uniform(u, v)])
    inner = rng.uniform(u, v, n - 2) if n > 2 else np.empty(0)
    return np.concatenate([[u, v], inner])


def sandwich_pair(cfg: SamplerConfig) -> OperatorPair:
    """A pair (A, B) with the contraction spectrum inside cfg.sandwich.

    A is drawn as in :func:`random_spd`; B is assembled as
    ``A^{1/2} C A^{1/2}`` with C built from an explicit spectrum in
    ``[u_target, v_target]`` (both endpoints placed exactly when n >= 2;
    ``u_target == v_target`` forces C to a multiple of the identity, so
    B is that multiple of A up to rounding).
    """
    if cfg.sandwich is None:
        raise InvalidInput("sandwich_pair needs cfg.sandwich")
    rng = generator(cfg.seed)
    lo, hi = cfg.spectrum_range
    lam = rng.uniform(lo, hi, cfg.n)
    qa = _orthogonal(rng, cfg.n)
    a = spd_from_spectrum(spectral_assemble(qa, lam), lam, "sampled A")
    root = spectral_assemble(qa, np.sqrt(lam))

    u_t, v_t = cfg.sandwich
    mu = _sandwich_spectrum(rng, cfg.n, u_t, v_t)
    qc = _orthogonal(rng, cfg.n)
    c = spectral_assemble(qc, mu)
    # B's spectrum is not known (congruence mixes A's and C's), so it gets the full check
    b = symmetrize(root @ c @ root)
    return OperatorPair(a, SpdMatrix(b))


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
    q = _orthogonal(rng, cfg.n)
    return q, lam, lam * ratios


def commuting_pair(cfg: SamplerConfig) -> OperatorPair:
    """A commuting pair: A and B diagonal in one shared basis."""
    q, lam, mu = commuting_spectra(cfg)
    a = spd_from_spectrum(spectral_assemble(q, lam), lam, "sampled A")
    b = spd_from_spectrum(spectral_assemble(q, mu), mu, "sampled B")
    return OperatorPair(a, b)


def dims_cycle(dims: Sequence[int], trials: int) -> list[int]:
    """The dimension schedule used by suite runs: cycle dims in order."""
    if not dims or any(int(d) < 1 for d in dims):
        raise InvalidInput(f"bad dims {dims!r}")
    return [int(dims[i % len(dims)]) for i in range(trials)]
