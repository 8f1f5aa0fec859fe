"""Deterministic generation of SPD matrices and spectrally constrained pairs.

The generator is numpy's Philox (4x64 counter-based, splittable): streams
keyed by different 64-bit integers are independent by construction, and a
draw is bit-reproducible from its key on a given platform.  Orthogonal
bases come from QR of a standard Gaussian matrix with the sign convention
``diag(R) > 0`` fixed, and spectra are placed explicitly, so a sampled
matrix's eigenvalues land exactly where requested (up to assembly rounding).
:func:`sandwich_pairs` draws k configurations one stream each, exactly as
:func:`sandwich_pair` does, then builds all k pairs as one stacked pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput
from .means import OperatorPair
from .spd_core import SpdMatrix, _row, spd_from_spectrum, spectral_assemble, symmetrize

RNG_ALGORITHM = "philox4x64"

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
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key & _WORD_MASK, key >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
    return _sandwich_build(*_sandwich_draws(cfg, generator(cfg.seed)))


def sandwich_pairs(cfgs: Sequence[SamplerConfig]) -> OperatorPair:
    """The pairs of :func:`sandwich_pair` for k configurations of one
    dimension, as one pair of ``(k, n, n)`` stacks (bit for bit the same
    matrices: each configuration draws from its own seed's stream)."""
    dims = {cfg.n for cfg in cfgs}
    if len(dims) != 1:
        raise InvalidInput(f"sandwich_pairs needs one or more configs of one dimension, got dimensions {sorted(dims)}")
    rng = generator(cfgs[0].seed)
    draws = [_sandwich_draws(cfgs[0], rng)]
    draws += [_sandwich_draws(cfg, reseed(rng, cfg.seed)) for cfg in cfgs[1:]]
    return _sandwich_build(*(np.array(d) for d in zip(*draws)))


def _sandwich_draws(cfg: SamplerConfig, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One configuration's draws, in stream order: A's spectrum and Gaussian,
    then C's spectrum and Gaussian."""
    if cfg.sandwich is None:
        raise InvalidInput("sandwich_pair needs cfg.sandwich")
    lo, hi = cfg.spectrum_range
    lam = rng.uniform(lo, hi, cfg.n)
    g_a = rng.standard_normal((cfg.n, cfg.n))
    u_t, v_t = cfg.sandwich
    mu = _sandwich_spectrum(rng, cfg.n, u_t, v_t)
    g_c = rng.standard_normal((cfg.n, cfg.n))
    return lam, g_a, mu, g_c


def _sandwich_build(lam: np.ndarray, g_a: np.ndarray, mu: np.ndarray, g_c: np.ndarray) -> OperatorPair:
    qa = _orthogonal(g_a)
    a = spd_from_spectrum(spectral_assemble(qa, _row(lam)), lam, "sampled A")
    root = spectral_assemble(qa, _row(np.sqrt(lam)))
    c = spectral_assemble(_orthogonal(g_c), _row(mu))
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
    q = _orthogonal(rng.standard_normal((cfg.n, cfg.n)))
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
