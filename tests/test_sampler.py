import numpy as np
import pytest

from oel.errors import InvalidInput, NumericalBreakdown
from oel.means import OperatorPair
from oel.sampler import (
    PLAN_WORDS,
    RNG_ALGORITHM,
    SamplerConfig,
    commuting_pair,
    commuting_spectra,
    dims_cycle,
    generator,
    random_spd,
    reseed,
    sandwich_pair,
    sandwich_stack,
    stream_draws,
)


def test_rng_identity_is_pinned():
    assert RNG_ALGORITHM == "philox4x64"
    bg = generator(123).bit_generator
    assert type(bg).__name__ == "Philox"


def test_reseeded_stream_is_the_generator_stream():
    seeds = np.random.default_rng(0).integers(0, 1 << 63, size=(300, 2)).tolist()
    rng = generator(0)
    for i, (lo, hi) in enumerate(seeds):
        seed = lo if i % 2 else (hi << 64) | lo  # 64- and 128-bit seeds
        fresh = generator(seed)
        reused = reseed(rng, seed)
        for draw in (
            lambda g: g.random(3),
            lambda g: g.uniform(0.5, 2.0, 5),
            lambda g: g.standard_normal((3, 3)),
            lambda g: g.integers(0, 1 << 63),
            lambda g: g.random(),
        ):
            np.testing.assert_array_equal(draw(reused), draw(fresh))


def test_generators_are_independent():
    a, b = generator(5), generator(5)
    assert a is not b and a.bit_generator is not b.bit_generator
    a.random(10)
    np.testing.assert_array_equal(b.random(3), generator(5).random(3))


def test_stream_draws_read_each_seed_stream_in_two_bulk_calls():
    seeds = [3, 1 << 70, 3, 12345]
    plan_words, pair_words, normals = stream_draws(seeds, 4)
    assert plan_words.shape == (4, PLAN_WORDS) and pair_words.shape == (4, 8) and normals.shape == (4, 2, 4, 4)
    for i, seed in enumerate(seeds):
        rng = generator(seed)
        np.testing.assert_array_equal(np.concatenate([plan_words[i], pair_words[i]]), rng.random(PLAN_WORDS + 8))
        np.testing.assert_array_equal(normals[i], rng.standard_normal((2, 4, 4)))


def test_sandwich_pairs_stack_the_single_pairs():
    cfgs = [SamplerConfig(seed=s, n=3, sandwich=(0.5 + 0.1 * s, 3.0)) for s in range(5)]
    _, words, normals = stream_draws([cfg.seed for cfg in cfgs], 3)
    u, v = np.array([cfg.sandwich for cfg in cfgs]).T
    stacked = sandwich_stack(words, normals, u, v)
    assert stacked.A.mat.shape == (5, 3, 3)
    for i, cfg in enumerate(cfgs):
        single = sandwich_pair(cfg)
        for name in ("A", "B", "sqrt_a", "inv_sqrt_a", "contraction"):
            np.testing.assert_array_equal(getattr(stacked, name).mat[i], getattr(single, name).mat)
        assert (stacked.u[i], stacked.v[i]) == (single.u, single.v)


def test_sandwich_pair_roots_and_contraction_match_the_eigensolved_pair():
    # the pair built from its sampled spectra agrees with the public
    # constructor, which eigensolves A and C, to rounding
    pair = sandwich_pair(SamplerConfig(seed=13, n=5, sandwich=(0.4, 2.5)))
    solved = OperatorPair(pair.A, pair.B)
    for name in ("sqrt_a", "inv_sqrt_a", "contraction"):
        np.testing.assert_allclose(getattr(pair, name).mat, getattr(solved, name).mat, rtol=0, atol=1e-12)
    assert pair.u == pytest.approx(solved.u, abs=1e-12) and pair.v == pytest.approx(solved.v, abs=1e-12)


def test_generator_is_deterministic():
    a = generator(99).random(8)
    b = generator(99).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, generator(100).random(8))


def test_random_spd_deterministic_and_in_range():
    cfg = SamplerConfig(seed=5, n=6, spectrum_range=(0.3, 2.5))
    a1 = random_spd(cfg)
    a2 = random_spd(cfg)
    np.testing.assert_array_equal(a1.mat, a2.mat)
    assert a1.eig_min >= 0.3 - 1e-12
    assert a1.eig_max <= 2.5 + 1e-12


def test_sandwich_pair_bit_identical_replay():
    cfg = SamplerConfig(seed=7, n=4, sandwich=(0.5, 3.0))
    p1 = sandwich_pair(cfg)
    p2 = sandwich_pair(cfg)
    np.testing.assert_array_equal(p1.A.mat, p2.A.mat)
    np.testing.assert_array_equal(p1.B.mat, p2.B.mat)


def test_sandwich_pair_eigensolves_once_per_spectrum(monkeypatch):
    # A, its roots and C come from their sampled spectra; only B (congruence-built) gets an eigvalsh
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(m, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    sandwich_pair(SamplerConfig(seed=7, n=4, sandwich=(0.5, 3.0)))
    assert calls["eigh"] == 0
    assert calls["eigvalsh"] <= 1


def test_sampled_b_losing_definiteness_is_a_breakdown():
    # a contraction edge near 0 leaves B numerically indefinite: a numerical
    # breakdown of the draw (exit 4 with the trial's triple), not a usage error
    with pytest.raises(NumericalBreakdown, match="sampled B"):
        sandwich_pair(SamplerConfig(seed=0, n=3, sandwich=(1e-14, 1.0)))


def test_sandwich_endpoints_attained():
    cfg = SamplerConfig(seed=8, n=5, sandwich=(0.7, 2.2))
    pair = sandwich_pair(cfg)
    assert pair.u == pytest.approx(0.7, abs=1e-12)
    assert pair.v == pytest.approx(2.2, abs=1e-12)


def test_sandwich_degenerate_targets_give_multiple_of_a():
    cfg = SamplerConfig(seed=9, n=3, sandwich=(2.0, 2.0))
    pair = sandwich_pair(cfg)
    np.testing.assert_allclose(pair.B.mat, 2.0 * pair.A.mat, atol=1e-13)


def test_sandwich_single_dimension_interior_draw():
    cfg = SamplerConfig(seed=10, n=1, sandwich=(0.5, 3.0))
    pair = sandwich_pair(cfg)
    assert 0.5 - 1e-12 <= pair.u <= 3.0 + 1e-12
    assert pair.u == pair.v


def test_commuting_pair_commutes_and_respects_ratio_window():
    cfg = SamplerConfig(seed=11, n=4, sandwich=(0.5, 1.5))
    q, lam, mu = commuting_spectra(cfg)
    ratios = mu / lam
    assert np.all(ratios >= 0.5 - 1e-12)
    assert np.all(ratios <= 1.5 + 1e-12)
    pair = commuting_pair(cfg)
    comm = pair.A.mat @ pair.B.mat - pair.B.mat @ pair.A.mat
    assert np.linalg.norm(comm, 2) < 1e-12


def test_config_json_roundtrip():
    cfg = SamplerConfig(seed=12, n=3, spectrum_range=(0.4, 1.9), sandwich=(1.0, 2.0))
    back = SamplerConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_json_minimal_keys():
    cfg = SamplerConfig.from_json('{"seed": 3, "n": 2}')
    assert cfg.seed == 3
    assert cfg.n == 2
    assert cfg.sandwich is None


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        '{"n": 2}',
        '{"seed": 1}',
        "[1, 2]",
        # values are taken as written, never coerced
        '{"seed": 3.9, "n": "2", "sandwich": ["0.5", 2]}',
        '{"seed": 3, "n": "2"}',
        '{"seed": 3, "n": 2, "sandwich": ["0.5", 2]}',
        '{"seed": true, "n": 2.7}',
        '{"seed": 3, "n": 2.7}',
        '{"seed": -5, "n": 2}',
        '{"seed": 3, "n": 2, "spectrum": [1]}',
        '{"seed": 3, "n": 2, "spectrum": "ab"}',
        '{"seed": 3, "n": 2, "spectrum": [1, NaN]}',
        '{"seed": 3, "n": 2, "sandwich": [0.5, Infinity]}',
        '{"seed": 3, "n": 2, "sandwich": [0.5, 1, 2]}',
    ],
)
def test_config_json_rejects_malformed(payload):
    with pytest.raises(InvalidInput):
        SamplerConfig.from_json(payload)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 1, "n": 0},
        {"seed": 1, "n": 2, "spectrum_range": (-1.0, 2.0)},
        {"seed": 1, "n": 2, "spectrum_range": (2.0, 1.0)},
        {"seed": 1, "n": 2, "sandwich": (0.0, 1.0)},
        {"seed": 1, "n": 2, "sandwich": (3.0, 1.0)},
        # the seed rule of from_json holds on construction too
        {"seed": -5, "n": 2},
        {"seed": 2.5, "n": 2},
        {"seed": True, "n": 2},
    ],
)
def test_config_rejects_bad_ranges(kwargs):
    with pytest.raises(InvalidInput):
        SamplerConfig(**kwargs)


def test_dims_cycle_wraps_in_order():
    assert dims_cycle((1, 2, 3), 7) == [1, 2, 3, 1, 2, 3, 1]
    assert dims_cycle((4,), 3) == [4, 4, 4]


def test_distinct_seeds_give_distinct_pairs():
    cfg1 = SamplerConfig(seed=20, n=3, sandwich=(0.5, 2.0))
    cfg2 = SamplerConfig(seed=21, n=3, sandwich=(0.5, 2.0))
    assert not np.array_equal(sandwich_pair(cfg1).B.mat, sandwich_pair(cfg2).B.mat)
