import numpy as np
import pytest

from oel.errors import InvalidInput, NumericalBreakdown
from oel import harness
from oel.harness import _windows, run_all
from oel.means import OperatorPair
from oel.sampler import (
    PLAN_WORDS,
    RNG_ALGORITHM,
    SamplerConfig,
    commuting_pair,
    commuting_spectra,
    generator,
    pair_from_base,
    random_spd,
    sandwich_pair,
    stack_base,
    stream_draws,
)
from oel.spd_core import spectral_assemble


def test_rng_identity_is_pinned():
    assert RNG_ALGORITHM == "philox4x64"
    bg = generator(123).bit_generator
    assert type(bg).__name__ == "Philox"


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
    stacked = pair_from_base(stack_base(words, normals), u, v)
    assert stacked.A.mat.shape == (5, 3, 3)
    for i, cfg in enumerate(cfgs):
        single = sandwich_pair(cfg)
        for name in ("A", "B", "sqrt_a", "contraction"):
            np.testing.assert_array_equal(getattr(stacked, name).mat[i], getattr(single, name).mat)
        assert (stacked.u[i], stacked.v[i]) == (single.u, single.v)


def test_sandwich_pair_roots_and_contraction_match_the_eigensolved_pair():
    # the pair built from its sampled spectra agrees with the public
    # constructor, which eigensolves A and C, to rounding
    pair = sandwich_pair(SamplerConfig(seed=13, n=5, sandwich=(0.4, 2.5)))
    solved = OperatorPair(pair.A, pair.B)
    for name in ("sqrt_a", "contraction"):
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
    # A, its roots and C come from their sampled spectra, and B (congruence-built)
    # is certified by A's and C's extreme eigenvalues: no eigensolve at all
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(m, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    sandwich_pair(SamplerConfig(seed=7, n=4, sandwich=(0.5, 3.0)))
    assert calls["eigh"] == 0
    assert calls["eigvalsh"] == 0


def test_sampled_b_reports_its_computed_extremes():
    for n in (1, 4, 16):
        pair = sandwich_pair(SamplerConfig(seed=7, n=n, sandwich=(0.5, 3.0)))
        w = np.linalg.eigvalsh(pair.B.mat)
        assert pair.B.eig_min == w[0] and pair.B.eig_max == w[-1]


def test_sampled_b_losing_definiteness_is_a_breakdown():
    # a contraction edge near 0 leaves B numerically indefinite: a numerical
    # breakdown of the draw (exit 4 with the trial's triple), not a usage
    # error.  B is formed, and fails, on its first read
    pair = sandwich_pair(SamplerConfig(seed=4, n=3, spectrum_range=(1e-11, 1.0), sandwich=(1e-11, 1.0)))
    with pytest.raises(NumericalBreakdown, match="sampled B"):
        pair.B
    # a contraction edge below the strictness tolerance fails at construction
    with pytest.raises(NumericalBreakdown, match="contraction"):
        sandwich_pair(SamplerConfig(seed=0, n=3, sandwich=(1e-14, 1.0)))


def test_sandwich_pair_needs_a_sandwich():
    with pytest.raises(InvalidInput, match="needs cfg.sandwich"):
        sandwich_pair(SamplerConfig(seed=0, n=3))


def test_a_sampled_pair_forms_b_where_it_is_read(monkeypatch):
    # the M cases read only lifts on X: none of their pairs forms B
    made = []
    monkeypatch.setattr(harness, "pair_from_base", lambda *args: made.append(pair_from_base(*args)) or made[-1])
    run_all("M*", trials=60, seed=42)
    assert len(made) == 90 and all(pair._b is None for pair in made)
    # a read forms the certified lift of spec(C) on X, once, with the bits
    # (and, where the full check decides, the extremes) of forming it with
    # the pair: (seed 3, n = 2) at A's and C's spectra in [1e-11, 1] is one
    # the certificate leaves to the full check
    for cfg, k, full_check in (
        (SamplerConfig(seed=7, n=4, sandwich=(0.5, 3.0)), 1, False),
        (SamplerConfig(seed=3, n=2, spectrum_range=(1e-11, 1.0), sandwich=(1e-11, 1.0)), 1, True),
        (SamplerConfig(seed=11, n=5), 6, False),
    ):
        _, words, normals = stream_draws(list(range(cfg.seed, cfg.seed + k)), cfg.n)
        base = stack_base(words, normals, cfg.spectrum_range)
        pair = pair_from_base(base, *(cfg.sandwich or (0.25, 4.0)))
        w = pair._w
        eager = pair.certify(spectral_assemble(base.x, w), w, "sampled B")
        assert pair._b is None
        b = pair.B
        assert pair.B is b and b.mat.tobytes() == eager.mat.tobytes()
        assert np.array_equal(b._lo, eager._lo) and np.array_equal(b._hi, eager._hi)
        assert (b._lo is not None) == full_check


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
    for sandwich, (lo, hi) in (((0.5, 1.5), (0.5, 1.5)), (None, (0.25, 4.0))):
        for seed in range(11, 31):
            cfg = SamplerConfig(seed=seed, n=4, sandwich=sandwich)
            q, lam, mu = commuting_spectra(cfg)
            ratios = mu / lam
            assert np.all(ratios >= lo - 1e-12)
            assert np.all(ratios <= hi + 1e-12)
            # the ratios are C's interior words of the trial stream, mapped onto the window
            words = stream_draws([seed], 4)[1][0, 4:]
            np.testing.assert_array_equal(mu, lam * (lo + (hi - lo) * words))
    pair = commuting_pair(SamplerConfig(seed=11, n=4, sandwich=(0.5, 1.5)))
    comm = pair.A.mat @ pair.B.mat - pair.B.mat @ pair.A.mat
    assert np.linalg.norm(comm, 2) < 1e-12


def test_every_public_draw_reads_the_trial_stream():
    # random_spd and commuting_pair draw the A of sandwich_pair, bit for bit
    for seed in range(40):
        for n in (1, 2, 3, 5, 8):
            spectrum = (0.5, 2.0) if seed % 2 else (0.1 + 0.01 * seed, 3.0)
            cfg = SamplerConfig(seed=seed, n=n, spectrum_range=spectrum, sandwich=(0.5, 2.0))
            a = sandwich_pair(cfg).A.mat
            assert random_spd(cfg).mat.tobytes() == a.tobytes()
            assert commuting_pair(cfg).A.mat.tobytes() == a.tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": 1, "n": 0},
        {"seed": 1, "n": 2, "spectrum_range": (-1.0, 2.0)},
        {"seed": 1, "n": 2, "spectrum_range": (2.0, 1.0)},
        {"seed": 1, "n": 2, "sandwich": (0.0, 1.0)},
        {"seed": 1, "n": 2, "sandwich": (3.0, 1.0)},
        {"seed": -5, "n": 2},
        {"seed": 2.5, "n": 2},
        {"seed": True, "n": 2},
        {"seed": 1, "n": 2.5},
        {"seed": 1, "n": True},
        {"seed": 1, "n": "2"},
        {"seed": 1, "n": 2, "spectrum_range": (1.0,)},
        {"seed": 1, "n": 2, "spectrum_range": "ab"},
        {"seed": 1, "n": 2, "spectrum_range": (1, np.nan)},
        {"seed": 1, "n": 2, "sandwich": (0.5, np.inf)},
        {"seed": 1, "n": 2, "sandwich": (0.5, 1, 2)},
        {"seed": 1, "n": 2, "sandwich": ("0.5", 2)},
        {"seed": 1, "n": 2, "sandwich": (True, 2)},
        {"seed": 1, "n": 2, "sandwich": 2.0},
        {"seed": 1 << 64, "n": 2},
        {"seed": (1 << 128) + 7, "n": 2},
        {"seed": "5", "n": 2},
    ],
)
def test_config_rejects_bad_ranges(kwargs):
    with pytest.raises(InvalidInput):
        SamplerConfig(**kwargs)


def _schedule(dims, trials):
    """A suite run's dimension schedule, window by window."""
    return [[n for _, n in w] for w in _windows(0, dims, trials)]


def test_dims_cycle_wraps_in_order(monkeypatch):
    assert _schedule((1, 2, 3), 7) == [[1, 2, 3, 1, 2, 3, 1]]
    assert _schedule((4,), 3) == [[4, 4, 4]]
    schedule = _schedule((np.int64(2), 5), 3)
    assert schedule == [[2, 5, 2]] and all(type(n) is int for n in schedule[0])
    # the cycle runs on across windows
    monkeypatch.setattr("oel.harness.WINDOW_TRIALS", 2)
    assert _schedule((1, 2, 3), 7) == [[1, 2], [3, 1], [2, 3], [1]]


@pytest.mark.parametrize("dims", [(), (0,), (2, -1), (2.7,), (2.0,), ("3",), (True,), (np.float64(2.0),), (None,)])
def test_dims_cycle_takes_only_integers_from_one(dims):
    with pytest.raises(InvalidInput):
        _schedule(dims, 3)


def test_distinct_seeds_give_distinct_pairs():
    cfg1 = SamplerConfig(seed=20, n=3, sandwich=(0.5, 2.0))
    cfg2 = SamplerConfig(seed=21, n=3, sandwich=(0.5, 2.0))
    assert not np.array_equal(sandwich_pair(cfg1).B.mat, sandwich_pair(cfg2).B.mat)
