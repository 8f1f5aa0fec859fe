import importlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh as generalized_eigh

from oel.catalog import _gap, _mid, catalog_with_duals, check_stack, evaluate_trials
from oel.errors import DomainError, InvalidInput, InvalidWeight, NumericalBreakdown
from oel.harness import run_all
from oel.means import (
    OperatorPair,
    _unit_gauss_legendre,
    arithmetic_mean,
    dump_pair,
    generalized_entropy,
    geometric_mean,
    harmonic_mean,
    load_pair,
    natural_power_mean,
    quadrature_tsallis,
    relative_operator_entropy,
    tsallis_entropy,
)
from oel.sampler import (
    SamplerConfig,
    _a_draw,
    commuting_spectra,
    pair_from_base,
    sandwich_pair,
    stack_base,
    stream_draws,
)
from oel.scalars import harm_rep, power_log, tsallis_log
from oel.spd_core import STRICTNESS_TOL, SpdMatrix, _row, mat_inv, spd_by_cholesky, spd_from_basis, symmetrize

harness = importlib.import_module("oel.harness")
means = importlib.import_module("oel.means")
spd_core = importlib.import_module("oel.spd_core")


def pair_from_seed(seed: int, n: int, sandwich=(0.25, 4.0)) -> OperatorPair:
    return sandwich_pair(SamplerConfig(seed=seed, n=n, sandwich=sandwich))


def test_pair_rejects_dimension_mismatch():
    with pytest.raises(InvalidInput):
        OperatorPair(np.eye(2), np.eye(3))


def test_pair_contraction_extremes_bound_b():
    pair = pair_from_seed(0, 4)
    w = np.linalg.eigvalsh(
        np.linalg.inv(np.linalg.cholesky(pair.A.mat)) @ pair.B.mat
        @ np.linalg.inv(np.linalg.cholesky(pair.A.mat)).T
    )
    assert pair.u == pytest.approx(w[0], rel=1e-10)
    assert pair.v == pytest.approx(w[-1], rel=1e-10)
    # u A <= B <= v A with the stated extremes
    assert np.linalg.eigvalsh(pair.B.mat - pair.u * pair.A.mat)[0] >= -1e-10
    assert np.linalg.eigvalsh(pair.v * pair.A.mat - pair.B.mat)[0] >= -1e-10


def test_pair_rejects_contraction_losing_positivity():
    # C = diag(1e-7, 1e7): its spectrum ratio 1e-14 is below STRICTNESS_TOL
    with pytest.raises(NumericalBreakdown, match="contraction"):
        OperatorPair(np.diag([1.0, 1e-7]), np.diag([1e-7, 1.0]))


def test_transform_domain_error():
    # a scalar function that is not finite on spec(C) is a DomainError
    pair = OperatorPair(np.diag([0.5, 2.0]), np.eye(2))
    with pytest.raises(DomainError, match="not finite on the spectrum"):
        pair.transform(lambda t: np.log(t - 10.0))


def test_weight_gates():
    pair = pair_from_seed(2, 2)
    with pytest.raises(InvalidWeight):
        arithmetic_mean(pair, -0.1)
    with pytest.raises(InvalidWeight):
        harmonic_mean(pair, 1.1)
    with pytest.raises(InvalidWeight):
        geometric_mean(pair, 2.0)
    with pytest.raises(InvalidWeight):
        tsallis_entropy(pair, 1.5)
    with pytest.raises(InvalidWeight):
        quadrature_tsallis(pair, 0.0)


@pytest.mark.parametrize("weight", ["0.5", None, True, np.bool_(False), [0.5, [0.5, 0.5]], np.array([0.5], dtype=object)])
@pytest.mark.parametrize(
    "op",
    [
        arithmetic_mean,
        harmonic_mean,
        geometric_mean,
        natural_power_mean,
        tsallis_entropy,
        generalized_entropy,
        quadrature_tsallis,
    ],
)
def test_weights_that_are_not_real_numbers_are_invalid_weights(op, weight):
    # a string or None raised a bare TypeError or UFuncTypeError, and True ran as 1.0
    pair = pair_from_seed(2, 2)
    with pytest.raises(InvalidWeight, match="needs real weights"):
        op(pair, weight)


def test_quadrature_node_validation(monkeypatch):
    # nodes=100000 asked leggauss for an 80 GB companion matrix; nan raised a bare ValueError
    def never(deg):
        raise AssertionError(f"leggauss({deg!r}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", never)
    pair = pair_from_seed(3, 2)
    for nodes in (1, 101, 100000, 2.5, 32.0, float("nan"), True, "32"):
        with pytest.raises(InvalidInput, match=r"nodes must be an integer in \[2, 100\]"):
            quadrature_tsallis(pair, 0.5, nodes=nodes)


def test_quadrature_matches_a_loop_over_the_nodes():
    # the rule is summed as one product over a node axis, in another order
    # than this loop: 32 terms may move each eigenvalue's sum by 32 eps of the
    # largest, and the congruence by A^{1/2} grows that relative size by at
    # most cond(A)
    pair = pair_from_seed(21, 4)
    ts, wts = _unit_gauss_legendre(32)
    for p in (0.1, -0.5, 1.0):

        def loop(t):
            lg = np.log(t)
            acc = np.zeros_like(t)
            for s, w in zip(ts, wts):
                acc += w * np.exp(p * s * lg) * lg
            return acc

        ref = pair.transform(loop)
        err = np.abs(quadrature_tsallis(pair, p) - ref).max()
        assert err <= 32 * np.finfo(float).eps * np.abs(ref).max() * np.linalg.cond(pair.A.mat), p


def test_quadrature_rule_is_computed_once_per_order(monkeypatch):
    orders = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(deg):
        orders.append(deg)
        return leggauss(deg)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    _unit_gauss_legendre.cache_clear()
    pair = pair_from_seed(3, 2)
    first = {nodes: quadrature_tsallis(pair, 0.5, nodes=nodes) for nodes in (5, 7, 32)}
    for _ in range(3):
        for nodes in (5, 7, 32):
            again = quadrature_tsallis(pair, 0.5, nodes=nodes)
            assert again.tobytes() == first[nodes].tobytes()
    assert sorted(orders) == [5, 7, 32]


def test_harmonic_known_value():
    pair = OperatorPair(np.array([[1.0]]), np.array([[3.0]]))
    got = harmonic_mean(pair, 0.5)
    assert got.mat[0, 0] == pytest.approx(1.5, abs=1e-14)


def test_power_mean_endpoints_are_the_operands():
    pair = pair_from_seed(4, 3)
    assert natural_power_mean(pair, 0.0) is pair.A
    assert natural_power_mean(pair, 1.0) is pair.B


def test_tsallis_endpoint_formulas():
    pair = pair_from_seed(5, 4)
    a, b = pair.A.mat, pair.B.mat
    np.testing.assert_allclose(tsallis_entropy(pair, 1.0), b - a, atol=1e-12)
    lower = a - a @ np.linalg.solve(b, a)
    np.testing.assert_allclose(tsallis_entropy(pair, -1.0), symmetrize(lower), atol=1e-11)


def test_tsallis_zero_weight_is_relative_entropy():
    pair = pair_from_seed(6, 3)
    np.testing.assert_array_equal(tsallis_entropy(pair, 0.0), relative_operator_entropy(pair))


def test_tsallis_approaches_relative_entropy():
    pair = pair_from_seed(7, 4)
    s = relative_operator_entropy(pair)
    t = tsallis_entropy(pair, 1e-8)
    assert np.linalg.norm(t - s, 2) < 1e-7


def test_geometric_mean_matches_direct_construction():
    pair = pair_from_seed(8, 4)
    p = 0.37
    w, q = np.linalg.eigh(pair.A.mat)
    root = (q * np.sqrt(w)) @ q.T
    inv_root = (q / np.sqrt(w)) @ q.T
    c = inv_root @ pair.B.mat @ inv_root
    wc, qc = np.linalg.eigh(symmetrize(c))
    want = root @ ((qc * wc**p) @ qc.T) @ root
    np.testing.assert_allclose(geometric_mean(pair, p).mat, symmetrize(want), atol=1e-11)


def test_representing_function_reproduces_harmonic():
    pair = pair_from_seed(9, 3)
    p = 0.42
    lifted = pair.transform(lambda t: harm_rep(t, p))
    np.testing.assert_allclose(lifted, harmonic_mean(pair, p).mat, atol=1e-11)


def test_commuting_pair_matches_eigenwise_formula():
    cfg = SamplerConfig(seed=10, n=5, sandwich=(0.5, 2.0))
    q, lam, mu = commuting_spectra(cfg)
    pair = OperatorPair(
        SpdMatrix(symmetrize((q * lam) @ q.T)), SpdMatrix(symmetrize((q * mu) @ q.T))
    )
    p = -0.6
    got = np.diag(q.T @ tsallis_entropy(pair, p) @ q)
    want = lam * tsallis_log(mu / lam, p)
    np.testing.assert_allclose(got, want, atol=1e-12)
    got_s = np.diag(q.T @ generalized_entropy(pair, p) @ q)
    np.testing.assert_allclose(got_s, lam * power_log(mu / lam, p), atol=1e-12)


@given(c=st.floats(min_value=0.1, max_value=10.0), p=st.floats(min_value=-1.0, max_value=1.0))
def test_entropies_are_positively_homogeneous(c, p):
    pair = pair_from_seed(11, 3)
    scaled = OperatorPair(c * pair.A.mat, c * pair.B.mat)
    np.testing.assert_allclose(
        tsallis_entropy(scaled, p), c * tsallis_entropy(pair, p), rtol=1e-9, atol=1e-11
    )


@given(p=st.floats(min_value=0.0, max_value=1.0))
def test_means_are_congruence_invariant(p):
    pair = pair_from_seed(12, 3)
    x = np.array([[1.0, 0.3, 0.0], [0.0, 0.8, -0.2], [0.1, 0.0, 1.2]])
    moved = OperatorPair(
        symmetrize(x @ pair.A.mat @ x.T), symmetrize(x @ pair.B.mat @ x.T)
    )
    want = x @ geometric_mean(pair, p).mat @ x.T
    np.testing.assert_allclose(geometric_mean(moved, p).mat, symmetrize(want), atol=1e-9)


def test_quadrature_identity_scalar_case():
    pair = OperatorPair(np.array([[1.0]]), np.array([[3.0]]))
    got = quadrature_tsallis(pair, 1.0)
    assert got[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_quadrature_exact_when_operands_equal():
    a = pair_from_seed(13, 3).A
    pair = OperatorPair(a, a.mat.copy())
    resid = np.linalg.norm(quadrature_tsallis(pair, 0.5) - tsallis_entropy(pair, 0.5), 2)
    assert resid < 1e-14


def test_quadrature_converges_with_node_count():
    pair = pair_from_seed(14, 4, sandwich=(0.05, 20.0))
    closed = tsallis_entropy(pair, 1.0)
    r2 = np.linalg.norm(quadrature_tsallis(pair, 1.0, nodes=2) - closed, 2)
    r32 = np.linalg.norm(quadrature_tsallis(pair, 1.0, nodes=32) - closed, 2)
    assert r32 < r2
    assert r32 < 1e-10


def test_quadrature_matches_closed_form_across_weights():
    pair = pair_from_seed(15, 4)
    for p in (0.1, -0.1, 0.5, -0.5, 1.0, -1.0):
        resid = np.linalg.norm(quadrature_tsallis(pair, p) - tsallis_entropy(pair, p), 2)
        assert resid < 1e-12


def _stacked_pair(k: int, n: int) -> OperatorPair:
    """k sampled pairs of dimension n, stacked as a suite stacks them."""
    _, pair_words, normals = stream_draws(list(range(10 * n, 10 * n + k)), n)
    return pair_from_base(stack_base(pair_words, normals), np.full(k, 0.25), np.full(k, 4.0))


@pytest.mark.parametrize("fn", [quadrature_tsallis, tsallis_entropy])
def test_weight_axes_keep_the_bits_of_scalar_calls(fn):
    weights = np.array([1.0, -1.0, 0.5, -0.5, 0.1, -0.1, 1e-3, -1e-3])
    for n in range(1, 9):
        for k in (1, 5):
            pair = _stacked_pair(k, n)
            alone = [fn(pair, float(p)) for p in weights]
            per_pair = fn(pair, weights[:k, None, None])  # one weight per pair
            assert per_pair.shape == (k, n, n)
            for i in range(k):
                assert per_pair[i].tobytes() == alone[i][i].tobytes(), (n, k, i)
            axis = fn(pair, weights[:, None, None, None])  # every weight for every pair
            assert axis.shape == (len(weights), k, n, n)
            for j in range(len(weights)):
                assert axis[j].tobytes() == alone[j].tobytes(), (n, k, weights[j])


@pytest.mark.parametrize("mean", [arithmetic_mean, natural_power_mean])
def test_certified_means_take_a_weight_axis(mean):
    # the certificate reads f's values with the weight axis that the lift has
    # (0.5 is left out: numpy takes t ** 0.5 through sqrt for a scalar exponent)
    weights = np.array([0.1, 0.25, 0.9])
    pair = _stacked_pair(5, 4)
    axis = mean(pair, weights[:, None, None, None]).mat
    assert axis.shape == (3, 5, 4, 4)
    for j, p in enumerate(weights):
        assert axis[j].tobytes() == mean(pair, float(p)).mat.tobytes(), p


@pytest.mark.parametrize("bad", [0.0, 1.5, -1.01, np.nan])
def test_quadrature_checks_an_array_weight_elementwise(bad):
    # an array p raised a bare ValueError ("truth value ... is ambiguous")
    pair = _stacked_pair(3, 2)
    for p in (np.array([0.5, bad, -0.5])[:, None, None], np.array([0.5, bad])[:, None, None, None]):
        with pytest.raises(InvalidWeight, match=f"got {bad}"):
            quadrature_tsallis(pair, p)


def test_a_lift_keeps_the_trailing_shape_of_the_spectrum():
    pair = _stacked_pair(2, 3)
    with pytest.raises(DomainError, match="returned shape"):
        pair.transform(lambda t: t[..., :2])
    with pytest.raises(DomainError, match="returned shape"):
        pair.transform(lambda t: t[..., None])
    assert pair.transform(lambda t: np.stack((t, 2.0 * t))).shape == (2, 2, 3, 3)
    # a constant f is that constant on every eigenvalue
    assert np.array_equal(pair.transform(lambda t: 2.0), pair.transform(lambda t: np.full_like(t, 2.0)))


def test_reprs_of_one_pair_and_of_a_stack():
    one = OperatorPair(np.diag([1.0, 2.0]), np.diag([0.5, 8.0]))
    assert repr(one) == "OperatorPair(n=2, u=0.5, v=4)"
    assert repr(one.A) == "SpdMatrix(n=2, eig_range=[1, 2])"
    stack = _stacked_pair(2, 3)
    assert repr(stack) == "OperatorPair(n=3, stack=(2,))"
    assert repr(stack.A) == "SpdMatrix(n=3, stack=(2,))"


def _one_product(x: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """The lift of f's values ``fw`` on spec(C) as one product on ``X``."""
    return symmetrize((x * fw) @ x.swapaxes(-1, -2))


@pytest.mark.parametrize("k", [1, 5])
def test_every_lift_is_one_product_on_x(k):
    # sampled, derived and public pairs, one pair or a stack, one weight or a
    # weight axis: each lift has the bits of (X f(mu)) X^T, with X = A^{1/2} Q_C
    # formed once per stack (here again from the draws) and shared by every
    # pair on it and every pair derived from one
    n = 4
    _, words, normals = stream_draws(list(range(20, 20 + k)), n)
    if k == 1:  # one pair, not a stack of one
        words, normals = words[0], normals[0]
    lam, q = _a_draw(words, normals, (0.5, 2.0))
    x = spd_from_basis(q[..., 0, :, :], np.sqrt(_row(lam)), "sqrt(A)").mat @ np.ascontiguousarray(q[..., 1, :, :])
    base = stack_base(words, normals)
    sampled = pair_from_base(base, 1.2, 3.0)
    assert sampled._x is base.x and not base.x.flags.writeable and sampled.sqrt_a is base.sqrt_a
    assert base.x.tobytes() == x.tobytes()
    public = OperatorPair(sampled.A.mat, sampled.B.mat)
    assert not public._x.flags.writeable
    assert public._x.tobytes() == (public.sqrt_a.mat @ public._q).tobytes()
    derived = {"mid": _mid(sampled), "gap": _gap(sampled), "public mid": _mid(public)}
    assert derived["mid"]._x is derived["gap"]._x is sampled._x and derived["public mid"]._x is public._x
    pairs = {"sampled": (sampled, x), "public": (public, public._x)}
    pairs.update((name, (pair, pair._x)) for name, pair in derived.items())
    # a sampled B is the lift of its contraction's spectrum
    assert sampled.B.mat.tobytes() == _one_product(x, sampled._w).tobytes()
    axis = np.array([0.3, -0.7, 1.0]).reshape((3,) + (1,) * sampled.A.mat.ndim)
    for name, (pair, x_pair) in pairs.items():
        w = pair._w
        lifts = [
            (natural_power_mean(pair, 0.3).mat, w ** np.asarray(0.3)),
            (natural_power_mean(pair, -1.5).mat, w ** np.asarray(-1.5)),
            (relative_operator_entropy(pair), np.log(w)),
            (generalized_entropy(pair, 0.4), power_log(w, 0.4)),
            (tsallis_entropy(pair, -0.6), tsallis_log(w, -0.6)),
            (tsallis_entropy(pair, axis), tsallis_log(w, axis)),
            (pair.transform(lambda t: t * t), w * w),
        ]
        for m, fw in lifts:
            expected = _one_product(x_pair, fw)
            assert m.shape == expected.shape, name
            assert m.tobytes() == expected.tobytes(), name


def test_a_pair_assembles_its_contraction_only_where_read(monkeypatch):
    # every pair (sampled, public, and a pair derived from either) holds C's
    # basis and spectrum and X, not C: u, v and every lift read them, and
    # each read of `contraction` assembles C, with the bits of f(C) at
    # f(t) = t, without keeping it (so a kept pair holds B alone); the lifts
    # assemble on X, so only assemblies on the pair's basis are counted, in
    # means (f(C)) and in spd_core (C, through spd_from_basis)
    assembled = []
    original = spd_core.spectral_assemble
    basis = None
    for module in (means, spd_core):
        monkeypatch.setattr(module, "spectral_assemble", lambda q, w: q is basis and assembled.append(None) or original(q, w))
    sampled = (pair_from_seed(5, 6, sandwich=(1.5, 3.0)), _stacked_pair(3, 4))
    for pair in (*sampled, *(OperatorPair(s.A.mat, s.B.mat) for s in sampled)):
        for p in (pair, _gap(pair) if np.all(pair.u > 1.0) else _mid(pair)):
            basis = p._q
            u, v = p.u, p.v
            tsallis_entropy(p, 0.5)
            natural_power_mean(p, 0.5)
            assert assembled == []
            c = p.contraction
            assert len(assembled) == 1
            assert c.mat.tobytes() == original(p._q, p._w).tobytes()
            assert c.mat.tobytes() == p.fn_of_contraction(lambda t: t).tobytes()
            assert np.array_equal(c.eig_min, u) and np.array_equal(c.eig_max, v)
            assert p.contraction.mat.tobytes() == c.mat.tobytes() and len(assembled) == 3
            assembled.clear()


def test_each_certified_lift_evaluates_its_twin_once():
    # a certified lift and its certificate read one evaluation of the twin on
    # spec(C): counted as the ufunc calls made on the pair's spectrum (the
    # twins of the means) and as calls of a twin passed in (a derived pair)
    class Spectrum(np.ndarray):
        calls = Counter()

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if method == "__call__":
                Spectrum.calls[ufunc.__name__] += 1
            inputs = [x.view(np.ndarray) if isinstance(x, Spectrum) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    for pair in (pair_from_seed(7, 4, sandwich=(1.5, 3.0)), _stacked_pair(3, 4)):
        pair.B  # a sampled B is formed on its first read, from the spectrum too
        pair._w = pair._w.view(Spectrum)
        for mean, p, ufunc in ((natural_power_mean, 0.3, "power"), (arithmetic_mean, 0.3, "multiply")):
            Spectrum.calls.clear()
            expected = mean(pair, p).mat.tobytes()
            assert Spectrum.calls[ufunc] == 1, mean.__name__
            pair._w = pair._w.view(np.ndarray)
            assert mean(pair, p).mat.tobytes() == expected
            pair._w = pair._w.view(Spectrum)
        calls = []

        def twin(t):
            calls.append(None)
            return 0.5 * (1.0 + t)

        lifted = pair.lift_pair(0.5 * (pair.A.mat + pair.B.mat), twin, "derived pair")
        assert len(calls) == 1
        assert lifted.B.mat.tobytes() == _mid(pair).B.mat.tobytes()


def test_pair_io_roundtrip():
    pair = pair_from_seed(16, 3)
    back = load_pair(dump_pair(pair))
    np.testing.assert_array_equal(back.A.mat, pair.A.mat)
    np.testing.assert_array_equal(back.B.mat, pair.B.mat)


def test_dump_pair_rejects_a_stacked_pair():
    eye = np.eye(2)
    stacked = OperatorPair(np.stack([eye, 2.0 * eye]), np.stack([2.0 * eye, 3.0 * eye]))
    with pytest.raises(InvalidInput, match="holds one matrix"):
        dump_pair(stacked)


def test_load_pair_rejects_truncated_text():
    pair = pair_from_seed(17, 2)
    text = dump_pair(pair)
    with pytest.raises(InvalidInput):
        load_pair(text[: text.rfind("\n", 0, len(text) - 5)])


def test_load_pair_reads_the_bits_dump_pair_wrote_and_checks_each_matrix_once(monkeypatch):
    # load_pair hands the parsed matrices to the public constructor, which
    # checks each once: the pair it returns is the public pair of the bits
    # dump_pair wrote
    checked = []
    original = spd_core._force_symmetric
    monkeypatch.setattr(spd_core, "_force_symmetric", lambda m: checked.append(None) or original(m))
    for pair in (pair_from_seed(16, 3), pair_from_seed(18, 1), pair_from_seed(19, 6, sandwich=(1.0, 1.0))):
        text = dump_pair(pair)
        checked.clear()
        back = load_pair(text)
        assert len(checked) == 2
        public = OperatorPair(pair.A.mat, pair.B.mat)
        assert back.A.mat.tobytes() == pair.A.mat.tobytes() and back.B.mat.tobytes() == pair.B.mat.tobytes()
        assert (back.u, back.v) == (public.u, public.v)
        assert back._x.tobytes() == public._x.tobytes() and back._w.tobytes() == public._w.tobytes()
        assert dump_pair(back) == text


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t[: t.index("\n2\n")], "pair text ends before the second matrix"),
        (lambda t: t[: t.index("\n2\n") + 1], "pair text ends before the second matrix"),
        (lambda t: t.rsplit(None, 1)[0], "expected 4 entries for n=2, got 3"),
        (lambda t: t + "1.0\n", "expected 4 entries for n=2, got 5"),
        (lambda t: t.replace("\n2\n", "\nx\n"), "bad dimension header 'x'"),
        (lambda t: t.replace("\n2\n", "\n0\n"), "bad dimension 0"),
        (lambda t: t.replace("\n2\n", "\n3\n"), "expected 9 entries for n=3, got 4"),
        (lambda t: "x" + t, "bad dimension header 'x2'"),
        (lambda t: t.rsplit(None, 1)[0] + " one", "non-numeric matrix entry: could not convert string to float: 'one'"),
        (lambda t: " \n", "empty pair text"),
        (lambda t: t.encode(), "pair text must be a string"),
    ],
)
def test_load_pair_names_what_is_wrong_with_the_text(edit, message):
    text = dump_pair(pair_from_seed(17, 2))
    with pytest.raises(InvalidInput, match=re.escape(message)):
        load_pair(edit(text))


@pytest.mark.parametrize("n", range(1, 17))
def test_public_pairs_match_an_independent_generalized_eigensolver(n):
    # the public constructor (eigh of A, A^{-1/2} assembled from A's
    # spectrum, eigh of C) runs in no trial; LAPACK's generalized symmetric-
    # definite solver of B y = lambda A y (a Cholesky factorization of A,
    # no square root) is an independent path to spec(C).  Each solver's
    # rounding in spec(C) grows as n eps kappa(A) ||C||
    eps = np.finfo(float).eps
    for i, spectrum_range in enumerate([(0.5, 2.0), (1e-2, 1e2), (1e-3, 1e3), (1e-4, 1e4)]):
        sampled = sandwich_pair(SamplerConfig(seed=100 * n + i, n=n, spectrum_range=spectrum_range, sandwich=(0.3, 3.5)))
        pair = OperatorPair(sampled.A.mat, sampled.B.mat)
        ref = generalized_eigh(pair.B.mat, pair.A.mat, eigvals_only=True)
        bound = 8 * n * eps * (pair.A.eig_max / pair.A.eig_min) * np.abs(ref).max()
        assert abs(pair.u - ref[0]) <= bound, spectrum_range
        assert abs(pair.v - ref[-1]) <= bound, spectrum_range
        assert np.abs(np.linalg.eigvalsh(pair.contraction.mat) - ref).max() <= bound, spectrum_range


# ---------------------------------------------------------------------------
# certified lifts: Ostrowski bounds instead of an eigensolve
# ---------------------------------------------------------------------------

# every certified place, each a function of the pair returning its SpdMatrix
_LIFTS = {
    "arithmetic[0.3]": lambda pair: arithmetic_mean(pair, 0.3),
    "nat[0.5]": lambda pair: natural_power_mean(pair, 0.5),
    "nat[-1.5]": lambda pair: natural_power_mean(pair, -1.5),
    "nat[3]": lambda pair: natural_power_mean(pair, 3.0),
    "(A+B)/2": lambda pair: _mid(pair).B,
    "B - A": lambda pair: _gap(pair).B,
}


def _checking_certificates(monkeypatch, owner=means) -> list[str]:
    """Wrap the certificate as ``owner`` calls it (``means`` for the lifts,
    ``spd_core`` for the Cholesky certificate): each matrix it certifies
    (``lo > STRICTNESS_TOL * hi``) must have its eigvalsh extremes inside
    ``[lo, hi]``.  Returns the list of the certified matrices' contexts, one
    entry per matrix."""
    certified = []
    original = owner.spd_certified

    def checked(m, lo, hi, context):
        w = np.linalg.eigvalsh(m)
        lo, hi = (np.broadcast_to(x, w.shape[:-1]) for x in (lo, hi))
        claims = lo > STRICTNESS_TOL * hi
        assert (lo[claims] <= w[..., 0][claims]).all(), context
        assert (hi[claims] >= w[..., -1][claims]).all(), context
        certified.extend([context] * int(claims.sum()))
        return original(m, lo, hi, context)

    monkeypatch.setattr(owner, "spd_certified", checked)
    return certified


def _plans_reading_b() -> set:
    """The plans on which some case reads its sampled pair's B (one trial of each case at n = 2)."""
    reading = set()
    for case in catalog_with_duals():
        params, pair = harness._plan_pair(case.plan, *harness._draw([3], 2))
        evaluate_trials(case, check_stack(case, pair, params, [3]))
        if pair._b is not None:
            reading.add(case.plan)
    return reading


def test_certificates_bound_the_spectrum_on_every_case(monkeypatch):
    reading = _plans_reading_b()
    certified = _checking_certificates(monkeypatch)
    dims = (1, 2, 3, 5, 8, 16, 64)
    seeds = range(1, 6)
    for seed in seeds:
        results = run_all(trials=2 * len(dims), dims=dims, seed=seed)
    # no catalog draw needs the full check: every B read is certified.  A
    # run_all call builds a stack's pair once per distinct plan (the cases of
    # one region share it; all of them fit in the memo here), a pair forms B
    # only if one of its plan's cases reads it, and each dim gets 2 trials, so
    # each seed certifies 2 * len(dims) Bs per plan that reads B: the 50
    # cases read 29 plans, 11 of them B
    plans = {case.plan for case in catalog_with_duals()}
    assert (len(results), len(plans)) == (50, 29)
    assert len(reading) == 11
    assert certified.count("sampled B") == len(seeds) * len(reading) * 2 * len(dims)
    contexts = {c.split(" (p=")[0] for c in certified}
    assert contexts == {
        "sampled B",
        "arithmetic mean",
        "natural power mean",
        "derived pair (A, (A+B)/2)",
        "derived pair (A, B - A)",
    }


@pytest.mark.parametrize("spectrum_range", [(0.5, 2.0), (1e-3, 1e3), (1e-6, 1.0), (1.0, 1.0)])
def test_certificates_bound_the_spectrum_on_wide_draws(monkeypatch, spectrum_range):
    # C = t I makes Ostrowski's bounds exact, so there only the rounding bound separates them
    certified = _checking_certificates(monkeypatch)
    sandwiches = [(1e-3, 1e3), (0.2, 4.0), (1.0 + 1e-6, 1.0 + 2e-6), (1.5, 1.5), (2.0, 2.0), (0.25, 0.25), (1e-8, 1.0)]
    for n in (1, 2, 3, 5, 8, 16, 64, 128):
        for seed in range(6 if n <= 8 else 3 if n <= 64 else 1):
            for sandwich in sandwiches:
                try:
                    pair = sandwich_pair(SamplerConfig(seed=seed, n=n, spectrum_range=spectrum_range, sandwich=sandwich))
                except NumericalBreakdown:
                    continue
                # the public constructor computes C from B: the same pair, certified with kappa(A)
                for p in (pair, OperatorPair(pair.A.mat, pair.B.mat)):
                    for name, lift in _LIFTS.items():
                        if name != "B - A" or p.u > 1.0:
                            try:
                                lift(p)
                            except NumericalBreakdown:
                                pass
    assert len(certified) > 1000


def _counting_linalg(monkeypatch, name: str) -> list:
    """Count the calls of ``np.linalg.<name>`` in the returned list's length."""
    calls = []
    original = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(None) or original(*a, **k))
    return calls


def test_certified_lifts_make_no_eigvalsh(monkeypatch):
    pair = pair_from_seed(3, 5, sandwich=(1.5, 3.0))
    solves = _counting_linalg(monkeypatch, "eigvalsh")
    sandwich_pair(SamplerConfig(seed=3, n=5, sandwich=(1.5, 3.0)))
    for lift in _LIFTS.values():
        lift(pair)
    assert solves == []


def test_a_failed_certificate_falls_back_to_one_eigvalsh(monkeypatch):
    # a rounding bound that swamps every bound leaves each SPD lift to the
    # full check: one eigvalsh each, and the same bits
    cfg = SamplerConfig(seed=3, n=5, sandwich=(1.5, 3.0))
    pair = sandwich_pair(cfg)
    expected = {name: lift(pair).mat.tobytes() for name, lift in _LIFTS.items()}
    expected_b = pair.B.mat.tobytes()
    monkeypatch.setattr(means, "_LIFT_ROUNDINGS", 1e18)
    solves = _counting_linalg(monkeypatch, "eigvalsh")
    for name, lift in _LIFTS.items():
        before = len(solves)
        assert lift(pair).mat.tobytes() == expected[name], name
        assert len(solves) == before + 1, name
    before = len(solves)
    assert sandwich_pair(cfg).B.mat.tobytes() == expected_b
    assert len(solves) == before + 1


def test_certified_matrix_reports_its_computed_extremes(monkeypatch):
    # solved for on first access, once, and kept
    pair = pair_from_seed(6, 4)
    lifts = [lift(pair) for name, lift in _LIFTS.items() if name != "B - A"]
    solves = _counting_linalg(monkeypatch, "eigvalsh")
    for spd in lifts:
        before = len(solves)
        extremes = (spd.eig_min, spd.eig_max, spd.eig_min)
        assert len(solves) == before + 1
        w = np.linalg.eigvalsh(spd.mat)
        assert extremes == (w[0], w[-1], w[0])
        assert not spd.mat.flags.writeable


# ---------------------------------------------------------------------------
# the harmonic mean: one LU solve, certified by one Cholesky factorization
# ---------------------------------------------------------------------------

_HARMONIC_WEIGHTS = (0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0)


def _raw_spd(rng, n: int, kappa: float) -> np.ndarray:
    """A symmetric matrix from outside: spectrum geometric in [1, kappa], in a
    random orthogonal basis, assembled in plain numpy."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return symmetrize((q * np.geomspace(1.0, kappa, n)) @ q.T)


def _raw_pairs(n: int):
    """Public pairs of raw matrices with kappa(A), kappa(B) up to 1e6, and
    the larger of the two kappas."""
    rng = np.random.default_rng(n)
    for kappa_a, kappa_b in ((1.0, 1.0), (1e3, 1.0), (1.0, 1e6), (1e6, 1e3), (1e3, 1e6), (1e6, 1.0)):
        if n == 1:  # a 1 x 1 matrix has kappa 1
            kappa_a = kappa_b = 1.0
        yield OperatorPair(_raw_spd(rng, n, kappa_a), _raw_spd(rng, n, kappa_b)), max(kappa_a, kappa_b)


def test_cholesky_certificates_bound_the_spectrum_on_every_case(monkeypatch):
    # every harmonic mean of a catalog run is certified by its factorization:
    # none needs the full check
    certified = _checking_certificates(monkeypatch, spd_core)
    catalog = importlib.import_module("oel.catalog")  # the package exports a function of this name
    original = catalog.harmonic_mean
    means_made = []

    def counted(pair, p):
        h = original(pair, p)
        means_made.append(h.mat[..., 0, 0].size)
        return h

    monkeypatch.setattr(catalog, "harmonic_mean", counted)
    dims = (1, 2, 3, 5, 8, 16, 64)
    for seed in range(1, 6):
        for pattern in ("H1.1", "W[34]*"):
            run_all(pattern, trials=2 * len(dims), dims=dims, seed=seed)
    assert len(certified) == sum(means_made) > 0
    assert set(certified) == {"harmonic mean"}


@pytest.mark.parametrize("spectrum_range", [(0.5, 2.0), (1e-3, 1e3), (1e-6, 1.0), (1.0, 1.0)])
def test_cholesky_certificates_bound_the_spectrum_on_wide_draws(monkeypatch, spectrum_range):
    # the harmonic mean at each weight, scalar and one per trial, and mat_inv
    # of both operands, on stacks of k = 5 sampled pairs and on public pairs;
    # kappa(B) reaches 1e12 at A's spectrum in [1e-3, 1e3], where the shifted
    # factorization starts to fail
    certified = _checking_certificates(monkeypatch, spd_core)
    sandwiches = [(1e-3, 1e3), (0.2, 4.0), (1.0 + 1e-6, 1.0 + 2e-6), (1.5, 1.5), (0.25, 0.25), (1e-8, 1.0)]
    weights = np.array(_HARMONIC_WEIGHTS)
    k = len(weights)
    for n in (1, 2, 3, 5, 8, 16, 64, 128):
        pairs = []
        for seed in range(3 if n <= 8 else 2 if n <= 64 else 1):
            _, words, normals = stream_draws(list(range(k * seed, k * seed + k)), n)
            base = stack_base(words, normals, spectrum_range)
            for lo, hi in sandwiches:
                try:
                    pairs.append(pair_from_base(base, np.full(k, lo), np.full(k, hi)))
                except NumericalBreakdown:
                    pass
        if spectrum_range == (0.5, 2.0):
            pairs.extend(pair for pair, _ in _raw_pairs(n))
        for pair in pairs:
            for p in (*_HARMONIC_WEIGHTS, weights[:, None, None]):
                try:
                    harmonic_mean(pair, p)
                except NumericalBreakdown:
                    pass
            for operand in (pair.A, pair.B):
                try:
                    mat_inv(operand)
                except NumericalBreakdown:
                    pass
    assert len(certified) > 1000
    assert set(certified) == {"harmonic mean", "mat_inv"}


@pytest.mark.parametrize("n", [2, 8, 64, 128])
def test_cholesky_certificates_bound_the_spectrum_across_the_shift(monkeypatch, n):
    # lambda_min swept across the shift sigma, where the factorization starts
    # to fail and only the bound on its backward error keeps lambda_min above
    # the certified lo (a budget of 0 errors fails here)
    certified = _checking_certificates(monkeypatch, spd_core)
    q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    spectrum = np.linspace(0.5, 1.0, n)
    spectrum[0] = STRICTNESS_TOL
    s = spd_core._row_sum_norm(symmetrize((q * spectrum) @ q.T))
    budget = spd_core._CHOLESKY_ROUNDINGS * n * spd_core._gamma(n + 1)
    shift = (STRICTNESS_TOL + 2.0 * budget) * s
    for t in np.linspace(0.5, 1.5, 201):
        spectrum[0] = t * shift
        try:
            spd_by_cholesky(symmetrize((q * spectrum) @ q.T), "harmonic mean")
        except NumericalBreakdown:  # below the strictness bound, at small n
            pass
    assert 0 < len(certified) < 201


def test_a_failed_cholesky_certificate_falls_back_to_one_eigvalsh(monkeypatch):
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))[0]
    indefinite = symmetrize((q * np.array([-1e-3, 0.5, 1.0, 1.5, 2.0])) @ q.T)
    # lambda_min passes the full check (> STRICTNESS_TOL * lambda_max) but lies
    # below the shift, so the shifted factorization fails
    barely = symmetrize((q * np.array([2.5e-12, 0.5, 1.0, 1.5, 2.0])) @ q.T)
    full = SpdMatrix(barely)
    solves = _counting_linalg(monkeypatch, "eigvalsh")
    factorizations = _counting_linalg(monkeypatch, "cholesky")
    with pytest.raises(NumericalBreakdown, match="^harmonic mean: matrix is not strictly positive definite"):
        spd_by_cholesky(indefinite, "harmonic mean")
    assert (len(solves), len(factorizations)) == (1, 1)
    accepted = spd_by_cholesky(barely, "harmonic mean")
    assert (len(solves), len(factorizations)) == (2, 2)
    assert accepted.mat.tobytes() == full.mat.tobytes()
    assert (accepted.eig_min, accepted.eig_max) == (full.eig_min, full.eig_max)
    assert len(solves) == 2  # the fallback's extremes are kept
    # a matrix that is not finite goes to the full check, which rejects it unsolved
    with pytest.raises(NumericalBreakdown, match="^harmonic mean: matrix has an entry that is not finite"):
        spd_by_cholesky(np.full((2, 2), np.nan), "harmonic mean")
    assert (len(solves), len(factorizations)) == (2, 2)


def _literal_harmonic(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """The defining formula ``((1-p) A^{-1} + p B^{-1})^{-1}``, three
    inverses: the reference the parallel sum is checked against."""
    return symmetrize(np.linalg.inv((1.0 - p) * np.linalg.inv(a) + p * np.linalg.inv(b)))


def test_harmonic_mean_is_the_literal_formula():
    # a change of A or B of relative size delta in norm is one of at most
    # kappa delta in the Loewner order, which moves the (monotone,
    # homogeneous) mean by as much: the two formulas agree to a few
    # n eps kappa ||H|| (at most a quarter of it here)
    eps = np.finfo(float).eps
    compared = 0
    for n in (1, 2, 3, 5, 8, 16, 64, 128):
        for pair, kappa in _raw_pairs(n):
            for p in _HARMONIC_WEIGHTS:
                got = harmonic_mean(pair, p).mat
                want = _literal_harmonic(pair.A.mat, pair.B.mat, p)
                norm = np.linalg.norm(want, 2)
                assert np.linalg.norm(got - want, 2) <= 4 * n * eps * kappa * norm, (n, kappa, p)
                compared += 1
    assert compared == 8 * 6 * len(_HARMONIC_WEIGHTS)


def test_power_mean_endpoint_weights_keep_the_weight_axis():
    # one pair at a weight axis of endpoints: each matrix is that operand, and
    # the axis stays, as for any other weights
    pair = pair_from_seed(4, 3)
    for weight, operand in ((1.0, pair.B), (0.0, pair.A)):
        got = natural_power_mean(pair, np.full((3, 1, 1), weight))
        assert got.mat.shape == (3, 3, 3)
        for m in got.mat:
            assert m.tobytes() == operand.mat.tobytes()
    mixed = natural_power_mean(pair, np.array([0.0, 1.0, 0.5])[:, None, None])
    assert mixed.mat.shape == (3, 3, 3)
    assert mixed.mat[0].tobytes() == pair.A.mat.tobytes()
    assert mixed.mat[1].tobytes() == pair.B.mat.tobytes()
