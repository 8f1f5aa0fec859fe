import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oel.errors import InvalidInput, NumericalBreakdown
from oel.sampler import SamplerConfig, random_spd
from oel.spd_core import (
    _MAX_ENTRY,
    SpdMatrix,
    as_spd,
    dump_matrix,
    load_matrix,
    loewner_leq,
    mat_inv,
    mat_log,
    mat_power,
    mat_sqrt,
    spd_from_spectrum,
    spectral_assemble,
    symmetrize,
)


def spd(seed: int, n: int, spectrum=(0.5, 2.0)) -> SpdMatrix:
    return random_spd(SamplerConfig(seed=seed, n=n, spectrum_range=spectrum))


def test_scalar_promotes_to_1x1():
    a = SpdMatrix(2.5)
    assert a.n == 1
    assert a.mat.shape == (1, 1)
    assert a.mat[0, 0] == 2.5


def test_rejects_asymmetric():
    with pytest.raises(InvalidInput):
        SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_rejects_indefinite():
    with pytest.raises(InvalidInput):
        SpdMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(InvalidInput):
        SpdMatrix(np.diag([1.0, 0.0]))


def test_rejects_nonfinite_and_nonsquare():
    with pytest.raises(InvalidInput):
        SpdMatrix(np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(InvalidInput):
        SpdMatrix(np.ones((2, 3)))


@pytest.mark.parametrize(
    "entries",
    [
        np.array([[1, 1j], [-1j, 2]]),  # would lose its imaginary part
        [["1", "0"], ["0", "2"]],
        np.eye(2, dtype=bool),
        [[1, 0], [0]],  # ragged
    ],
    ids=["complex", "string", "bool", "ragged"],
)
def test_rejects_entries_that_are_not_real_numbers(entries):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        for check in (SpdMatrix, dump_matrix, lambda m: loewner_leq(m, m)):
            with pytest.raises(InvalidInput):
                check(entries)


def test_accepts_integer_entries():
    assert SpdMatrix([[2, 1], [1, 2]]).mat.dtype == float
    assert SpdMatrix(np.array([[3]], dtype=np.uint8)).mat[0, 0] == 3.0


def test_matrix_is_frozen():
    a = spd(0, 3)
    with pytest.raises(ValueError):
        a.mat[0, 0] = 99.0


def test_as_spd_passthrough():
    a = spd(1, 2)
    assert as_spd(a) is a
    assert isinstance(as_spd(np.eye(2)), SpdMatrix)


def test_eig_bounds_match_numpy():
    a = spd(2, 4, spectrum=(0.3, 5.0))
    w = np.linalg.eigvalsh(a.mat)
    assert a.eig_min == pytest.approx(w[0], rel=1e-12)
    assert a.eig_max == pytest.approx(w[-1], rel=1e-12)


def test_spd_from_spectrum_takes_bounds_from_the_spectrum():
    q = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + np.eye(3))[0]
    w = np.array([2.0, 0.5, 1.0])
    a = spd_from_spectrum(spectral_assemble(q, w), w, "test")
    np.testing.assert_allclose(a.mat, (q * w) @ q.T, atol=1e-15)
    assert (a.eig_min, a.eig_max) == (0.5, 2.0)
    with pytest.raises(ValueError):
        a.mat[0, 0] = 99.0


@pytest.mark.parametrize("w", [[1.0, 0.0], [1.0, -1e-3], [1.0, 1e-13], [-1.0, -2.0], [1.0, np.nan]])
def test_spd_from_spectrum_rejects_nonpositive_spectrum(w):
    w = np.array(w)
    with pytest.raises(NumericalBreakdown, match="^ctx: .*not strictly positive definite"):
        spd_from_spectrum(np.diag(w), w, "ctx")


def test_mat_power_edge_exponents():
    a = spd(3, 3)
    ident = mat_power(a, 0.0)
    np.testing.assert_allclose(ident.mat, np.eye(3), atol=1e-14)
    assert mat_power(a, 1.0) is a


def test_mat_power_zero_keeps_the_stack():
    # mat_power(stack, 0.0) returned one (n, n) identity for a (k, n, n) stack
    stack = SpdMatrix(np.stack([spd(3, 3).mat, spd(4, 3).mat]))
    ident = mat_power(stack, 0.0)
    assert ident.mat.shape == mat_power(stack, 0.5).mat.shape == (2, 3, 3)
    assert np.array_equal(ident.mat, np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert np.array_equal(ident.eig_min, np.ones(2)) and np.array_equal(ident.eig_max, np.ones(2))


def test_mat_power_takes_one_exponent_per_matrix():
    # a per-matrix p raised a bare ValueError ("truth value ... is ambiguous");
    # 0.5, 2 and -1 are exponents numpy takes by another route for a scalar
    ps = np.array([0.5, 2.0, 0.0, 1.0, -1.0, 0.3, -0.5, 0.5])
    stack = SpdMatrix(np.stack([spd(seed, 4).mat for seed in range(len(ps))]))
    for k in (2, len(ps)):
        part = SpdMatrix(stack.mat[:k])
        power = mat_power(part, ps[:k, None, None])
        assert power.mat.shape == (k, 4, 4)
        for i, p in enumerate(ps[:k]):
            alone = mat_power(SpdMatrix(part.mat[i]), float(p))
            assert power.mat[i].tobytes() == alone.mat.tobytes(), p
            assert power.eig_min[i] > 0.0 and power.eig_max[i] >= power.eig_min[i]
    # one matrix at a weight axis takes every weight, 1 included
    assert mat_power(SpdMatrix(stack.mat[0]), np.ones((3, 1, 1))).mat.shape == (3, 4, 4)


def test_sqrt_inverse_roundtrips():
    a = spd(4, 4, spectrum=(0.2, 3.0))
    r = mat_sqrt(a)
    np.testing.assert_allclose(r.mat @ r.mat, a.mat, atol=1e-12)
    np.testing.assert_allclose(mat_inv(a).mat @ a.mat, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(
        mat_power(a, -0.5).mat @ r.mat, np.eye(4), atol=1e-12
    )


def test_mat_log_diagonal():
    a = SpdMatrix(np.diag([1.0, np.e, np.e**2]))
    np.testing.assert_allclose(mat_log(a), np.diag([0.0, 1.0, 2.0]), atol=1e-13)


def test_loewner_identity_and_shift():
    a = spd(7, 3)
    v = loewner_leq(a.mat, a.mat)
    assert v.holds
    assert abs(v.margin) < 1e-13
    shifted = loewner_leq(a.mat, a.mat + 2.0 * np.eye(3))
    assert shifted.holds
    assert shifted.margin == pytest.approx(2.0, abs=1e-12)


def test_loewner_refuses_operands_of_different_shapes():
    with pytest.raises(InvalidInput, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
        loewner_leq(np.eye(2), np.eye(3))


def test_loewner_reversal_fails():
    a = spd(8, 3)
    v = loewner_leq(a.mat + np.eye(3), a.mat)
    assert not v.holds
    assert v.margin == pytest.approx(-1.0, abs=1e-12)


def test_loewner_scale_uses_operator_norms():
    # the operator norm induced by the max norm: the largest absolute row sum
    big = 50.0 * np.eye(2)
    v = loewner_leq(big, big)
    assert v.scale == pytest.approx(50.0)
    small = 0.01 * np.eye(2)
    assert loewner_leq(small, small).scale == 1.0
    dense = 10.0 * np.array([[1.0, 1.0], [1.0, -1.0]])  # ||.||_2 = 10 sqrt(2)
    assert loewner_leq(dense, 3.0 * np.eye(2)).scale == 20.0
    assert loewner_leq(-np.eye(2), dense).scale == 20.0


def test_loewner_tolerance_is_relative():
    # a violation below order_tol * scale still counts as holding
    a = 10.0 * np.eye(2)
    dip = a - 5e-8 * np.eye(2)
    v = loewner_leq(a, dip)  # margin -5e-8, scale 10 -> allowed -1e-7
    assert v.holds
    assert not loewner_leq(a, a - 2e-7 * np.eye(2)).holds


@pytest.mark.parametrize("x, y", [(-1e308, 1e308), (1e308, 1e308), (1.0, -9e307)])
def test_loewner_rejects_entries_whose_sums_overflow(x, y):
    # Y - X (or the symmetrizing M + M^T) would overflow to a nan margin with
    # holds False, so the operand is rejected before any arithmetic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="exceeds"):
            loewner_leq(x * np.eye(2), y * np.eye(2))
    v = loewner_leq(-8e307 * np.eye(2), 8e307 * np.eye(2))  # the largest accepted entries
    assert v.holds and v.margin == pytest.approx(1.6e308)  # LAPACK rescales entries this large


def test_loewner_row_sums_past_the_largest_double_keep_a_finite_scale():
    # dense operands with entries near _MAX_ENTRY: a row sum of |X| overflows
    # (so does ||X||_2 = 2.7 _MAX_ENTRY), and an infinite scale would let
    # every comparison hold
    big, ones = 0.9 * _MAX_ENTRY * np.ones((3, 3)), np.ones((3, 3))
    x, y = big, big - 0.25 * _MAX_ENTRY * (np.eye(3) + ones)  # Y - X = -_MAX_ENTRY/4 (I + J)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = loewner_leq(x, y)
        back = loewner_leq(y, x)
    assert v.scale == back.scale == np.finfo(float).max
    assert v.margin == pytest.approx(-_MAX_ENTRY) and not v.holds
    assert back.margin == pytest.approx(0.25 * _MAX_ENTRY) and back.holds


def test_loewner_one_eigensolve_has_the_bits_of_three():
    # the comparator's one eigvalsh of Y - X against the first slice of one
    # eigvalsh of the stacked (Y - X, X, Y), on single matrices and on
    # stacks; its scale is max(1, row-sum norms), which bound the spectral
    # norms from above and exceed them by at most sqrt(n)
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5, 8, 17, 39):
        slack = 1.0 + 4 * n * np.finfo(float).eps  # rounding of the sums and the eigenvalues
        for shape in ((n, n), (4, n, n)):
            for scale in (1e-3, 1.0, 1e3):
                x, y = (scale * symmetrize(rng.standard_normal(shape)) for _ in range(2))
                v = loewner_leq(x, y)
                margin = np.linalg.eigvalsh(y - x)[..., 0]
                assert margin.tobytes() == np.linalg.eigvalsh(np.stack((y - x, x, y)))[0, ..., 0].tobytes()
                rows = [np.abs(m).sum(axis=-1).max(axis=-1) for m in (x, y)]
                expected = np.maximum(1.0, np.maximum(*rows))
                assert np.asarray(v.margin, dtype=float).tobytes() == margin.tobytes()
                assert np.asarray(v.scale, dtype=float).tobytes() == expected.tobytes()
                assert np.array_equal(v.holds, margin >= -1e-8 * expected)
                for m, row in zip((x, y), rows):
                    norm2 = np.abs(np.linalg.eigvalsh(m)).max(axis=-1)
                    assert (norm2 <= row * slack).all()
                    assert (row <= np.sqrt(n) * norm2 * slack).all()


@given(c=st.floats(min_value=1e-6, max_value=10.0))
def test_shift_margin_matches_constant(c):
    a = spd(9, 3)
    v = loewner_leq(a.mat, a.mat + c * np.eye(3))
    assert v.holds
    assert v.margin == pytest.approx(c, rel=1e-9, abs=1e-12)


def test_dump_load_roundtrip_exact():
    a = spd(10, 4, spectrum=(0.1, 7.0))
    back = load_matrix(dump_matrix(a))
    assert np.array_equal(back, a.mat)


def test_dump_matrix_rejects_a_stack():
    # a stack raised a bare TypeError; the text format holds one matrix
    stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
    for m in (stack, SpdMatrix(stack)):
        with pytest.raises(InvalidInput, match="holds one matrix"):
            dump_matrix(m)


def test_dump_format_header_then_rows():
    text = dump_matrix(np.eye(2))
    lines = text.strip().splitlines()
    assert lines[0] == "2"
    assert len(lines) == 3


def test_load_rejects_wrong_count():
    with pytest.raises(InvalidInput):
        load_matrix("2\n1.0 0.0\n0.0")


def test_load_rejects_bad_token():
    with pytest.raises(InvalidInput):
        load_matrix("1\nfoo")


def test_load_rejects_asymmetry():
    with pytest.raises(InvalidInput):
        load_matrix("2\n1.0 0.5\n0.0 1.0")


def test_load_averages_roundoff_asymmetry():
    m = load_matrix("2\n1.0 0.5000000000001\n0.4999999999999 1.0")
    assert m[0, 1] == m[1, 0]


def test_symmetrize_idempotent():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = symmetrize(m)
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_array_equal(symmetrize(s), s)
