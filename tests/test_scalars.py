import inspect
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from oel.errors import DomainError, HypothesisError, InvalidInput
from oel import scalars
from oel.catalog import R_M3_A1, R_M3_B1, R_U1_PUNIT, R_W4_I, Box, ExpEdge, Params, Term, catalog_with_duals
from oel.scalars import (
    CHAINS,
    ChainResult,
    PROBES,
    SIGN_CLAIMS,
    arith_rep,
    avg_power_log,
    harm_rep,
    hh_lower,
    hh_upper,
    lower_gap,
    mean_gap,
    power_log,
    power_rep,
    quad_lower,
    quad_upper,
    quad_upper_probe,
    run_probe,
    sign_table,
    tsallis_log,
    upper_gap,
    verify_scalar_chain,
)

POS_X = st.floats(min_value=1e-3, max_value=1e3)
UNIT_P = st.floats(min_value=-1.0, max_value=1.0).filter(lambda p: abs(p) > 1e-4)


# frozen reference values, computed independently from the defining formulas
CHAIN3_AT_HALF_4 = (1.9605162869370945, 2.0, 2.0794415416798357)
GAP4_AT_HALF_25 = (
    0.21359436211786564,
    0.6304368124059989,
    0.675444679663241,
    0.7760943621178656,
)
LIMIT_CHAIN_AT_25 = (
    0.15814536593707756,
    0.5241774374559762,
    0.5837092681258449,
    0.7206453659370775,
)


def test_tsallis_log_limit_value():
    assert tsallis_log(np.array([2.0]), 0.0)[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert tsallis_log(4.0, 0.5) == pytest.approx(2.0, abs=1e-14)


def test_tsallis_log_small_p_stable():
    # expm1 form keeps relative accuracy where (x^p - 1)/p would cancel
    x = 1.5
    got = tsallis_log(x, 1e-9)
    assert got == pytest.approx(math.log(x), rel=1e-9)


def test_rejects_nonpositive_argument():
    with pytest.raises(DomainError):
        tsallis_log(-1.0, 0.5)
    with pytest.raises(DomainError):
        power_log(0.0, 0.5)


@pytest.mark.parametrize(
    "p", [0.37, 0.0, -0.8, np.array([[0.5], [0.0], [-0.25]])], ids=["p", "p=0", "p<0", "p-array-with-0"]
)
def test_entropy_drift_is_its_two_terms_from_one_log(p):
    # the drift takes log x once, where its two terms took it once each
    x = np.geomspace(1e-3, 1e3, 41)
    c = np.array([-2.0, 0.25, 3.0])[:, None, None]
    want = tsallis_log(x, p) - c * power_log(x, p)
    assert np.array_equal(scalars.entropy_drift(x, p, c), want)
    assert np.array_equal(scalars.entropy_drift(x, p, 0.5), tsallis_log(x, p) - 0.5 * power_log(x, p))
    with pytest.raises(DomainError):
        scalars.entropy_drift(np.array([2.0, 0.0]), p, 0.5)


# x over [1e-3, 1e3] on one axis, weights in (0, 1], small ones included, on the other
_GRID_X = np.geomspace(1e-3, 1e3, 2001)
_GRID_P = np.concatenate([np.geomspace(1e-6, 1e-2, 9), np.linspace(0.01, 1.0, 100)])[:, None]


def test_geom_to_harm_ratio_is_the_geometric_over_the_harmonic_mean():
    got = scalars.geom_to_harm_ratio(_GRID_X, _GRID_P)
    assert np.array_equal(got, power_rep(_GRID_X, _GRID_P) / harm_rep(_GRID_X, _GRID_P))
    closed = _GRID_X ** (_GRID_P - 1.0) * ((1.0 - _GRID_P) * _GRID_X + _GRID_P)
    assert np.all(np.abs(got - closed) <= 8 * np.finfo(float).eps * closed)
    assert np.all(got >= 1.0)  # the weighted AM-GM-HM inequality
    assert scalars.geom_to_harm_ratio(4.0, 0.5) == pytest.approx(1.25, rel=1e-15)
    assert scalars.geom_to_harm_ratio(0.25, 0.3) == pytest.approx(0.25 ** -0.7 * 0.475, rel=1e-15)


def test_mid_gap_excess_is_nonnegative_from_one_up():
    # its docstring's claim: the midpoint gap exceeds the half gap for x >= 1
    x = np.geomspace(1.0, 1e3, 2001)
    p = np.linspace(-1.0, 1.0, 201)[:, None]
    assert np.all(scalars.mid_gap_excess(x, p) >= 0.0)


def test_harm_secant_is_the_harmonic_mean_less_one_per_weight():
    # (x - 1) / ((1-p) x + p) == (harm_rep - 1) / p; the subtraction cancels
    # near x = 1, so the bound is a few ulps of max(1, harm_rep), over p
    got = scalars.harm_secant(_GRID_X, _GRID_P)
    h = harm_rep(_GRID_X, _GRID_P)
    assert np.all(np.abs(got - (h - 1.0) / _GRID_P) <= 4 * np.finfo(float).eps * np.maximum(1.0, h) / _GRID_P)


@pytest.mark.parametrize(
    "fn, p, match",
    [
        (scalars.tsallis_end_slope, 1.0, "p = 1"),
        (scalars.mean_gap_scaled, 0.0, "p in {0, 1}"),
        (scalars.mean_gap_scaled, 1.0, "p in {0, 1}"),
        (scalars.geom_harm_gap_rate, 0.0, "p = 0"),
    ],
)
def test_a_normalized_twin_is_a_domain_error_at_its_singular_weight(fn, p, match):
    with pytest.raises(DomainError, match=re.escape(match)):
        fn(2.0, p)


def test_frozen_entropy_chain_values():
    x, p = 4.0, 0.5
    lower = power_log(x, p / 2.0)
    mid = tsallis_log(x, p)
    upper = avg_power_log(x, p)
    assert lower == pytest.approx(CHAIN3_AT_HALF_4[0], abs=1e-12)
    assert mid == pytest.approx(CHAIN3_AT_HALF_4[1], abs=1e-12)
    assert upper == pytest.approx(CHAIN3_AT_HALF_4[2], abs=1e-12)
    assert lower <= mid <= upper


def test_frozen_gap_chain_values():
    x, p = 2.5, 0.5
    vals = (
        scalars.tsallis_half_gap(x, p),
        scalars.tsallis_mid_gap(x, p),
        scalars.tsallis_end_slope(x, p),
        scalars.tsallis_half_gap(x, p) + 0.25 * (x - 1.0) ** 2,
    )
    for got, want in zip(vals, GAP4_AT_HALF_25):
        assert got == pytest.approx(want, abs=1e-12)
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]


def test_frozen_limit_chain_values():
    # p -> 0 members of the gap chain, evaluated in closed form at x = 2.5
    x = 2.5
    m = (x + 1.0) / 2.0
    vals = (
        0.5 * (math.log(x) - (1.0 - 1.0 / x)),
        4.0 * (math.log(m) - (1.0 - 1.0 / m)),
        (x - 1.0) - math.log(x),
        0.5 * (math.log(x) - (1.0 - 1.0 / x)) + 0.25 * (x - 1.0) ** 2,
    )
    for got, want in zip(vals, LIMIT_CHAIN_AT_25):
        assert got == pytest.approx(want, abs=1e-12)


@given(x=POS_X, p=UNIT_P)
def test_tsallis_matches_integral_of_power_log(x, p):
    got, _ = quad(lambda s: power_log(x, p * s), 0.0, 1.0)
    assert got == pytest.approx(tsallis_log(x, p), rel=1e-9, abs=1e-11)


@given(x=POS_X)
def test_tsallis_monotone_in_p(x):
    ps = np.linspace(-1.0, 1.0, 21)
    vals = [tsallis_log(x, p) if abs(p) > 1e-9 else math.log(x) for p in ps]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12 * max(1.0, np.max(np.abs(vals))))


@given(x=POS_X, p=st.floats(min_value=0.0, max_value=1.0))
def test_mean_order_pointwise(x, p):
    assert harm_rep(x, p) <= power_rep(x, p) + 1e-12
    assert power_rep(x, p) <= arith_rep(x, p) + 1e-12


@given(p=st.floats(min_value=1e-3, max_value=1.0), x=POS_X)
def test_mean_gap_nonpositive(p, x):
    # (x^p - 1)/p <= x - 1: the chord dominates the power curve
    assert mean_gap(x, p) <= 1e-12 * max(1.0, x)


def test_probe_23i_reproduces_frozen_values():
    vals, spec, ok = run_probe("2.3i")
    assert ok
    assert vals[0] == pytest.approx(0.071123, abs=1e-5)
    assert vals[1] == pytest.approx(-0.023104, abs=1e-5)


def test_probe_23ii_reproduces_frozen_values():
    vals, spec, ok = run_probe("2.3ii")
    assert ok
    assert vals[0] == pytest.approx(0.166458, abs=1e-5)
    assert vals[1] == pytest.approx(-0.0416177, abs=1e-5)


def test_probe_25_reproduces_frozen_values():
    vals, spec, ok = run_probe("2.5")
    assert ok
    expected = (0.00118777, -0.0118756, -0.890458, 0.795489)
    for got, want in zip(vals, expected):
        assert got == pytest.approx(want, abs=1e-5)


def test_each_probe_evaluates_the_function_its_sign_claim_sweeps():
    # one declaration per crossing: the probes and the sign tables read the
    # same four named differences, so each probe value is its sign claim's
    # function at the probe's point, bit for bit, and the point lies on the
    # claim's sweep
    claims = {claim.fn: claim for claim in SIGN_CLAIMS.values()}
    assert set(claims) == {lower_gap, upper_gap, scalars.entropy_lower_gap, scalars.entropy_upper_gap}
    assert {fn for spec in PROBES.values() for fn, _, _ in spec.points} == set(claims)
    for probe_id, spec in PROBES.items():
        vals, _, _ = run_probe(probe_id)
        assert len(vals) == len(spec.labels) == len(spec.expected)
        for value, (fn, x, p) in zip(vals, spec.points):
            claim = claims[fn]
            assert value.hex() == float(claim.fn(x, p)).hex(), (probe_id, x, p)
            assert np.min(claim.x) <= x <= np.max(claim.x), (probe_id, claim.claim_id)
            assert np.min(claim.p) <= p <= np.max(claim.p), (probe_id, claim.claim_id)


def test_the_entropy_crossings_are_the_differences_of_their_members():
    x, p = 3.0, np.linspace(0.05, 0.95, 7)
    assert np.array_equal(scalars.entropy_lower_gap(x, p), power_log(x, p / 2.0) - hh_lower(x, p))
    assert np.array_equal(scalars.entropy_upper_gap(x, p), hh_upper(x, p) - avg_power_log(x, p))


def test_probe_unknown_id():
    with pytest.raises(InvalidInput):
        run_probe("9.9")


@pytest.mark.parametrize(
    "lookup, table, what",
    [
        (run_probe, PROBES, "probe id"),
        (verify_scalar_chain, CHAINS, "chain id"),
        (sign_table, SIGN_CLAIMS, "sign claim"),
        (lambda key: scalars.grid_rows(key, [1.0]), scalars.REGISTRY, "scalar fn"),
    ],
    ids=["probe", "chain", "sign", "fn"],
)
@pytest.mark.parametrize("key", ["nope", 2])
def test_each_registry_lookup_names_its_known_entries(lookup, table, what, key):
    with pytest.raises(InvalidInput) as err:
        lookup(key)
    assert str(err.value) == f"unknown {what} {key!r}; known: {sorted(table)}"


def test_probe_signs_certify_no_ordering():
    # each probe family shows both signs, so neither side dominates
    for pid in ("2.3i", "2.3ii"):
        vals, _, _ = run_probe(pid)
        assert min(vals) < 0.0 < max(vals)
    vals, _, _ = run_probe("2.5")
    assert min(vals[:2]) < 0.0 < max(vals[:2])
    assert min(vals[2:]) < 0.0 < max(vals[2:])


def test_probe_upper_form_differs_from_exact_bound():
    # the probe's upper expression reproduces the frozen spot-values but is
    # not a bound; the exact form never dips below the entropy
    assert quad_upper_probe(2.5, 0.5) < tsallis_log(2.5, 0.5) < quad_upper(2.5, 0.5)


# one chain per catalog declaration: its twins on the grid of its region
CHAIN_POINTS = {
    "means_order": 16160,
    "H2": 16000,
    "gap_rate_monotone": 30400,
    "TA": 12000,
    "entropy_bounds": 12000,
    "entropy_bounds_rev": 12000,
    "T1R": 12000,
    "T1R_rev": 12000,
    "gap_chain": 11880,
    "curvature_bounds": 12000,
    "C1": 10000,
    "M1.i": 22800,
    "M1.ii": 22800,
    "M1.iii": 22800,
    "M1.iv": 22800,
    "M2.i": 22800,
    "M2.ii": 22800,
    "M2.iii": 22800,
    "M2.iv": 22800,
    "M3.a1": 91200,
    "M3.a2": 91200,
    "M3.b1": 68400,
    "M3.b2": 68400,
    "M3.c": 121600,
    "M3.d1": 91200,
    "M3.d2": 91200,
    "M3.e1": 114000,
    "M3.e2": 114000,
    "W1": 30400,
    "W2": 20520,
    "W2_rev": 20520,
    "W3": 22800,
    "W4.i": 22800,
    "W4.ii": 25200,
}


def test_chains_are_the_catalog_chains():
    assert sorted(CHAINS) == sorted(CHAIN_POINTS)


def test_every_case_is_covered_by_exactly_one_chain():
    # a chain covers a case when it checks the case's two terms, adjacent and
    # in order, on the case's own region
    for case in catalog_with_duals():
        covering = [
            chain_id
            for chain_id, spec in CHAINS.items()
            if spec.region is case.hypothesis
            and (case.lhs.name, case.rhs.name) in zip((m.name for m in spec.members), (m.name for m in spec.members[1:]))
        ]
        assert len(covering) == 1, (case.id, covering)


def _kept(a, params: Params, rows) -> np.ndarray:
    """The grid array ``a`` at the grid's rows (where ``rows`` is true, or
    all of them when it is None), in row-major order."""
    shape = np.broadcast_shapes(*(np.shape(f) for f in (params.p, params.q, params.c, rows) if f is not None))
    a = np.broadcast_to(a, shape)
    return a.reshape(-1) if rows is None else a[np.broadcast_to(rows, shape)]


def test_ordered_grids_leave_out_the_diagonal():
    # at p == q the two members of an ordered chain are the same twin, so such
    # a row would check an identity and read a worst violation of exactly 0
    regions = {id(c.hypothesis): c.hypothesis for c in catalog_with_duals() if c.hypothesis.ordered}
    assert len(regions) == 21
    for region in regions.values():
        params, _, rows = region.grid()
        p, q = (_kept(a, params, rows) for a in (params.p, params.q))
        assert p.size and (p < q).all(), region.text


def test_grid_shares_its_x_row_when_no_edge_moves():
    # fixed edges: one geometric x row that every row shares
    params, xs, rows = R_U1_PUNIT.grid()
    assert params.p.shape == (100, 1, 1) and params.q is params.c is rows is None
    assert xs.shape == (1, 1, 1, 120)
    np.testing.assert_array_equal(xs[0, 0, 0], np.geomspace(1.0 + 1e-3, 1e3, 120))
    # ordered, with a c box as well: p down, q across, then c, masked to p < q
    params, xs, rows = R_M3_A1.grid()
    assert params.p.shape == (20, 1, 1) and params.q.shape == (1, 20, 1) and params.c.shape == (1, 1, 4)
    np.testing.assert_array_equal(params.p[:, 0, 0], params.q[0, :, 0])
    np.testing.assert_array_equal(rows, params.p < params.q)
    assert rows.shape == (20, 20, 1) and np.count_nonzero(rows) == 190
    assert xs.shape == (1, 1, 1, 120)
    # a moving edge: the same axes, x on the axes the edge reads (q and c),
    # each row its own range, as the row's own geomspace call; the mask also
    # leaves out the rows whose edges cross
    params, xs, rows = R_M3_B1.grid()
    assert params.p.shape == (20, 1, 1) and params.q.shape == (1, 20, 1) and params.c.shape == (1, 1, 4)
    assert xs.shape == (1, 20, 4, 120) and rows.shape == (20, 20, 4)
    np.testing.assert_array_equal(rows, (params.p < params.q) & (xs[..., 0] < xs[..., -1]))
    assert np.count_nonzero(rows) == 570
    p, q, c = (_kept(a, params, rows) for a in (params.p, params.q, params.c))
    for p, q, c, x in zip(p[::97], q[::97], c[::97], np.broadcast_to(xs, (*rows.shape, 120))[rows][::97]):
        assert p < q
        hi = min(math.exp(min((1.0 - 2.0 * c) / (c * q), 700.0)), 1e3)
        np.testing.assert_array_equal(x, np.geomspace(1.0 + 1e-3, hi, 120))


@pytest.mark.parametrize("chain_id", sorted(CHAIN_POINTS))
def test_chain_grid_keeps_its_points(chain_id):
    assert verify_scalar_chain(chain_id).points_checked == CHAIN_POINTS[chain_id]


@pytest.mark.parametrize("chain_id", sorted(CHAINS))
def test_chain_grids_lie_in_their_regions(chain_id):
    # the check filters no row, so a grid row outside its region is a bug
    spec = CHAINS[chain_id]
    params, _, rows = spec.region.grid()
    assert np.all(_kept(spec.region.admits(params), params, rows)), chain_id


@pytest.mark.parametrize("chain_id", sorted(CHAINS))
def test_chain_holds_on_dense_grid(chain_id):
    res = verify_scalar_chain(chain_id)
    assert res.points_checked >= 10_000
    assert res.worst_violation >= -1e-12, res


def test_stacks_keep_the_row_at_a_time_results(monkeypatch):
    stacked = {chain_id: verify_scalar_chain(chain_id) for chain_id in CHAINS}
    monkeypatch.setattr(scalars, "STACK_POINTS", 1)  # one kept row per block
    for chain_id in CHAINS:
        assert verify_scalar_chain(chain_id) == stacked[chain_id]


def _flat_result(chain_id: str) -> ChainResult:
    """The chain's result from its grid's kept rows materialized flat, in
    row-major order, and evaluated one row at a time: the row's parameters
    as (1, 1) columns, its x as a (1, m) row."""
    spec = CHAINS[chain_id]
    params, xs, rows = spec.region.grid()
    names = [k for k in ("p", "q", "c") if getattr(params, k) is not None]
    *cols, xs = np.broadcast_arrays(*(getattr(params, k)[..., None] for k in names), xs)
    keep = ... if rows is None else np.broadcast_to(rows, xs.shape[:-1])
    cols = [col[..., 0][keep].reshape(-1) for col in cols]
    xs = xs[keep].reshape(-1, xs.shape[-1])
    worst, worst_point = np.inf, ()
    for r, x in enumerate(xs[:, None]):
        pr = Params(**{k: col[r : r + 1, None] for k, col in zip(names, cols)})
        vals = [t.f(x, pr) for t in spec.members]
        for lo, hi in zip(vals[:-1], vals[1:]):
            diff = np.broadcast_to(hi - lo, x.shape)
            j = int(np.argmin(diff))
            if not (np.isnan(worst) or diff.flat[j] >= worst):
                worst = float(diff.flat[j])
                worst_point = (*(float(col[r]) for col in cols), float(x[0, j]))
    return ChainResult(chain_id, worst, xs.size, worst_point)


@pytest.mark.parametrize("chain_id", sorted(CHAINS))
def test_axes_evaluation_is_the_flat_evaluation(chain_id):
    # the grid's axes change how often a twin's sub-expressions are
    # evaluated, not a bit of any result
    assert verify_scalar_chain(chain_id) == _flat_result(chain_id)


def _twin_elements(monkeypatch, chain_id: str) -> int:
    """The elements the chain's member twins return while it is verified."""
    sizes = []

    def counted(f):
        def twin(x, pr):
            out = f(x, pr)
            sizes.append(np.size(out))
            return out

        return twin

    spec = CHAINS[chain_id]
    members = tuple(replace(t, f=counted(t.f)) for t in spec.members)
    monkeypatch.setitem(CHAINS, chain_id, replace(spec, members=members))
    verify_scalar_chain(chain_id)
    return sum(sizes)


def test_each_twin_is_evaluated_once_per_weight_value(monkeypatch):
    # on the (p, q) square each member reads one weight, so its twin is
    # evaluated once per value of that weight, not once per pair p < q
    params, xs, _ = CHAINS["gap_rate_monotone"].region.grid()
    P, Q, m = len(params.p), params.q.shape[1], xs.shape[-1]
    assert (P + Q) * m == _twin_elements(monkeypatch, "gap_rate_monotone") == 6_400
    # M3.c's twins are T[r] - c S[r]: once per value of r, times C m
    params, xs, _ = CHAINS["M3.c"].region.grid()
    P, Q, C, m = len(params.p), params.q.shape[1], params.c.shape[2], xs.shape[-1]
    assert C > 1 and (P + Q) * C * m == _twin_elements(monkeypatch, "M3.c") == 25_600
    # a moving edge: each of the two members once per kept row
    params, xs, rows = CHAINS["M3.b1"].region.grid()
    assert 2 * np.count_nonzero(rows) * xs.shape[-1] == _twin_elements(monkeypatch, "M3.b1") == 136_800


WIDENED = {
    # the v edge exp((1-2c)/(c q)) with its exponent doubled
    "M3.b1": replace(R_M3_B1, v_hi=ExpEdge("2 (1-2c)/(c q)", lambda pr: 2.0 * (1.0 - 2.0 * pr.c) / (pr.c * pr.q))),
    # the p box (0, 1/2] widened to (0, 1]
    "W4.i": replace(R_W4_I, p=Box(0.0, 1.0, lo_open=True)),
}


@pytest.mark.parametrize("chain_id", sorted(WIDENED))
def test_chain_fails_on_a_widened_region(monkeypatch, chain_id):
    wide = WIDENED[chain_id]
    monkeypatch.setitem(CHAINS, chain_id, replace(CHAINS[chain_id], region=wide))
    res = verify_scalar_chain(chain_id)
    assert res.worst_violation < -1.0, res


def _custom_grid(monkeypatch, params, xs, rows=None, **fields):
    """Install the chain means_order on the grid ``params``, ``xs`` and
    ``rows`` (a stand-in region: any object whose grid() returns a Params,
    an x array and a mask or None), with any other ChainSpec ``fields``
    replaced."""
    region = SimpleNamespace(grid=lambda: (params, np.array(xs), rows))
    spec = replace(CHAINS["means_order"], region=region, **fields)
    monkeypatch.setitem(CHAINS, "means_order", spec)


def test_chain_nan_difference_is_the_worst(monkeypatch):
    spec = CHAINS["means_order"]
    # NaN at x = 2 in the first row, a difference of about -1e9 at x = 5 in the second
    nan_at_two = lambda x, pr: np.where(x == 2.0, np.nan, np.where(x == 5.0, -1e9, arith_rep(x, pr.p)))
    _custom_grid(monkeypatch, Params(p=np.array([[[0.5]], [[0.25]]])), [[[[1.0, 2.0, 4.0]]], [[[3.0, 5.0, 6.0]]]],
                 members=spec.members[:2] + (Term("nan", None, nan_at_two),))
    monkeypatch.setattr(scalars, "STACK_POINTS", 3)  # one row per block
    # the more negative finite value of the later block must not hide the NaN
    res = verify_scalar_chain("means_order")
    assert math.isnan(res.worst_violation)
    assert res.worst_point == (0.5, 2.0)
    assert res.points_checked == 6


def test_chain_checks_only_the_rows_its_mask_keeps(monkeypatch):
    # a shared x row and a mask: the masked-out p = 0.25 row reads NaN, which
    # the check must not see; the kept row's difference of about -1e9 it must
    spec = CHAINS["means_order"]
    twin = lambda x, pr: np.where(pr.p == 0.25, np.nan, np.where(x == 5.0, -1e9, arith_rep(x, pr.p)))
    _custom_grid(monkeypatch, Params(p=np.array([[[0.5]], [[0.25]]])), [[[[1.0, 5.0, 6.0]]]],
                 rows=np.array([[[True]], [[False]]]), members=spec.members[:2] + (Term("nan", None, twin),))
    res = verify_scalar_chain("means_order")
    assert res.worst_violation < -1e8 and res.worst_point == (0.5, 5.0)
    assert res.points_checked == 3


def test_chain_unknown_id():
    with pytest.raises(InvalidInput):
        verify_scalar_chain("nope")


def test_chain_empty_admissible_grid(monkeypatch):
    _custom_grid(monkeypatch, Params(p=np.empty((0, 1, 1))), np.empty((0, 1, 1, 120)))
    with pytest.raises(HypothesisError):
        verify_scalar_chain("means_order")


def test_crossed_fixed_edges_leave_the_grid_empty(monkeypatch):
    # v <= 1/2 under u >= 1: no row has a point, so there is nothing to check
    # (a descending x range outside the region is no row of the grid)
    spec = CHAINS["TA"]
    assert spec.region is R_U1_PUNIT
    monkeypatch.setitem(CHAINS, "TA", replace(spec, region=replace(R_U1_PUNIT, v_hi=0.5)))
    with pytest.raises(HypothesisError, match="has no point"):
        verify_scalar_chain("TA")


@pytest.mark.parametrize("chain_id", ["M3.b1", "M3.e1", "T1R", "C1"])
def test_a_flat_stand_in_grid_gives_the_chain_result(monkeypatch, chain_id):
    # the stand-in form of a custom grid: the kept rows materialized flat, in
    # row-major order, as (G, 1, 1) fields with their own (G, 1, 1, m) x and
    # no mask, on a moving edge (M3.b1), fixed edges with c (M3.e1), fixed
    # edges with p only (T1R) and no weight (C1)
    spec = CHAINS[chain_id]
    params, xs, rows = spec.region.grid()
    names = [k for k in ("p", "q", "c") if getattr(params, k) is not None]
    *cols, xs = np.broadcast_arrays(*(getattr(params, k)[..., None] for k in names), xs)
    keep = ... if rows is None else np.broadcast_to(rows, xs.shape[:-1])
    flat = Params(**{k: col[..., 0][keep].reshape(-1, 1, 1) for k, col in zip(names, cols)})
    flat_xs = xs[keep].reshape(-1, 1, 1, xs.shape[-1])
    expected = verify_scalar_chain(chain_id)
    region = SimpleNamespace(grid=lambda: (flat, flat_xs, None))
    monkeypatch.setitem(CHAINS, chain_id, replace(spec, region=region))
    assert verify_scalar_chain(chain_id) == expected


def test_sign_claims_are_the_mixed_sweeps():
    # the in-region sign facts are the derived chains; what is left are the
    # dense sweeps through the frozen probes, where neither side dominates
    assert sorted(SIGN_CLAIMS) == [
        "entropy_lower_members_mixed",
        "entropy_upper_members_mixed",
        "lower_gap_mixed",
        "upper_gap_mixed",
    ]


@pytest.mark.parametrize("claim_id", sorted(SIGN_CLAIMS))
def test_sign_claims_classify_as_stated(claim_id):
    rep = sign_table(claim_id)
    assert rep.points >= 10_000
    assert rep.classification == SIGN_CLAIMS[claim_id].expected, rep


def test_sign_table_reports_a_value_that_is_not_finite(monkeypatch):
    # a NaN in a sweep was dropped, so it could never be reported
    claim = SIGN_CLAIMS["lower_gap_mixed"]
    at = float(claim.x[4321])
    nan_at = lambda x, p: np.where(x >= at, np.nan, lower_gap(x, p))
    monkeypatch.setitem(SIGN_CLAIMS, claim.claim_id, replace(claim, fn=nan_at))
    with pytest.raises(DomainError, match=rf"'lower_gap_mixed' .* x = {at!r}, p = 0.5"):
        sign_table("lower_gap_mixed")


@pytest.mark.parametrize(
    "fn, expected",
    [
        (power_rep, "nonnegative"),  # x^{1/2} >= 1 on [1, 3]
        (mean_gap, "nonpositive"),  # 2(sqrt(x) - 1) - (x - 1) = -(sqrt(x) - 1)^2
        (lambda x, p: power_rep(x, p) - 1.0 - 1e-11, "mixed"),  # a dip inside the slack band
    ],
    ids=["nonnegative", "nonpositive", "dip"],
)
def test_sign_table_classifies_a_claim_that_stopped_crossing(monkeypatch, fn, expected):
    # no registered claim reaches these outcomes; they are what would flag a
    # *_mixed claim whose sweep no longer changes sign
    claim = replace(SIGN_CLAIMS["lower_gap_mixed"], fn=fn)
    monkeypatch.setitem(SIGN_CLAIMS, claim.claim_id, claim)
    rep = sign_table(claim.claim_id)
    assert rep.classification == expected and rep.points == claim.x.size
    if expected == "mixed":  # below the slack, but no witness of a negative sign
        assert -scalars.SIGN_WITNESS < rep.min_value < -scalars.SIGN_SLACK < scalars.SIGN_WITNESS < rep.max_value


def test_sign_table_refuses_a_sweep_of_fewer_than_1000_points(monkeypatch):
    claim = replace(SIGN_CLAIMS["lower_gap_mixed"], x=SIGN_CLAIMS["lower_gap_mixed"].x[:999])
    monkeypatch.setitem(SIGN_CLAIMS, claim.claim_id, claim)
    with pytest.raises(InvalidInput, match="'lower_gap_mixed' sampled only 999 points"):
        sign_table(claim.claim_id)


def test_sign_table_unknown_id():
    with pytest.raises(InvalidInput):
        sign_table("nope")


def test_hh_bounds_hold_under_their_hypotheses():
    # above 1 the midpoint form undershoots; the trapezoid form overshoots
    xs = np.geomspace(1.0 + 1e-6, 100.0, 400)
    for p in (0.2, 0.5, 0.9):
        assert np.all(hh_lower(xs, p) <= tsallis_log(xs, p) + 1e-12)
        assert np.all(tsallis_log(xs, p) <= hh_upper(xs, p) + 1e-12)


def test_quad_bounds_tighter_than_hh_where_positive():
    # at x = 1.5, p = 1/2 the quadratic-correction bounds win on both sides
    x, p = 1.5, 0.5
    assert lower_gap(x, p) > 0.0
    assert upper_gap(x, p) < 0.0
    assert quad_lower(x, p) <= tsallis_log(x, p) <= quad_upper(x, p)


def test_grid_rows_and_csv(tmp_path):
    rows = scalars.grid_rows("tsallis", [1.0, 2.0, 4.0], p=0.5)
    assert [r["x"] for r in rows] == [1.0, 2.0, 4.0]
    assert rows[2]["value"] == pytest.approx(2.0, abs=1e-12)
    out = tmp_path / "vals.csv"
    scalars.export_rows_csv(rows, str(out))
    text = out.read_text().splitlines()
    assert text[0] == "fn_id,p,c,x,value"
    assert len(text) == 4


def test_grid_rows_missing_param():
    with pytest.raises(InvalidInput):
        scalars.grid_rows("tsallis", [1.0])


@pytest.mark.parametrize(
    "xs, params, match",
    [
        # a string weight raised a bare TypeError from np.isfinite
        ([2.0], {"p": "0.5"}, "parameter p must be an integer or a float"),
        # no registered function takes a second weight q
        ([2.0], {"p": 0.5, "q": np.array([0.5, 0.2])}, r"unknown parameters \['q'\]"),
        ([2.0], {"p": 0.5, "c": np.array([0.5, 0.2])}, "parameter c must be an integer or a float"),
        ([2.0], {"p": True}, "parameter p must be an integer or a float"),
        # an unknown parameter was accepted without a word
        ([2.0], {"p": 0.5, "z": 1.0}, r"unknown parameters \['z'\]"),
        # a bool point was evaluated as x = 1.0
        ([True], {"p": 0.5}, "point x must be an integer or a float"),
        ([2.0, np.bool_(True)], {"p": 0.5}, "point x must be an integer or a float"),
        (["2"], {"p": 0.5}, "point x must be an integer or a float"),
    ],
    ids=["p-str", "q-array", "c-array", "p-bool", "unknown-z", "x-bool", "x-numpy-bool", "x-str"],
)
def test_grid_rows_rejects_what_is_not_a_real_number_or_a_known_parameter(xs, params, match):
    with pytest.raises(InvalidInput, match=match):
        scalars.grid_rows("tsallis", xs, **params)


def test_grid_rows_takes_integers_and_numpy_numbers():
    rows = scalars.grid_rows("tsallis", [np.float32(2.0), 4, np.int64(1)], p=np.float64(0.5), c=1)
    assert [(r["x"], r["p"], r["c"]) for r in rows] == [(2.0, 0.5, ""), (4.0, 0.5, ""), (1.0, 0.5, "")]
    assert rows[1]["value"] == pytest.approx(2.0, abs=1e-12)


def test_harm_drop_rate_takes_one_weight_per_matrix():
    # an array of weights raised a bare ValueError from `if p == 0.0`, where
    # the sibling rates return one value per weight
    p = np.array([0.5, 0.2])
    got = scalars.harm_drop_rate(2.0, p)
    assert got.tolist() == [scalars.harm_drop_rate(2.0, 0.5), scalars.harm_drop_rate(2.0, 0.2)]
    with pytest.raises(DomainError, match="p = 0"):
        scalars.harm_drop_rate(2.0, np.array([0.5, 0.0]))


def test_probe_csv_contains_expected_rows(tmp_path):
    out = tmp_path / "probe.csv"
    scalars.export_rows_csv(scalars.probe_rows("2.5"), str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 8  # header + (value, expected) per point
    assert any("expected" in ln for ln in lines[1:])


def test_registry_entries_are_callable():
    for fn in scalars.REGISTRY.values():
        args = {"p": 0.5, "c": 0.25}
        vals = fn(1.5, *[args[k] for k in list(inspect.signature(fn).parameters)[1:]])
        assert np.all(np.isfinite(vals))
