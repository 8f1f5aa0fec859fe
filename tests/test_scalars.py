import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad

from oel.errors import DomainError, HypothesisError, InvalidInput
from oel import scalars
from oel.catalog import R_M3_B1, R_W4_I, Box, ExpEdge, Params, catalog_with_duals
from oel.scalars import (
    CHAINS,
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


def test_probe_unknown_id():
    with pytest.raises(InvalidInput):
        run_probe("9.9")


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
            if spec.grid.__self__ == case.hypothesis
            and (case.lhs.name, case.rhs.name) in zip((n for n, _ in spec.members), (n for n, _ in spec.members[1:]))
        ]
        assert len(covering) == 1, (case.id, covering)


def test_ordered_grids_leave_out_the_diagonal():
    # at p == q the two members of an ordered chain are the same twin, so such
    # a row would check an identity and read a worst violation of exactly 0
    regions = {id(c.hypothesis): c.hypothesis for c in catalog_with_duals() if c.hypothesis.ordered}
    assert len(regions) == 21
    for region in regions.values():
        rows = [params for params, _ in region.grid()]
        assert rows and all(params[0] < params[1] for params in rows), region.text


@pytest.mark.parametrize("chain_id", sorted(CHAIN_POINTS))
def test_chain_grid_keeps_its_points(chain_id):
    res = verify_scalar_chain(chain_id)
    assert (res.points_checked, res.points_filtered) == (CHAIN_POINTS[chain_id], 0)


@pytest.mark.parametrize("chain_id", sorted(CHAINS))
def test_chain_holds_on_dense_grid(chain_id):
    res = verify_scalar_chain(chain_id)
    assert res.points_checked >= 10_000
    assert res.worst_violation >= -1e-12, res


def test_stacks_keep_the_row_at_a_time_results(monkeypatch):
    stacked = {chain_id: verify_scalar_chain(chain_id) for chain_id in CHAINS}
    monkeypatch.setattr(scalars, "STACK_POINTS", 1)  # one row per stack
    for chain_id in CHAINS:
        assert verify_scalar_chain(chain_id) == stacked[chain_id]


WIDENED = {
    # the v edge exp((1-2c)/(c q)) with its exponent doubled
    "M3.b1": replace(R_M3_B1, v_hi=ExpEdge("2 (1-2c)/(c q)", lambda pr: 2.0 * (1.0 - 2.0 * pr.c) / (pr.c * pr.q))),
    # the p box (0, 1/2] widened to (0, 1]
    "W4.i": replace(R_W4_I, p=Box(0.0, 1.0, lo_open=True)),
}


@pytest.mark.parametrize("chain_id", sorted(WIDENED))
def test_chain_fails_on_a_widened_region(monkeypatch, chain_id):
    wide = WIDENED[chain_id]
    spec = replace(CHAINS[chain_id], admissible=lambda params: wide.admits(Params(*params)))
    monkeypatch.setitem(CHAINS, chain_id, spec)
    res = verify_scalar_chain(chain_id, grid=wide.grid())
    assert res.points_filtered == 0
    assert res.worst_violation < -1.0, res


def test_chain_nan_difference_is_the_worst(monkeypatch):
    spec = CHAINS["means_order"]
    nan_at_two = lambda x, p: np.where(x == 2.0, np.nan, arith_rep(x, p))
    monkeypatch.setitem(CHAINS, "means_order", replace(spec, members=spec.members[:2] + (("nan", nan_at_two),)))
    # the later stack (rows of another length) must not hide the NaN
    grid = [((0.5,), np.array([1.0, 2.0, 4.0])), ((0.25,), np.array([3.0, 4.0]))]
    res = verify_scalar_chain("means_order", grid=grid)
    assert math.isnan(res.worst_violation)
    assert res.worst_point == (0.5, 2.0)


def test_chain_unknown_id():
    with pytest.raises(InvalidInput):
        verify_scalar_chain("nope")


def test_chain_empty_admissible_grid():
    with pytest.raises(HypothesisError):
        verify_scalar_chain("means_order", grid=[((2.0,), np.array([1.0]))])


def test_chain_custom_grid_filters_points():
    grid = [((0.5,), np.array([1.0, 2.0])), ((2.0,), np.array([3.0]))]
    res = verify_scalar_chain("means_order", grid=grid)
    assert res.points_checked == 2
    assert res.points_filtered == 1


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
    assert text[0] == "fn_id,p,q,c,x,value"
    assert len(text) == 4


def test_grid_rows_missing_param():
    with pytest.raises(InvalidInput):
        scalars.grid_rows("tsallis", [1.0])


def test_probe_csv_contains_expected_rows(tmp_path):
    out = tmp_path / "probe.csv"
    scalars.export_probe_csv("2.5", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 8  # header + (value, expected) per point
    assert any("expected" in ln for ln in lines[1:])


def test_registry_entries_are_callable():
    for fn_id, spec in scalars.REGISTRY.items():
        assert spec.fn_id == fn_id
        args = {"p": 0.5, "c": 0.25}
        vals = spec.fn(1.5, *[args[k] for k in spec.params])
        assert np.all(np.isfinite(vals))
