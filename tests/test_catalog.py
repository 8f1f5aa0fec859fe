import collections
import dataclasses

import numpy as np
import pytest

from oel.catalog import (
    HYP_SLACK,
    Box,
    MarginReport,
    Params,
    TrialContext,
    _edge_at,
    catalog,
    catalog_with_duals,
    dual,
    evaluate,
    find_cases,
)
from oel.errors import HypothesisError, NoDual
from oel.harness import run_suite
from oel.means import OperatorPair
from oel.sampler import (
    PLAN_WORDS,
    SamplerConfig,
    commuting_pair,
    commuting_spectra,
    generator,
    sandwich_pair,
    sandwich_stack,
    stream_draws,
)
from oel.spd_core import spectral_assemble

# frozen 1x1 oracles: the catalog margins must reduce to these scalar gaps
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


def scalar_pair(x: float) -> OperatorPair:
    return OperatorPair(np.array([[1.0]]), np.array([[x]]))


def by_id(case_id: str):
    matches = [c for c in catalog_with_duals() if c.id == case_id]
    assert len(matches) == 1, case_id
    return matches[0]


def test_catalog_shape():
    cases = catalog()
    assert len(cases) == 43
    assert len(catalog_with_duals()) == 50
    groups = collections.Counter(c.group for c in cases)
    assert len(groups) == 16
    assert groups["T1R"] == 4
    assert groups["T2"] == 3
    assert groups["M3"] == 9
    assert groups["W4"] == 2


def test_case_ids_unique():
    ids = [c.id for c in catalog_with_duals()]
    assert len(ids) == len(set(ids))


def test_find_cases_matches_ids_and_groups():
    assert {c.id for c in find_cases("H1")} == {"H1.1", "H1.2"}
    assert {c.id for c in find_cases("M1")} == {"M1.i", "M1.ii", "M1.iii", "M1.iv"}
    assert len(find_cases("T1R*")) == 8  # four sub-cases plus their duals
    assert {c.id for c in find_cases("*.rev")} == {
        "T1.1.rev",
        "T1.2.rev",
        "T1R.1.rev",
        "T1R.2.rev",
        "T1R.3.rev",
        "T1R.4.rev",
        "W2.1.rev",
    }
    assert find_cases("NOPE") == []


def test_dual_requires_stated_reverse():
    with pytest.raises(NoDual):
        dual(by_id("H1.1"))
    with pytest.raises(NoDual):
        dual(by_id("M3.c"))


def test_dual_swaps_sides_and_hypothesis():
    case = by_id("W2.1")
    rev = dual(case)
    assert rev.id == "W2.1.rev"
    assert rev.lhs is case.rhs
    assert rev.rhs is case.lhs
    assert rev.hypothesis is case.dual_region
    assert rev.dual_region is case.hypothesis
    assert rev.plan == case.dual_region.plan
    assert rev.expected == "reversed-under-dual-hypothesis"
    assert case.expected == "holds"


def test_dual_is_an_involution():
    for case in catalog():
        if case.dual_region is None:
            continue
        assert dual(dual(case)) == case


def _trial(params: Params, i: int) -> Params:
    """Trial i's parameters out of the planner's (k,) arrays, as numbers."""
    return Params(*(None if x is None else float(x[i]) for x in (params.p, params.q, params.c)))


def test_plans_sample_inside_their_hypotheses():
    # whatever a case's planner draws must pass that case's own gate, on the
    # whole stack and trial by trial
    rng = generator(2024)
    for case in catalog_with_duals():
        params, u, v = case.plan(rng.random((200, PLAN_WORDS)))
        assert case.hypothesis.check(u, v, params).all(), case.id
        for i in range(25):
            assert case.hypothesis.check(float(u[i]), float(v[i]), _trial(params, i)), case.id


def test_plans_stay_inside_the_sampling_window():
    # every planner clamps its sandwich edges into [0.2, 4]
    rng = generator(7)
    for case in catalog_with_duals():
        params, u, v = case.plan(rng.random((2000, PLAN_WORDS)))
        ok = (0.2 <= u) & (u <= v) & (v <= 4.0)
        assert ok.all(), (case.id, u[~ok], v[~ok])


def test_plans_pin_a_share_of_draws_to_the_sandwich_edges():
    # a tenth of the draws sit on a stated edge, split evenly when both are stated
    words = generator(3).random((20_000, PLAN_WORDS))
    for case_id, u_share, v_share in (("TA.1", 0.1, 0.0), ("T1.1.rev", 0.0, 0.1), ("M1.iii", 0.05, 0.05)):
        case = by_id(case_id)
        params, u, v = case.plan(words)
        u_lo = case.hypothesis.u_lo
        lo = 0.2 if u_lo is None else np.maximum(_edge_at(u_lo, params), 0.2)
        assert np.mean(u == lo) == pytest.approx(u_share, abs=0.01), case_id
        assert np.mean(v == 1.0) == pytest.approx(v_share, abs=0.01), case_id


def test_box_draw_maps_words_in_order_onto_the_box():
    # word 0 gives the drawn range's low end, words tend to its high end, no
    # word lands within _P_EPS of 0 in a box that straddles it, and the box
    # admits every drawn value
    words = np.concatenate([[0.0], np.sort(generator(17).random(20_000)), [np.nextafter(1.0, 0.0)]])
    boxes = {c.hypothesis.p for c in catalog_with_duals()} | {c.hypothesis.c for c in catalog_with_duals()}
    boxes.discard(None)
    assert len(boxes) == 10
    for box in boxes:
        lo = max(box.lo + 1e-3 if box.lo_open else box.lo, -2.0)
        hi = min(box.hi - 1e-3 if box.hi_open else box.hi, 2.0)
        x = box.draw(words)
        assert x[0] == lo and x[-1] == pytest.approx(hi, abs=1e-12), box
        assert (np.diff(x) >= 0.0).all(), box
        assert box.admits(x).all(), box
        if box.lo < 0.0 < box.hi:
            assert (np.abs(x) >= 1e-3).all(), box
            assert x[x > 0.0].min() == pytest.approx(1e-3, abs=1e-3) and x[x < 0.0].max() < -1e-3
    assert Box(-1.0, 1.0).draw(np.array([0.25, 0.75])).tolist() == pytest.approx([-0.5005, 0.5005])


def _moved_points(region, u, v, pr):
    """The planner's point moved 1e-8 past each stated edge of the region in
    turn, as (edge, u, v, params).  A sandwich edge so large that the move
    rounds back onto it is left out."""
    moves = []
    if region.u_lo is not None:
        edge = _edge_at(region.u_lo, pr)
        if edge - 1e-8 != edge:
            moves.append(("u", edge - 1e-8, v, pr))
    if region.v_hi is not None:
        edge = _edge_at(region.v_hi, pr)
        if edge + 1e-8 != edge:
            moves.append(("v", u, edge + 1e-8, pr))
    for name, box in (("p", region.p), ("q", region.p if region.ordered else None), ("c", region.c)):
        if box is None:
            continue
        if box.lo > -np.inf:
            moves.append((name, u, v, dataclasses.replace(pr, **{name: box.lo - 1e-8})))
        if box.hi < np.inf:
            moves.append((name, u, v, dataclasses.replace(pr, **{name: box.hi + 1e-8})))
        if box.lo < 0.0 < box.hi:  # a box that straddles 0 excludes it
            moves.append((name, u, v, dataclasses.replace(pr, **{name: 0.0})))
    if region.ordered:
        moves.append(("p", u, v, dataclasses.replace(pr, p=pr.q + 1e-8)))
    return moves


def test_regions_reject_points_moved_past_each_edge():
    regions = {id(c.hypothesis): c.hypothesis for c in catalog_with_duals()}
    assert len(regions) == 29
    rng = generator(11)
    for region in regions.values():
        seen = collections.Counter()
        params, us, vs = region.plan(rng.random((40, PLAN_WORDS)))
        assert region.check(us, vs, params).all(), region.text
        for i in range(40):
            assert region.check(float(us[i]), float(vs[i]), _trial(params, i)), region.text
            for edge, u, v, pr in _moved_points(region, float(us[i]), float(vs[i]), _trial(params, i)):
                seen[edge] += 1
                assert not region.check(u, v, pr), (region.text, edge, u, v, pr)
        stated = {"u": region.u_lo, "v": region.v_hi, "c": region.c, "p": region.p}
        for edge, declared in stated.items():
            assert (declared is None) == (seen[edge] == 0), (region.text, edge)


@pytest.mark.parametrize(
    "case_id, text",
    [
        ("H1.1", "0 <= p <= 1"),
        ("T0.1", "p <= q in [-1, 1] \\ {0}"),
        ("T1.1.rev", "v <= 1, p in [-1, 1] \\ {0}"),
        ("T2.1", "u >= 1.000001, p in [-1, 1) \\ {0}"),
        ("M1.iii", "u >= exp(-1/q), v <= 1, 0 < p <= q <= 1"),
        ("M3.c", "p <= q in [-1, 1] \\ {0}, c < 0"),
        ("M3.d1", "u >= exp((1-2c)/(c q)), v <= 1, 0 < p <= q <= 1, 0.5 <= c"),
        ("W2.1", "v <= 1, 0 < p <= q < 1"),
    ],
)
def test_region_text_is_derived_from_the_declaration(case_id, text):
    assert by_id(case_id).hypothesis.text == text


def test_hypothesis_gate_raises():
    case = by_id("T1.1")  # needs u >= 1
    pair = scalar_pair(0.5)
    with pytest.raises(HypothesisError):
        evaluate(case, pair, Params(p=0.5))


def test_hypothesis_slack_admits_spectral_boundary():
    # u lands a hair below 1 by roundoff; the slack keeps the trial admissible
    case = by_id("T1.1")  # needs u >= 1
    pair = scalar_pair(1.0 - HYP_SLACK / 2.0)
    report = evaluate(case, pair, Params(p=0.5))
    assert report.holds
    assert abs(report.margin) < 1e-9


def test_entropy_chain_margins_reduce_to_scalar_gaps():
    pair = scalar_pair(4.0)
    r1 = evaluate(by_id("T1.1"), pair, Params(p=0.5))
    r2 = evaluate(by_id("T1.2"), pair, Params(p=0.5))
    assert r1.margin == pytest.approx(CHAIN3_AT_HALF_4[1] - CHAIN3_AT_HALF_4[0], abs=1e-12)
    assert r2.margin == pytest.approx(CHAIN3_AT_HALF_4[2] - CHAIN3_AT_HALF_4[1], abs=1e-12)
    assert r1.holds and r2.holds


def test_difference_chain_margins_reduce_to_scalar_gaps():
    pair = scalar_pair(2.5)
    for i in range(3):
        r = evaluate(by_id(f"T2.{i + 1}"), pair, Params(p=0.5))
        assert r.margin == pytest.approx(
            GAP4_AT_HALF_25[i + 1] - GAP4_AT_HALF_25[i], abs=1e-12
        )
        assert r.holds


def test_limit_chain_margins_reduce_to_scalar_gaps():
    pair = scalar_pair(2.5)
    for i in range(3):
        r = evaluate(by_id(f"C1.{i + 1}"), pair, Params())
        assert r.margin == pytest.approx(
            LIMIT_CHAIN_AT_25[i + 1] - LIMIT_CHAIN_AT_25[i], abs=1e-12
        )
        assert r.holds


def test_difference_chain_upper_term_value():
    case = by_id("T2.3")
    ctx = TrialContext(scalar_pair(2.5))
    val = case.rhs.fn(ctx, Params(p=0.5))
    assert val[0, 0] == pytest.approx(GAP4_AT_HALF_25[3], abs=1e-12)


def test_report_carries_trial_identity():
    pair = scalar_pair(3.0)
    r = evaluate(by_id("H2.1"), pair, Params(p=-0.5), seed=77)
    assert isinstance(r, MarginReport)
    assert r.case_id == "H2.1"
    assert r.seed == 77
    assert r.n == 1
    assert r.p == -0.5
    assert r.q is None and r.c is None
    assert r.u == pytest.approx(3.0)
    assert r.v == pytest.approx(3.0)
    assert r.scale >= 1.0


def test_trial_context_caches_derived_pairs():
    ctx = TrialContext(scalar_pair(3.0))
    assert ctx.mid is ctx.mid
    assert ctx.gap is ctx.gap
    assert ctx.mid.B.mat[0, 0] == pytest.approx(2.0)
    assert ctx.gap.B.mat[0, 0] == pytest.approx(2.0)


def test_reversed_case_holds_on_its_own_region():
    # entropy chain flips direction when the contraction sits below 1
    pair = scalar_pair(0.4)
    r = evaluate(by_id("T1.1.rev"), pair, Params(p=0.5))
    assert r.holds
    with pytest.raises(HypothesisError):
        evaluate(by_id("T1.1.rev"), pair.with_second(np.array([[2.0]])), Params(p=0.5))


def test_statements_mention_both_sides():
    for case in catalog_with_duals():
        assert case.statement
        assert case.lhs.name and case.lhs.name in case.statement
        assert case.rhs.name and case.rhs.name in case.statement
        assert case.hypothesis.text in case.statement
        assert case.dual_region is None or case.dual_region.text in case.statement


def _twin_tolerance(params: Params) -> np.ndarray:
    # 1e-12 relative, widened where a term divides by a weight's distance d from
    # 0 or 1 (T2's T[p-1] and (p-1), the W rates): there rounding grows as 1/d
    d = np.ones(np.shape(params.p) if params.p is not None else ())
    for w in (params.p, params.q):
        if w is not None:
            d = np.minimum(d, np.minimum(np.abs(w), np.abs(1.0 - np.asarray(w))))
    return 1e-12 / d.reshape(-1)


def _assert_twin_lift(term, got, expected, params, where):
    err = np.abs(got - expected).max(axis=(-2, -1)).reshape(-1)
    scale = np.maximum(1.0, np.abs(expected).max(axis=(-2, -1))).reshape(-1)
    assert np.all(err <= _twin_tolerance(params) * scale), (term.name, where, err / scale)


def test_every_term_is_the_lift_of_its_scalar_twin():
    # term == A^{1/2} f(C) A^{1/2} for its twin f: on commuting pairs against
    # f applied to the shared eigenbasis, on a pair and on a (k, n, n) stack
    # against f applied to the contraction's spectrum
    rng = generator(5)
    for case in catalog_with_duals():
        for n in (1, 2, 3, 5):
            seeds = rng.integers(1 << 62, size=4).tolist()
            plan_words, pair_words, normals = stream_draws(seeds, n)
            params, u, v = case.plan(plan_words)
            cfg = SamplerConfig(seed=seeds[0], n=n, sandwich=(float(u[0]), float(v[0])))
            pr = _trial(params, 0)
            stacked = Params(*(None if x is None else x.reshape(-1, 1, 1) for x in (params.p, params.q, params.c)))
            q, lam, mu = commuting_spectra(cfg)
            single = sandwich_pair(cfg)
            stack = sandwich_stack(pair_words, normals, u, v)
            for term in (case.lhs, case.rhs):
                got = term.fn(TrialContext(commuting_pair(cfg)), pr)
                expected = spectral_assemble(q, lam * term.f(mu / lam, pr))
                _assert_twin_lift(term, got, expected, pr, (case.id, n, "commuting"))
                got = term.fn(TrialContext(single), pr)
                _assert_twin_lift(term, got, single.transform(lambda t: term.f(t, pr)), pr, (case.id, n, "pair"))
                got = term.fn(TrialContext(stack), stacked)
                expected = stack.transform(lambda t: term.f(t, stacked))
                _assert_twin_lift(term, got, expected, stacked, (case.id, n, "stack"))


def test_curvature_lower_bound_is_tight():
    # T3.1's lower term is the lift of quad_lower, which meets T[p] at u = 1
    res = run_suite(by_id("T3.1"), trials=60, dims=(2, 3), seed=42)
    assert res.failures == 0
    assert res.worst_margin < 1e-9
