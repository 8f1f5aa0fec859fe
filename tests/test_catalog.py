import collections
import dataclasses
import importlib
import inspect
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from oel import harness, means, spd_core
from oel.catalog import (
    HYP_SLACK,
    Box,
    MarginReport,
    Params,
    _edge_at,
    _gap,
    _mid,
    case_index,
    catalog,
    catalog_with_duals,
    check_stack,
    dual,
    evaluate,
    evaluate_trials,
    find_cases,
)
from oel.errors import HypothesisError, InvalidInput, InvalidWeight, NoDual, NumericalBreakdown
from oel.harness import read_reports, run_all, run_suite, write_reports_jsonl
from oel.means import (
    OperatorPair,
    generalized_entropy,
    natural_power_mean,
    relative_operator_entropy,
    tsallis_entropy,
)
from oel.sampler import (
    PLAN_WORDS,
    SamplerConfig,
    commuting_pair,
    commuting_spectra,
    generator,
    pair_from_base,
    sandwich_pair,
    stack_base,
    stream_draws,
)
from oel.scalars import CHAINS, power_log, tsallis_log
from oel.spd_core import ORDER_TOL, loewner_leq, spectral_assemble, symmetrize

catalog_module = importlib.import_module("oel.catalog")  # the package exports a function of this name

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


def test_the_case_table_is_built_once():
    # every lookup reads one table: the same case objects (duals included) on
    # every call, and the index holds those objects
    cases = catalog_with_duals()
    again = catalog_with_duals()
    assert again is not cases and len(again) == len(cases) == 50
    assert all(a is b for a, b in zip(again, cases))
    index = case_index()
    assert index is case_index() and len(index) == len(cases)
    assert all(index[c.id] is c for c in cases)
    assert all(a is b for a, b in zip(find_cases("*"), cases))


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
    # (T2 and C1 on u = 1.001, the edge their chain grids start at)
    cases = (("TA.1", 0.1, 0.0), ("T1.1.rev", 0.0, 0.1), ("M1.iii", 0.05, 0.05), ("T2.1", 0.1, 0.0), ("C1.1", 0.1, 0.0))
    for case_id, u_share, v_share in cases:
        case = by_id(case_id)
        params, u, v = case.plan(words)
        u_lo = case.hypothesis.u_lo
        lo = 0.2 if u_lo is None else np.maximum(_edge_at(u_lo, params), 0.2)
        assert np.mean(u == lo) == pytest.approx(u_share, abs=0.01), case_id
        assert np.mean(v == 1.0) == pytest.approx(v_share, abs=0.01), case_id


@pytest.mark.parametrize("n", [2, 16, 64])
def test_pairs_with_c_on_each_declared_edge_hold(n):
    # C's least eigenvalue exactly on the case's declared lower edge, then
    # its greatest exactly on the declared upper edge, the other end the
    # planner's, at the planner's parameters (an ExpEdge is read there).  A
    # trial whose edge lies outside the planner's window keeps the planner's
    # targets.  No term breaks down and every trial holds (at u = 1 + 1e-6
    # T2.3's and C1.3's nat2(A, B - A) could not be certified)
    seeds = list(range(300, 316))
    plan_words, pair_words, normals = stream_draws(seeds, n)
    base = stack_base(pair_words, normals)
    broken, failed = [], []
    for case in catalog_with_duals():
        params, u, v = case.plan(plan_words)
        for name, edge in (("u", case.hypothesis.u_lo), ("v", case.hypothesis.v_hi)):
            if edge is None:
                continue
            at = np.broadcast_to(_edge_at(edge, params), u.shape)
            on = (catalog_module._WINDOW[0] <= at) & (at <= catalog_module._WINDOW[1])
            assert on.any(), (case.id, name)
            targets = (np.where(on, at, u), v) if name == "u" else (u, np.where(on, at, v))
            pair = pair_from_base(base, *targets)
            assert np.array_equal(getattr(pair, name)[on], at[on]), (case.id, name)
            try:
                _, _, holds = evaluate_trials(case, check_stack(case, pair, params, seeds))
            except NumericalBreakdown as exc:
                broken.append((case.id, name, str(exc)))
                continue
            failed += [(case.id, name, seed) for seed, ok in zip(seeds, holds) if not ok]
    assert broken == [] and failed == []


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
        ("T2.1", "u >= 1.001, p in [-1, 1) \\ {0}"),
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
    # a parameter that a region bounds is outside it when the trial lacks it
    region = catalog_module.R_M3_B1  # p <= q in one box, and c in its own
    for params in (Params(q=0.5, c=-0.5), Params(p=0.2, c=-0.5), Params(p=0.2, q=0.5)):
        assert region.admits(params) is False, params


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


def test_the_limit_chain_is_the_gap_chain_at_p_zero():
    # C1 is T2's chain at p = 0, where T[0] = S: near p = 0 each T2 member,
    # operator value and twin, is within 2 |p| scale of its C1 member and
    # closes in on it linearly in p.  This also checks T2's spectral T[p-1]
    # against C1's solve for A - A B^-1 A
    gap_chain, limit_chain = CHAINS["gap_chain"].members, CHAINS["C1"].members
    xs = np.geomspace(1.001, 4.0, 200)
    for n in (1, 2, 5, 16):
        seeds = list(range(16 * n, 16 * n + 16))
        plan_words, pair_words, normals = stream_draws(seeds, n)
        _, u, v = by_id("C1.1").plan(plan_words)
        assert u.min() >= 1.001
        pair = pair_from_base(stack_base(pair_words, normals), u, v)
        for t2, c1 in zip(gap_chain, limit_chain):
            at_zero, twin_at_zero = c1.fn(pair, Params()), c1.f(xs, Params())
            scale = np.maximum(1.0, np.abs(at_zero).max(axis=(-2, -1)))
            twin_scale = np.maximum(1.0, np.abs(twin_at_zero))
            for sign in (1.0, -1.0):
                dists = []
                for p in (sign * 1e-3, sign * 1e-5):
                    d = (np.abs(t2.fn(pair, Params(p=p)) - at_zero).max(axis=(-2, -1)) / scale).max()
                    dt = (np.abs(t2.f(xs, Params(p=p)) - twin_at_zero) / twin_scale).max()
                    assert d <= 2.0 * abs(p) and dt <= 2.0 * abs(p), (c1.name, n, p, d, dt)
                    dists.append(np.array([d, dt]))
                ratio = dists[0] / dists[1]
                assert np.all((50.0 <= ratio) & (ratio <= 200.0)), (c1.name, n, sign, ratio)


def test_difference_chain_upper_term_value():
    case = by_id("T2.3")
    val = case.rhs.fn(scalar_pair(2.5), Params(p=0.5))
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


@pytest.mark.parametrize("seed", [-1, 2.5, True, 1 << 70])
def test_evaluate_rejects_a_seed_that_is_not_a_word(seed):
    # the report file holds seeds in [0, 2^64) only, so evaluate takes no other
    with pytest.raises(InvalidInput, match=r"trial seed must be an integer in \[0, 2\^64\)"):
        evaluate(by_id("H2.1"), scalar_pair(3.0), Params(p=-0.5), seed=seed)


def test_a_report_of_evaluate_survives_a_write_and_read(tmp_path):
    report = evaluate(by_id("H2.1"), scalar_pair(3.0), Params(p=-0.5), seed=np.uint64((1 << 64) - 1))
    assert type(report.seed) is int
    write_reports_jsonl([report], tmp_path / "r.jsonl")
    assert read_reports(tmp_path / "r.jsonl") == [report]


def test_evaluate_takes_a_weight_as_any_real_number_and_reports_a_float():
    # a 0-d array weight raised a bare TypeError, and a numpy scalar weight
    # left an np.float64 in the report's p
    case, pair = by_id("H2.1"), scalar_pair(3.0)
    weights = (0.5, np.float64(0.5), np.array(0.5), np.array([0.5]))
    reports = [evaluate(case, pair, Params(p=p), seed=77) for p in weights]
    assert all(r == reports[0] for r in reports)
    assert all(type(r.p) is float for r in reports)


def test_evaluate_takes_each_weight_as_none_or_a_real_number_that_is_not_a_bool(tmp_path):
    # Params(p=-1) was reported as the int -1, p=True gave a row that
    # read_reports rejects, and a Fraction or a str weight raised numpy's bare
    # TypeError; the plans' weights are float64 already, so no suite row changes
    case, pair = by_id("H2.1"), scalar_pair(3.0)
    by_int = evaluate(case, pair, Params(p=-1), seed=77)
    assert by_int == evaluate(case, pair, Params(p=-1.0), seed=77)
    assert type(by_int.p) is float and by_int.p == -1.0
    by_fraction = evaluate(case, pair, Params(p=Fraction(-1, 2)), seed=77)
    assert by_fraction == evaluate(case, pair, Params(p=-0.5), seed=77)
    write_reports_jsonl([by_int, by_fraction], tmp_path / "r.jsonl")
    assert read_reports(tmp_path / "r.jsonl") == [by_int, by_fraction]
    for weight in (True, np.True_, "0.5", [0.5], 0.5j):
        with pytest.raises(InvalidWeight, match=r"^weight p must be None or a real number"):
            evaluate(case, pair, Params(p=weight), seed=77)
    with pytest.raises(InvalidWeight, match=r"^weight q must be None or a real number"):
        evaluate(case, pair, Params(p=0.5, q=False), seed=77)


def test_evaluate_trials_returns_plain_rows():
    # the kernel returns a checked stack's margins, scales and verdicts as
    # (k,) arrays; a row leaves the package as a report of plain Python
    # scalars, from the one function that builds every report of the kernel
    case, pair, params = by_id("H2.1"), scalar_pair(3.0), Params(p=-0.5)
    stack = check_stack(case, pair, params, [77])
    verdict = evaluate_trials(case, stack)
    assert [(type(x), x.shape) for x in verdict] == [(np.ndarray, (1,))] * 3
    (report,) = catalog_module._reports(catalog_module._stack_columns(case.id, stack, verdict))
    assert report == evaluate(case, pair, params, seed=77)
    plain = [str, int, int, float, type(None), type(None), float, float, float, float, bool]
    assert [type(x) for x in dataclasses.astuple(report)] == plain
    with pytest.raises(InvalidInput, match="1 pairs for 2 seeds"):
        check_stack(case, pair, params, [77, 78])


def test_the_kernel_leaves_the_tolerance_check_to_the_public_entries(monkeypatch):
    # a case's verdict has one rule, ORDER_TOL: no trial-path entry takes a
    # tolerance, so none checks one, and a row replays from its triple alone
    entries = (
        evaluate,
        check_stack,
        evaluate_trials,
        harness.run_trial,
        harness.replay,
        harness.run_suite,
        harness.run_all,
    )
    for entry in entries:
        assert not {"order_tol", "tol"} & set(inspect.signature(entry).parameters), entry
    checks = []
    original = spd_core._check_tol
    for module in (spd_core, harness):
        monkeypatch.setattr(module, "_check_tol", lambda tol: checks.append(tol) or original(tol))
    case, pair, params = by_id("H2.1"), scalar_pair(3.0), Params(p=-0.5)
    evaluate_trials(case, check_stack(case, pair, params, [77]))
    evaluate(case, pair, params, seed=77)
    run_suite(by_id("H1.1"), trials=8, dims=(1, 2))
    harness.run_all("H1", trials=4)
    harness.replay("H1.1", 1, 2)
    assert checks == []
    loewner_leq(np.eye(1), np.eye(1))  # the comparator still checks its own
    assert checks == [ORDER_TOL]


def test_reports_built_in_one_step_are_the_dataclass_instances():
    values = ("T1.1", 7, 3, 0.5, None, 0.25, 0.75, 2.0, -1e-15, 3.5, True)
    built, made = catalog_module._report(*values), MarginReport(*values)
    assert type(built) is MarginReport
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
    assert dataclasses.asdict(built) == dataclasses.asdict(made)
    assert dataclasses.replace(built, margin=1.0) == dataclasses.replace(made, margin=1.0)
    assert built != dataclasses.replace(made, holds=False)
    for name in ("margin", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, name)


def test_mid_and_gap_build_the_derived_pairs():
    pair = scalar_pair(3.0)
    mid, gap = _mid(pair), _gap(pair)
    assert mid.A is pair.A and gap.A is pair.A
    assert mid.B.mat[0, 0] == pytest.approx(2.0)
    assert gap.B.mat[0, 0] == pytest.approx(2.0)


@pytest.mark.parametrize("derive, f", [(_mid, lambda t: 0.5 * (1.0 + t)), (_gap, lambda t: t - 1.0)])
def test_derived_pairs_are_lifts_of_the_contraction(monkeypatch, derive, f):
    # a derived pair keeps its parent's A^{1/2}, C basis and X = A^{1/2} Q_C,
    # and its contraction is f(C) on f(spec(C)): its extremes are f(u) and
    # f(v), and it is built with no eigensolve, for a sampled pair, a stack
    # and a public pair alike
    sampled = sandwich_pair(SamplerConfig(seed=4, n=5, sandwich=(1.5, 3.0)))
    _, words, normals = stream_draws([4, 5, 6], 3)
    stack = pair_from_base(stack_base(words, normals), np.array([1.5, 1.2, 2.0]), np.array([3.0, 4.0, 2.0]))
    public = OperatorPair(sampled.A.mat, sampled.B.mat)
    solves = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _o=original, **k: solves.append(None) or _o(*a, **k))
    derived = [derive(pair) for pair in (sampled, stack, public)]
    assert solves == []
    monkeypatch.undo()
    for pair, lifted in zip((sampled, stack, public), derived):
        assert lifted.A is pair.A and lifted.sqrt_a is pair.sqrt_a and lifted._q is pair._q
        assert lifted._x is pair._x
        assert lifted._drift == pair._drift
        assert np.array_equal(lifted.u, f(pair.u)) and np.array_equal(lifted.v, f(pair.v))
        assert np.array_equal(lifted.contraction.mat, pair.fn_of_contraction(f))
        # the contraction the public constructor solves for from (A, B') agrees to rounding
        solved = OperatorPair(lifted.A, lifted.B)
        np.testing.assert_allclose(lifted.contraction.mat, solved.contraction.mat, rtol=0, atol=1e-12)


def test_reversed_case_holds_on_its_own_region():
    # entropy chain flips direction when the contraction sits below 1
    pair = scalar_pair(0.4)
    r = evaluate(by_id("T1.1.rev"), pair, Params(p=0.5))
    assert r.holds
    with pytest.raises(HypothesisError):
        evaluate(by_id("T1.1.rev"), OperatorPair(pair.A, np.array([[2.0]])), Params(p=0.5))


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
            stack = pair_from_base(stack_base(pair_words, normals), u, v)
            for term in (case.lhs, case.rhs):
                got = term.fn(commuting_pair(cfg), pr)
                expected = spectral_assemble(q, lam * term.f(mu / lam, pr))
                _assert_twin_lift(term, got, expected, pr, (case.id, n, "commuting"))
                got = term.fn(single, pr)
                _assert_twin_lift(term, got, single.transform(lambda t: term.f(t, pr)), pr, (case.id, n, "pair"))
                got = term.fn(stack, stacked)
                expected = stack.transform(lambda t: term.f(t, stacked))
                _assert_twin_lift(term, got, expected, stacked, (case.id, n, "stack"))


def _kubo_ando_terms(a, b, pr: Params) -> tuple[dict, float]:
    """The 12 lifted terms on (A, B) from their Kubo-Ando formulas on
    M = A^{-1} B (A f(M) = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}), by scipy's
    Schur-based fractional_matrix_power and logm, which share no code with
    the package's eigh lifts or its scalar twins; with logm's own estimate
    of its relative error."""
    m = scipy.linalg.solve(a, b)
    with warnings.catch_warnings():
        # logm warns when its error estimate is large; the caller's tolerance scales with it
        warnings.simplefilter("ignore", RuntimeWarning)
        log_m = scipy.linalg.logm(m)
    errest = np.linalg.norm(scipy.linalg.expm(log_m) - m, 1) / np.linalg.norm(m, 1)  # logm's own estimate
    power = {r: scipy.linalg.fractional_matrix_power(m, r) for r in (pr.p, pr.q, 0.5 * pr.p)}
    tsallis = {r: a @ (power[r] - np.eye(len(a))) / r for r in (pr.p, pr.q)}  # T[r] = (A #_r B - A)/r
    gen = {r: a @ power[r] @ log_m for r in power}  # S[r] = A M^r log M
    s = a @ log_m  # S = A log M
    terms = {
        catalog_module.T_TS: tsallis[pr.p],
        catalog_module.T_TS_Q: tsallis[pr.q],
        catalog_module.T_S: s,
        catalog_module.T_SP: gen[pr.p],
        catalog_module.T_SP_HALF: gen[0.5 * pr.p],
        catalog_module.T_S_SP_AVG: (s + gen[pr.p]) / 2,
    }
    drift = {  # T[r] - c S[r]
        catalog_module.T_DRIFT1_P: (pr.p, 1.0),
        catalog_module.T_DRIFT1_Q: (pr.q, 1.0),
        catalog_module.T_DRIFT_HALF_P: (pr.p, 0.5),
        catalog_module.T_DRIFT_HALF_Q: (pr.q, 0.5),
        catalog_module.T_DRIFT_C_P: (pr.p, pr.c),
        catalog_module.T_DRIFT_C_Q: (pr.q, pr.c),
    }
    terms.update({term: tsallis[r] - c * gen[r] for term, (r, c) in drift.items()})
    return {term: np.real_if_close(value, tol=1) for term, value in terms.items()}, errest


def test_lifted_terms_match_their_kubo_ando_formulas():
    # an independent path for the 12 terms that are one lift of their twin,
    # on raw public pairs (random spectra in [0.25, 4], random bases) at
    # n = 2..8 and weights |p|, |q| in [0.1, 1].  The error is measured as
    # ||got - ref||_1 / (||A||_1 max(1, ||M||_1)) and allowed 1000 u kappa_1(A),
    # with u the larger of logm's error estimate and machine epsilon: over
    # these pairs the largest ratio of error to u kappa_1(A) was 7, and a
    # relative fault of 1e-6 in a scalar twin reads about 1e-7
    rng = generator(2026)
    eps = np.finfo(float).eps
    for i in range(28):
        n = 2 + i % 7
        a, b = (spectral_assemble(np.linalg.qr(rng.standard_normal((n, n)))[0], rng.uniform(0.25, 4.0, n))
                for _ in "ab")
        p, q = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.1, 1.0, 2)
        pr = Params(p=float(p), q=float(q), c=float(rng.uniform(0.0, 2.0)))
        reference, errest = _kubo_ando_terms(a, b, pr)
        assert len(reference) == 12
        pair = OperatorPair(a, b)
        scale = np.linalg.norm(a, 1) * max(1.0, np.linalg.norm(scipy.linalg.solve(a, b), 1))
        allowed = 1000 * max(errest, eps) * np.linalg.cond(a, 1)
        for term, expected in reference.items():
            assert not np.iscomplexobj(expected), (term.name, n)
            err = np.linalg.norm(term.fn(pair, pr) - expected, 1) / scale
            assert err <= allowed, (term.name, n, err, allowed)


def _drift_parts(r: str, c_fixed):
    """T[r] - c S[r] as its two public wrappers, with the twins of the parts
    and their coefficients: (composed fn, [(twin, coefficient), ...])."""

    def coef(pr):
        return pr.c if c_fixed is None else c_fixed

    return (
        lambda pair, pr: tsallis_entropy(pair, getattr(pr, r)) - coef(pr) * generalized_entropy(pair, getattr(pr, r)),
        lambda pr: [(lambda t: tsallis_log(t, getattr(pr, r)), 1.0), (lambda t: power_log(t, getattr(pr, r)), coef(pr))],
    )


# every term that combines entropy lifts on its own pair, as its composition
# of the public wrappers
_COMBINED = {
    catalog_module.T_DRIFT1_P: _drift_parts("p", 1.0),
    catalog_module.T_DRIFT1_Q: _drift_parts("q", 1.0),
    catalog_module.T_DRIFT_HALF_P: _drift_parts("p", 0.5),
    catalog_module.T_DRIFT_HALF_Q: _drift_parts("q", 0.5),
    catalog_module.T_DRIFT_C_P: _drift_parts("p", None),
    catalog_module.T_DRIFT_C_Q: _drift_parts("q", None),
    catalog_module.T_S_SP_AVG: (
        lambda pair, pr: (relative_operator_entropy(pair) + generalized_entropy(pair, pr.p)) / 2,
        lambda pr: [(np.log, 0.5), (lambda t: power_log(t, pr.p), 0.5)],
    ),
}


def _sampled(case, n, rng):
    """Four of the case's trials as a sampled ``(k, n, n)`` stack with their
    ``(k, 1, 1)`` params, then the first as a public pair with its numbers."""
    seeds = rng.integers(1 << 62, size=4).tolist()
    plan_words, pair_words, normals = stream_draws(seeds, n)
    params, u, v = case.plan(plan_words)
    stack = pair_from_base(stack_base(pair_words, normals), u, v)
    stacked = Params(*(None if x is None else x.reshape(-1, 1, 1) for x in (params.p, params.q, params.c)))
    return (stack, stacked), (OperatorPair(stack.A.mat[0], stack.B.mat[0]), _trial(params, 0))


def test_a_combination_of_entropy_lifts_is_one_product(monkeypatch):
    # M1-M3's T[r] - c S[r] and T1's (S + S[p])/2 are each one lift of their
    # twin: one spectral_assemble call per evaluation, where the composition
    # of the public wrappers makes one per part.  Both are products on the
    # same X, each entrywise within gamma_{n+2} max_i ||X_i||^2 max|f| of
    # the exact one (Higham, Sec. 3.5; rows X_i, |X||X|^T <= max_i ||X_i||^2
    # by Cauchy-Schwarz), f bounded by the sum of the parts' |coef f_j|, so
    # they agree within four of those, the final sum's rounding included;
    # on sampled stacks and on public pairs
    calls = []
    original = means.spectral_assemble
    monkeypatch.setattr(means, "spectral_assemble", lambda q, w: calls.append(None) or original(q, w))
    seen = set()
    rng = generator(11)
    for case in catalog_with_duals():
        for term in {case.lhs, case.rhs} & _COMBINED.keys():
            seen.add(term)
            composed, parts = _COMBINED[term]
            for n in (1, 2, 5, 16, 64):
                for pair, pr in _sampled(case, n, rng):
                    calls.clear()
                    got = term.fn(pair, pr)
                    assert len(calls) == 1, (case.id, term.name, n)
                    expected = composed(pair, pr)
                    assert len(calls) == 1 + len(parts(pr)), (case.id, term.name, n)
                    size = sum(np.abs(coef) * np.abs(f(pair._w)) for f, coef in parts(pr)).max(axis=(-2, -1))
                    rows = (pair._x ** 2).sum(axis=-1).max(axis=-1)
                    bound = 4 * spd_core._gamma(n + 2) * rows * size
                    err = np.abs(got - expected).max(axis=(-2, -1))
                    assert np.all(err <= bound), (case.id, term.name, n, err / bound)
    assert seen == _COMBINED.keys()


def _t2_low(pair, w):
    # T2's T[w-1], the route (A nat_{w-1} B - A)/(w - 1)
    return (natural_power_mean(pair, w - 1.0).mat - pair.A.mat) / (w - 1.0)


def _gap_chain_by_wrappers(top, low, weight):
    """The gap chain's four members with T[w] the public wrapper ``top(pair,
    w)`` and T[w-1] the route ``low(pair, w)``, at w = ``weight(pr)``."""

    def gap(pair, pr):
        return top(pair, weight(pr)) - low(pair, weight(pr))

    return (
        lambda pair, pr: 0.5 * gap(pair, pr),
        lambda pair, pr: 4.0 * gap(_mid(pair), pr),
        lambda pair, pr: (top(pair, weight(pr)) - (pair.B.mat - pair.A.mat)) / (weight(pr) - 1.0),
        lambda pair, pr: 0.5 * gap(pair, pr) + 0.25 * natural_power_mean(_gap(pair), 2.0).mat,
    )


def _t3_upper_by_wrappers(pair, pr):
    # B - A + 2(B A^-1 - I) nat[p-1](A, (A+B)/2) - 4 T[p](A, (A+B)/2)
    mid = _mid(pair)
    ba_inv = np.linalg.solve(pair.A.mat, pair.B.mat).swapaxes(-1, -2)
    mid_term = symmetrize(2.0 * (ba_inv - np.eye(pair.n)) @ natural_power_mean(mid, pr.p - 1.0).mat)
    return pair.B.mat - pair.A.mat + mid_term - 4.0 * tsallis_entropy(mid, pr.p)


# every term that is one entropy lift, or a route that reads one, as its
# composition of one public wrapper and the public means
_SINGLE = {
    catalog_module.T_TS: lambda pair, pr: tsallis_entropy(pair, pr.p),
    catalog_module.T_TS_Q: lambda pair, pr: tsallis_entropy(pair, pr.q),
    catalog_module.T_S: lambda pair, pr: relative_operator_entropy(pair),
    catalog_module.T_SP: lambda pair, pr: generalized_entropy(pair, pr.p),
    catalog_module.T_SP_HALF: lambda pair, pr: generalized_entropy(pair, 0.5 * pr.p),
    **dict(zip(catalog_module.T2_CHAIN, _gap_chain_by_wrappers(tsallis_entropy, _t2_low, lambda pr: pr.p))),
    **dict(
        zip(
            catalog_module.C1_CHAIN,
            _gap_chain_by_wrappers(
                lambda pair, w: relative_operator_entropy(pair),
                lambda pair, w: catalog_module._low_inv(pair),
                lambda pr: 0.0,
            ),
        )
    ),
    catalog_module.T_T3_UP: _t3_upper_by_wrappers,
}


def test_every_entropy_lift_is_its_public_wrapper():
    # a lifted term, the gap chains' T[w] and T3's T[p] at (A, (A+B)/2) are
    # the same product as their public wrapper: each term is bit for bit its
    # composition of one wrapper, on sampled stacks and on public pairs
    lifted = {t for c in catalog_with_duals() for t in (c.lhs, c.rhs) if t.fn.__qualname__.startswith("_lifted.")}
    assert lifted <= _SINGLE.keys() | _COMBINED.keys()
    seen = set()
    rng = generator(13)
    for case in catalog_with_duals():
        for term in {case.lhs, case.rhs} & _SINGLE.keys():
            seen.add(term)
            for n in (1, 2, 5, 16):
                for pair, pr in _sampled(case, n, rng):
                    assert np.array_equal(term.fn(pair, pr), _SINGLE[term](pair, pr)), (case.id, term.name, n)
    assert seen == _SINGLE.keys()


def test_no_trial_calls_an_entropy_wrapper(monkeypatch):
    # the wrappers are the public API: with each one refusing, in oel.means
    # and wherever the catalog could bind it, a run gives the same rows
    expected, got = [], []
    run_all(trials=6, dims=(1, 2, 5), collect=expected)

    for name in ("tsallis_entropy", "generalized_entropy", "relative_operator_entropy"):

        def refuse(*args, _name=name):
            raise AssertionError(f"a trial called {_name}")

        monkeypatch.setattr(means, name, refuse)
        monkeypatch.setattr(catalog_module, name, refuse, raising=False)
    run_all(trials=6, dims=(1, 2, 5), collect=got)
    assert got == expected


def test_curvature_lower_bound_is_tight():
    # T3.1's lower term is the lift of quad_lower, which meets T[p] at u = 1
    res = run_suite(by_id("T3.1"), trials=60, dims=(2, 3), seed=42)
    assert res.failures == 0
    assert res.worst_margin < 1e-9


def _kernel_verdicts(monkeypatch):
    """Every case's verdict calls at n in {1, 2, 3, 5, 16}: the term stacks,
    the tolerance, the kernel's verdict and the eigvalsh calls it made."""
    eigvalsh = np.linalg.eigvalsh
    verdict = catalog_module._loewner
    eig_calls = []
    seen = []

    def counted(a, *args, **kwargs):
        eig_calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def recorded(x, y, order_tol):
        before = len(eig_calls)
        out = verdict(x, y, order_tol)
        seen.append((x, y, order_tol, out, eig_calls[before:]))
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(catalog_module, "_loewner", recorded)
    for case in catalog_with_duals():
        run_suite(case, trials=10, dims=(1, 2, 3, 5, 16), seed=31)
    monkeypatch.undo()
    assert len(seen) == 5 * len(catalog_with_duals())
    return seen


def test_kernel_verdict_is_loewner_leq_in_one_eigensolve(monkeypatch):
    for x, y, order_tol, (margin, scale, holds), eig_calls in _kernel_verdicts(monkeypatch):
        assert eig_calls == [x.shape]  # Y - X alone
        public = loewner_leq(x, y, order_tol)
        assert margin.tobytes() == public.margin.tobytes()
        assert scale.tobytes() == public.scale.tobytes()
        assert holds.tolist() == public.holds.tolist()


@pytest.mark.parametrize("dims, trials", [((2, 3, 4), 90), ((16, 32, 64), 12), ((128,), 3)])
def test_every_case_catches_its_swapped_form_on_every_trial(dims, trials):
    # the negative control: with lhs and rhs exchanged each claim is false,
    # and the verdict's tolerance (scaled by row-sum norms, up to sqrt(n)
    # times the spectral norms) must still call every trial a failure
    missed = {}
    for case in catalog_with_duals():
        swapped = dataclasses.replace(case, lhs=case.rhs, rhs=case.lhs)
        res = run_suite(swapped, trials=trials, dims=dims, seed=7)
        if res.failures != trials:
            missed[case.id] = trials - res.failures
    assert missed == {}


def test_every_term_stack_is_exactly_symmetric(monkeypatch):
    # what lets the kernel's verdict skip the public comparator's symmetry scan
    for x, y, *_ in _kernel_verdicts(monkeypatch):
        for t in (x, y):
            assert np.array_equal(t, t.swapaxes(-1, -2))


@pytest.mark.parametrize("case_id, params", [("T2.3", Params(p=0.5)), ("C1.3", Params())])
def test_derived_pair_losing_definiteness_is_a_breakdown(case_id, params):
    # u = 1.002 is inside the hypothesis, but B - A = diag(2e-13, 1) is not
    # strictly positive definite: a breakdown naming the derived pair (it was
    # an InvalidInput, as if the input were at fault)
    pair = OperatorPair(np.diag([1e-10, 1.0]), np.diag([1.002e-10, 2.0]))
    with pytest.raises(NumericalBreakdown, match=r"^derived pair \(A, B - A\): matrix is not strictly positive"):
        evaluate(by_id(case_id), pair, params)
