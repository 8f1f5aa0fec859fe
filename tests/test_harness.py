import csv
import dataclasses
import importlib
import json
import math
import os
import re
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oel import harness, scalars
from oel.catalog import (
    R_U1_PPOS,
    CheckedStack,
    MarginReport,
    Region,
    catalog_with_duals,
    evaluate_trials,
    find_cases,
)
from oel.errors import HypothesisError, InvalidInput, NumericalBreakdown, ReportError
from oel.harness import (
    DEFAULT_DIMS,
    DEFAULT_SEED,
    IntegralResult,
    case_by_id,
    integral_sweep,
    read_reports,
    replay,
    run_all,
    run_suite,
    run_trial,
    summarize,
    suite_results_to_dict,
    write_reports_csv,
    write_reports_jsonl,
)
from oel.means import OperatorPair, quadrature_tsallis, tsallis_entropy
from oel.sampler import SamplerConfig, sandwich_pair, stream_draws
from oel.spd_core import ORDER_TOL

catalog = importlib.import_module("oel.catalog")  # the package exports a function of this name
means = importlib.import_module("oel.means")
spd_core = importlib.import_module("oel.spd_core")

REPORT_FIELDS = ("case_id", "seed", "n", "p", "q", "c", "u", "v", "margin", "scale", "holds")


@pytest.mark.parametrize(
    "lookup",
    [
        lambda: replay(["H1.1"], 1, 2),
        lambda: find_cases(5),
        lambda: run_all(5),
        lambda: scalars.run_probe(["2.5"]),
        lambda: scalars.sign_table(["lower_gap_mixed"]),
        lambda: scalars.verify_scalar_chain(["C1"]),
        lambda: scalars.grid_rows(["arith"], [1.0]),
    ],
    ids=["replay", "find_cases", "run_all", "run_probe", "sign_table", "verify_scalar_chain", "grid_rows"],
)
def test_an_id_that_is_not_a_string_is_an_invalid_input(lookup):
    with pytest.raises(InvalidInput):
        lookup()


def _pair_and_params(case_id: str):
    """A stacked pair of one trial of the case, and its parameters."""
    params, pair = harness._plan_pair(case_by_id(case_id).plan, *harness._draw([1], 2))
    return pair, params


@pytest.mark.parametrize(
    "entry",
    [
        lambda: run_trial("H1.1", 1, 2),
        lambda: run_suite("H1.1"),
        lambda: catalog.evaluate("H1.1", *_pair_and_params("H1.1")),
        lambda: catalog.dual("H1.1"),
        lambda: write_reports_jsonl([1], "unused.jsonl"),
        lambda: write_reports_csv([1], "unused.csv"),
        lambda: summarize([1]),
        lambda: means.load_pair(5),
        lambda: spd_core.load_matrix(5),
    ],
    ids=["run_trial", "run_suite", "evaluate", "dual", "write_jsonl", "write_csv", "summarize", "load_pair", "load_matrix"],
)
def test_a_value_of_the_wrong_kind_is_an_invalid_input(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InvalidInput):
        entry()


@pytest.mark.parametrize(
    "io",
    [read_reports, lambda path: write_reports_jsonl([], path), lambda path: write_reports_csv([], path)],
    ids=["read", "write_jsonl", "write_csv"],
)
def test_a_report_path_must_be_a_path_not_a_file_descriptor(io, tmp_path):
    held = tmp_path / "held.jsonl"
    held.write_text("")
    fd = os.open(held, os.O_RDWR)
    try:
        for path in (fd, 5, True):
            with pytest.raises(InvalidInput, match="report path"):
                io(path)
        os.fstat(fd)  # still open: no entry took it as its file
        assert held.read_text() == ""
    finally:
        os.close(fd)


def test_run_trial_is_deterministic():
    case = case_by_id("T2.1")
    r1 = run_trial(case, 12345, 4)
    r2 = run_trial(case, 12345, 4)
    assert r1 == r2


def test_replay_reproduces_report_exactly():
    case = case_by_id("M3.d2")
    r = run_trial(case, 999, 3)
    again = replay(r.case_id, r.seed, r.n)
    assert again.margin == r.margin
    assert again == r


def test_replay_unknown_case():
    with pytest.raises(InvalidInput):
        replay("NOPE.1", 0, 2)


@pytest.mark.parametrize(
    "seed, n",
    [((1 << 128) + 5, 2), (1 << 64, 2), (-1, 2), (2.5, 2), (True, 2), ("5", 2), (None, 2),
     (5, 0), (5, 2.5), (5, True), (5, "2"), (5, np.float64(2.0))],
)
def test_replay_takes_a_64_bit_seed_and_a_count(seed, n):
    # the seed was keyed by its low 128 bits: 2^128 + 5 ran trial 5, 2.5
    # trial 2 and -1 the trial keyed 2^128 - 1; n = 0 raised a bare ValueError
    for run in (lambda: replay("H1.1", seed, n), lambda: run_trial(case_by_id("H1.1"), seed, n)):
        with pytest.raises(InvalidInput, match=r"^(trial seed must be an integer in \[0, 2\^64\)|n must be)"):
            run()


def test_replay_takes_every_64_bit_seed():
    top = (1 << 64) - 1
    r = replay("H1.1", top, 2)
    assert r.seed == top and type(r.seed) is int
    assert replay("H1.1", np.uint64(top), np.int64(2)) == r


def test_the_case_index_cannot_be_changed_by_a_caller():
    # the index was the module's own dict: popping H1.1 from it made every
    # later replay of H1.1 an unknown case id
    index = harness.case_index()
    before = replay("H1.1", 5, 2)
    with pytest.raises(AttributeError):
        index.pop("H1.1")
    with pytest.raises(TypeError):
        index["H1.1"] = None
    with pytest.raises(TypeError):
        del index["H1.1"]
    assert index["H1.1"] is case_by_id("H1.1")
    assert replay("H1.1", 5, 2) == before


def test_run_suite_aggregates_and_collects():
    case = case_by_id("H1.1")
    collected = []
    res = run_suite(case, trials=30, seed=7, collect=collected)
    assert res.case_id == "H1.1"
    assert res.trials == 30
    assert len(collected) == 30
    assert res.failures == sum(not r.holds for r in collected)
    assert res.worst_margin == min(r.margin for r in collected)
    # the recorded worst seed replays to the recorded worst margin
    worst = replay("H1.1", res.worst_seed, [r.n for r in collected if r.seed == res.worst_seed][0])
    assert worst.margin == pytest.approx(res.worst_margin, abs=1e-12)


def test_run_suite_cycles_dims():
    collected = []
    run_suite(case_by_id("T0.1"), trials=8, dims=(1, 2, 3), collect=collected)
    assert [r.n for r in collected] == [1, 2, 3, 1, 2, 3, 1, 2]


def test_run_suite_rejects_bad_trials():
    # trials=True ran one trial and reported trials=True; 2.5 and "3" raised a bare TypeError
    for trials in (0, -3, 2.5, "3", True, None):
        with pytest.raises(InvalidInput, match="trials must be positive"):
            run_suite(case_by_id("H1.1"), trials=trials)
        with pytest.raises(InvalidInput, match="trials must be positive"):
            integral_sweep(trials=trials, p_grid=(0.5,))


def test_run_all_pattern_and_unknown():
    results = run_all("W4", trials=5)
    assert {r.case_id for r in results} == {"W4.i", "W4.ii"}
    with pytest.raises(InvalidInput):
        run_all("NOPE", trials=5)


def test_default_constants():
    assert DEFAULT_SEED == 42
    assert DEFAULT_DIMS == (1, 2, 3, 4, 6, 8)


def test_jsonl_roundtrip_exact_fields(tmp_path):
    collected = []
    run_suite(case_by_id("M1.i"), trials=6, collect=collected)
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl(collected, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert tuple(json.loads(lines[0]).keys()) == REPORT_FIELDS
    back = read_reports(str(path))
    assert back == collected


def test_read_reports_skips_blank_lines(tmp_path):
    r = run_trial(case_by_id("H1.1"), 3, 2)
    path = tmp_path / "reports.jsonl"
    path.write_text(json.dumps(dataclasses.asdict(r)) + "\n\n\n")
    assert read_reports(str(path)) == [r]


def test_read_reports_flags_malformed_line_number(tmp_path):
    r = run_trial(case_by_id("H1.1"), 3, 2)
    path = tmp_path / "reports.jsonl"
    path.write_text(json.dumps(dataclasses.asdict(r)) + "\n{broken\n")
    with pytest.raises(ReportError, match="line 2"):
        read_reports(str(path))


def test_read_reports_flags_missing_field(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text('{"case_id": "H1.1"}\n')
    with pytest.raises(ReportError, match="line 1"):
        read_reports(str(path))


def test_csv_export_headers(tmp_path):
    collected = []
    run_suite(case_by_id("H1.1"), trials=3, collect=collected)
    path = tmp_path / "reports.csv"
    write_reports_csv(collected, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(REPORT_FIELDS)
    assert len(lines) == 4


def test_summarize_merges_shards():
    shard1, shard2 = [], []
    run_suite(case_by_id("H1.1"), trials=4, seed=1, collect=shard1)
    run_suite(case_by_id("H1.1"), trials=6, seed=2, collect=shard2)
    summary = summarize(shard1 + shard2)
    assert summary["cases"]["H1.1"]["trials"] == 10
    assert summary["total_trials"] == 10
    assert summary["total_failures"] == 0
    assert summary["cases"]["H1.1"]["min_margin"] <= summary["cases"]["H1.1"]["mean_margin"]


def test_summarize_empty():
    summary = summarize([])
    assert summary == {"cases": {}, "total_trials": 0, "total_failures": 0}


def test_summarize_counts_failures():
    good = run_trial(case_by_id("H1.1"), 5, 2)
    bad = dataclasses.replace(good, holds=False, margin=-1.0)
    summary = summarize([good, bad])
    assert summary["total_failures"] == 1
    assert summary["cases"]["H1.1"]["failures"] == 1
    assert summary["cases"]["H1.1"]["min_margin"] == -1.0


def test_suite_results_to_dict_totals():
    results = run_all("H1", trials=4)
    d = suite_results_to_dict(results)
    assert d["total_trials"] == 8
    assert d["total_failures"] == 0
    assert d["worst_margin"] == min(r.worst_margin for r in results)


def test_integral_sweep_rejects_bad_weight():
    with pytest.raises(InvalidInput):
        integral_sweep(trials=2, p_grid=(0.0,))
    with pytest.raises(InvalidInput):
        integral_sweep(trials=2, p_grid=(1.5,))


@pytest.mark.parametrize(
    "p_grid",
    [(), [], (True,), (np.bool_(True),), ("0.5",), "0.5", (np.array([0.5, 0.2]),), (np.array(0.5),),
     (None,), (0.5, float("nan")), (float("inf"),), 0.5, None],
)
def test_integral_sweep_checks_the_p_grid_up_front(monkeypatch, p_grid):
    # () passed vacuously, (True,) was checked as p = 1 and reported as p=True,
    # ("0.5",) raised a bare TypeError and an array element a bare ValueError
    def never(*args, **kwargs):
        raise AssertionError("a stack was drawn")

    monkeypatch.setattr(harness, "_draw", never)
    with pytest.raises(InvalidInput, match="p grid"):
        integral_sweep(trials=2, p_grid=p_grid)


@pytest.mark.parametrize("nodes", [101, 1, True, 32.0])
def test_integral_sweep_checks_the_nodes_up_front(monkeypatch, nodes):
    # nodes was checked only in the first quadrature call, after one stack was drawn
    draws = _counting(monkeypatch, harness, "_draw")
    with pytest.raises(InvalidInput, match="nodes"):
        integral_sweep(trials=3, nodes=nodes)
    assert len(draws) == 0


def test_integral_sweep_reports_each_weight_as_a_float():
    results = integral_sweep(trials=2, p_grid=(1, np.float32(0.5), Fraction(-1, 4), np.int64(-1)))
    assert [r.p for r in results] == [1.0, 0.5, -0.25, -1.0]
    assert all(type(r.p) is float for r in results)


def test_integral_sweep_small_run_holds():
    results = integral_sweep(trials=6, p_grid=(0.5, -0.5), nodes=32)
    assert all(r.holds for r in results)
    assert all(r.max_residual <= r.max_allowed for r in results)


def _per_pair_integral_sweep(trials, p_grid, seed, dims, quad_fn=quadrature_tsallis, closed_fn=tsallis_entropy):
    """integral_sweep one pair at a time, each pair built by sandwich_pair at
    its trial seed and the sweep's own targets, and its norms taken the
    sweep's way (the extreme eigenvalues of each symmetric matrix)."""
    tol = ORDER_TOL
    pairs = []
    for trial_seed, n in (trial for window in harness._windows(seed, dims, trials) for trial in window):
        u, v = harness._sweep_targets(stream_draws([trial_seed], n)[0])
        pairs.append(sandwich_pair(SamplerConfig(seed=trial_seed, n=n, sandwich=(float(u[0]), float(v[0])))))
    out = []
    for p in p_grid:
        worst, worst_allowed, ok = -np.inf, tol, True
        for pair in pairs:
            quad = quad_fn(pair, p, nodes=32)
            closed = closed_fn(pair, p)
            resid, nq, nc = (float(harness._symmetric_norms(m)) for m in (quad - closed, quad, closed))
            allowed = tol * max(1.0, nq, nc)
            if resid > worst:  # the earliest trial attaining the largest residual
                worst, worst_allowed = resid, allowed
            ok = ok and not resid > allowed
        out.append(IntegralResult(p=p, trials=trials, max_residual=worst, max_allowed=worst_allowed, holds=ok))
    return out


def test_integral_sweep_reports_the_allowance_of_a_weight_with_no_residual():
    # at n = 1 the quadrature often equals the closed form exactly (748 of the
    # 1200 results over seeds 0-199); such a weight reported the bare tol, as
    # no trial's residual beat the fold's starting 0
    got = integral_sweep(trials=1, dims=(1,), seed=0)
    assert got == _per_pair_integral_sweep(1, harness.INTEGRAL_P_GRID, 0, (1,))
    assert got[2].p == 0.5 and got[2].max_residual == 0.0 and got[2].max_allowed > ORDER_TOL


@pytest.mark.parametrize("window, entries", [(None, None), (8, 12)])
def test_integral_sweep_equals_the_per_pair_reference(monkeypatch, window, entries):
    # with small windows and stacks the maximum is folded over many stacks, out of trial order
    if window is not None:
        monkeypatch.setattr(harness, "WINDOW_TRIALS", window)
        monkeypatch.setattr(harness, "STACK_ENTRIES", entries)
    wide = (1.0, -1.0, 0.5, -0.5, 0.1, -0.1, 0.01, -0.01, 1e-3, -1e-3, 0.75, -0.3)
    for p_grid in ((0.1, -0.5, 1.0), wide):
        for seed, trials, dims in ((7, 30, (1, 2, 3, 5)), (42, 6, DEFAULT_DIMS)):
            got = integral_sweep(trials=trials, p_grid=p_grid, seed=seed, dims=dims)
            assert got == _per_pair_integral_sweep(trials, p_grid, seed, dims)


def test_integral_sweep_forms_no_b_and_makes_no_svd(monkeypatch):
    # the identity reads X and spec(C) alone: no sampled B is formed (so none
    # is certified), and the norms come from eigvalsh, not from an SVD
    # np.linalg.norm finds svd in numpy's implementation module (numpy.linalg.linalg before numpy 2)
    linalg = getattr(np.linalg, "_linalg", None) or importlib.import_module("numpy.linalg.linalg")
    svds = _counting(monkeypatch, linalg, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg.svd)
    contexts = []
    certified = means.spd_certified
    monkeypatch.setattr(
        means, "spd_certified", lambda m, lo, hi, context: contexts.append(context) or certified(m, lo, hi, context)
    )
    np.linalg.norm(np.eye(2), 2)
    assert len(svds) == 1  # the counter sees the SVD of a 2-norm
    results = integral_sweep(trials=6)
    assert all(r.holds for r in results)
    assert (len(svds), contexts) == (1, [])


def test_integral_sweep_norms_are_the_2_norms(monkeypatch):
    # every stack of a wide sweep: the extreme eigenvalues of each exactly
    # symmetric matrix give its 2-norm to within 8 n u of it
    seen = []
    norms = harness._symmetric_norms
    monkeypatch.setattr(harness, "_symmetric_norms", lambda m: seen.append((m, norms(m))) or seen[-1][1])
    p_grid = (1.0, -1.0, 0.5, -0.5, 0.1, -0.1, 0.01, -0.01, 1e-3, -1e-3)
    integral_sweep(trials=96, dims=(16, 32), p_grid=p_grid)
    assert len(seen) > 2
    u = np.finfo(float).eps / 2
    for m, got in seen:
        assert np.array_equal(m, m.swapaxes(-1, -2))
        expected = np.linalg.norm(m, 2, axis=(-2, -1))
        assert got.shape == expected.shape == m.shape[:-2]
        assert (np.abs(got - expected) <= 8 * m.shape[-1] * u * expected).all()


def _counted_quadrature(monkeypatch) -> list[tuple[int, int]]:
    """Record (weights, matrix entries) of every quadrature call of the sweep."""
    calls = []

    def counted(pair, p, nodes):
        calls.append((np.size(p), np.size(p) * pair.A.mat.size))
        return quadrature_tsallis(pair, p, nodes=nodes)

    monkeypatch.setattr(harness, "quadrature_tsallis", counted)
    return calls


def test_integral_sweep_checks_a_stack_at_every_weight_in_one_call(monkeypatch):
    # six stacks of one pair (one per n), six weights each: 36 calls made one per stack
    calls = _counted_quadrature(monkeypatch)
    integral_sweep(trials=6, p_grid=(0.1, -0.1, 0.5, -0.5, 1.0, -1.0), dims=DEFAULT_DIMS)
    assert calls == [(6, 6 * n * n) for n in DEFAULT_DIMS]


def test_integral_sweep_cuts_the_weights_to_the_stack_budget(monkeypatch):
    entries = 40
    monkeypatch.setattr(harness, "STACK_ENTRIES", entries)
    calls = _counted_quadrature(monkeypatch)
    p_grid = (0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 1e-3)
    seed, trials, dims = 5, 30, (1, 2, 3, 6)
    got = integral_sweep(trials=trials, p_grid=p_grid, seed=seed, dims=dims)
    assert max(e for _, e in calls) <= entries
    assert 1 < max(w for w, _ in calls) < len(p_grid)  # some calls hold several weights, none all
    assert sum(w for w, _ in calls) == len(p_grid) * len(list(harness._stacks(next(harness._windows(seed, dims, trials)))))
    assert got == _per_pair_integral_sweep(trials, p_grid, seed, dims)


def test_integral_sweep_reports_the_earliest_of_tied_residuals(monkeypatch):
    # every n = 2 pair and the n = 1 pairs with v > 2 get residual exactly 1
    # (closed is s I with s of few bits, quad is (s + 1) I), the others 0, and
    # each pair its own allowed residual tol * (s + 1).  The n = 1 stack is
    # folded first, yet an earlier n = 2 trial must win the tie
    def closed(pair, p):  # keeps a weight axis of p, as tsallis_entropy does
        s = 2.0 + np.round(8.0 * np.asarray(pair.v)) / 8.0
        return s[..., None, None] * np.eye(pair.n) + 0.0 * np.asarray(p)

    def quad(pair, p, nodes):
        bump = (pair.n == 2) | (np.asarray(pair.v) > 2.0)
        return closed(pair, p) + bump[..., None, None] * np.eye(pair.n)

    seed, trials, dims = 1, 8, (1, 2)
    expected = _per_pair_integral_sweep(trials, (0.5,), seed, dims, quad, closed)
    monkeypatch.setattr(harness, "quadrature_tsallis", quad)
    monkeypatch.setattr(harness, "tsallis_entropy", closed)
    assert integral_sweep(trials=trials, p_grid=(0.5,), seed=seed, dims=dims) == expected


def _traced_peaks(run, *trials) -> list[int]:
    """The traced peak bytes of ``run(t)`` for each t, after one untraced run
    at the largest t.  That run fills the interpreter's and numpy's caches and
    free lists, whose blocks would otherwise count against whichever traced
    run first needs them, so the peaks would depend on the tests run before.
    A traced run still gains about 0.35 KB per stack that the allocator does
    not hold (untraced, ``sys.getallocatedblocks`` stays flat), so the tests
    use windows of 64 trials, whose peak leaves room for that: 20 windows
    peaked at 1.2 to 1.6 times one."""
    run(max(trials))
    peaks = []
    for t in trials:
        tracemalloc.start()
        try:
            run(t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_integral_sweep_memory_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(harness, "WINDOW_TRIALS", 64)
    small, large = _traced_peaks(lambda t: integral_sweep(trials=t, p_grid=(0.5,), dims=(1, 2), seed=3), 64, 1280)
    assert large < 2 * small


def test_integral_sweep_memory_does_not_grow_with_weights():
    # 256 pairs at n = 8 fill a stack (STACK_ENTRIES), so each call holds one
    # weight: the peak is that of one weight's quadrature, however many there are
    grid = np.linspace(-1.0, 1.0, 25)[np.arange(25) != 12]  # 24 weights, 0 left out
    one, many = _traced_peaks(lambda w: integral_sweep(trials=256, p_grid=grid[:w], dims=(8,), seed=3), 1, 24)
    assert many < 2 * one


def test_a_window_does_not_hold_the_whole_schedule():
    # the dimension of every trial (8 bytes each, 80 MB here) was listed before
    # the first window
    tracemalloc.start()
    try:
        first = next(harness._windows(3, (1, 2), 10**7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = harness.WINDOW_TRIALS
    assert first == list(zip(harness.trial_seeds(3, 0, size), [1, 2] * (size // 2)))
    assert peak < 1 << 20


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 41, 3.0, True, "42", None])
def test_master_seed_must_be_a_64_bit_word(seed):
    # the seed was masked to 64 bits: -1 ran the trials of 2^64 - 1, and
    # 2^64 + 41 those of 41
    runs = (
        lambda: run_suite(case_by_id("H1.1"), trials=2, dims=(1,), seed=seed),
        lambda: run_all("H1", trials=2, dims=(1,), seed=seed),
        lambda: integral_sweep(trials=2, p_grid=(0.5,), dims=(1,), seed=seed),
    )
    for run in runs:
        with pytest.raises(InvalidInput, match=r"^master seed must be an integer in \[0, 2\^64\)"):
            run()


def test_master_seed_takes_every_64_bit_word():
    for seed in (0, (1 << 64) - 1, np.uint64((1 << 64) - 1), np.int64(41)):
        collected = []
        run_suite(case_by_id("H1.1"), trials=2, dims=(1,), seed=seed, collect=collected)
        assert [r.seed for r in collected] == harness.trial_seeds(int(seed), 0, 2)


def test_suite_rejects_dimensions_that_are_not_integers():
    # coercing would run (and report) 2.7 as n = 2
    for dims in ((2.7,), ("3",), (True,)):
        with pytest.raises(InvalidInput):
            run_suite(case_by_id("H1.1"), trials=2, dims=dims)


def test_dims_are_read_from_any_iterable():
    def rows(dims):
        collected = []
        run_all("H1", trials=3, dims=dims, seed=5, collect=collected)
        return collected

    expected = rows((1, 2))
    assert rows(np.array([1, 2])) == expected
    assert rows(d for d in (1, 2)) == expected  # one pass serves every suite
    sweep = dict(trials=3, p_grid=(0.5,), seed=5)
    assert integral_sweep(dims=np.array([1, 2]), **sweep) == integral_sweep(dims=(1, 2), **sweep)
    runs = (
        lambda dims: run_suite(case_by_id("H1.1"), trials=2, dims=dims),
        lambda dims: run_all("H1", trials=2, dims=dims),
        lambda dims: integral_sweep(trials=2, p_grid=(0.5,), dims=dims),
    )
    for run in runs:
        for dims in (3, np.array([]), np.array([1.0, 2.0])):
            with pytest.raises(InvalidInput):
                run(dims)


def test_report_dataclass_is_value_comparable():
    a = run_trial(case_by_id("W2.1"), 11, 2)
    b = run_trial(case_by_id("W2.1"), 11, 2)
    assert isinstance(a, MarginReport)
    assert a == b and a is not b


def test_read_reports_rejects_non_boolean_holds(tmp_path):
    r = run_trial(case_by_id("H1.1"), 3, 2)
    row = dict(dataclasses.asdict(r), holds="false", margin=-0.5)
    path = tmp_path / "reports.jsonl"
    path.write_text(json.dumps(dataclasses.asdict(r)) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ReportError, match="line 2.*holds"):
        read_reports(str(path))


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 3.9),
        ("seed", "3"),
        ("seed", True),
        ("seed", -1),
        ("n", "2"),
        ("n", 2.0),
        ("n", 0),
        ("n", False),
        ("u", "0.5"),
        ("v", None),
        ("margin", "nan"),
        ("margin", float("nan")),
        ("scale", float("inf")),
        ("margin", True),
        ("p", "0.5"),
        ("q", float("-inf")),
        ("c", [1.0]),
        ("case_id", 5),
        ("seed", 1 << 64),
    ],
)
def test_read_reports_rejects_coerced_fields(tmp_path, field, value):
    r = run_trial(case_by_id("M3.c"), 3, 2)
    row = dict(dataclasses.asdict(r), **{field: value})
    path = tmp_path / "reports.jsonl"
    path.write_text(json.dumps(dataclasses.asdict(r)) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ReportError, match=f"line 2.*{field}"):
        read_reports(str(path))


def test_report_rows_hold_plain_python_values(tmp_path):
    collected = []
    run_suite(case_by_id("M3.c"), trials=6, dims=(1, 4), collect=collected)
    kinds = {"case_id": str, "seed": int, "n": int, "p": float, "q": float, "c": float,
             "u": float, "v": float, "margin": float, "scale": float, "holds": bool}
    for r in collected:
        d = harness.report_to_dict(r)
        assert d == dataclasses.asdict(r)
        assert tuple(d) == REPORT_FIELDS
        assert {k: type(v) for k, v in d.items()} == kinds


# -- report IO in blocks: the bytes and results of the row-by-row stdlib code --

BLOCK = harness._REPORT_BLOCK


def _row(i: int, **fields) -> MarginReport:
    values = dict(case_id="H1.1", seed=i, n=1 + i % 8, p=0.25 + i / 7, q=None, c=None,
                  u=0.5, v=1.0 + i / 3, margin=1e-3 * i, scale=1.5, holds=True)
    return MarginReport(**{**values, **fields})


def _reference_jsonl(reports) -> str:
    return "".join(json.dumps(harness.report_to_dict(r)) + "\n" for r in reports)


def _reference_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        for r in reports:
            writer.writerow(["" if x is None else x for x in harness.report_to_dict(r).values()])


_EDGE_ROWS = [
    _row(0, p=None, q=None, c=None),
    _row(1, p=-0.0, q=5e-324, c=1e16),
    _row(2, u=float("nan")),
    _row(3, v=float("inf"), margin=float("-inf")),
    _row(4, margin=np.float64(0.1)),
    _row(5, seed=True),
    _row(6, case_id='a "quoted" \\ back\nslash, caf\u00e9 \u2264 \U0001d4af'),
    _row(7, p=1, scale=2),
]


@pytest.mark.parametrize("where", [0, BLOCK - 1, BLOCK, 2 * BLOCK])
def test_report_writers_give_the_stdlib_bytes(tmp_path, where):
    # every edge row alone in a block of plain rows, near the block edges
    for edge in _EDGE_ROWS:
        rows = [_row(i) for i in range(2 * BLOCK + 1)]
        rows[where] = edge
        path = tmp_path / "r.jsonl"
        write_reports_jsonl((r for r in rows), str(path))  # any iterable
        assert path.read_bytes() == _reference_jsonl(rows).encode(), edge
        write_reports_csv((r for r in rows), str(tmp_path / "r.csv"))
        _reference_csv(rows, tmp_path / "ref.csv")
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), edge


def test_report_writers_give_the_stdlib_bytes_for_suite_rows(tmp_path):
    rows = []
    run_all(trials=8, dims=(1, 3), seed=5, collect=rows)
    assert len(rows) > BLOCK
    write_reports_jsonl(rows, str(tmp_path / "r.jsonl"))
    assert (tmp_path / "r.jsonl").read_text() == _reference_jsonl(rows)
    write_reports_csv(rows, str(tmp_path / "r.csv"))
    _reference_csv(rows, tmp_path / "ref.csv")
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("field, value", [("seed", np.int64(3)), ("holds", np.bool_(True))])
def test_jsonl_writer_raises_the_stdlib_error(tmp_path, field, value):
    rows = [_row(i) for i in range(BLOCK + 3)]
    rows[BLOCK + 1] = _row(9, **{field: value})
    with pytest.raises(TypeError) as expected:
        _reference_jsonl(rows)
    path = tmp_path / "r.jsonl"
    with pytest.raises(TypeError) as got:
        write_reports_jsonl(rows, str(path))
    assert str(got.value) == str(expected.value)
    # the rows before the failing one are written, as json.dumps row by row writes them
    assert path.read_text() == _reference_jsonl(rows[: BLOCK + 1])


def _read_reports_line_by_line(path: str) -> list[MarginReport]:
    """The reference reader: one json.loads per line, and each field's
    column rule on that line's value alone."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values = [json.loads(line)[name] for name in REPORT_FIELDS]
                for (name, ok, kind), x in zip(harness._RULES, values):
                    if not ok((x,)):
                        raise TypeError(f"{name!r} must be {kind}, got {x!r}")
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ReportError(f"{path}: malformed report on line {lineno}: {exc}") from exc
            values[3:10] = [x if x is None else float(x) for x in values[3:10]]
            out.append(MarginReport(*values))
    return out


def _lines(count: int) -> list[str]:
    return [json.dumps(dataclasses.asdict(_row(i))) + "\n" for i in range(count)]


def _with(count: int, at: int, line: str) -> str:
    lines = _lines(count)
    lines[at] = line
    return "".join(lines)


_SHUFFLED = json.dumps(dict(reversed(list(dataclasses.asdict(_row(1)).items()))))
_EXTRA = json.dumps({**dataclasses.asdict(_row(1)), "note": [1, {"x": None}]})
_INTS = json.dumps({**dataclasses.asdict(_row(1)), "p": 1, "u": 2, "margin": 0})

_READER_INPUTS = {
    "malformed one past a block": _with(2 * BLOCK, BLOCK, "{broken\n"),
    "malformed at the end of a block": _with(2 * BLOCK, BLOCK - 1, '{"case_id": "H1.1"}\n'),
    "two objects on one line": _with(BLOCK + 5, 3, _lines(2)[0].strip() + _lines(2)[1]),
    "a UTF-8 BOM": "\ufeff" + "".join(_lines(3)),
    "leading and trailing whitespace": _with(BLOCK + 5, BLOCK + 2, " \t" + _lines(1)[0].strip() + "  \n"),
    "CRLF line ends": "".join(line.replace("\n", "\r\n") for line in _lines(BLOCK + 5)),
    "blank lines across a block": "".join(_lines(BLOCK - 2) + ["\n", "  \n", "\r\n", "\n"] + _lines(5)),
    "shuffled and extra keys": _with(BLOCK + 5, BLOCK + 1, _SHUFFLED + "\n").replace(_lines(3)[2], _EXTRA + "\n"),
    "integers in the number fields": _with(BLOCK + 5, 7, _INTS + "\n"),
    "a non-dict line": _with(BLOCK + 5, BLOCK + 3, "[1, 2]\n"),
    "a string line": _with(BLOCK + 5, 2, '"case_id"\n'),
    "a coerced seed after a valid block": _with(2 * BLOCK, BLOCK + 4, _lines(1)[0].replace('"seed": 0', '"seed": -1')),
    "a coerced seed, then a line too deep to decode": _with(
        BLOCK + 5, BLOCK + 3, "[" * 100_000 + "]" * 100_000 + "\n"
    ).replace(_lines(BLOCK + 2)[BLOCK + 1], _lines(1)[0].replace('"seed": 0', '"seed": 2.5')),
    "a NaN margin": _with(BLOCK + 5, BLOCK, _lines(1)[0].replace('"margin": 0.0', '"margin": NaN')),
    "an overflowing sum": _with(BLOCK + 5, 1, _lines(1)[0].replace('"u": 0.5', '"u": 1e308'))
    .replace('"u": 0.5', '"u": 1.7e308'),
    "no final line end": "".join(_lines(BLOCK + 5)).rstrip("\n"),
    "a valid file of 2 blocks + 1": "".join(_lines(2 * BLOCK + 1)),
}


@pytest.mark.parametrize("name", list(_READER_INPUTS))
def test_read_reports_matches_the_line_by_line_reader(tmp_path, name):
    path = tmp_path / "r.jsonl"
    path.write_bytes(_READER_INPUTS[name].encode())
    try:
        expected = _read_reports_line_by_line(str(path))
    except ReportError as exc:
        with pytest.raises(ReportError) as got:
            read_reports(str(path))
        assert str(got.value) == str(exc)
        assert type(got.value.__cause__) is type(exc.__cause__)
    else:
        got = read_reports(str(path))
        assert got == expected
        assert [tuple(map(type, dataclasses.astuple(r))) for r in got] == [
            tuple(map(type, dataclasses.astuple(r))) for r in expected
        ]


def test_read_and_write_reports_memory_does_not_grow_with_the_file(tmp_path):
    rows = [_row(i, case_id=f"C{i % 50}") for i in range(24_000)]
    path = str(tmp_path / "r.jsonl")
    write_reports_jsonl(rows, path)  # warm the caches and free lists
    read_reports(path)
    write_peaks, read_extra = [], []
    for count in (3_000, 24_000):
        tracemalloc.start()
        try:
            write_reports_jsonl(rows[:count], path)
            write_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            back = read_reports(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == count
        del back
        read_extra.append(peak - kept)  # past the returned list: the block in hand
    assert write_peaks[1] < 2 * write_peaks[0]
    assert read_extra[1] < 2 * read_extra[0]


def test_every_suite_row_replays_bit_identically():
    # a suite evaluates its trials in (k, n, n) stacks; a replay is the same kernel with k = 1
    for case in catalog_with_duals():
        collected = []
        run_suite(case, trials=12, dims=(1, 2, 3, 4, 6, 8), seed=2024, collect=collected)
        for r in collected:
            assert replay(r.case_id, r.seed, r.n) == r, r
    collected = []
    run_suite(case_by_id("T3.2"), trials=3, dims=(16,), seed=5, collect=collected)
    assert [replay(r.case_id, r.seed, r.n) for r in collected] == collected


@pytest.mark.parametrize(
    "setting, value, sizes",
    [
        # 12 trials of n = 2 in stacks of 5 (5 * 4 <= 20), 12 of n = 3 in stacks of 2 (2 * 9 <= 20)
        ("STACK_ENTRIES", 20, [(5, 2), (5, 2), (2, 2)] + [(2, 3)] * 6),
        # windows of trials 0-9, 10-19 and 20-23, each grouped by n in order of first appearance
        ("WINDOW_TRIALS", 10, [(5, 2), (5, 3)] * 2 + [(2, 2), (2, 3)]),
    ],
)
def test_windows_and_stacks_keep_the_rows(monkeypatch, setting, value, sizes):
    case = case_by_id("T2.3")
    whole = []
    run_suite(case, trials=24, dims=(2, 3), seed=11, collect=whole)
    seen = []
    original = harness.stream_draws

    def recording(seeds, n):
        seen.append((len(seeds), n))
        return original(seeds, n)

    monkeypatch.setattr(harness, "stream_draws", recording)
    monkeypatch.setattr(harness, setting, value)
    split = []
    run_suite(case, trials=24, dims=(2, 3), seed=11, collect=split)
    assert split == whole
    assert seen == sizes


def test_replays_of_one_stream_draw_it_once(monkeypatch):
    # every case reads the same streams: the 50 rows of one (seed, n) replay from one draw
    rows = []
    run_all(trials=1, dims=(3,), seed=31, collect=rows)
    assert len(rows) == 50 and len({(r.seed, r.n) for r in rows}) == 1
    harness._TRIAL_DRAWS.clear()
    draws = _counting(monkeypatch, harness, "stream_draws")
    assert [replay(r.case_id, r.seed, r.n) for r in rows] == rows
    assert len(draws) == 1


def test_an_evicted_stream_replays_the_same_bits(monkeypatch):
    # a budget of two n = 2 streams (4 n^2 entries each): the third read drops the first
    monkeypatch.setattr(harness, "TRIAL_ENTRIES", 32)
    harness._TRIAL_DRAWS.clear()
    draws = _counting(monkeypatch, harness, "stream_draws")
    first = [replay("H1.1", seed, 2) for seed in (5, 6, 7)]
    assert len(draws) == 3
    assert replay("H1.1", 5, 2) == first[0] and len(draws) == 4  # dropped, drawn again
    assert replay("H1.1", 7, 2) == first[2] and len(draws) == 4  # kept
    # a numpy integer seed or n reads the Python-int entry
    assert replay("H1.1", np.uint64(7), np.int64(2)) == first[2] and len(draws) == 4
    assert run_trial(case_by_id("H1.1"), np.int64(5), np.uint8(2)) == first[0] and len(draws) == 4
    assert list(harness._TRIAL_DRAWS._kept) == [(7, 2), (5, 2)] and harness._TRIAL_DRAWS._entries == 32
    assert all(type(x) is int for key in harness._TRIAL_DRAWS._kept for x in key)
    # a stream past the whole budget is drawn and not kept
    replay("H1.1", 8, 3)
    assert len(draws) == 5 and list(harness._TRIAL_DRAWS._kept) == [(7, 2), (5, 2)]


def test_suites_and_integral_sweep_do_not_read_the_trial_store(monkeypatch):
    # no stream recurs within one of their calls; a suite whose stacks pass
    # never reruns a window one trial at a time
    harness._TRIAL_DRAWS.clear()
    run_all("H1*", trials=4, dims=(2,), seed=3)
    run_suite(case_by_id("H1.1"), trials=4, dims=(2,), seed=3)
    integral_sweep(trials=4, p_grid=(0.5,), dims=(2,), seed=3)
    assert not harness._TRIAL_DRAWS._kept


def test_the_trial_store_counts_its_streams_when_threads_replay_at_once(monkeypatch):
    # five n = 3 streams fit; two threads replay 13 streams in different orders
    monkeypatch.setattr(harness, "TRIAL_ENTRIES", 5 * 4 * 9)
    harness._TRIAL_DRAWS.clear()
    expected = {seed: replay("T1.1", seed, 3) for seed in range(13)}
    harness._TRIAL_DRAWS.clear()
    seen: list = []

    def replays(start):
        for i in range(60):
            seed = (start + 5 * i) % 13
            seen.append(replay("T1.1", seed, 3) == expected[seed])

    threads = [threading.Thread(target=replays, args=(start,)) for start in (0, 7)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen) == 120 and all(seen)
    kept = harness._TRIAL_DRAWS._kept
    assert harness._TRIAL_DRAWS._entries == sum(4 * n * n for _, n in kept) <= harness.TRIAL_ENTRIES


def test_replay_store_memory_does_not_grow_past_its_budget():
    # n = 64 streams charge 16384 entries each, 8 to the budget: replaying 16
    # or 64 streams not seen before keeps the last 8 either way
    fresh = iter(range(1000, 10**6))

    def run(streams):
        for _ in range(streams):
            replay("H1.1", next(fresh), 64)

    small, large = _traced_peaks(run, 16, 64)
    assert large < 2 * small


def test_suite_memory_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(harness, "WINDOW_TRIALS", 64)
    case = case_by_id("H1.1")
    small, large = _traced_peaks(lambda t: run_suite(case, trials=t, dims=(1, 2), seed=3), 64, 1280)
    assert large < 2 * small


@pytest.mark.parametrize("error", [NumericalBreakdown, HypothesisError])
def test_suite_raises_the_earliest_failing_trial(monkeypatch, error):
    # trials alternate n = 1, 2; trial 4 (n = 1) fails in the stack evaluated
    # first, trial 3 (n = 2) in the second, and trial 3 comes first in trial order
    seed = 9
    trial_seeds = harness.trial_seeds(seed, 0, 6)
    failing = {trial_seeds[3], trial_seeds[4]}

    def flaky(case, stack, **kwargs):
        if failing & set(stack.seeds):
            raise error(f"boom at {sorted(failing & set(stack.seeds))}")
        return evaluate_trials(case, stack, **kwargs)

    whole = []
    run_suite(case_by_id("H1.1"), trials=6, dims=(1, 2), seed=seed, collect=whole)
    monkeypatch.setattr(harness, "evaluate_trials", flaky)
    collected = []
    with pytest.raises(error) as info:
        run_suite(case_by_id("H1.1"), trials=6, dims=(1, 2), seed=seed, collect=collected)
    message = str(info.value)
    expected = f"trial (case_id, seed, n) = ('H1.1', {trial_seeds[3]}, 2): boom at [{trial_seeds[3]}]"
    assert re.match(re.escape(expected), message)
    assert isinstance(info.value.__cause__, error)
    assert collected == whole[:3]  # the reports of the trials before the failing one


def test_suite_passes_other_errors_through_unchanged(monkeypatch):
    seed = 9

    def flaky(case, stack, **kwargs):
        if harness.trial_seeds(seed, 2, 3)[0] in stack.seeds:
            raise ZeroDivisionError("not a trial error")
        return evaluate_trials(case, stack, **kwargs)

    monkeypatch.setattr(harness, "evaluate_trials", flaky)
    with pytest.raises(ZeroDivisionError, match="^not a trial error$"):
        run_suite(case_by_id("H1.1"), trials=6, dims=(1, 2), seed=seed)


def test_a_stack_error_that_no_trial_raises_alone_follows_every_row(monkeypatch):
    # every stack of the window (two trials at each n) raises, yet each trial
    # evaluates on its own: the one-trial rerun collects all 12 rows, reading
    # their streams through the replay store, then the stack's error is raised
    stack_error = ValueError("stacks of k > 1 only")
    evaluate_stack = harness._evaluate_stack

    def single_only(case, seeds, n, shared):
        if len(seeds) > 1:
            raise stack_error
        return evaluate_stack(case, seeds, n, shared)

    monkeypatch.setattr(harness, "_evaluate_stack", single_only)
    harness._TRIAL_DRAWS.clear()
    rows = []
    with pytest.raises(ValueError) as info:
        run_suite(case_by_id("H1.1"), trials=12, collect=rows)
    assert info.value is stack_error and str(info.value) == "stacks of k > 1 only"
    assert len(rows) == 12
    assert set(harness._TRIAL_DRAWS._kept) == {(r.seed, r.n) for r in rows}
    assert all(replay(r.case_id, r.seed, r.n) == r for r in rows)


def test_cases_on_one_planner_check_each_hypothesis_of_their_own(monkeypatch):
    # T1.1.pos draws from T1.1's planner, which draws p < 0 as well, under a
    # hypothesis that admits only p > 0.  A checked stack is shared only by
    # cases with the same planner and hypothesis, so the copy raises its own
    # HypothesisError, with its replay triple, on the stacks T1.1 passed
    t11 = case_by_id("T1.1")
    copy = dataclasses.replace(t11, id="T1.1.pos", hypothesis=R_U1_PPOS)
    monkeypatch.setattr(harness, "find_cases", lambda pattern: [t11, copy])
    kwargs = dict(trials=24, dims=(1, 2), seed=42)
    alone = []
    run_suite(t11, collect=alone, **kwargs)

    def outside(seed, n):
        try:
            run_trial(copy, seed, n)
        except HypothesisError:
            return True
        return False

    schedule = [(s, (1, 2)[i % 2]) for i, s in enumerate(harness.trial_seeds(42, 0, 24))]
    seed, n = next((s, n) for s, n in schedule if outside(s, n))
    collected = []
    with pytest.raises(HypothesisError) as info:
        run_all(collect=collected, **kwargs)
    expected = f"trial (case_id, seed, n) = ('T1.1.pos', {seed}, {n}): case T1.1.pos hypothesis [{R_U1_PPOS.text}]"
    assert str(info.value).startswith(expected)
    assert collected[:24] == alone
    assert [r.seed for r in collected[24:]] == [s for s, _ in schedule[: schedule.index((seed, n))]]


@pytest.mark.parametrize("window", [7, 1024])
def test_each_suite_result_is_the_trial_order_fold_of_its_rows(monkeypatch, window):
    # a suite folds its windows' columns; each result must be the sequential
    # fold of its collected rows in trial order, bit for bit.  Swapped (false)
    # forms fail on every trial, S <= T[p] on T1.1's stacks fails where p < 0
    # only, a term against itself ties every margin at 0 (the worst seed is
    # the earliest trial's), and windows of 7 trials split each suite
    monkeypatch.setattr(harness, "WINDOW_TRIALS", window)
    swapped = map(case_by_id, ("H1.1", "T1.1", "M3.c"))
    cases = [dataclasses.replace(c, id=c.id + ".swapped", lhs=c.rhs, rhs=c.lhs) for c in swapped]
    t11 = case_by_id("T1.1")
    cases += [
        dataclasses.replace(t11, id="S <= T[p]", lhs=catalog.T_S, rhs=catalog.T_TS),
        dataclasses.replace(t11, id="T[p] <= T[p]", lhs=catalog.T_TS, rhs=catalog.T_TS),
        case_by_id("W2.1"),
    ]
    monkeypatch.setattr(harness, "find_cases", lambda pattern: cases)
    trials = 40
    rows = []
    results = run_all(trials=trials, dims=(1, 2, 3), seed=5, collect=rows)
    folds = []
    for case, result in zip(cases, results):
        mine = [r for r in rows if r.case_id == case.id]
        assert [r.seed for r in mine] == harness.trial_seeds(5, 0, trials)
        failures, worst, worst_seed, total = 0, math.inf, 0, 0.0
        for r in mine:
            failures += not r.holds
            total += r.margin
            if r.margin < worst:
                worst, worst_seed = r.margin, r.seed
        assert (result.failures, result.worst_margin.hex(), result.worst_seed, result.mean_margin.hex()) == (
            failures,
            worst.hex(),
            worst_seed,
            (total / trials).hex(),
        ), case.id
        folds.append((failures, worst, worst_seed))
    failures = [f for f, _, _ in folds]
    assert failures[:3] == [trials] * 3 and 0 < failures[3] < trials and failures[4:] == [0, 0]
    assert folds[4][1:] == (0.0, rows[4 * trials].seed)  # every margin ties: the earliest trial's seed


def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` in the returned list's length."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_run_all_rows_are_the_per_case_suites_rows(monkeypatch):
    # M3* holds cases with and without sandwich edges.  Windows of 8 trials at
    # n = 2, 3 give six stacks of 4 trials (64 and 144 shared entries): the
    # first window's two stacks and the second window's n = 2 stack fit in 300
    # entries, and every case draws the other three again
    monkeypatch.setattr(harness, "WINDOW_TRIALS", 8)
    monkeypatch.setattr(harness, "SHARED_ENTRIES", 300)
    cases = harness.find_cases("M3*")
    kwargs = dict(trials=24, dims=(2, 3), seed=17)
    separate, separate_results = [], []
    for case in cases:
        separate_results.append(run_suite(case, collect=separate, **kwargs))
    draws = _counting(monkeypatch, harness, "stream_draws")
    together = []
    together_results = run_all("M3*", collect=together, **kwargs)
    assert together == separate
    assert [dataclasses.replace(r, elapsed_ms=0) for r in together_results] == [
        dataclasses.replace(r, elapsed_ms=0) for r in separate_results
    ]
    assert len(draws) == 6 + 3 * (len(cases) - 1)


def _counting_terms(monkeypatch) -> list:
    """Count the term evaluations of ``run_all`` in the returned list's
    length: the cases it finds get counting terms, one per catalog term, so
    the cases of one plan still share each term."""
    calls = []
    counting = {}

    def counted(term):
        if term not in counting:
            fn = term.fn
            counting[term] = dataclasses.replace(term, fn=lambda pair, pr: calls.append(None) or fn(pair, pr))
        return counting[term]

    find = harness.find_cases
    monkeypatch.setattr(
        harness,
        "find_cases",
        lambda pattern: [dataclasses.replace(c, lhs=counted(c.lhs), rhs=counted(c.rhs)) for c in find(pattern)],
    )
    return calls


def test_run_all_builds_each_plans_pairs_and_terms_once(monkeypatch):
    # the 50 cases read 29 plans, each with one hypothesis, and 82 (plan,
    # term) values, so at 6 dims (one stack each) a call builds and checks
    # 29 x 6 pairs, not 50 x 6, and evaluates 82 x 6 terms, not 100 x 6; each
    # entry is dropped at its last reader
    builds = _counting(monkeypatch, harness, "pair_from_base")
    checks = _counting(monkeypatch, Region, "check")
    terms = _counting_terms(monkeypatch)
    memos = []
    shared = harness._SharedStacks
    monkeypatch.setattr(harness, "_SharedStacks", lambda cases: memos.append(shared(cases)) or memos[-1])
    run_all(trials=60, seed=42)
    assert (len(builds), len(checks), len(terms)) == (174, 174, 492)
    assert (memos[0]._kept, memos[0]._entries) == ({}, 0)
    run_all("M3*", trials=60, seed=42)  # nine cases on nine plans share only the draws
    assert (len(builds), len(checks), len(terms)) == (174 + 9 * 6, 174 + 9 * 6, 492 + 18 * 6)
    run_suite(case_by_id("T1.1"), trials=60, seed=42)  # a lone suite checks each of its 6 stacks once
    assert len(builds) == len(checks) == 174 + 9 * 6 + 6
    # a plan swapped per case (as a tracer does) gets entries of its own
    find = harness.find_cases

    def swapped(case):
        return dataclasses.replace(case, plan=lambda words: case.plan(words))

    monkeypatch.setattr(harness, "find_cases", lambda pattern: [swapped(c) for c in find(pattern)])
    run_all("T1R*", trials=12, dims=(1, 2), seed=42)
    assert len(builds) == len(checks) == 174 + 9 * 6 + 6 + 8 * 2


@pytest.mark.parametrize("entries", [None, 700])
def test_run_all_rows_are_the_per_case_rows_where_cases_share_plans(monkeypatch, entries):
    # T* has 20 cases on 6 plans, and 24 trials at n = 2, 3 make two stacks of
    # 12 (192 and 432 entries of draws, 48 and 108 for a pair's B and as many
    # for a term value): the default budget keeps every pair, one of 700 only
    # some
    cases = harness.find_cases("T*")
    kwargs = dict(trials=24, dims=(2, 3), seed=17)
    separate = []
    for case in cases:
        run_suite(case, collect=separate, **kwargs)
    if entries is not None:
        monkeypatch.setattr(harness, "SHARED_ENTRIES", entries)
    builds = _counting(monkeypatch, harness, "pair_from_base")
    together = []
    run_all("T*", collect=together, **kwargs)
    assert together == separate
    plans, stacks = len({c.plan for c in cases}), 2
    if entries is None:
        assert len(builds) == plans * stacks
    else:
        assert plans * stacks < len(builds) < len(cases) * stacks


@pytest.mark.parametrize("pattern, entries", [("T*", None), ("T*", 800), ("TA", None)])
def test_run_all_memo_counts_the_arrays_its_entries_hold(monkeypatch, pattern, entries):
    # checked as each reader starts: the memo's total is its charge rule,
    # n x n per trial for each kept array (four for the draws' A, its square
    # root, C's basis and X; one for a checked stack, whose pair may form B
    # on a later read; one for a term value), within the budget, and the
    # arrays the entries hold of their own never exceed it.  A checked
    # stack's pair is read through _b, which forms nothing.  TA's terms read
    # C, which the pair assembles for that read and does not keep, and not
    # B, so TA's checked stacks hold no array; the rows stay those of the
    # cases run one at a time
    kwargs = dict(trials=24, dims=(2, 3), seed=17) if pattern == "T*" else dict(trials=64, dims=(1, 2), seed=3)
    separate = []
    for case in harness.find_cases(pattern):
        run_suite(case, collect=separate, **kwargs)
    if entries is not None:
        monkeypatch.setattr(harness, "SHARED_ENTRIES", entries)
    reader = harness._SharedStacks.reader
    kinds = set()

    def checked(memo, *args):
        charge = held_total = 0
        for (*key, (n, seeds)), value in memo._kept.items():
            if not key:
                base = value[1]
                kind, held = "draws", [base.a.mat, base.sqrt_a.mat, base.q_c, base.x]
            elif isinstance(key[1], Region):  # (plan, hypothesis)
                assert isinstance(value, CheckedStack)
                kind, held = "stack", [] if value.pair._b is None else [value.pair._b.mat]  # read without forming B
            else:  # (plan, term)
                kind, held = "term", [value]
            assert all(m.shape[-2:] == (n, n) and m.size == len(seeds) * n * n for m in held)
            charge += (4 if not key else 1) * len(seeds) * n * n
            held_total += sum(m.size for m in held)
            kinds.add((kind, len(held)))
        assert memo._entries == charge <= harness.SHARED_ENTRIES
        assert held_total <= charge
        return reader(memo, *args)

    monkeypatch.setattr(harness._SharedStacks, "reader", checked)
    together = []
    run_all(pattern, collect=together, **kwargs)
    assert together == separate
    # (entry kind, arrays held): draws, a checked stack holding no B, one
    # holding B, a term value
    assert kinds == {("draws", 4), ("stack", 0), ("term", 1)} | ({("stack", 1)} if pattern == "T*" else set())


def test_run_all_draws_each_stack_once_per_call(monkeypatch):
    qr = _counting(monkeypatch, np.linalg, "qr")
    run_all("H1", trials=12, dims=(1, 2))  # two cases, one stack per n
    assert len(qr) == 2
    run_all("H1", trials=12, dims=(1, 2))  # a new call draws again
    assert len(qr) == 4
    run_all("H1.1", trials=12, dims=(1, 2))  # one case shares nothing
    assert len(qr) == 6


def test_run_all_eigensolves_only_verdicts(monkeypatch):
    # 50 cases x 6 dims make 300 stacks: each has one verdict eigvalsh, and no
    # other eigensolve.  Every sampled B, arithmetic and natural power mean and
    # derived pair is certified on its spectral bounds, and each of the 42
    # harmonic-mean stacks (the literal second path) by one Cholesky
    # factorization after its one LU solve, with no inverse.  No eigh at all:
    # the sampled pairs and the derived pairs (lifts of C) are built from
    # spectra they hold.  At n = 16, 32, 64 there are 150 stacks and 21
    # harmonic-mean stacks.  Every assembly Q diag(w) Q^T (A, its square root,
    # X's lifts, C where read) is one spectral_assemble product, and a term
    # that combines entropy lifts on its pair (M1-M3, T1's average) makes one
    catalog = importlib.import_module("oel.catalog")  # the package exports a function of this name
    products = [_counting(monkeypatch, module, "spectral_assemble") for module in (spd_core, means)]
    solves = _counting(monkeypatch, np.linalg, "eigvalsh")
    decompositions = _counting(monkeypatch, np.linalg, "eigh")
    factorizations = _counting(monkeypatch, np.linalg, "cholesky")
    inverses = _counting(monkeypatch, np.linalg, "inv")
    verdicts = _counting(monkeypatch, catalog, "_loewner")
    harmonic = _counting(monkeypatch, catalog, "harmonic_mean")
    run_all(trials=60, seed=42)
    assert (len(verdicts), len(harmonic)) == (300, 42)
    assert (len(solves), len(decompositions)) == (300, 0)
    assert (len(factorizations), len(inverses)) == (42, 0)
    assert sum(map(len, products)) == 618
    run_all(trials=12, dims=(16, 32, 64), seed=42)
    assert (len(verdicts), len(harmonic)) == (300 + 150, 42 + 21)
    assert (len(solves), len(decompositions)) == (300 + 150, 0)
    assert (len(factorizations), len(inverses)) == (42 + 21, 0)
    assert sum(map(len, products)) == 618 + 309


@pytest.mark.parametrize("case_id", ["T2.2", "T3.2"])
def test_a_stack_builds_one_derived_pair(monkeypatch, case_id):
    # T2.2's lhs and T3.2's rhs are evaluated at (A, (A+B)/2); their other
    # sides use no derived pair
    built = _counting(monkeypatch, OperatorPair, "lift_pair")
    run_trial(case_by_id(case_id), 5, 2)
    assert len(built) == 1
    run_suite(case_by_id(case_id), trials=12, dims=(1, 2))  # one stack per n
    assert len(built) == 3


def test_run_all_memory_does_not_grow_with_trials(monkeypatch):
    # 64 trials at n = 1, 2 make two stacks of 32 (96 and 384 shared entries)
    monkeypatch.setattr(harness, "WINDOW_TRIALS", 64)
    monkeypatch.setattr(harness, "SHARED_ENTRIES", 480)
    small, large = _traced_peaks(lambda t: run_all("H1", trials=t, dims=(1, 2), seed=3), 64, 1280)
    assert large < 2 * small


def test_run_all_memory_does_not_grow_with_trials_where_cases_share_plans(monkeypatch):
    # TA's two cases share their plan and T[p]: 64 trials at n = 1, 2 make two
    # stacks of 32, whose draws (640 entries), pairs (160) and T[p] values
    # (160) fill the memo; with no budget, 1280 trials peaked at 12 times 64
    monkeypatch.setattr(harness, "WINDOW_TRIALS", 64)
    monkeypatch.setattr(harness, "SHARED_ENTRIES", 960)
    small, large = _traced_peaks(lambda t: run_all("TA", trials=t, dims=(1, 2), seed=3), 64, 1280)
    assert large < 2 * small


def test_master_seeds_share_no_trial_seeds():
    # with seed ^ i, seeds 1, 2 and 3 all gave the trial seeds {0, ..., 999}
    runs = [set(harness.trial_seeds(seed, 0, 1000)) for seed in (1, 2, 3)]
    assert all(len(run) == 1000 for run in runs)
    assert not (runs[0] & runs[1] or runs[0] & runs[2] or runs[1] & runs[2])
    assert all(0 <= s < 1 << 64 for run in runs for s in run)


def test_suites_and_integral_sweep_use_the_trial_seeds(monkeypatch):
    collected = []
    run_suite(case_by_id("H1.1"), trials=5, dims=(2,), seed=8, collect=collected)
    assert [r.seed for r in collected] == harness.trial_seeds(8, 0, 5)
    seen = []
    original = harness.stream_draws

    def recording(seeds, n):
        seen.extend(seeds)
        return original(seeds, n)

    monkeypatch.setattr(harness, "stream_draws", recording)
    integral_sweep(trials=4, p_grid=(0.5,), seed=8)
    assert seen == harness.trial_seeds(8, 0, 4)
