import dataclasses
import json
import re
import tracemalloc

import pytest

from oel import harness
from oel.catalog import MarginReport, catalog_with_duals, evaluate_trials
from oel.errors import HypothesisError, InvalidInput, NumericalBreakdown, ReportError
from oel.harness import (
    DEFAULT_DIMS,
    DEFAULT_SEED,
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

REPORT_FIELDS = ("case_id", "seed", "n", "p", "q", "c", "u", "v", "margin", "scale", "holds")


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
    with pytest.raises(InvalidInput):
        run_suite(case_by_id("H1.1"), trials=0)


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


def test_integral_sweep_small_run_holds():
    results = integral_sweep(trials=6, p_grid=(0.5, -0.5), nodes=32)
    assert all(r.holds for r in results)
    assert all(r.max_residual <= r.max_allowed for r in results)


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
    original = harness.sandwich_stack

    def recording(words, normals, *targets):
        seen.append((len(words), normals.shape[-1]))
        return original(words, normals, *targets)

    monkeypatch.setattr(harness, "sandwich_stack", recording)
    monkeypatch.setattr(harness, setting, value)
    split = []
    run_suite(case, trials=24, dims=(2, 3), seed=11, collect=split)
    assert split == whole
    assert seen == sizes


def test_suite_memory_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(harness, "WINDOW_TRIALS", 32)
    case = case_by_id("H1.1")

    def peak_bytes(trials):
        tracemalloc.start()
        try:
            run_suite(case, trials=trials, dims=(1, 2), seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(32)  # first-call caches
    assert peak_bytes(640) < 2 * peak_bytes(32)


@pytest.mark.parametrize("error", [NumericalBreakdown, HypothesisError])
def test_suite_raises_the_earliest_failing_trial(monkeypatch, error):
    # trials alternate n = 1, 2; trial 4 (n = 1) fails in the stack evaluated
    # first, trial 3 (n = 2) in the second, and trial 3 comes first in trial order
    seed = 9
    failing = {seed ^ 3, seed ^ 4}

    def flaky(case, pair, params, seeds, **kwargs):
        if failing & set(seeds):
            raise error(f"boom at {sorted(failing & set(seeds))}")
        return evaluate_trials(case, pair, params, seeds, **kwargs)

    whole = []
    run_suite(case_by_id("H1.1"), trials=6, dims=(1, 2), seed=seed, collect=whole)
    monkeypatch.setattr(harness, "evaluate_trials", flaky)
    collected = []
    with pytest.raises(error) as info:
        run_suite(case_by_id("H1.1"), trials=6, dims=(1, 2), seed=seed, collect=collected)
    message = str(info.value)
    assert re.match(re.escape(f"trial (case_id, seed, n) = ('H1.1', {seed ^ 3}, 2): boom at [{seed ^ 3}]"), message)
    assert isinstance(info.value.__cause__, error)
    assert collected == whole[:3]  # the reports of the trials before the failing one


def test_suite_passes_other_errors_through_unchanged(monkeypatch):
    seed = 9

    def flaky(case, pair, params, seeds, **kwargs):
        if seed ^ 2 in seeds:
            raise ZeroDivisionError("not a trial error")
        return evaluate_trials(case, pair, params, seeds, **kwargs)

    monkeypatch.setattr(harness, "evaluate_trials", flaky)
    with pytest.raises(ZeroDivisionError, match="^not a trial error$"):
        run_suite(case_by_id("H1.1"), trials=6, dims=(1, 2), seed=seed)
