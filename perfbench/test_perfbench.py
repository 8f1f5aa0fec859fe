"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layertrace import TRIAL_LAYERS, Tracer  # noqa: E402

harness = importlib.import_module("oel.harness")
scalars = importlib.import_module("oel.scalars")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def tiny(name: str):
    return {
        "catalog_small": lambda: workloads.Catalog("catalog_small", (1, 2), trials=2),
        "catalog_large": lambda: workloads.Catalog("catalog_large", (16,), trials=1),
        "triage": lambda: workloads.Triage(stream_trials=2, dims=(1, 2)),
        "integral_grids": lambda: workloads.IntegralGrids(calls=1, pairs=1),
    }[name]()


def test_spec_names_workloads_and_units_the_code_uses():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {n: workloads.layer_unit(n) for n in PER_LAYER}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_metric(name, trace, tmp_path):
    result, notes = workloads.run(name, 3, 0.01, trace, ROOT, workload=tiny(name))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())
    assert notes["passes"] >= 1


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    runs = []
    for _ in range(2):
        workload = tiny("catalog_small")
        state = workload.setup(5, tmp_path)
        with Tracer() as tracer:
            workload.run_pass(state, workloads.Tally())
        m = tracer.layer_metrics()
        runs.append(m)
        assert sum(m[k] for k in TRIAL_LAYERS) == pytest.approx(m["harness.trial_us"], rel=1e-9)
    for key in ("spd_core.eig_calls", "spd_core.validations", "means.pair_builds"):
        assert runs[0][key] == runs[1][key] > 0


def test_tracer_restores_every_binding():
    before = (harness.run_trial, harness.find_cases, scalars.sign_table, workloads.cli.main)
    with Tracer():
        assert harness.run_trial is not before[0]
    assert (harness.run_trial, harness.find_cases, scalars.sign_table, workloads.cli.main) == before


def test_replay_gate_trips_on_flipped_margin_and_wrong_n():
    rows: list = []
    harness.run_all("H1.1", trials=2, dims=(3,), seed=11, collect=rows)
    tally = workloads.Tally()
    workloads.checked_replay(rows[0], tally)
    assert tally.failed == 0
    workloads.checked_replay(dataclasses.replace(rows[0], margin=-rows[0].margin), tally)
    assert tally.failed == 1
    workloads.checked_replay(dataclasses.replace(rows[1], n=rows[1].n + 1), tally)
    assert tally.failed == 2


def test_triage_gate_trips_on_corrupted_stream(tmp_path):
    workload = tiny("triage")
    state = workload.setup(7, tmp_path)
    row = state.rows[state.picks[0]]
    state.rows[state.picks[0]] = dataclasses.replace(row, margin=-row.margin)
    tally = workloads.Tally()
    workload.run_pass(state, tally)
    assert tally.failed >= 1


def test_catalog_gate_trips_on_a_failing_verdict(tmp_path, monkeypatch):
    workload = tiny("catalog_small")
    state = workload.setup(9, tmp_path)
    evaluate = harness.evaluate

    def failing(case, pair, params, **kw):
        report = evaluate(case, pair, params, **kw)
        return dataclasses.replace(report, holds=False) if case.id == "T0.1" else report

    monkeypatch.setattr(harness, "evaluate", failing)
    tally = workloads.Tally()
    workload.run_pass(state, tally)
    assert tally.failed >= 2  # the verify exit code and the failing rows


def test_grid_gates_trip_on_wrong_results(tmp_path, monkeypatch):
    workload = tiny("integral_grids")
    state = workload.setup(1, tmp_path)
    tsallis = harness.tsallis_entropy
    monkeypatch.setattr(harness, "tsallis_entropy", lambda pair, p: 1.01 * tsallis(pair, p))
    chain = scalars.CHAINS["means_order"]
    monkeypatch.setitem(scalars.CHAINS, "means_order", dataclasses.replace(chain, members=chain.members[::-1]))
    claim = scalars.SIGN_CLAIMS["lower_gap_mixed"]
    monkeypatch.setitem(scalars.SIGN_CLAIMS, "lower_gap_mixed", dataclasses.replace(claim, expected="nonnegative"))
    tally = workloads.Tally()
    workload.run_pass(state, tally)
    assert tally.failed == len(workload.p_grid) + 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "triage", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
