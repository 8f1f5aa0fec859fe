import csv
import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from oel import harness, scalars
from oel.cli import build_parser, main
from oel.errors import HypothesisError, InvalidInput, NumericalBreakdown
from oel.harness import read_reports, replay
from oel.means import OperatorPair
from oel.spd_core import loewner_leq

catalog = importlib.import_module("oel.catalog")  # the package exports a function of this name

REPORT_FIELDS = ("case_id", "seed", "n", "p", "q", "c", "u", "v", "margin", "scale", "holds")


def test_verify_ok(capsys):
    code = main(["verify", "--case", "H1", "--trials", "5", "--dims", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H1.1: ok" in out and "H1.2: ok" in out
    assert '"total_failures": 0' in out


def test_verify_unknown_case(capsys):
    code = main(["verify", "--case", "NOPE"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_is_deterministic(capsys):
    argv = ["verify", "--case", "T0", "--trials", "4", "--seed", "5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    # timing varies; everything before the elapsed field must not
    strip = lambda s: [ln.split(" (")[0] for ln in s.splitlines()]
    assert strip(first) == strip(second)


@pytest.mark.parametrize("error", [NumericalBreakdown, HypothesisError])
def test_verify_trial_error_exits_4_with_replay_triple(monkeypatch, capsys, error):
    def failing_sampler(base, *targets):
        raise error("boom")

    monkeypatch.setattr(harness, "pair_from_base", failing_sampler)
    code = main(["verify", "--case", "H1.1", "--trials", "3", "--dims", "3", "--seed", "5"])
    err = capsys.readouterr().err
    assert code == 4
    assert f"('H1.1', {harness.trial_seeds(5, 0, 1)[0]}, 3)" in err  # trial 0 of master seed 5
    assert "boom" in err


def test_verify_derived_pair_breakdown_exits_4_with_replay_triple(monkeypatch, capsys):
    # every trial's pair has u = 1.002, inside T2's hypothesis, and
    # B - A = diag(2e-13, 1), which is not strictly positive definite
    a, b = np.diag([1e-10, 1.0]), np.diag([1.002e-10, 2.0])

    def degenerate_pairs(base, u_target, v_target):
        k = len(u_target)
        return OperatorPair(np.broadcast_to(a, (k, 2, 2)), np.broadcast_to(b, (k, 2, 2)))

    monkeypatch.setattr(harness, "pair_from_base", degenerate_pairs)
    code = main(["verify", "--case", "T2.3", "--trials", "3", "--dims", "2", "--seed", "5"])
    err = capsys.readouterr().err
    assert code == 4
    assert f"('T2.3', {harness.trial_seeds(5, 0, 1)[0]}, 2)" in err
    assert "derived pair (A, B - A)" in err


def test_verify_non_finite_term_exits_4_with_replay_triple(monkeypatch, capsys):
    # T1R.1 with its lower term S not finite
    (case,) = catalog.find_cases("T1R.1")
    nan_lhs = dataclasses.replace(case.lhs, fn=lambda pair, pr: np.full_like(pair.A.mat, np.nan))
    monkeypatch.setattr(harness, "find_cases", lambda pattern: [dataclasses.replace(case, lhs=nan_lhs)])
    code = main(["verify", "--case", "T1R.1", "--trials", "3", "--dims", "3", "--seed", "5"])
    err = capsys.readouterr().err
    assert code == 4
    assert f"('T1R.1', {harness.trial_seeds(5, 0, 1)[0]}, 3)" in err
    assert "not finite" in err


def test_verify_m1_iii_low_band_draw_passes(capsys):
    # this trial's band edge exp(-1/q) sat at 3e-13 before the planner clamped
    # it into the sampling window, and the sampled B lost definiteness
    assert replay("M1.iii", 5688, 3).holds  # the trial of seed 5688 at n = 3
    code = main(["verify", "--case", "M1.iii", "--trials", "1", "--dims", "3", "--seed", "5688"])
    assert code == 0
    assert "M1.iii: ok" in capsys.readouterr().out


def test_verify_writes_jsonl(tmp_path, capsys):
    out_path = tmp_path / "r.jsonl"
    code = main(["verify", "--case", "W2", "--trials", "6", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    reports = read_reports(str(out_path))
    assert len(reports) == 12  # W2.1 and its dual W2.1.rev
    raw = json.loads(out_path.read_text().splitlines()[0])
    assert tuple(raw.keys()) == REPORT_FIELDS
    # every written report replays bit-identically
    r = reports[0]
    assert replay(r.case_id, r.seed, r.n) == r


def test_verify_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    main(["verify", "--case", "H2.1", "--trials", "3", "--format", "csv", "--out", str(out_path)])
    capsys.readouterr()
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(REPORT_FIELDS)
    assert len(rows) == 4


def _stdlib_report_bytes(reports, tmp_path) -> dict:
    """The bytes of ``reports`` written one row at a time by json.dumps and
    by csv.writer, by --format."""
    dicts = [harness.report_to_dict(r) for r in reports]
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        writer.writerows(["" if x is None else x for x in d.values()] for d in dicts)
    return {"json": "".join(json.dumps(d) + "\n" for d in dicts).encode(), "csv": (tmp_path / "ref.csv").read_bytes()}


@pytest.mark.parametrize(
    "pattern, dims, trials, store_tokens, case_id",
    [
        # every case and dual at n = 1..8 and 16 (C1 writes no weight, H1 only p)
        pytest.param("*", "1,2,3,4,5,6,7,8,16", 9, None, None, id="*-1,2,3,4,5,6,7,8,16-9"),
        # the same with the JSONL writer's token store bounded to nothing, to
        # one token and to three of these 9-row columns: eviction keeps the bytes
        *(
            pytest.param("*", "1,2,3,4,5,6,7,8,16", 9, tokens, None, id=f"*-1,2,3,4,5,6,7,8,16-9-store{tokens}")
            for tokens in (0, 1, 27)
        ),
        # a case's rows past one write block (256), in windows of 1024 trials
        pytest.param("H1.1", "2,3", 1100, None, None, id="H1.1-2,3-1100"),
        # a case id that JSON escapes, and that a line template must not read as a format
        pytest.param("H1.1", "2,3", 300, None, 'H1.1 %s %% "q" \\ café ≤', id="H1.1-2,3-300-escaped-id"),
    ],
)
def test_verify_out_is_the_stdlib_writers_on_the_collected_reports(
    tmp_path, capsys, monkeypatch, pattern, dims, trials, store_tokens, case_id
):
    if store_tokens is not None:
        monkeypatch.setattr(harness, "STORE_TOKENS", store_tokens)
    if case_id is not None:
        (case,) = catalog.find_cases(pattern)
        monkeypatch.setattr(harness, "find_cases", lambda pattern: [dataclasses.replace(case, id=case_id)])
    reports = []
    harness.run_all(pattern, trials=trials, dims=tuple(map(int, dims.split(","))), seed=8, collect=reports)
    expected = _stdlib_report_bytes(reports, tmp_path)
    assert {r.n for r in reports} == set(map(int, dims.split(",")))
    assert pattern != "*" or {r.p is None for r in reports} == {True, False}
    for fmt in ("json", "csv"):
        out = tmp_path / f"r.{fmt}"
        argv = ["verify", "--case", pattern, "--dims", dims, "--trials", str(trials), "--seed", "8"]
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == expected[fmt], fmt
    capsys.readouterr()


def test_verify_out_with_failing_verdicts_exits_1_and_writes_every_row(tmp_path, capsys, monkeypatch):
    # the swapped forms of H1.1 and T1.2 fail on every trial, between C1.1
    # (no weight) and the dual T1.1.rev, which hold
    index = catalog.case_index()
    swap = lambda case: dataclasses.replace(case, lhs=case.rhs, rhs=case.lhs)
    cases = [swap(index["H1.1"]), index["C1.1"], index["T1.1.rev"], swap(index["T1.2"])]
    monkeypatch.setattr(harness, "find_cases", lambda pattern: cases)
    reports = []
    harness.run_all(trials=12, dims=(1, 2, 3), seed=4, collect=reports)
    assert [r.holds for r in reports] == [False] * 12 + [True] * 24 + [False] * 12
    expected = _stdlib_report_bytes(reports, tmp_path)
    for fmt in ("json", "csv"):
        out = tmp_path / f"r.{fmt}"
        argv = ["verify", "--dims", "1,2,3", "--trials", "12", "--seed", "4"]
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 1
        assert out.read_bytes() == expected[fmt], fmt
    capsys.readouterr()


def test_verify_out_that_raises_mid_run_exits_4_and_writes_no_file(tmp_path, capsys, monkeypatch):
    # H1.1's suite runs, then H1.2's second stack raises
    kernel = harness.evaluate_trials

    def failing(case, stack, **kwargs):
        if case.id == "H1.2" and stack.pair.n == 2:
            raise NumericalBreakdown("boom")
        return kernel(case, stack, **kwargs)

    monkeypatch.setattr(harness, "evaluate_trials", failing)
    out = tmp_path / "r.jsonl"
    code = main(["verify", "--case", "H1", "--dims", "1,2", "--trials", "4", "--seed", "5", "--out", str(out)])
    assert code == 4
    assert f"('H1.2', {harness.trial_seeds(5, 1, 2)[0]}, 2)" in capsys.readouterr().err
    assert not out.exists()


def test_verify_out_builds_no_report_object(tmp_path, capsys, monkeypatch):
    # --out holds its rows as column blocks until they are written; a report
    # is built by catalog._report or by MarginReport's own __init__
    built = []
    report, init = catalog._report, catalog.MarginReport.__init__
    monkeypatch.setattr(catalog, "_report", lambda *values: built.append(values) or report(*values))
    monkeypatch.setattr(catalog.MarginReport, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    argv = ["verify", "--trials", "6", "--dims", "1,2,3"]
    assert main([*argv, "--out", str(tmp_path / "r.jsonl")]) == 0
    assert main([*argv, "--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    assert built == []
    # the counts see every report that a list collects
    rows = []
    harness.run_all(trials=6, dims=(1, 2, 3), collect=rows)
    assert len(built) == len(rows) == 50 * 6
    capsys.readouterr()


def test_verify_out_hands_the_writer_its_row_count(tmp_path, capsys):
    # the rows a sink holds are its len(), as for a list of the same
    # reports: the benchmark's layer tracer reads a write's row count so
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("_layertrace_rows", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    argv = ["verify", "--case", "H1", "--dims", "1,2", "--trials", "1100", "--seed", "5"]
    with layertrace.Tracer() as tracer:
        assert main([*argv, "--out", str(tmp_path / "r.jsonl")]) == 0
        assert main([*argv, "--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    rows = harness.ReportBlocks()
    harness.run_all("H1", trials=1100, dims=(1, 2), seed=5, collect=rows)
    assert len(rows) == sum(len(block.holds) for block in rows) == len(harness.find_cases("H1")) * 1100
    assert tracer.rows["write"] == 2 * len(rows)  # one JSONL and one CSV write
    capsys.readouterr()


def _run_under_env_seed(monkeypatch, capsys, tmp_path, env):
    # the bytes of `verify --out`, its stdout without timings and the stdout
    # of `integral`, with OEL_SEED unset (env None) or set to env
    if env is None:
        monkeypatch.delenv("OEL_SEED", raising=False)
    else:
        monkeypatch.setenv("OEL_SEED", env)
    out = tmp_path / f"{env}.jsonl"
    assert main(["verify", "--case", "T0", "--trials", "4", "--out", str(out)]) == 0
    verify = [ln.split(" (")[0] for ln in capsys.readouterr().out.splitlines()]
    assert main(["integral", "--trials", "2"]) == 0
    return out.read_bytes(), verify, capsys.readouterr().out


def test_verify_env_seed(monkeypatch, capsys, tmp_path):
    # OEL_SEED=7 oel verify wrote the seed-7 rows, and nothing it printed or
    # wrote named the seed; the command line alone now decides the run
    clean = _run_under_env_seed(monkeypatch, capsys, tmp_path, None)
    assert _run_under_env_seed(monkeypatch, capsys, tmp_path, "7") == clean


def test_verify_bad_env_seed(monkeypatch, capsys, tmp_path):
    # OEL_SEED=lots was a usage error; OEL_SEED is no longer read at all
    clean = _run_under_env_seed(monkeypatch, capsys, tmp_path, None)
    assert _run_under_env_seed(monkeypatch, capsys, tmp_path, "lots") == clean


@pytest.mark.parametrize("how", ["flag", "env"])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551657"])
def test_verify_and_integral_reject_seeds_outside_64_bits(monkeypatch, capsys, how, seed):
    # -1 and 2^64 - 1 wrote byte-identical reports, as did 2^64 + 41 and 41;
    # --seed refuses such a seed, and OEL_SEED, no longer read, cannot pass one
    for command in (["verify", "--case", "H1.1", "--trials", "2"], ["integral", "--trials", "2", "--p-grid", "0.5"]):
        if how == "env":
            monkeypatch.delenv("OEL_SEED", raising=False)
            assert main(command) == 0
            clean = capsys.readouterr().out.splitlines()
            monkeypatch.setenv("OEL_SEED", seed)
            assert main(command) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert [ln.split(" (")[0] for ln in captured.out.splitlines()] == [ln.split(" (")[0] for ln in clean]
            continue
        assert main(command + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "master seed must be an integer in [0, 2^64)" in captured.err
        assert "ok" not in captured.out


def test_probe_all(capsys):
    code = main(["probe"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("probe ")]
    assert len(lines) == 8  # 2 + 2 + 4 labelled values
    assert all(ln.endswith("(ok)") for ln in lines)
    for pid in ("2.3i", "2.3ii", "2.5"):
        assert f"probe {pid} " in out


def test_probe_single_value_text(capsys):
    code = main(["probe", "2.3i"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.071123" in out and "-0.023104" in out


def test_probe_unknown_id(capsys):
    code = main(["probe", "9.9"])
    assert code == 2
    assert "unknown probe id" in capsys.readouterr().err


def test_probe_json_out(tmp_path, capsys):
    out_path = tmp_path / "probe.json"
    main(["probe", "2.5", "--out", str(out_path)])
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload[0]["probe_id"] == "2.5"
    assert payload[0]["ok"] is True
    assert len(payload[0]["values"]) == 4


def test_probe_csv_out(tmp_path, capsys):
    out_path = tmp_path / "probe.csv"
    main(["probe", "2.3ii", "--format", "csv", "--out", str(out_path)])
    capsys.readouterr()
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "fn_id,p,c,x,value"
    assert len(lines) == 5  # two labels, value + expected each


def test_probe_csv_evaluates_each_probe_once(tmp_path, capsys, monkeypatch):
    # the CSV rows are built from the values the command printed, with the
    # bytes of the rows probe_rows builds
    calls = []
    run_probe = scalars.run_probe
    monkeypatch.setattr(scalars, "run_probe", lambda pid: calls.append(pid) or run_probe(pid))
    out_path = tmp_path / "probe.csv"
    assert main(["probe", "--format", "csv", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert calls == sorted(scalars.PROBES)
    ref = tmp_path / "ref.csv"
    scalars.export_rows_csv([row for pid in sorted(scalars.PROBES) for row in scalars.probe_rows(pid)], str(ref))
    assert out_path.read_bytes() == ref.read_bytes()


def test_probe_fns_diff(capsys):
    code = main(["probe", "--fns", "hh_lower,tsallis", "--x", "1.5,2.5", "--p", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("diff=") == 2
    # at p=1/2 the hermite-hadamard lower member sits below the tsallis value
    for ln in out.splitlines():
        assert float(ln.rsplit("diff=", 1)[1]) > 0.0


def test_probe_fns_usage_errors(capsys):
    assert main(["probe", "--fns", "tsallis", "--x", "2.0", "--p", "0.5"]) == 2
    capsys.readouterr()
    assert main(["probe", "--fns", "hh_lower,tsallis", "--p", "0.5"]) == 2
    capsys.readouterr()
    assert main(["probe", "--fns", "hh_lower,nosuch", "--x", "2.0", "--p", "0.5"]) == 2
    capsys.readouterr()
    assert main(["probe", "2.5", "--fns", "hh_lower,tsallis", "--x", "2.0", "--p", "0.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "2.3i", "--p", "0.5"],
        ["probe", "--x", "1,2"],
        ["probe", "--c", "0.5"],
        ["probe", "--format", "csv"],
        ["probe", "--fns", "hh_lower,tsallis", "--x", "2", "--p", "0.5", "--format", "json"],
        ["verify", "--case", "H1.1", "--trials", "1", "--format", "csv"],
    ],
)
def test_a_flag_without_effect_is_a_usage_error(argv, capsys, monkeypatch):
    # --x, --p and --c are read only with --fns (a pinned probe has its
    # own points) and --format only with --out: given alone, each is refused
    # before anything runs, not ignored
    ran = []
    monkeypatch.setattr(harness, "run_all", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(scalars, "run_probe", lambda pid: ran.append(pid))
    monkeypatch.setattr(scalars, "grid_rows", lambda *a, **k: ran.append(a))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "need" in captured.err
    assert ran == []


def test_integral_ok(capsys):
    code = main(["integral", "--trials", "4", "--p-grid", "0.5,-0.5", "--nodes", "32"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("(ok)") == 2


def test_integral_defaults_are_the_sweeps_defaults():
    # `oel integral` with no option runs integral_sweep's own default sweep
    args = build_parser().parse_args(["integral"])
    signature = inspect.signature(harness.integral_sweep).parameters
    for name in ("trials", "p_grid", "nodes", "tol", "dims", "seed"):
        assert getattr(args, name) == signature[name].default, name


def test_verify_defaults_are_run_alls_defaults():
    # `oel verify` with no option runs run_all's own default suite
    args = build_parser().parse_args(["verify"])
    signature = inspect.signature(harness.run_all).parameters
    for name in ("trials", "dims", "seed"):
        assert getattr(args, name) == signature[name].default, name


def test_integral_bad_weight(capsys):
    code = main(["integral", "--trials", "2", "--p-grid", "0"])
    assert code == 2
    capsys.readouterr()


def test_integral_rejects_nodes_past_100(monkeypatch, capsys):
    # --nodes 100000 handed leggauss an 80 GB companion matrix
    def never(deg):
        raise AssertionError(f"leggauss({deg!r}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", never)
    code = main(["integral", "--trials", "2", "--p-grid", "0.5", "--nodes", "101"])
    captured = capsys.readouterr()
    assert code == 2
    assert "nodes must be an integer in [2, 100]" in captured.err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_integral_without_pairs_is_a_usage_error(capsys, trials):
    code = main(["integral", "--trials", trials, "--p-grid", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "trials must be positive" in captured.err
    assert "(ok)" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_order_tolerance_must_be_finite_and_nonnegative(capsys, tol):
    # a nan tolerance printed "ok" for every integral check
    code = main(["integral", "--trials", "2", "--p-grid", "0.5", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert "tolerance must be a finite number >= 0" in captured.err
    assert "ok" not in captured.out and "FAIL" not in captured.out
    # verify has no tolerance: every row it writes replays from its triple
    code = main(["verify", "--case", "H1.1", "--trials", "2", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert "unrecognized arguments: --tol" in captured.err
    assert "ok" not in captured.out and "FAIL" not in captured.out
    with pytest.raises(InvalidInput):
        harness.integral_sweep(trials=2, p_grid=(0.5,), tol=float(tol))
    # the public comparator keeps the same rule: loewner_leq(2 I, I, order_tol=inf) held
    with pytest.raises(InvalidInput, match="tolerance must be a finite number >= 0"):
        loewner_leq(2.0 * np.eye(2), np.eye(2), order_tol=float(tol))


@pytest.mark.parametrize("tol", ["1e-8", None, True, np.bool_(False), [1e-8]])
def test_order_tolerance_must_be_a_real_number(tol):
    # a string or None raised a bare TypeError, and True ran as a tolerance of 1.0
    calls = [
        lambda: loewner_leq(2.0 * np.eye(2), np.eye(2), order_tol=tol),
        lambda: harness.integral_sweep(trials=2, p_grid=(0.5,), tol=tol),
    ]
    for call in calls:
        with pytest.raises(InvalidInput, match="tolerance must be a finite number >= 0"):
            call()


@pytest.mark.parametrize(
    "argv",
    [
        ["--fns", "tsallis,hh_lower", "--x", "2", "--p", "nan"],
        ["--fns", "tsallis,hh_lower", "--x", "2", "--p", "inf"],
        ["--fns", "chord_log_ratio,log_defect", "--x", "2", "--c", "nan"],
        # a parameter that neither function takes was not checked
        ["--fns", "tsallis,hh_lower", "--x", "2", "--p", "0.5", "--c", "nan"],
    ],
)
def test_probe_fns_rejects_non_finite_parameters(capsys, argv):
    # --p nan printed nan for both functions and exited 0
    code = main(["probe", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "needs finite parameters" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fns", ["arith,arith", "power,arith"])
@pytest.mark.parametrize("x", ["nan", "inf", "-1", "0"])
def test_probe_fns_rejects_points_outside_x_positive(capsys, fns, x):
    # arith,arith at --x nan printed nan and exited 0, and at --x -1 evaluated
    # arith outside x > 0, while power,arith exited 2
    code = main(["probe", "--fns", fns, "--x", x, "--p", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "needs finite points x > 0" in captured.err
    assert captured.out == ""


def test_report_roundtrip(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    main(["verify", "--case", "H1.1", "--trials", "4", "--seed", "1", "--out", str(a)])
    main(["verify", "--case", "H1.1", "--trials", "6", "--seed", "2", "--out", str(b)])
    capsys.readouterr()
    code = main(["report", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    assert summary["cases"]["H1.1"]["trials"] == 10
    assert summary["total_failures"] == 0


def test_report_out_file(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    main(["verify", "--case", "H1.1", "--trials", "3", "--out", str(a)])
    capsys.readouterr()
    dest = tmp_path / "summary.json"
    assert main(["report", str(a), "--out", str(dest)]) == 0
    capsys.readouterr()
    assert json.loads(dest.read_text())["total_trials"] == 3


def test_report_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n")
    code = main(["report", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 1" in err


def test_report_missing_file(tmp_path, capsys):
    code = main(["report", str(tmp_path / "absent.jsonl")])
    assert code == 3
    capsys.readouterr()


def test_usage_errors_from_argparse(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["verify", "--dims", "0,2"]) == 2
    capsys.readouterr()
    assert main(["verify", "--dims", "a"]) == 2
    assert "bad dimension list 'a'" in capsys.readouterr().err
    assert main(["probe", "--fns", "tsallis,hh_lower", "--x", "a"]) == 2
    assert "bad float list 'a'" in capsys.readouterr().err
    assert main(["probe", "--fns", "tsallis,hh_lower", "--x", ","]) == 2
    assert "empty float list" in capsys.readouterr().err
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["verify", "--dims", "0"], ["verify", "--dims", ","], ["integral", "--dims", "0"]])
def test_bad_dims_exit_2_before_any_draw(monkeypatch, capsys, argv):
    # the command line only parses --dims; harness._dims holds the rule
    def never(*args):
        raise AssertionError("drew a stack")

    monkeypatch.setattr(harness, "_draw", never)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "bad dims" in captured.err and captured.out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "oel", "probe", "2.3i"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "(ok)" in proc.stdout
