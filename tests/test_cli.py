import csv
import json

import pytest

from oel import harness
from oel.cli import main
from oel.errors import HypothesisError, InvalidInput, NumericalBreakdown
from oel.harness import read_reports, replay

REPORT_FIELDS = ("case_id", "seed", "n", "p", "q", "c", "u", "v", "margin", "scale", "holds")


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("OEL_SEED", raising=False)


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
    def failing_sampler(words, normals, *targets):
        raise error("boom")

    monkeypatch.setattr(harness, "sandwich_stack", failing_sampler)
    code = main(["verify", "--case", "H1.1", "--trials", "3", "--dims", "3", "--seed", "5"])
    err = capsys.readouterr().err
    assert code == 4
    assert "('H1.1', 5, 3)" in err
    assert "boom" in err


def test_verify_m1_iii_low_band_draw_passes(capsys):
    # this trial's band edge exp(-1/q) sat at 3e-13 before the planner clamped
    # it into the sampling window, and the sampled B lost definiteness
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


def test_verify_env_seed(monkeypatch, capsys):
    def margins(argv, env=None):
        if env is not None:
            monkeypatch.setenv("OEL_SEED", env)
        else:
            monkeypatch.delenv("OEL_SEED", raising=False)
        main(argv)
        return [ln.split(" (")[0] for ln in capsys.readouterr().out.splitlines()]

    base = ["verify", "--case", "T0", "--trials", "4"]
    via_env = margins(base, env="7")
    via_flag = margins(base + ["--seed", "7"])
    assert via_env == via_flag
    # explicit seed wins over the environment
    flag_wins = margins(base + ["--seed", "9"], env="7")
    assert flag_wins == margins(base + ["--seed", "9"])
    assert flag_wins != via_env


def test_verify_bad_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("OEL_SEED", "lots")
    code = main(["verify", "--case", "H1.1", "--trials", "2"])
    assert code == 2
    assert "OEL_SEED" in capsys.readouterr().err


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
    assert lines[0] == "fn_id,p,q,c,x,value"
    assert len(lines) == 5  # two labels, value + expected each


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


def test_integral_ok(capsys):
    code = main(["integral", "--trials", "4", "--p-grid", "0.5,-0.5", "--nodes", "32"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("(ok)") == 2


def test_integral_bad_weight(capsys):
    code = main(["integral", "--trials", "2", "--p-grid", "0"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_integral_without_pairs_is_a_usage_error(capsys, trials):
    code = main(["integral", "--trials", trials, "--p-grid", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "trials must be positive" in captured.err
    assert "(ok)" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_order_tolerance_must_be_finite_and_nonnegative(capsys, tol):
    # a nan tolerance printed "ok" for every integral check and failed every verify trial
    for argv in (["integral", "--trials", "2", "--p-grid", "0.5"], ["verify", "--case", "H1.1", "--trials", "2"]):
        code = main(argv + ["--tol", tol])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "tolerance must be a finite number >= 0" in captured.err
        assert "ok" not in captured.out and "FAIL" not in captured.out
    with pytest.raises(InvalidInput):
        harness.run_suite(harness.case_by_id("H1.1"), trials=2, order_tol=float(tol))
    with pytest.raises(InvalidInput):
        harness.integral_sweep(trials=2, p_grid=(0.5,), tol=float(tol))
    with pytest.raises(InvalidInput):  # replay('H1.1', 1, 2, order_tol=nan).holds read False
        harness.replay("H1.1", 1, 2, order_tol=float(tol))


@pytest.mark.parametrize(
    "argv",
    [
        ["--fns", "tsallis,hh_lower", "--x", "2", "--p", "nan"],
        ["--fns", "tsallis,hh_lower", "--x", "2", "--p", "inf"],
        ["--fns", "chord_log_ratio,log_defect", "--x", "2", "--c", "nan"],
    ],
)
def test_probe_fns_rejects_non_finite_parameters(capsys, argv):
    # --p nan printed nan for both functions and exited 0
    code = main(["probe", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "needs finite parameters" in captured.err
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
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


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
