"""The four oel benchmark workloads, their output gates and their metrics.

oel is driven only through its public functions (``oel.cli.main``,
``oel.harness``, ``oel.scalars``); it receives the inputs made here from the
workload seed: master seeds, matrix dimensions and trial counts.  Every
workload is a closed loop with one client in one process: the next call is
made when the previous one has returned.

A workload is a ``setup`` that builds its inputs and a ``run_pass`` that
performs one fixed unit of work, records timings in a ``Tally`` and checks
every output.  Passes repeat until the measuring time is used up; every
pass of a run does the same work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import PROBE_REF_MS, SpeedProbe

cli = importlib.import_module("oel.cli")
harness = importlib.import_module("oel.harness")
scalars = importlib.import_module("oel.scalars")

SETUP_REPEATS = 5
SMALL_DIMS = (1, 2, 3, 4, 6, 8)
LARGE_DIMS = (16, 32, 64)
CHAIN_TOL = -1e-12  # a chain holds when its worst adjacent gap is >= this (as in A8)

# End-to-end metrics in the result line, with units; the meaning of each per
# workload is tabulated in perfbench/README.md.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "means.pair_builds": "count",
    "spd_core.validations": "count",
    "spd_core.eig_calls": "count",
    "scalars.chain_ms": "ms",
    "scalars.sign_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.work_per_s_untraced": "1/s",
    "trace.work_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "us")


@dataclasses.dataclass
class Tally:
    """Timed intervals and gate outcomes accumulated over the passes of one
    phase.  Intervals are (t0, t1) pairs of ``perf_counter`` readings, turned
    into reference-speed seconds by the ``SpeedProbe`` that ticks between
    the calls."""

    probe: SpeedProbe = dataclasses.field(default_factory=SpeedProbe)
    attempted: int = 0
    failed: int = 0
    calls: list = dataclasses.field(default_factory=list)  # one public call a user waits on
    work: list = dataclasses.field(default_factory=list)  # per pass: (work units, intervals)
    rows: list = dataclasses.field(default_factory=list)  # per pass: (rows, intervals)
    notes: dict = dataclasses.field(default_factory=dict)

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate failed: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        """An operation raised: count it as attempted and failed."""
        self.attempted += 1
        self.failed += 1
        print(f"error in {what}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


@contextlib.contextmanager
def timed(owner, attr: str, sink: list, after=None):
    """Append the interval of every call of ``owner.attr`` to ``sink``, then
    call ``after()``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timer(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((t0, perf_counter()))
            if after is not None:
                after()

    setattr(owner, attr, timer)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``oel`` in-process, returning its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def child_import(root: Path) -> None:
    """A fresh interpreter imports the oel CLI from the checkout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import oel.cli"], env=env, check=True, timeout=120)


def master_seed(seed: int, salt: str) -> int:
    """A 63-bit oel master seed derived from the workload seed."""
    return random.Random(f"{salt}:{seed}").getrandbits(63)


# ---------------------------------------------------------------------------
# catalog_small / catalog_large: `oel verify --out` over all 50 cases
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CatalogState:
    seed: int
    out: Path
    digest: str | None = None


class Catalog:
    """``oel verify`` over the whole catalog, then ``read_reports`` +
    ``summarize`` of the JSONL it wrote.  Work unit: one trial; call: one
    case's suite; rows: report rows written, read and summarized."""

    tail = 0.80
    aliases = {"work_per_s": "trials_per_s", "call_ms_p50": "suite_ms_p50",
               "call_ms_tail": "suite_ms_p80", "rows_per_s": "report_rows_per_s"}

    def __init__(self, name: str, dims: tuple, trials: int) -> None:
        self.name = name
        self.dims = dims
        self.trials = trials

    def manifest(self) -> dict:
        return {"dims": list(self.dims), "trials_per_case": self.trials, "cases": 50}

    def setup(self, seed: int, work: Path) -> CatalogState:
        state = CatalogState(master_seed(seed, self.name), work / f"{self.name}.jsonl")
        code, _ = quiet_cli(["verify", "--trials", "1", "--dims", self._dims_arg(), "--seed", str(state.seed)])
        if code != 0:
            raise RuntimeError(f"warm-up verify exited {code}")
        return state

    def _dims_arg(self) -> str:
        return ",".join(str(d) for d in self.dims)

    def run_pass(self, state: CatalogState, tally: Tally) -> None:
        argv = ["verify", "--trials", str(self.trials), "--dims", self._dims_arg(),
                "--seed", str(state.seed), "--out", str(state.out)]
        suites: list = []
        writes: list = []
        try:
            with timed(harness, "run_suite", suites, tally.probe.tick), timed(harness, "write_reports_jsonl", writes):
                t0 = perf_counter()
                code, text = quiet_cli(argv)
                verify = (t0, perf_counter())
            t0 = perf_counter()
            rows = harness.read_reports(str(state.out))
            summary = harness.summarize(rows)
            read = (t0, perf_counter())
            tally.probe.tick()
        except Exception:
            tally.error(f"{self.name} pass")
            return
        expected = 50 * self.trials
        summary_line = json.loads(text.rsplit("summary: ", 1)[1]) if "summary: " in text else {}
        tally.gate(code == 0, f"oel verify exited {code}")
        tally.gate(summary_line.get("total_trials") == expected and summary_line.get("total_failures") == 0,
                   f"verify summary {summary_line}")
        tally.gate(len(rows) == expected and summary["total_trials"] == expected,
                   f"report holds {len(rows)} rows, expected {expected}")
        for r in rows:
            tally.gate(r.holds, f"failing verdict {r}")
        digest = hashlib.sha256(state.out.read_bytes()).hexdigest()
        if state.digest is None:
            state.digest = digest
        tally.gate(digest == state.digest, "report stream differs between identical passes")
        state.out.unlink()  # each pass writes a new file, as a user writing a new report does
        tally.calls.extend(suites)
        tally.work.append((expected, [verify]))
        tally.rows.append((expected, writes + [read]))
        tally.notes["report_sha256"] = state.digest


# ---------------------------------------------------------------------------
# triage: report IO and single-trial replay
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TriageState:
    rows: list
    picks: list
    jsonl: Path
    csv: Path


class Triage:
    """Write the report stream as JSONL and CSV, read the JSONL back and
    summarize it, then replay one row of every case at every dimension, one
    call at a time.  Work unit: one replay; call: one replay; rows: report
    rows through write, read and summarize."""

    name = "triage"
    tail = 0.99
    aliases = {"work_per_s": "replays_per_s", "call_ms_p50": "replay_ms_p50",
               "call_ms_tail": "replay_ms_p99", "rows_per_s": "report_rows_per_s"}

    def __init__(self, stream_trials: int = 12, dims: tuple = SMALL_DIMS) -> None:
        self.stream_trials = stream_trials
        self.dims = dims

    def manifest(self) -> dict:
        return {"dims": list(self.dims), "stream_trials_per_case": self.stream_trials,
                "rows": 50 * self.stream_trials, "replays_per_pass": 50 * len(self.dims)}

    def setup(self, seed: int, work: Path) -> TriageState:
        rows: list = []
        harness.run_all(trials=self.stream_trials, dims=self.dims, seed=master_seed(seed, self.name), collect=rows)
        # the seed picks which trial of each (case, n) is replayed; every pass
        # replays the same mix of cases and dimensions whatever the seed
        groups: dict = {}
        for i, r in enumerate(rows):
            groups.setdefault((r.case_id, r.n), []).append(i)
        rng = random.Random(f"picks:{seed}")
        picks = [rng.choice(group) for group in groups.values()]
        return TriageState(rows, picks, work / "triage.jsonl", work / "triage.csv")

    def run_pass(self, state: TriageState, tally: Tally) -> None:
        try:
            t0 = perf_counter()
            harness.write_reports_jsonl(state.rows, str(state.jsonl))
            harness.write_reports_csv(state.rows, str(state.csv))
            back = harness.read_reports(str(state.jsonl))
            summary = harness.summarize(back)
            io_span = (t0, perf_counter())
        except Exception:
            tally.error("triage report IO")
            return
        tally.probe.tick()
        tally.gate(back == state.rows, "JSONL report stream does not read back identically")
        tally.gate(summary["total_trials"] == len(state.rows) and summary["total_failures"] == 0,
                   f"summary of the stream: {summary['total_trials']} trials, {summary['total_failures']} failures")
        state.jsonl.unlink()  # each pass writes new files
        state.csv.unlink()
        tally.rows.append((len(state.rows), [io_span]))
        replays = []
        for i in state.picks:
            replays.append(checked_replay(back[i], tally))
            tally.probe.tick()
        tally.calls.extend(replays)
        tally.work.append((len(replays), replays))


def checked_replay(row, tally: Tally) -> tuple[float, float]:
    """Replay one reported trial, gate on a bit-identical report and return
    the replay's interval."""
    t0 = perf_counter()
    try:
        again = harness.replay(row.case_id, row.seed, row.n)
    except Exception:
        tally.error(f"replay of {row.case_id} seed={row.seed} n={row.n}")
        return (t0, perf_counter())
    span = (t0, perf_counter())
    tally.gate(again == row, f"replay differs from its report row: {again} != {row}")
    return span


# ---------------------------------------------------------------------------
# integral_grids: quadrature identity, scalar chains, sign tables, probes
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class GridsState:
    seeds: list


class IntegralGrids:
    """``integral_sweep`` calls (32-node quadrature vs closed form), then
    every registered scalar chain, sign table and probe.  Work unit: one
    integral check (pair x weight); call: one ``integral_sweep``; rows: grid
    points of the chains and sign tables."""

    name = "integral_grids"
    tail = 0.90
    aliases = {"work_per_s": "integral_checks_per_s", "call_ms_p50": "integral_call_ms_p50",
               "call_ms_tail": "integral_call_ms_p90", "rows_per_s": "grid_points_per_s"}
    dims = SMALL_DIMS
    p_grid = (0.1, -0.1, 0.5, -0.5, 1.0, -1.0)

    def __init__(self, calls: int = 16, pairs: int = 6) -> None:
        self.calls = calls
        self.pairs = pairs

    def manifest(self) -> dict:
        return {"dims": list(self.dims), "integral_calls_per_pass": self.calls, "pairs_per_call": self.pairs,
                "p_grid": list(self.p_grid), "nodes": 32, "chains": len(scalars.CHAINS),
                "sign_claims": len(scalars.SIGN_CLAIMS), "probes": len(scalars.PROBES)}

    def setup(self, seed: int, work: Path) -> GridsState:
        rng = random.Random(f"{self.name}:{seed}")
        state = GridsState([rng.getrandbits(63) for _ in range(self.calls)])
        harness.integral_sweep(trials=self.pairs, p_grid=self.p_grid, seed=state.seeds[0], dims=self.dims)
        return state

    def run_pass(self, state: GridsState, tally: Tally) -> None:
        checks = 0
        sweeps = []
        for s in state.seeds:
            t0 = perf_counter()
            try:
                results = harness.integral_sweep(trials=self.pairs, p_grid=self.p_grid, seed=s, dims=self.dims)
            except Exception:
                tally.error(f"integral_sweep seed={s}")
                continue
            sweeps.append((t0, perf_counter()))
            tally.probe.tick()
            checks += len(results) * self.pairs
            for r in results:
                tally.gate(r.holds, f"quadrature identity fails: {r}")
        points = 0
        t0 = perf_counter()
        for chain_id in scalars.CHAINS:
            tally.probe.tick()
            try:
                res = scalars.verify_scalar_chain(chain_id)
            except Exception:
                tally.error(f"chain {chain_id}")
                continue
            points += res.points_checked
            tally.gate(res.worst_violation >= CHAIN_TOL, f"chain {chain_id} violated: {res}")
        for claim_id, claim in scalars.SIGN_CLAIMS.items():
            tally.probe.tick()
            try:
                rep = scalars.sign_table(claim_id)
            except Exception:
                tally.error(f"sign table {claim_id}")
                continue
            points += rep.points
            tally.gate(rep.classification == claim.expected,
                       f"sign claim {claim_id}: {rep.classification} != registered {claim.expected}")
        for probe_id in scalars.PROBES:
            try:
                _, _, ok = scalars.run_probe(probe_id)
            except Exception:
                tally.error(f"probe {probe_id}")
                continue
            tally.gate(ok, f"probe {probe_id} off its frozen values")
        grid = (t0, perf_counter())
        tally.probe.tick()
        tally.calls.extend(sweeps)
        if sweeps:
            tally.work.append((checks, sweeps))
        tally.rows.append((points, [grid]))


WORKLOADS = {
    "catalog_small": lambda: Catalog("catalog_small", SMALL_DIMS, trials=60),
    "catalog_large": lambda: Catalog("catalog_large", LARGE_DIMS, trials=12),
    "triage": Triage,
    "integral_grids": IntegralGrids,
}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def quantile(values: list, q: float) -> float:
    """The q-quantile (0 < q < 1) of ``values`` by linear interpolation."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return float(cuts[round(q * 1000) - 1])


def measure(workload, state, seconds: float, probe: SpeedProbe) -> Tally:
    """Repeat passes until ``seconds`` have elapsed (at least one pass)."""
    tally = Tally(probe)
    probe.tick(force=True)
    deadline = perf_counter() + seconds
    while True:
        # every pass starts from the same collector state, so the cyclic
        # collections inside identical passes fall at the same points
        gc.collect()
        workload.run_pass(state, tally)
        if perf_counter() >= deadline:
            probe.tick(force=True)
            return tally


def setup_repeated(workload, seed: int, work: Path, root: Path, probe: SpeedProbe) -> tuple[object, float, Tally]:
    """Set up ``SETUP_REPEATS`` times; return the last state and the median
    set-up time.  Each set-up is a fresh interpreter importing oel plus the
    workload's own input preparation; the repeats must build equal inputs."""
    spans = []
    states = []
    gates = Tally(probe)
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            probe.tick(force=True)
        t0 = perf_counter()
        child_import(root)
        states.append(workload.setup(seed, work))
        spans.append((t0, perf_counter()))
    for _ in range(3):
        probe.tick(force=True)
    gates.gate(all(s == states[0] for s in states), "set-up built different inputs from one seed")
    return states[-1], statistics.median(probe.seconds([span]) for span in spans), gates


def rate(probe: SpeedProbe, samples: list) -> float:
    """Work units per reference-speed second, over all passes."""
    return sum(units for units, _ in samples) / sum(probe.seconds(spans) for _, spans in samples)


def end_to_end(workload, tally: Tally, setup_s: float) -> dict[str, float]:
    if not (tally.calls and tally.work and tally.rows):
        raise RuntimeError("no pass completed")
    calls_ms = [tally.probe.seconds([span]) * 1e3 for span in tally.calls]
    return {
        "setup_s": setup_s,
        "work_per_s": rate(tally.probe, tally.work),
        "call_ms_p50": statistics.median(calls_ms),
        "call_ms_tail": quantile(calls_ms, workload.tail),
        "rows_per_s": rate(tally.probe, tally.rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, workload=None) -> tuple[dict, dict]:
    """Set up and measure one workload; returns the result object and notes
    (pass and call counts, machine slowness, the catalog report digest)."""
    from layertrace import Tracer

    workload = workload or WORKLOADS[name]()
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        state, setup_s, gates = setup_repeated(workload, seed, Path(tmp), root, probe)
        tally = measure(workload, state, seconds / 2 if trace else seconds, probe)
        if not trace:
            metrics = end_to_end(workload, tally, setup_s)
        else:
            t0 = perf_counter()
            with Tracer() as tracer:
                traced = measure(workload, state, seconds / 2, probe)
            slowness = probe.median_slowness(t0, perf_counter())
            metrics = {k: v / slowness if layer_unit(k) in ("us", "ms") else v
                       for k, v in tracer.layer_metrics().items()}
            metrics["trace.work_per_s_untraced"] = rate(probe, tally.work)
            metrics["trace.work_per_s_traced"] = rate(probe, traced.work)
            metrics["trace.overhead_pct"] = 100.0 * (
                metrics["trace.work_per_s_untraced"] / metrics["trace.work_per_s_traced"] - 1.0)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.notes.update(traced.notes)
    attempted = tally.attempted + gates.attempted
    failed = tally.failed + gates.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    notes = dict(tally.notes, passes=len(tally.work), calls=len(tally.calls),
                 slowness=probe.median_slowness(), reference_probe_ms=PROBE_REF_MS)
    return result, notes
