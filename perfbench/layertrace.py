"""Per-layer spans for oel, installed from outside the package.

``Tracer.install()`` replaces the public entry points of each oel module
(and numpy's two symmetric eigen solvers) with wrappers that time every
call.  Nothing under ``src/`` is modified: a function imported into several
oel modules with ``from .x import y`` is rebound in each of them, methods
are replaced on their class, and catalog cases are returned with wrapped
``plan``/``lhs``/``rhs`` callables by the two lookups the harness uses.
``Tracer.uninstall()`` puts every original back.

Each call is a span.  A span's self time is its duration minus the
durations of the spans it encloses, so the self times of all spans inside
one ``run_trial`` add up exactly to that trial's duration.  Self time and
call counts are accumulated per bucket only inside a trial; inclusive
times and call counts are kept per span for every call.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import replace
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name, per-trial bucket); module-level functions are
# rebound wherever an oel module holds the same object.
_FUNCTIONS = (
    ("oel.harness", "run_trial", "harness.run_trial", "harness.trial_self"),
    ("oel.harness", "replay", "harness.replay", "harness.replay_self"),
    ("oel.harness", "run_all", "harness.run_all", "harness.run_all_self"),
    ("oel.harness", "write_reports_jsonl", "harness.write_reports_jsonl", "harness.report_io"),
    ("oel.harness", "write_reports_csv", "harness.write_reports_csv", "harness.report_io"),
    ("oel.harness", "read_reports", "harness.read_reports", "harness.report_io"),
    ("oel.sampler", "generator", "sampler.generator", "sampler.generator"),
    ("oel.sampler", "sandwich_pair", "sampler.sandwich_pair", "sampler.pair_self"),
    ("oel.catalog", "evaluate", "catalog.evaluate", "catalog.evaluate_self"),
    ("oel.spd_core", "loewner_leq", "spd_core.loewner_leq", "spd_core.loewner"),
    ("oel.means", "arithmetic_mean", "means.arithmetic_mean", "means.transform"),
    ("oel.means", "harmonic_mean", "means.harmonic_mean", "means.transform"),
    ("oel.means", "natural_power_mean", "means.natural_power_mean", "means.transform"),
    ("oel.means", "geometric_mean", "means.geometric_mean", "means.transform"),
    ("oel.means", "relative_operator_entropy", "means.relative_operator_entropy", "means.transform"),
    ("oel.means", "generalized_entropy", "means.generalized_entropy", "means.transform"),
    ("oel.means", "tsallis_entropy", "means.tsallis_entropy", "means.transform"),
    ("oel.means", "quadrature_tsallis", "means.quadrature_tsallis", "means.transform"),
    ("oel.scalars", "verify_scalar_chain", "scalars.verify_scalar_chain", "scalars.grid"),
    ("oel.scalars", "sign_table", "scalars.sign_table", "scalars.grid"),
    ("oel.cli", "main", "cli.main", "cli.self"),
)

# (module, class, method, span name, per-trial bucket)
_METHODS = (
    ("oel.spd_core", "SpdMatrix", "__init__", "spd_core.SpdMatrix", "spd_core.validate"),
    ("oel.means", "OperatorPair", "__init__", "means.OperatorPair", "means.pair_build"),
    ("oel.means", "OperatorPair", "transform", "means.transform", "means.transform"),
    ("oel.means", "OperatorPair", "fn_of_contraction", "means.fn_of_contraction", "means.transform"),
)

# numpy's symmetric eigen solvers, looked up by oel as ``np.linalg.<name>``
_EIGEN = ("eigh", "eigvalsh")

# the two case lookups the harness calls; rebound in oel.harness only, so
# the catalog's own internal calls stay unwrapped
_CASE_LOOKUPS = ("find_cases", "catalog_with_duals")

# per-trial self-time metric -> bucket; together they make up harness.trial_us
TRIAL_LAYERS = {
    "harness.trial_self_us": "harness.trial_self",
    "catalog.plan_us": "catalog.plan",
    "sampler.generator_us": "sampler.generator",
    "sampler.pair_self_us": "sampler.pair_self",
    "means.pair_build_us": "means.pair_build",
    "spd_core.validate_us": "spd_core.validate",
    "spd_core.eig_us": "spd_core.eig",
    "catalog.evaluate_self_us": "catalog.evaluate_self",
    "catalog.terms_us": "catalog.terms",
    "means.transform_us": "means.transform",
    "spd_core.loewner_us": "spd_core.loewner",
}

_TRIAL_SPAN = "harness.run_trial"
_ROW_SPANS = {
    "harness.write_reports_jsonl": "write",
    "harness.write_reports_csv": "write",
    "harness.read_reports": "read",
}


class Tracer:
    """Span recorder for one traced phase of a benchmark run."""

    def __init__(self) -> None:
        self.trial_self_ns: dict[str, int] = defaultdict(int)  # bucket -> self ns inside trials
        self.trial_calls: dict[str, int] = defaultdict(int)  # span -> calls inside trials
        self.total_ns: dict[str, int] = defaultdict(int)  # span -> inclusive ns, all calls
        self.calls: dict[str, int] = defaultdict(int)  # span -> calls, all calls
        self.rows: dict[str, int] = defaultdict(int)  # "write"/"read" -> report rows
        self.cli_inner_ns = 0  # run_all time spent inside cli.main
        self._stack: list[list] = []  # [span name, child ns] per open span
        self._in_trial = 0
        self._undo: list[tuple[object, str, object]] = []
        self._cases: dict = {}

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name: str, bucket: str):
        tracer = self
        opens_trial = name == _TRIAL_SPAN
        kind = _ROW_SPANS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0]
            tracer._stack.append(frame)
            tracer._in_trial += opens_trial
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter_ns() - t0
                tracer._stack.pop()
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[1] += dt
                    if name == "harness.run_all" and parent[0] == "cli.main":
                        tracer.cli_inner_ns += dt
                tracer.total_ns[name] += dt
                tracer.calls[name] += 1
                if tracer._in_trial:
                    tracer.trial_self_ns[bucket] += dt - frame[1]
                    tracer.trial_calls[name] += 1
                tracer._in_trial -= opens_trial
                if kind == "write":
                    tracer.rows["write"] += len(args[0])
                elif kind == "read" and result is not None:
                    tracer.rows["read"] += len(result)

        return span

    def _traced_case(self, case):
        # keyed by id: the catalog is static, and duals are rebuilt on every lookup
        wrapped = self._cases.get(case.id)
        if wrapped is None:
            wrapped = replace(
                case,
                plan=self._wrap(case.plan, "catalog.plan", "catalog.plan"),
                lhs=replace(case.lhs, fn=self._wrap(case.lhs.fn, "catalog.term", "catalog.terms")),
                rhs=replace(case.rhs, fn=self._wrap(case.rhs.fn, "catalog.term", "catalog.terms")),
            )
            self._cases[case.id] = wrapped
        return wrapped

    def _case_lookup(self, fn):
        @functools.wraps(fn)
        def lookup(*args, **kwargs):
            return [self._traced_case(c) for c in fn(*args, **kwargs)]

        return lookup

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        oel_modules = [m for k, m in sorted(sys.modules.items()) if k == "oel" or k.startswith("oel.")]
        for mod_name, attr, name, bucket in _FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapped = self._wrap(original, name, bucket)
            for mod in oel_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for mod_name, cls_name, attr, name, bucket in _METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._set(cls, attr, self._wrap(getattr(cls, attr), name, bucket))
        for attr in _EIGEN:
            self._set(np.linalg, attr, self._wrap(getattr(np.linalg, attr), "spd_core.eigen", "spd_core.eig"))
        harness = importlib.import_module("oel.harness")
        for attr in _CASE_LOOKUPS:
            self._set(harness, attr, self._case_lookup(getattr(harness, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: per trial, per call or per row as named."""
        trials = self.calls[_TRIAL_SPAN]
        self_ns = dict(self.trial_self_ns)
        trial_ns = self.total_ns[_TRIAL_SPAN]
        if sum(self_ns.values()) != trial_ns:
            raise RuntimeError(f"layer self times {sum(self_ns.values())} ns != trial time {trial_ns} ns")

        def per_trial_us(bucket: str) -> float:
            return self_ns.pop(bucket, 0) / 1e3 / trials if trials else 0.0

        def per_trial_calls(*spans: str) -> float:
            return sum(self.trial_calls[s] for s in spans) / trials if trials else 0.0

        def per_call(span: str, scale: float) -> float:
            calls = self.calls[span]
            return self.total_ns[span] / scale / calls if calls else 0.0

        def per_row(kind: str, *spans: str) -> float:
            rows = self.rows[kind]
            return sum(self.total_ns[s] for s in spans) / 1e3 / rows if rows else 0.0

        out = {"harness.trial_us": trial_ns / 1e3 / trials if trials else 0.0}
        out.update({metric: per_trial_us(bucket) for metric, bucket in TRIAL_LAYERS.items()})
        out.update(
            {
                "means.pair_builds": per_trial_calls("means.OperatorPair"),
                "spd_core.validations": per_trial_calls("spd_core.SpdMatrix"),
                "spd_core.eig_calls": per_trial_calls("spd_core.eigen"),
            }
        )
        if self_ns:
            raise RuntimeError(f"trial time in unreported layers: {sorted(self_ns)}")
        cli_calls = self.calls["cli.main"]
        out.update(
            {
                "harness.replay_us": per_call("harness.replay", 1e3),
                "harness.report_write_us_per_row": per_row(
                    "write", "harness.write_reports_jsonl", "harness.write_reports_csv"
                ),
                "harness.report_read_us_per_row": per_row("read", "harness.read_reports"),
                "means.quadrature_us": per_call("means.quadrature_tsallis", 1e3),
                "scalars.chain_ms": per_call("scalars.verify_scalar_chain", 1e6),
                "scalars.sign_ms": per_call("scalars.sign_table", 1e6),
                "cli.overhead_ms": (
                    (self.total_ns["cli.main"] - self.cli_inner_ns) / 1e6 / cli_calls if cli_calls else 0.0
                ),
            }
        )
        return out
