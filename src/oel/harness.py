"""Randomized verification harness over the inequality catalog.

Every trial is reconstructible from (case_id, seed, n) alone: the per-trial
seed (:func:`trial_seeds` of the master seed) keys one counter-based Philox
stream, read in two bulk calls (see :func:`oel.sampler.stream_draws`).  Its
first words are the case's plan (parameters and sandwich targets), the rest
are the pair's spectra and bases; there is no second seed.  Reports carry
that per-trial seed so any failure can be replayed exactly.  Master and
trial seeds are 64-bit words (integers in ``[0, 2^64)``), checked where
they enter: :func:`_windows` for a run, :func:`run_trial` for one trial.

A suite works through its trials in windows of ``WINDOW_TRIALS``, in trial
order.  It groups a window's trials by n and evaluates each group as stacks
of shape ``(k, n, n)``, with k * n * n at most ``STACK_ENTRIES``: the stack's
streams are read into ``(k, ...)`` arrays, the planner maps their plan words
at once, and every later step is one numpy call for the k trials.  The
kernel's plain rows (:func:`~oel.catalog.evaluate_trials`) are folded into
the suite's totals before the next window, so its memory does not grow with
the trial count; only a row that leaves the package becomes a report.
:func:`run_trial` (and so :func:`replay`) is the same kernel with k = 1, and
stacked numpy calls give each matrix the bits of a call on that matrix
alone, so a replay reproduces its suite row exactly.

A stack is drawn one way (``_draw``): its plan words and its
:class:`~oel.sampler.StackBase` (A, its square root, C's basis and
``X = A^{1/2} Q_C``), on which :func:`~oel.sampler.pair_from_base` places
C's spectrum; the pair forms B, one product on X, on the first read of B
(a case whose terms are lifts alone never forms it).  The stacked pair
holds C's basis and spectrum and X,
so every lift of a case is one product on X, the derived pairs of a case
are lifts of C (:meth:`~oel.means.OperatorPair.lift_pair`), and a trial
makes no ``eigh``: its only eigensolve is the verdict's ``eigvalsh`` of
rhs - lhs (the harmonic mean is certified by its own Cholesky factorization).

Every case of a :func:`run_all` call reads the same trial streams, and the
cases of one hypothesis region share its planner (``case.plan``), so the
call keeps one memo (``_SharedStacks``) per stack, keyed by n and the
stack's trial seeds: the stack's draws, read by every case; the plan
parameters and pair of each plan, read by every case on it; and the value
of each (plan, term), read by every case with that term on either side.  Its
first reader computes an entry and keeps it only while a later case of the
call reads it (the readers come from the call's case list); the last reader
drops it.  A pair or term value is kept only with its stack's draws, whose
arrays it holds.  The memo holds at most ``SHARED_ENTRIES`` matrix entries,
n x n per trial for each kept array (four for the draws' A, its square
root, C's basis and X; one for a pair's B, formed or not, as no pair holds
C; one for a term value); past it, entries are computed per case.
Each case still checks its own hypothesis before it reads a term, and a
shared entry is the same computation on the same arrays, so rows keep their
bits.
The memo lives as long as its call; a lone :func:`run_suite` (a pattern
matching one case is one) reads through a memo of one case, which keeps
nothing, and :func:`integral_sweep` draws its own.

A single trial (:func:`run_trial`, and so :func:`replay`, and the one-trial
rerun of a failing stack) is one function, ``_trial_row``, which reads its
stream's draws through a per-process store, ``_TRIAL_DRAWS``, keyed by
``(int(seed), int(n))``.  The rows of one report share few streams (every
case reads the same ones), so replaying them redraws few.  The store drops
the least recently read stream past ``TRIAL_ENTRIES`` matrix entries,
charging 4 n^2 per stream as the memo charges a stack's draws, and a lock
keeps its entry count that of the streams it holds when threads replay at
once.  It holds the read-only plan words and base a stack draw makes, which
the memo already shares between cases, so a replay keeps its bits.  A
suite's stacks and :func:`integral_sweep` do not read it, as no stream
recurs within one of their calls; a suite reads it only when a stack raises
and its window is rerun one trial at a time, which leaves that window's
streams in the store.

:func:`integral_sweep` gives its weights a leading axis of their own (see
:mod:`oel.means`): a stack of k pairs is checked at ``max(1, STACK_ENTRIES
// (k n^2))`` weights per quadrature and closed-form call, so a small stack
takes its whole grid in one call and a full one keeps one weight per call;
each matrix has the bits of its one-weight call.  The sweep's pairs have
no hypothesis region and no planner: their sandwich targets are the plan's
two target words mapped onto ``_FREE_WINDOW``, with no pin
(:func:`_sweep_targets`).  The sweep reads X and spec(C) alone, so it
forms no B, and it takes the 2-norms of the residual, quadrature and
closed form (each exactly symmetric) from one ``eigvalsh`` of their stack
(:func:`_symmetric_norms`), not from an SVD per matrix.

Reports are written and read ``_REPORT_BLOCK`` rows at a time, column by
column.  :func:`write_reports_jsonl` maps each column's values to their JSON
tokens (``float.__repr__`` for floats, as ``json.dumps`` writes them) and
fills one line template, in the key order and separators of
``json.dumps(report_to_dict(r))``; a block with a value that is not a plain
str, int, finite float, bool or None goes through ``json.dumps`` row by row.
:func:`read_reports` decodes a block's lines with ``raw_decode`` and checks
each column against its rule in ``_FIELD_RULES``; a block that fails either
step is read again one line at a time, which names its first malformed line.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from numbers import Real
from operator import attrgetter, itemgetter

import numpy as np

from .catalog import (
    _REPORT_FIELDS,
    InequalityCase,
    MarginReport,
    _check_case,
    _report,
    _sorted2,
    case_index,
    catalog_with_duals,  # noqa: F401  (perfbench wraps the case lookups by this name)
    evaluate_trials,
    find_cases,
)
from .errors import HypothesisError, InvalidInput, NumericalBreakdown, ReportError
from .means import _check_nodes, quadrature_tsallis, tsallis_entropy
from .sampler import _FREE_WINDOW, _WORD_MASK, _is_count, _is_word, pair_from_base, stack_base, stream_draws
from .spd_core import ORDER_TOL, _check_tol

DEFAULT_TRIALS = 1000
DEFAULT_DIMS = (1, 2, 3, 4, 6, 8)
DEFAULT_SEED = 42
# the defaults of integral_sweep, which `oel integral` reads too
INTEGRAL_TRIALS = 100
INTEGRAL_P_GRID = (0.1, -0.1, 0.5, -0.5, 1.0, -1.0)
INTEGRAL_NODES = 32

# The trials a suite draws, evaluates and folds at a time, and the most matrix
# entries (k * n * n) in one stack of a window's trials.  Both are the smallest
# powers of two past which larger values were not measurably faster (2-core VM,
# one BLAS thread): all 50 cases at n = 16, 32, 64 took about 1.9 ms per trial
# at 1 << 12 entries and 1.5-1.7 ms at 1 << 14 to 1 << 16 (peak RSS 40.0 ->
# 47.5 MB); 4096 trials at n = 1..8 took about 105 us per trial in windows of
# 256 and 80-95 us in windows of 1024 or 4096 (peak RSS 39.1 -> 45.9 MB).
WINDOW_TRIALS = 1024
STACK_ENTRIES = 1 << 14
# The most matrix entries one run_all call keeps in its memo (n x n arrays per
# trial: the draws' A, its square root, C's basis and X, a kept pair's B, a
# kept term value), 8 MB; past it, entries are computed per case.  Measured on
# the draws alone, when a trial kept four arrays (A^{-1/2} too): `oel verify
# --trials 10000` (0.87 M entries; 2-core VM, one BLAS thread) took 26.4 s
# unshared, 19.8 s at 1 << 18, 15.9 s at 1 << 19 and 12.2 s at 1 << 20 (peak RSS
# 39.8 -> 48.2 MB); at 1 << 21, n = 16, 32, 64 at 300 trials (1.4 M entries)
# went from 16.0 to 13.2 s but peaked at 56.5 MB.
SHARED_ENTRIES = 1 << 20

# The most matrix entries the single-trial store keeps (4 n^2 per stream: the
# draws' A, its square root, C's basis and X), 1 MB: every stream of a default
# `oel verify` report (1000 trials at n = 1..8) is about 87k entries.
TRIAL_ENTRIES = 1 << 17

# a report row's values, in MarginReport field order (_REPORT_FIELDS, its keys)
_report_values = attrgetter(*_REPORT_FIELDS)


def _splitmix64(x: int) -> int:
    """SplitMix64's output at state x (Steele, Lea and Flood, OOPSLA 2014): a
    bijection of 64-bit words that sends nearby inputs far apart."""
    z = (x + 0x9E3779B97F4A7C15) & _WORD_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD_MASK
    return z ^ (z >> 31)


def trial_seeds(seed: int, start: int, stop: int) -> list[int]:
    """The seeds of trials ``start .. stop - 1`` under a master seed in
    ``[0, 2^64)``: ``(splitmix64(seed) + i) mod 2^64``.  Each master seed
    starts its run of trial seeds at a scattered point, so master seeds that
    differ only in low bits do not share trials."""
    first = _splitmix64(seed)
    return [(first + i) & _WORD_MASK for i in range(start, stop)]


def case_by_id(case_id: str) -> InequalityCase:
    case = case_index().get(case_id) if isinstance(case_id, str) else None
    if case is None:
        raise InvalidInput(f"unknown case id: {case_id!r}")
    return case


def _draw(seeds: list[int], n: int):
    """The plan words and :class:`~oel.sampler.StackBase` of the trials of
    ``seeds`` at dimension n: the one way a stack is drawn."""
    plan_words, pair_words, normals = stream_draws(seeds, n)
    plan_words.flags.writeable = False  # a run_all memo shares them between suites
    return plan_words, stack_base(pair_words, normals)


class _SharedStacks:
    """The memo of one :func:`run_all` call over ``cases`` (see the module
    notes): per stack, its draws, each plan's pair and each (plan, term)'s
    value, each kept from its first reader to its last while it fits in
    ``SHARED_ENTRIES``, so a memo of one case keeps nothing."""

    def __init__(self, cases: list[InequalityCase]) -> None:
        self._position = {case.id: i for i, case in enumerate(cases)}
        # the last reader of each entry, by its key less the stack: () the
        # draws, (plan,) a pair, (plan, term) a term value
        self._last: dict[tuple, int] = {(): len(cases) - 1}
        for i, case in enumerate(cases):
            for key in ((case.plan,), (case.plan, case.lhs), (case.plan, case.rhs)):
                self._last[key] = i
        self._kept: dict[tuple, object] = {}
        self._entries = 0

    def reader(self, case: InequalityCase, seeds: list[int], n: int):
        """``keep(key, arrays, compute)`` for ``case`` on the stack of
        ``seeds`` at n: the entry of ``key`` (as ``_last`` holds it) on that
        stack, taken from the memo or computed, kept or dropped."""
        reader = self._position[case.id]
        stack = (n, tuple(seeds))
        trial_entries = len(seeds) * n * n

        def keep(key: tuple, arrays: int, compute):
            full, last, entries = (*key, stack), self._last[key], arrays * trial_entries
            if full in self._kept:
                if reader < last:
                    return self._kept[full]
                self._entries -= entries
                return self._kept.pop(full)
            value = compute()
            # a pair or a term value holds arrays of the draws: kept only with them
            with_draws = not key or (stack,) in self._kept
            if reader < last and with_draws and self._entries + entries <= SHARED_ENTRIES:
                self._kept[full] = value
                self._entries += entries
            return value

        return keep


def _plan_pair(plan, plan_words: np.ndarray, base):
    """The parameters and the stacked pair that ``plan`` draws on a stack's draws."""
    params, u_target, v_target = plan(plan_words)
    return params, pair_from_base(base, u_target, v_target)


def _evaluate_stack(case: InequalityCase, seeds: list[int], n: int, shared: _SharedStacks) -> list[tuple]:
    """The trial kernel: k trials of dimension n read from their seeds'
    streams, planned and built as one stacked pair, and evaluated at once:
    :func:`~oel.catalog.evaluate_trials` rows.  The draws, the pair and the
    term values are taken from the memo ``shared`` where it has them."""
    keep = shared.reader(case, seeds, n)
    plan_words, base = keep((), 4, lambda: _draw(seeds, n))
    params, pair = keep((case.plan,), 1, lambda: _plan_pair(case.plan, plan_words, base))
    return evaluate_trials(
        case, pair, params, seeds, terms=lambda term, pr: keep((case.plan, term), 1, lambda: term.fn(pair, pr))
    )


class _TrialDraws:
    """The single-trial store (see the module notes): each ``(seed, n)``
    stream's draws, the least recently read dropped first past
    ``TRIAL_ENTRIES`` entries; a stream alone past it is not kept."""

    def __init__(self) -> None:
        self._kept: OrderedDict[tuple[int, int], tuple] = OrderedDict()
        self._entries = 0
        self._lock = threading.Lock()

    def __call__(self, seed: int, n: int):
        """The plan words and base of the stream of ``seed`` at n (Python
        ints, as :func:`run_trial` makes them), as ``_draw([seed], n)`` gives them."""
        key = (seed, n)
        with self._lock:
            if key in self._kept:
                self._kept.move_to_end(key)
                return self._kept[key]
        drawn = _draw([seed], n)  # outside the lock: another stream may be read meanwhile
        charge = 4 * n * n
        with self._lock:
            if key not in self._kept and charge <= TRIAL_ENTRIES:
                self._kept[key] = drawn
                self._entries += charge
                while self._entries > TRIAL_ENTRIES:
                    (_, m), _ = self._kept.popitem(last=False)
                    self._entries -= 4 * m * m
        return drawn

    def clear(self) -> None:
        with self._lock:
            self._kept.clear()
            self._entries = 0


_TRIAL_DRAWS = _TrialDraws()


def _trial_row(case: InequalityCase, seed: int, n: int) -> tuple:
    """The trial kernel with k = 1 on the stream's draws from the store: the
    :func:`~oel.catalog.evaluate_trials` row of one trial."""
    plan_words, base = _TRIAL_DRAWS(seed, n)
    params, pair = _plan_pair(case.plan, plan_words, base)
    return evaluate_trials(case, pair, params, [seed])[0]


def run_trial(case: InequalityCase, trial_seed: int, n: int) -> MarginReport:
    """One deterministic trial: draw plan, sample pair, evaluate the case
    under the catalog's one verdict rule (``ORDER_TOL``), so the report is a
    function of ``(case, trial_seed, n)`` alone.  A trial seed that is not an
    integer in ``[0, 2^64)`` and an n that is not an integer >= 1 (numpy
    integers are accepted, bools not) are InvalidInputs, as is a ``case``
    that is not an InequalityCase."""
    _check_case(case)
    if not _is_word(trial_seed):
        raise InvalidInput(f"trial seed must be an integer in [0, 2^64), got {trial_seed!r}")
    if not _is_count(n, 1):
        raise InvalidInput(f"n must be an integer >= 1, got {n!r}")
    return _report(case.id, *_trial_row(case, int(trial_seed), int(n)))


def replay(case_id: str, seed: int, n: int) -> MarginReport:
    """Reproduce a reported trial bit-for-bit from its identifying triple."""
    return run_trial(case_by_id(case_id), seed, n)


@dataclass(frozen=True)
class SuiteResult:
    """Aggregate outcome of many trials of one case."""

    case_id: str
    trials: int
    failures: int
    worst_margin: float
    worst_seed: int
    mean_margin: float
    elapsed_ms: int


def run_suite(
    case: InequalityCase,
    *,
    trials: int = DEFAULT_TRIALS,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    seed: int = DEFAULT_SEED,
    collect: list[MarginReport] | None = None,
    _shared: _SharedStacks | None = None,
) -> SuiteResult:
    """Run ``trials`` deterministic trials of one case, cycling dimensions.

    The trials are evaluated in windows and stacks (see the module notes);
    collected reports keep trial order.  A trial's NumericalBreakdown or
    HypothesisError is re-raised with its ``(case_id, seed, n)``, after the
    reports of the trials before it have been collected.  ``trials`` that is
    not an integer >= 1, or a ``case`` that is not an InequalityCase, is an
    InvalidInput."""
    _check_case(case)
    shared = _SharedStacks([case]) if _shared is None else _shared
    t0 = time.perf_counter()
    failures = 0
    worst_margin = np.inf
    worst_seed = 0
    margin_sum = 0.0
    for window in _windows(seed, dims, trials):
        for row in _window_rows(case, window, shared):
            trial_seed, n, p, q, c, u, v, margin, scale, holds = row  # MarginReport's fields after case_id
            margin_sum += margin
            if margin < worst_margin:
                worst_margin = margin
                worst_seed = trial_seed
            if not holds:
                failures += 1
            if collect is not None:
                collect.append(_report(case.id, *row))
    elapsed_ms = int(round((time.perf_counter() - t0) * 1e3))
    return SuiteResult(
        case_id=case.id,
        trials=trials,
        failures=failures,
        worst_margin=float(worst_margin),
        worst_seed=worst_seed,
        mean_margin=margin_sum / trials,
        elapsed_ms=elapsed_ms,
    )


def _dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of integers >= 1 (any iterable of them, a numpy
    array included); anything else is an InvalidInput."""
    try:
        dims = tuple(dims)
    except TypeError:
        raise InvalidInput(f"dims must be an iterable of positive integers, got {dims!r}") from None
    if not dims or not all(_is_count(d, 1) for d in dims):
        raise InvalidInput(f"bad dims {dims!r}")
    return dims


def _windows(seed: int, dims: tuple[int, ...], trials: int):
    """A run's trials as (trial seed, n) lists of at most ``WINDOW_TRIALS``,
    in trial order, trial i at ``dims[i % len(dims)]``: a window's schedule
    is built with the window, so memory does not grow with ``trials``.  The
    one check of a run's master seed (an integer in ``[0, 2^64)``, as
    :func:`trial_seeds` reads it), ``dims`` and ``trials``; anything else is
    an InvalidInput."""
    if not _is_word(seed):
        raise InvalidInput(f"master seed must be an integer in [0, 2^64), got {seed!r}")
    if not _is_count(trials, 1):
        raise InvalidInput(f"trials must be positive (an integer >= 1), got {trials!r}")
    dims = _dims(dims)
    seed = int(seed)  # a numpy integer would overflow in trial_seeds
    for lo in range(0, trials, WINDOW_TRIALS):
        hi = min(lo + WINDOW_TRIALS, trials)
        yield [(s, int(dims[i % len(dims)])) for i, s in enumerate(trial_seeds(seed, lo, hi), lo)]


def _stacks(window: list[tuple[int, int]]):
    """Positions in ``window`` (its trials' (seed, n)) grouped by n, in trial
    order within a group, cut to ``STACK_ENTRIES``; with each group's n."""
    groups: dict[int, list[int]] = {}
    for i, (_, n) in enumerate(window):
        groups.setdefault(n, []).append(i)
    for n, group in groups.items():
        size = max(1, STACK_ENTRIES // (n * n))
        for lo in range(0, len(group), size):
            yield group[lo : lo + size], n


def _window_rows(case: InequalityCase, window: list[tuple[int, int]], shared: _SharedStacks):
    """The window's rows, in trial order.  If a stack raises, the window is
    rerun one trial at a time (``_trial_row``): the rows before the earliest
    failing trial are yielded, then that trial's error is raised."""
    rows: list[tuple] = [None] * len(window)
    try:
        for stack, n in _stacks(window):
            for i, row in zip(stack, _evaluate_stack(case, [window[i][0] for i in stack], n, shared)):
                rows[i] = row
    except Exception as stack_exc:
        for seed, n in window:
            try:
                row = _trial_row(case, seed, n)
            except (NumericalBreakdown, HypothesisError) as exc:
                raise type(exc)(f"trial (case_id, seed, n) = ({case.id!r}, {seed}, {n}): {exc}") from exc
            yield row
        raise stack_exc  # no trial fails on its own
    yield from rows


def run_all(
    pattern: str = "*",
    *,
    trials: int = DEFAULT_TRIALS,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    seed: int = DEFAULT_SEED,
    collect: list[MarginReport] | None = None,
) -> list[SuiteResult]:
    """Run the suite for every case matching ``pattern`` (ids and groups).
    The suites share their stack draws (see the module notes)."""
    cases = find_cases(pattern)
    if not cases:
        raise InvalidInput(f"no cases match pattern {pattern!r}")
    dims = _dims(dims)  # an iterator would be used up by the first suite
    shared = _SharedStacks(cases)
    return [run_suite(c, trials=trials, dims=dims, seed=seed, collect=collect, _shared=shared) for c in cases]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def report_to_dict(report: MarginReport) -> dict:
    """A report's fields by name, in field order (every value a plain Python scalar or None)."""
    return dict(zip(_REPORT_FIELDS, _report_values(report)))


# The report rows written, or lines read, at a time: the JSONL writer formats
# a block column by column and writes it in one call; the reader holds at most
# a block's lines and values besides the reports it returns.
_REPORT_BLOCK = 256

# one line of json.dumps(report_to_dict(r)): its key order and separators
_JSONL_LINE = "{" + ", ".join(f'"{name}": %s' for name in _REPORT_FIELDS) + "}\n"
# each plain value as json.dumps writes it (finite floats only, see _json_tokens)
_JSON_TOKEN = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_NON_FINITE = frozenset(map(float.__repr__, (math.nan, math.inf, -math.inf)))


def _kinds(column) -> set:
    return set(map(type, column))


def _check_path(path) -> None:
    """A report path is a str or an os.PathLike: anything else (an int, which
    ``open`` would take as a file descriptor, or a bool) is an InvalidInput."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidInput(f"report path must be a str or os.PathLike, got {path!r}")


def _check_reports(reports) -> None:
    """Every item of ``reports`` (a block, or a whole list) is a MarginReport,
    checked in one pass over their types; else an InvalidInput."""
    if not _kinds(reports) <= {MarginReport}:
        bad = next(r for r in reports if type(r) is not MarginReport)
        raise InvalidInput(f"expected MarginReports, got {bad!r}")


def _json_tokens(column: tuple) -> list[str] | None:
    """A column's values as json.dumps writes them, or None if one is not a
    plain str, int, finite float, bool or None."""
    kinds = _kinds(column)
    if not kinds <= _JSON_TOKEN.keys():
        return None
    if len(kinds) == 1:
        tokens = list(map(_JSON_TOKEN[kinds.pop()], column))
    else:
        tokens = [_JSON_TOKEN[type(x)](x) for x in column]
    return tokens if _NON_FINITE.isdisjoint(tokens) else None


def _jsonl_block(block: list) -> str | None:
    """The lines of a block of reports, formatted column by column, or None
    if a row holds a value that only json.dumps writes (or rejects)."""
    columns = []
    for column in zip(*map(_report_values, block)):
        tokens = _json_tokens(column)
        if tokens is None:
            return None
        columns.append(tokens)
    return "".join(map(_JSONL_LINE.__mod__, zip(*columns)))


def write_reports_jsonl(reports: list[MarginReport], path: str) -> None:
    """One line per report, byte for byte ``json.dumps(report_to_dict(r))``.
    A block holding a value other than a plain str, int, finite float, bool
    or None (a numpy scalar, a NaN) is written by ``json.dumps`` itself, row by
    row, so it gives the same bytes or raises the same error.  A ``path``
    that is not a str or os.PathLike, and an item that is not a MarginReport,
    are InvalidInputs."""
    _check_path(path)
    rows = iter(reports)
    with open(path, "w", encoding="utf-8") as fh:
        while block := list(islice(rows, _REPORT_BLOCK)):
            _check_reports(block)
            text = _jsonl_block(block)
            if text is None:
                for r in block:
                    fh.write(json.dumps(report_to_dict(r)) + "\n")
            else:
                fh.write(text)


def write_reports_csv(reports: list[MarginReport], path: str) -> None:
    """A header of the field names, then one row per report (the csv module
    writes None as an empty field).  A ``path`` that is not a str or
    os.PathLike, and an item that is not a MarginReport, are InvalidInputs."""
    _check_path(path)
    rows = iter(reports)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_FIELDS)
        while block := list(islice(rows, _REPORT_BLOCK)):
            _check_reports(block)
            writer.writerows(map(_report_values, block))


def _finite_column(column) -> bool:
    # a sum is finite only if every term is (a finite column whose sum
    # overflows fails here and is read line by line)
    return _kinds(column) <= {float, int} and math.isfinite(sum(column))


def _finite_or_null_column(column) -> bool:
    if None in column:
        column = [x for x in column if x is not None]
    return _finite_column(column)


# what read_reports accepts in each field, as written (JSON booleans are not
# integers): the rule on a column of values (a block's, or one line's alone)
# and what the error message says a value must be
_FIELD_RULES = {
    "case_id": (lambda col: _kinds(col) == {str}, "a string"),
    "seed": (lambda col: _kinds(col) == {int} and min(col) >= 0 and max(col) <= _WORD_MASK, "an integer in [0, 2^64)"),
    "n": (lambda col: _kinds(col) == {int} and min(col) >= 1, "an integer >= 1"),
    "p": (_finite_or_null_column, "null or a finite number"),
    "q": (_finite_or_null_column, "null or a finite number"),
    "c": (_finite_or_null_column, "null or a finite number"),
    "u": (_finite_column, "a finite number"),
    "v": (_finite_column, "a finite number"),
    "margin": (_finite_column, "a finite number"),
    "scale": (_finite_column, "a finite number"),
    "holds": (lambda col: _kinds(col) == {bool}, "true or false"),
}
_RULES = tuple((name, *_FIELD_RULES[name]) for name in _REPORT_FIELDS)
_report_items = itemgetter(*_REPORT_FIELDS)
_decode = json.JSONDecoder().raw_decode
_LINE_ENDS = ("\n", "")


def _as_float(column):
    """A column's (or one line's) numbers as floats (None kept), as ``float(x)`` per value."""
    if _kinds(column) <= {float, type(None)}:
        return column
    return tuple(x if x is None else float(x) for x in column)


def _report_block(lines: list[str]) -> list[MarginReport] | None:
    """The reports of a block of lines, checked column by column, or None if
    a line is not one JSON object holding every field, alone on its line, or
    a column breaks its rule."""
    values = []
    try:
        for line in lines:
            obj, end = _decode(line)
            if line[end:] not in _LINE_ENDS:
                return None
            values.append(_report_items(obj))
        columns = tuple(zip(*values))
        if not all(ok(column) for (_, ok, _), column in zip(_RULES, columns)):
            return None
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        return None
    case_id, seed, n, *numbers, holds = columns
    return list(map(_report, case_id, seed, n, *map(_as_float, numbers), holds))


def _report_lines(lines: list[str], lineno: int, path: str) -> list[MarginReport]:
    """The reports of a block of lines read one line at a time, from line
    ``lineno``; raises at the first malformed one."""
    out = []
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            continue
        try:
            values = _report_items(json.loads(line))
            for (name, ok, kind), x in zip(_RULES, values):
                if not ok((x,)):
                    raise TypeError(f"{name!r} must be {kind}, got {x!r}")
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ReportError(f"{path}: malformed report on line {lineno}: {exc}") from exc
        case_id, seed, n, *numbers, holds = values
        out.append(_report(case_id, seed, n, *_as_float(numbers), holds))
    return out


def read_reports(path: str) -> list[MarginReport]:
    """Parse a JSONL report stream, pointing at the first malformed line.
    Values are taken as written, never coerced (see ``_FIELD_RULES``).  The
    file is read in blocks of lines; a block that is not all well-formed
    report lines (blank lines included) is read again line by line, which
    names its first malformed line.  A ``path`` that is not a str or
    os.PathLike is an InvalidInput."""
    _check_path(path)
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 1
        while lines := list(islice(fh, _REPORT_BLOCK)):
            block = _report_block(lines)
            out.extend(_report_lines(lines, lineno, path) if block is None else block)
            lineno += len(lines)
    return out


def summarize(reports: list[MarginReport]) -> dict:
    """Per-case margin statistics plus run totals, JSON-ready.  An item that
    is not a MarginReport is an InvalidInput."""
    _check_reports(reports)
    per_case: dict[str, dict] = {}
    for r in reports:
        entry = per_case.setdefault(
            r.case_id,
            {"trials": 0, "failures": 0, "min_margin": np.inf, "mean_margin": 0.0},
        )
        entry["trials"] += 1
        entry["failures"] += not r.holds
        entry["min_margin"] = min(entry["min_margin"], r.margin)
        entry["mean_margin"] += r.margin
    for entry in per_case.values():
        entry["mean_margin"] /= entry["trials"]
        entry["min_margin"] = float(entry["min_margin"])
    return {
        "cases": dict(sorted(per_case.items())),
        "total_trials": len(reports),
        "total_failures": sum(not r.holds for r in reports),
    }


@dataclass(frozen=True)
class IntegralResult:
    """Worst quadrature-vs-closed-form residual across sampled pairs."""

    p: float
    trials: int
    max_residual: float
    max_allowed: float
    holds: bool


def _p_grid(p_grid) -> tuple[float, ...]:
    """``p_grid`` as a tuple of Python floats: a non-empty iterable of real
    numbers (bools not) with ``0 < |p| <= 1``; anything else is an
    InvalidInput."""
    try:
        grid = tuple(p_grid)
    except TypeError:
        raise InvalidInput(f"p grid must be an iterable of weights, got {p_grid!r}") from None
    if not grid:
        raise InvalidInput("p grid is empty")
    for p in grid:
        if not isinstance(p, Real) or isinstance(p, bool) or not 0.0 < abs(p) <= 1.0:
            raise InvalidInput(f"p grid value is not a number in [-1, 1] \\ {{0}}: {p!r}")
    return tuple(map(float, grid))


def _symmetric_norms(m: np.ndarray) -> np.ndarray:
    """The 2-norms of exactly symmetric matrices (a stack): the largest
    eigenvalue magnitude, ``max(-lambda_min, lambda_max)`` (Horn and Johnson,
    Matrix Analysis, Thm 5.6.9 ff.), from one ``eigvalsh`` rather than an
    SVD per matrix."""
    w = np.linalg.eigvalsh(m)
    return np.maximum(-w[..., 0], w[..., -1])


def _sweep_targets(plan_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """integral_sweep's sandwich targets: the two target words of its plan
    words mapped onto ``_FREE_WINDOW``, in order, with no pin."""
    return _sorted2(*_FREE_WINDOW, *plan_words[:, 4:6].T)


def integral_sweep(
    *,
    trials: int = INTEGRAL_TRIALS,
    p_grid: tuple[float, ...] = INTEGRAL_P_GRID,
    nodes: int = INTEGRAL_NODES,
    tol: float = ORDER_TOL,
    seed: int = DEFAULT_SEED,
    dims: tuple[int, ...] = DEFAULT_DIMS,
) -> list[IntegralResult]:
    """Check the averaged-entropy identity: the unit-interval quadrature of
    the entropy family reproduces the closed form on every sampled pair (a
    suite's trials, each stack checked at every p before the next is drawn).
    A stack of k pairs at dimension n takes ``max(1, STACK_ENTRIES // (k n^2))``
    weights per quadrature and closed-form call, as one weight axis (see
    :mod:`oel.means`).  A p's worst residual is that of the earliest trial
    attaining it.  Each 2-norm is the largest eigenvalue magnitude of its
    exactly symmetric matrix (:func:`_symmetric_norms`), and the pairs' B is
    never formed.  A ``p_grid`` that is not a non-empty iterable of numbers
    in ``[-1, 1] \\ {0}``, ``nodes`` that is not an integer in ``[2, 100]``,
    ``trials`` that is not an integer >= 1, or a non-finite or negative
    ``tol``, is an InvalidInput, raised before any draw."""
    _check_tol(tol)
    _check_nodes(nodes)
    grid = _p_grid(p_grid)
    weights = np.array(grid)[:, None, None, None]
    # per p: [worst residual, its allowed residual, its trial, every trial
    # within tolerance], from below any residual so that a weight whose
    # residuals are all 0 still records its first trial
    worst = [[-math.inf, tol, -1, True] for _ in grid]
    lo = 0
    for window in _windows(seed, dims, trials):
        for stack, n in _stacks(window):
            plan_words, base = _draw([window[i][0] for i in stack], n)
            pair = pair_from_base(base, *_sweep_targets(plan_words))
            size = max(1, STACK_ENTRIES // (len(stack) * n * n))
            for j in range(0, len(grid), size):
                p = weights[j : j + size]
                quad = quadrature_tsallis(pair, p, nodes=nodes)
                closed = tsallis_entropy(pair, p)
                # (P, k) residuals and norms: the stack's trials at each weight
                resid, nq, nc = _symmetric_norms(np.stack((quad - closed, quad, closed)))
                allowed = tol * np.maximum(1.0, np.maximum(nq, nc))
                # each weight's largest residual, its allowed residual, its
                # trial in the stack and whether any trial exceeds its allowance
                at = np.argmax(resid, axis=1)
                rows = np.arange(len(at))
                fold = (resid[rows, at], allowed[rows, at], at, (resid > allowed).any(axis=1))
                for w, r, alw, i, fails in zip(worst[j : j + size], *(x.tolist() for x in fold)):
                    trial = lo + stack[i]
                    if r > w[0] or (r == w[0] and trial < w[2]):  # the earliest trial across stacks
                        w[:3] = r, alw, trial
                    if fails:
                        w[3] = False
        lo += len(window)
    return [IntegralResult(p, trials, r, allowed, ok) for p, (r, allowed, _, ok) in zip(grid, worst)]


def suite_results_to_dict(results: list[SuiteResult]) -> dict:
    return {
        "cases": [asdict(r) for r in results],
        "total_trials": sum(r.trials for r in results),
        "total_failures": sum(r.failures for r in results),
        "worst_margin": min((r.worst_margin for r in results), default=float("inf")),
    }
