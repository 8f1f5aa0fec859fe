"""Randomized verification harness over the inequality catalog.

Every trial is reconstructible from (case_id, seed, n) alone: the per-trial
seed (:func:`trial_seeds` of the master seed) keys one counter-based Philox
stream, read in two bulk calls (see :func:`oel.sampler.stream_draws`).  Its
first words are the case's plan (parameters and sandwich targets), the rest
are the pair's spectra and bases; there is no second seed.  Reports carry
that per-trial seed so any failure can be replayed exactly.  Master and
trial seeds are 64-bit words (integers in ``[0, 2^64)``), checked where
they enter: :class:`_Schedule` for a run, :func:`run_trial` for one trial.

A suite works through its trials in windows of ``WINDOW_TRIALS``, in trial
order.  It groups a window's trials by n and evaluates each group as stacks
of shape ``(k, n, n)``, with k * n * n at most ``STACK_ENTRIES``: the stack's
streams are read into ``(k, ...)`` arrays, the planner maps their plan words
at once, and every later step is one numpy call for the k trials.  A run's
windows and their grouping come from one :class:`_Schedule`, built once per
:func:`run_all` call and read by every suite of it.  The kernel's columns
(:func:`~oel.catalog.evaluate_trials`: margins, scales and verdicts as
``(k,)`` arrays) are gathered into trial order and folded into the suite's
totals before the next window, so its memory does not grow with the trial
count.  With ``collect``, a window's rows leave as one
:class:`~oel.catalog.ReportColumns` block: a :class:`ReportBlocks` (what
``oel verify --out`` passes) keeps it as it is, and a list receives the
reports built from it, so a report is built only where a caller asks for
objects.
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
stack's trial seeds: the stack's draws, read by every case; the checked
stack (:func:`~oel.catalog.check_stack`: the pair, its weights and its
trial columns) of each (plan, hypothesis), read by every case with that
planner and hypothesis; and the value of each (plan, term), read by every
case with that term on either side.  Its first reader computes an entry and
keeps it only while a later case of the call reads it (the readers come
from the call's case list); the last reader drops it.  A checked stack or
term value is kept only with its stack's draws, whose arrays it holds.  The
memo holds at most ``SHARED_ENTRIES`` matrix entries, n x n per trial for
each kept array (four for the draws' A, its square root, C's basis and X;
one for a checked stack's B, formed or not, as no pair holds C; one for a
term value); past it, entries are computed per case.  A hypothesis is
checked once per stack, by the first case with that planner and
hypothesis; a later case reads its terms only through the checked stack,
and a shared entry is the same computation on the same arrays, so rows
keep their bits.
The memo lives as long as its call; a lone :func:`run_suite` (a pattern
matching one case is one) reads through a memo of one case, which keeps
nothing, and :func:`integral_sweep` draws its own.

A single trial (:func:`run_trial`, and so :func:`replay`, and the one-trial
rerun of a failing stack) is one function, ``_trial_report``, which reads its
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
column; the writers take a list of reports or a :class:`ReportBlocks`, and
both go through one formatter.  :func:`write_reports_jsonl` fills a block's
lines with one ``%`` on a line template, in the key order and separators of
``json.dumps(report_to_dict(r))``, that holds the block's constant columns
once (a column block's case id, JSON-escaped with ``%`` doubled, and its
null parameters); every other column's values become their JSON tokens
(``float.__repr__`` for floats, as ``json.dumps`` writes them).  Every case
of a run reads the same trial streams and the cases of a region share its
plan, so an array column often repeats, bit for bit, one already written to
the file: a window's seeds and n in every case, a region's parameters and
sandwich bounds, an all-true verdict column.  A write call keeps each array
column's tokens in a ``_TokenStore``, keyed by the column's dtype and bytes,
at most ``STORE_TOKENS`` tokens with the least recently read column dropped
first, so a repeated column is formatted once while it is kept.  A block
with a value that is not a plain str, int, finite float, bool or None goes
through ``json.dumps`` row by row.
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
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from numbers import Real
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .catalog import (
    _REPORT_FIELDS,
    CheckedStack,
    InequalityCase,
    MarginReport,
    ReportColumns,
    _check_case,
    _plain,
    _report,
    _reports,
    _sorted2,
    _stack_columns,
    case_index,
    catalog_with_duals,  # noqa: F401  (perfbench wraps the case lookups by this name)
    check_stack,
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
# trial: the draws' A, its square root, C's basis and X, a kept checked
# stack's B, a kept term value), 8 MB; past it, entries are computed per case.
# Measured on the draws alone, when a trial kept four arrays (A^{-1/2} too):
# `oel verify --trials 10000` (0.87 M entries; 2-core VM, one BLAS thread)
# took 26.4 s unshared, 19.8 s at 1 << 18, 15.9 s at 1 << 19 and 12.2 s at
# 1 << 20 (peak RSS 39.8 -> 48.2 MB); at 1 << 21, n = 16, 32, 64 at 300
# trials (1.4 M entries) went from 16.0 to 13.2 s but peaked at 56.5 MB.
SHARED_ENTRIES = 1 << 20

# The most matrix entries the single-trial store keeps (4 n^2 per stream: the
# draws' A, its square root, C's basis and X), 1 MB: every stream of a default
# `oel verify` report (1000 trials at n = 1..8) is about 87k entries.
TRIAL_ENTRIES = 1 << 17

# The most JSON tokens one write_reports_jsonl call keeps (about 82 bytes each
# with its key, so 2.7 MB), the smallest power of two at which a default
# `oel verify --out` (1000 trials at n = 1..8) comes within 3 points of the hit
# share of a store with no bound.  Tokens served from the store, of those of the
# array columns, at seed 42 (2-core VM): 0.589 at 1 << 14, 0.650 at 1 << 15,
# 0.664 at 1 << 16 and 0.676 unbounded (139,464 tokens); every bound from
# 1 << 13 up gives 0.674 at 60 trials and 0.672 at n = 16, 32, 64 and 12
# trials, the benchmark's catalog runs.  At 10,000 trials a column
# recurs only a whole case (about 100k tokens) later: 0.236 here, 0.681
# unbounded, which would hold 1.37 M tokens.
STORE_TOKENS = 1 << 15

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
    notes): per stack, its draws, each (plan, hypothesis)'s checked stack and
    each (plan, term)'s value, each kept from its first reader to its last
    while it fits in ``SHARED_ENTRIES``, so a memo of one case keeps nothing."""

    def __init__(self, cases: list[InequalityCase]) -> None:
        self._position = {case.id: i for i, case in enumerate(cases)}
        # the last reader of each entry, by its key less the stack: () the
        # draws, (plan, hypothesis) a checked stack, (plan, term) a term value
        self._last: dict[tuple, int] = {(): len(cases) - 1}
        for i, case in enumerate(cases):
            for key in ((case.plan, case.hypothesis), (case.plan, case.lhs), (case.plan, case.rhs)):
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
            value = self._kept.get(full)  # no entry is None
            if value is not None:
                if reader >= last:
                    del self._kept[full]
                    self._entries -= entries
                return value
            value = compute()
            # a checked stack or a term value holds arrays of the draws: kept only with them
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


def _plan_stack(case: InequalityCase, seeds: list[int], plan_words: np.ndarray, base) -> CheckedStack:
    """The stacked pair that ``case.plan`` draws on the draws of ``seeds``,
    checked against ``case.hypothesis``."""
    params, pair = _plan_pair(case.plan, plan_words, base)
    return check_stack(case, pair, params, seeds)


def _evaluate_stack(case: InequalityCase, seeds: list[int], n: int, shared: _SharedStacks):
    """The trial kernel: k trials of dimension n read from their seeds'
    streams, planned, built and checked as one stacked pair, and evaluated
    at once: the :class:`~oel.catalog.CheckedStack` and its
    :func:`~oel.catalog.evaluate_trials` columns.  The draws, the checked
    stack and the term values are taken from the memo ``shared`` where it
    has them."""
    keep = shared.reader(case, seeds, n)
    plan_words, base = keep((), 4, lambda: _draw(seeds, n))
    stack = keep((case.plan, case.hypothesis), 1, lambda: _plan_stack(case, seeds, plan_words, base))
    return stack, evaluate_trials(
        case, stack, terms=lambda term: keep((case.plan, term), 1, lambda: term.fn(stack.pair, stack.weights))
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


def _trial_report(case: InequalityCase, seed: int, n: int) -> MarginReport:
    """The trial kernel with k = 1 on the stream's draws from the store: the
    report of one trial."""
    stack = _plan_stack(case, [seed], *_TRIAL_DRAWS(seed, n))
    return _reports(_stack_columns(case.id, stack, evaluate_trials(case, stack)))[0]


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
    return _trial_report(case, int(trial_seed), int(n))


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


class ReportBlocks:
    """A sink for a run's report rows that keeps them as column blocks: pass
    it as ``collect`` and each (case, window) of the run appends one
    :class:`~oel.catalog.ReportColumns`, in run order, and no MarginReport is
    built (a window that raised appends the list of reports of its trials
    before the failing one).  Iterating it gives its blocks, and ``len`` its
    rows, as for a list of the same reports.  The report writers take it in
    place of a list of reports."""

    def __init__(self) -> None:
        self._blocks: list[ReportColumns | list[MarginReport]] = []
        self._rows = 0

    def append(self, block: ReportColumns | list[MarginReport]) -> None:
        self._blocks.append(block)
        self._rows += len(block.holds) if isinstance(block, ReportColumns) else len(block)

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return self._rows


def _collect(collect, rows) -> None:
    """Hand a window's rows (a ReportColumns block, or a list of reports) to
    ``collect``: a ReportBlocks keeps them as they are, a list receives
    their reports."""
    if isinstance(collect, ReportBlocks):
        collect.append(rows)
    else:
        collect.extend(_reports(rows) if isinstance(rows, ReportColumns) else rows)


def run_suite(
    case: InequalityCase,
    *,
    trials: int = DEFAULT_TRIALS,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    seed: int = DEFAULT_SEED,
    collect: list[MarginReport] | ReportBlocks | None = None,
    _shared: _SharedStacks | None = None,
    _schedule: _Schedule | None = None,
) -> SuiteResult:
    """Run ``trials`` deterministic trials of one case, cycling dimensions.

    The trials are evaluated in windows and stacks (see the module notes);
    collected rows keep trial order, as reports appended to a list or as
    column blocks appended to a :class:`ReportBlocks`.  A trial's
    NumericalBreakdown or HypothesisError is re-raised with its
    ``(case_id, seed, n)``, after the rows of the trials before it have been
    collected.  ``trials`` that is not an integer >= 1, or a ``case`` that is
    not an InequalityCase, is an InvalidInput."""
    _check_case(case)
    schedule = _Schedule(seed, dims, trials) if _schedule is None else _schedule
    shared = _SharedStacks([case]) if _shared is None else _shared
    t0 = time.perf_counter()
    failures = 0
    worst_margin = np.inf
    worst_seed = 0
    margin_sum = 0.0
    for window in schedule:
        margin, holds = _window_columns(case, window, shared, collect)
        failures += len(margin) - int(np.count_nonzero(holds))
        i = int(np.argmin(margin))  # the window's earliest worst trial
        if margin[i] < worst_margin:
            worst_margin, worst_seed = margin[i], window.seeds[i]
        for m in margin.tolist():  # in trial order: sum() compensates from Python 3.12
            margin_sum += m
    elapsed_ms = int(round((time.perf_counter() - t0) * 1e3))
    return SuiteResult(
        case_id=case.id,
        trials=schedule.trials,
        failures=failures,
        worst_margin=float(worst_margin),
        worst_seed=worst_seed,
        mean_margin=margin_sum / schedule.trials,
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
    return tuple(map(int, dims))


class _Window(NamedTuple):
    """Trials ``lo .. lo + len(seeds) - 1`` of a run, in trial order."""

    lo: int
    seeds: list[int]
    # the seeds as a uint64 column and each trial's n, read-only: the report
    # blocks of every case share n, and the seed column within a run of one
    # window (a run of more rebuilds each window per case)
    seed_column: np.ndarray
    n: np.ndarray
    # (seeds, n): the window's trials grouped by n, in trial order within a
    # group, cut to STACK_ENTRIES
    stacks: list[tuple[list[int], int]]
    # the stacks' trials, one after another, taken in this order are in trial order
    order: np.ndarray


class _Schedule:
    """A run's trials, in windows of at most ``WINDOW_TRIALS`` in trial
    order, trial i at ``dims[i % len(dims)]``: the one check of a run's
    master seed (an integer in ``[0, 2^64)``, as :func:`trial_seeds` reads
    it), ``dims`` and ``trials``, where anything else is an InvalidInput.
    It is built once per run and iterated by each of its suites.  A window's
    grouping into stacks depends only on its length and its first index
    modulo ``len(dims)``, so it is built once per such shape, and the last
    window is kept whole, so the suites of a run of one window share it.  So
    the schedule holds at most ``len(dims) + 1`` groupings and one window,
    however many trials the run has.  :meth:`stacks` gives the same stacks
    without the windows' columns, for :func:`integral_sweep`."""

    def __init__(self, seed: int, dims, trials: int) -> None:
        if not _is_word(seed):
            raise InvalidInput(f"master seed must be an integer in [0, 2^64), got {seed!r}")
        if not _is_count(trials, 1):
            raise InvalidInput(f"trials must be positive (an integer >= 1), got {trials!r}")
        self.dims = _dims(dims)
        self.seed = int(seed)  # a numpy integer would overflow in trial_seeds
        self.trials = int(trials)
        self._groupings: dict[tuple[int, int], list] = {}
        self._shapes: dict[tuple[int, int], tuple] = {}
        self._last: _Window | None = None

    def _spans(self):
        for lo in range(0, self.trials, WINDOW_TRIALS):
            yield lo, min(lo + WINDOW_TRIALS, self.trials)

    def __iter__(self):
        for lo, hi in self._spans():
            if self._last is None or self._last.lo != lo:
                self._last = self._window(lo, hi)
            yield self._last

    def stacks(self):
        """Each stack of the run, window by window, as the windows group
        them: its trials' indices, their seeds (Python ints) and n."""
        for lo, hi in self._spans():
            seeds = trial_seeds(self.seed, lo, hi)
            for at, m in self._groups(hi - lo, lo % len(self.dims)):
                yield [lo + i for i in at], [seeds[i] for i in at], m

    def _window(self, lo: int, hi: int) -> _Window:
        n, groups, order = self._shape(hi - lo, lo % len(self.dims))
        seeds = trial_seeds(self.seed, lo, hi)
        seed_column = np.array(seeds, dtype=np.uint64)
        seed_column.flags.writeable = False
        stacks = [(seed_column[at].tolist(), m) for at, m in groups]
        return _Window(lo, seeds, seed_column, n, stacks, order)

    def _groups(self, length: int, offset: int) -> list[tuple[list[int], int]]:
        """The stacks of a window of ``length`` trials from index ``offset``
        of the dims cycle, each as its positions in the window and its n."""
        key = length, offset
        if key not in self._groupings:
            # grouped without numpy's sort and nonzero kernels, whose first
            # call alone touched 0.4 MB more of numpy's code (RSS)
            positions: dict[int, list[int]] = {}  # in order of first appearance
            for i in range(length):
                positions.setdefault(self.dims[(offset + i) % len(self.dims)], []).append(i)
            groups = []
            for m, group in positions.items():
                size = max(1, STACK_ENTRIES // (m * m))
                groups += [(group[lo : lo + size], m) for lo in range(0, len(group), size)]
            self._groupings[key] = groups
        return self._groupings[key]

    def _shape(self, length: int, offset: int):
        """Each trial's n in a window of ``length`` trials from index
        ``offset`` of the dims cycle, its stacks (positions as arrays, n) and
        the order that takes their trials back to trial order."""
        key = length, offset
        if key not in self._shapes:
            groups = [(np.array(at), m) for at, m in self._groups(length, offset)]
            order = np.empty(length, dtype=np.intp)
            order[np.concatenate([at for at, _ in groups])] = np.arange(length)
            n = np.concatenate([np.full(len(at), m) for at, m in groups])[order]
            n.flags.writeable = False
            self._shapes[key] = n, groups, order
        return self._shapes[key]


def _window_columns(case: InequalityCase, window: _Window, shared: _SharedStacks, collect):
    """The window's margins and verdicts as arrays in trial order; with
    ``collect``, its rows as one ReportColumns block in trial order, handed
    to it (:func:`_collect`).  If a stack raises, the window is rerun one
    trial at a time (``_trial_report``): the reports before the earliest
    failing trial are collected, then that trial's error is raised."""
    pieces = []  # each stack's columns: margin, scale, holds, then p, q, c, u and v where collected
    try:
        for seeds, n in window.stacks:
            stack, verdict = _evaluate_stack(case, seeds, n, shared)
            pieces.append(verdict if collect is None else (*verdict, stack.p, stack.q, stack.c, stack.u, stack.v))
            del stack  # its pair's arrays are not kept while the next stack is evaluated
    except Exception as stack_exc:
        rows = []
        try:
            for seed, n in zip(window.seeds, window.n.tolist()):
                try:
                    rows.append(_trial_report(case, seed, n))
                except (NumericalBreakdown, HypothesisError) as exc:
                    raise type(exc)(f"trial (case_id, seed, n) = ({case.id!r}, {seed}, {n}): {exc}") from exc
        finally:
            if collect is not None:
                _collect(collect, rows)
        raise stack_exc  # no trial fails on its own
    # a plan gives every trial the same parameters: a column is None in every stack or in none
    columns = [None if column[0] is None else np.concatenate(column)[window.order] for column in zip(*pieces)]
    margin, scale, holds = columns[:3]
    if collect is not None:
        p, q, c, u, v = columns[3:]
        _collect(collect, ReportColumns(case.id, window.seed_column, window.n, p, q, c, u, v, margin, scale, holds))
    return margin, holds


def run_all(
    pattern: str = "*",
    *,
    trials: int = DEFAULT_TRIALS,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    seed: int = DEFAULT_SEED,
    collect: list[MarginReport] | ReportBlocks | None = None,
) -> list[SuiteResult]:
    """Run the suite for every case matching ``pattern`` (ids and groups).
    The suites share their schedule and their stack draws (see the module
    notes); ``collect`` receives every suite's rows, as for :func:`run_suite`."""
    cases = find_cases(pattern)
    if not cases:
        raise InvalidInput(f"no cases match pattern {pattern!r}")
    schedule = _Schedule(seed, dims, trials)
    shared = _SharedStacks(cases)
    return [
        run_suite(c, trials=trials, dims=schedule.dims, seed=seed, collect=collect, _shared=shared, _schedule=schedule)
        for c in cases
    ]


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


def _json_tokens(column) -> list[str] | None:
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


class _TokenStore:
    """The JSON tokens of one write call's array columns, each column keyed
    by its exact contents (dtype and bytes), so a column repeated in the
    file is formatted once; the least recently read column is dropped first
    past ``STORE_TOKENS`` tokens, and a column alone past it is not kept."""

    def __init__(self) -> None:
        self._kept: OrderedDict[tuple[str, bytes], list[str]] = OrderedDict()
        self._tokens = 0

    def __call__(self, column) -> list[str] | None:
        """``_json_tokens`` of the column's plain values, from the store
        where it holds them.  Only a numeric or boolean array is looked up:
        equal bytes of one such dtype are equal values, bit for bit."""
        if not isinstance(column, np.ndarray) or column.dtype.kind not in "biuf":
            return _json_tokens(_plain(column))
        key = column.dtype.str, column.tobytes()
        tokens = self._kept.get(key)
        if tokens is not None:
            self._kept.move_to_end(key)
            return tokens
        tokens = _json_tokens(column.tolist())
        if tokens is not None and len(tokens) <= STORE_TOKENS:
            self._kept[key] = tokens
            self._tokens += len(tokens)
            while self._tokens > STORE_TOKENS:
                self._tokens -= len(self._kept.popitem(last=False)[1])
        return tokens


def _column_blocks(reports):
    """The rows of ``reports`` (an iterable of MarginReports, or a
    :class:`ReportBlocks`) in blocks of at most ``_REPORT_BLOCK``, each as its
    columns in field order: tuples of plain values, or slices of a column
    block's arrays.  An item of a report list that is not a MarginReport is
    an InvalidInput, raised when its block is reached."""
    if isinstance(reports, ReportBlocks):
        for block in reports:
            if isinstance(block, ReportColumns):
                for lo in range(0, len(block.holds), _REPORT_BLOCK):
                    yield block.columns(lo, lo + _REPORT_BLOCK)
            else:
                yield from _column_blocks(block)
        return
    rows = iter(reports)
    while block := list(islice(rows, _REPORT_BLOCK)):
        _check_reports(block)
        yield list(zip(*map(_report_values, block)))


def _constant_token(column) -> str | None:
    """The JSON token of a column of one str or of None alone (a block's case
    id or unused parameter), else None."""
    if isinstance(column, np.ndarray):
        return None
    kinds = _kinds(column)
    if kinds == {type(None)}:
        return "null"
    if kinds == {str} and len(set(column)) == 1:
        return encode_basestring_ascii(column[0])
    return None


def _jsonl_block(columns: list, tokens_of: _TokenStore) -> str | None:
    """The lines of a block of rows, or None if a row holds a value that only
    json.dumps writes (or rejects).  A constant column's token is written
    into the block's line template once (``%`` doubled); every other
    column's tokens come from ``tokens_of``, and one ``%`` fills the block."""
    line, tokens = [], []
    for name, column in zip(_REPORT_FIELDS, columns):
        token = _constant_token(column)
        if token is not None:
            line.append(f'"{name}": ' + token.replace("%", "%%"))
            continue
        column_tokens = tokens_of(column)
        if column_tokens is None:
            return None
        tokens.append(column_tokens)
        line.append(f'"{name}": %s')
    template = "{" + ", ".join(line) + "}\n"
    return (template * len(columns[0])) % tuple(chain.from_iterable(zip(*tokens)))


def write_reports_jsonl(reports: list[MarginReport] | ReportBlocks, path: str) -> None:
    """One line per report, byte for byte ``json.dumps(report_to_dict(r))``;
    ``reports`` is an iterable of reports or a :class:`ReportBlocks`, whose
    column blocks are formatted as they are held, and whose repeated array
    columns are formatted once while the call's token store keeps them (see
    the module notes).  A block holding a value
    other than a plain str, int, finite float, bool or None (a numpy scalar,
    a NaN) is written by ``json.dumps`` itself, row by row, so it gives the
    same bytes or raises the same error.  A ``path`` that is not a str or
    os.PathLike, and an item that is not a MarginReport, are InvalidInputs."""
    _check_path(path)
    tokens_of = _TokenStore()
    with open(path, "w", encoding="utf-8") as fh:
        for columns in _column_blocks(reports):
            text = _jsonl_block(columns, tokens_of)
            if text is None:
                for row in zip(*map(_plain, columns)):
                    fh.write(json.dumps(dict(zip(_REPORT_FIELDS, row))) + "\n")
            else:
                fh.write(text)


def write_reports_csv(reports: list[MarginReport] | ReportBlocks, path: str) -> None:
    """A header of the field names, then one row per report (the csv module
    writes None as an empty field); ``reports`` is an iterable of reports or
    a :class:`ReportBlocks`.  A ``path`` that is not a str or os.PathLike,
    and an item that is not a MarginReport, are InvalidInputs."""
    _check_path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_FIELDS)
        for columns in _column_blocks(reports):
            writer.writerows(zip(*map(_plain, columns)))


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
    for stack_trials, seeds, n in _Schedule(seed, dims, trials).stacks():
        plan_words, base = _draw(seeds, n)
        pair = pair_from_base(base, *_sweep_targets(plan_words))
        size = max(1, STACK_ENTRIES // (len(seeds) * n * n))
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
                trial = stack_trials[i]
                if r > w[0] or (r == w[0] and trial < w[2]):  # the earliest trial across stacks
                    w[:3] = r, alw, trial
                if fails:
                    w[3] = False
    return [IntegralResult(p, trials, r, allowed, ok) for p, (r, allowed, _, ok) in zip(grid, worst)]


def suite_results_to_dict(results: list[SuiteResult]) -> dict:
    return {
        "cases": [asdict(r) for r in results],
        "total_trials": sum(r.trials for r in results),
        "total_failures": sum(r.failures for r in results),
        "worst_margin": min((r.worst_margin for r in results), default=float("inf")),
    }
