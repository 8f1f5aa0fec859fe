"""Machine-speed reference for timings taken on a shared machine.

On a machine shared with other tenants the same work takes up to twice as
long from one second to the next, in phases lasting seconds to minutes, and
process CPU time moves with wall time, so neither is steady across runs.
``SpeedProbe`` times a fixed piece of numpy and Python work that does not
touch oel, between the calls a workload measures.  Each measured interval is
divided by the machine's slowness around it: the median probe time within
``WINDOW_S`` of the interval over ``PROBE_REF_MS``.  The result is the time
the interval would have taken on a machine where one probe takes exactly
``PROBE_REF_MS``; a change to oel moves it, a change in the machine's load
largely does not.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PROBE_REF_MS = 1.0  # probe time that defines the reference speed
INTERVAL_S = 0.025  # least time between two probes started by tick()
WINDOW_S = 0.25  # probes this close to an interval set its slowness


class SpeedProbe:
    """Timed reference work and the normalization of measured intervals."""

    def __init__(self) -> None:
        rng = np.random.default_rng(1706)
        self._mats = []
        for n in (2, 3, 4, 6, 8, 32):
            g = rng.standard_normal((n, n))
            self._mats.append(g @ g.T + n * np.eye(n))
        self._starts: list[float] = []
        self._durs: list[float] = []
        self._last = float("-inf")

    def _work(self) -> float:
        # small symmetric eigen solves, matmuls and a Python loop: the mix of
        # interpreter and LAPACK work that oel's trials consist of
        acc = 0.0
        for _ in range(3):
            for m in self._mats:
                w, q = np.linalg.eigh(m)
                acc += float(np.linalg.eigvalsh((q * w) @ q.T - m)[0])
                for v in w.tolist():
                    acc += 0.5 * v
        return acc

    def tick(self, force: bool = False) -> None:
        """Run the probe, unless one ran less than ``INTERVAL_S`` ago."""
        if not force and perf_counter() - self._last < INTERVAL_S:
            return
        t0 = perf_counter()
        self._work()
        t1 = perf_counter()
        self._starts.append(t0)
        self._durs.append(t1 - t0)
        self._last = t1

    def slowness(self, t0: float, t1: float) -> float:
        """Median probe time near [t0, t1] over ``PROBE_REF_MS``."""
        i = bisect_left(self._starts, t0 - WINDOW_S)
        j = bisect_right(self._starts, t1 + WINDOW_S)
        near = self._durs[i:j] or self._durs
        if not near:
            raise RuntimeError("no speed probe was taken")
        return statistics.median(near) * 1e3 / PROBE_REF_MS

    def seconds(self, spans) -> float:
        """Reference-speed seconds of the intervals ``spans`` [(t0, t1), ...],
        less any probe time inside them."""
        total = 0.0
        for t0, t1 in spans:
            i = bisect_left(self._starts, t0)
            j = bisect_right(self._starts, t1)
            busy = sum(d for s, d in zip(self._starts[i:j], self._durs[i:j]) if s + d <= t1)
            total += (t1 - t0 - busy) / self.slowness(t0, t1)
        return total

    def median_slowness(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Median slowness of the probes started in [t0, t1]."""
        near = self._durs[bisect_left(self._starts, t0): bisect_right(self._starts, t1)] or self._durs
        return statistics.median(near) * 1e3 / PROBE_REF_MS
