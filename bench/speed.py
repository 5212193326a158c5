"""The host's current pace, measured with a fixed piece of work.

The benchmark's host shares its CPUs with other machines.  Their pace
switches between phases up to about 1.7x apart, each lasting from under a
second to tens of seconds, and user and system time move with it, so an
unscaled time says as much about the host as about the program.  The
benchmark therefore samples the pace with a probe, a fixed piece of work
of about a millisecond: the harness runs probes before and after every
process, and a ``Pacer`` runs one every ``INTERVAL_S`` inside the
benchmark's own processes while the program works.  A time is reported
at the reference pace: the time, less the probes inside it, times the
mean of ``REFERENCE_S / probe time`` over the probes around it.  That
mean of speeds, not of probe times, is what a stretch of time sampled
at even steps scales with, and one probe slowed by an interrupt barely
moves it.

A probe does the kinds of work the program does: a Python loop of
scalar ``np.searchsorted`` calls (the covering sweep), ``json.dumps`` of
floats (set and report writes) and whole-array numpy arithmetic.
"""

from __future__ import annotations

import bisect
import json
import math
import signal
import statistics
import time

import numpy as np

# the time of one probe at the reference pace (2 cores, Python 3.11,
# numpy 2.4, in the host's fast phase)
REFERENCE_S = 0.0017
# probes the harness runs before and after each process
BRACKET = 8
# real time between two probes inside a process
INTERVAL_S = 0.05

_SORTED = np.linspace(0.0, 1.0, 750)
_FLOATS = (np.arange(330) / 7.0).tolist()
_ARRAY = np.linspace(-1.0, 1.0, 8_000)


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    t0 = time.perf_counter()
    i, n, acc = 0, _SORTED.size, 0.0
    while i < n:
        i = int(np.searchsorted(_SORTED, _SORTED[i] + 1e-3, side="right"))
        acc += math.log1p(i)
    json.dumps(_FLOATS)
    for _ in range(2):
        acc += float(np.abs(np.sin(_ARRAY) * _ARRAY).sum())
    return time.perf_counter() - t0


def bracket() -> list[float]:
    """Probe times of ``BRACKET`` probes in a row, as run around a process."""
    return [probe() for _ in range(BRACKET)]


def factor(probe_times) -> float:
    """Reference pace over the pace the probes saw (1 when they saw none)."""
    probe_times = list(probe_times)
    if not probe_times:
        return 1.0
    return statistics.fmean(REFERENCE_S / p for p in probe_times)


class Pacer:
    """Probes the pace every ``INTERVAL_S`` of real time, from SIGALRM.

    The handler runs between two bytecodes of the main thread, so a
    probe falls due inside a long call into C only when the call returns.
    """

    def __init__(self):
        self.at: list[float] = []     # start of each probe
        self.took: list[float] = []   # its duration

    def _tick(self, _signum, _frame):
        self.at.append(time.perf_counter())
        self.took.append(probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1))

    def spent(self, t0: float, t1: float) -> float:
        """Seconds of probing that started in [t0, t1)."""
        return sum(self.took[i] for i in self._between(t0, t1))

    def near(self, t0: float, t1: float, margin: float) -> list[float]:
        """Probe times of the probes within ``margin`` of [t0, t1)."""
        return [self.took[i] for i in self._between(t0 - margin, t1 + margin)]
