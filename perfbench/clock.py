"""Timing that corrects for the speed of a shared host.

On a machine shared with other tenants one thread's speed can change by
1.5-2x within seconds, while its CPU time tracks its wall time (nothing is
stolen: the same instructions just run slower).  A timing taken in a slow
spell would then read as a regression of the program.  ``SpeedClock``
samples the machine's speed all through a run: a timer signal runs a short
fixed burst of dict, float and small-numpy work (the mix rtbsim's hot paths
are made of) every ``INTERVAL`` seconds, between the program's bytecodes.
A region's reported time is its wall time minus the bursts inside it,
scaled by ``NOMINAL_BURST_S`` over the median burst around it: the time the
region would take at the reference speed.  The raw wall times are kept too.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array

import numpy as np

INTERVAL = 0.05
# Cost of one burst at the reference speed (this host's fast spells).
NOMINAL_BURST_S = 0.0002
# Bursts either side of a short region that set its speed.
NEIGHBOURS = 3

_VEC = np.arange(8.0)


def burst() -> None:
    d: dict[int, int] = {}
    for i in range(400):
        d[i & 63] = d.get(i & 63, 0) + i
    x = acc = 0.5
    for _ in range(200):
        acc += x * 1.0001 - acc * 0.5
        x = 1.0 / (1.0 + math.exp(-acc))
    for _ in range(20):
        np.where(_VEC > 3.0, _VEC, 0.0).sum()


class SpeedClock:
    def __init__(self):
        self.at = array("d")  # burst start times
        self.cost = array("d")  # burst durations
        self.spent = 0.0  # total time in bursts
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        burst()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.cost.append(dt)
        self.spent += dt

    def start(self) -> None:
        burst()  # warm the code path before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> tuple[float, float]:
        """A mark: (wall time, time spent in bursts so far)."""
        return time.perf_counter(), self.spent

    def speed(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per wall second over [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        lo, hi = max(0, lo - NEIGHBOURS), min(len(self.at), hi + NEIGHBOURS)
        if hi <= lo:
            return 1.0
        return NOMINAL_BURST_S / statistics.median(self.cost[lo:hi])

    def elapsed(self, mark: tuple[float, float]) -> tuple[float, float]:
        """(raw seconds, reference-speed seconds) since ``mark``, bursts
        taken out of both."""
        t0, s0 = mark
        t1 = time.perf_counter()
        raw = (t1 - t0) - (self.spent - s0)
        return raw, raw * self.speed(t0, t1)
