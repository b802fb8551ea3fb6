"""The host's speed, sampled while the benchmark runs.

On a shared host the speed of a core changes by tens of percent within
seconds, as other tenants come and go: on a shared 2-core x86-64 host a
fixed piece of pure-Python work took anywhere from 0.24 s to 0.59 s.
``HostSpeed`` runs a small fixed kernel (exact ``Fraction`` arithmetic, the
same kind of work the library does) from a timer signal every ``PERIOD``
seconds, in the benchmark's own thread; it costs about 4% of the run.
``work`` turns a measured interval into seconds of work at the reference
speed: the interval minus the kernel's own time inside it, divided by the
mean kernel time of the samples within ``WINDOW`` of it, times
``REFERENCE_S``.  On that host this cut the variation of a round's time
from 10-15% to about 3%.  A change to the library cannot change the kernel,
so it moves these figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean, median
from time import perf_counter

PERIOD = 0.1          # seconds between two samples
WINDOW = 0.2          # samples this close to an interval set its speed
REFERENCE_S = 0.004   # kernel time that counts as speed 1


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 700):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 7 - 3)
    return s


class HostSpeed:
    """Context manager that samples the kernel's time during a run."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_):
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def work(self, start: float, end: float) -> float:
        """Seconds of work in [start, end] at the reference speed."""
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        own = sum(self.durations[lo:hi])
        near = self.durations[bisect_left(self.starts, start - WINDOW):
                              bisect_right(self.starts, end + WINDOW)]
        if not near:
            near = [self.durations[min(lo, len(self.starts) - 1)]]
        return (end - start - own) * REFERENCE_S / fmean(near)

    def slowdown(self) -> float:
        """Median kernel time over the reference time, for the record."""
        return median(self.durations) / REFERENCE_S
