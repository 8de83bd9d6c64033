"""Machine-speed calibration: scale measured times to a reference speed.

On a shared host the same pure-Python computation runs up to twice as slow
at one moment as at another, and slow phases last minutes, longer than a
whole run.  While a pass runs, `SpeedSampler` interrupts it every PERIOD_S
seconds (SIGALRM, handled between bytecodes on the main thread; no thread or
process is started) and times one `reference()`: stdlib code only, so no
change to densym can alter its speed, run once untimed first so that its
caches are warm.  A time measured over an interval is
then reported as

    (measured - sampling time inside it) * REFERENCE_S / (mean reference
    duration sampled in and around the interval),

that is, in seconds at the speed at which the reference takes REFERENCE_S.
Raw wall times are kept in provenance.
"""
from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# about the mean duration of reference() sampled inside passes in the
# fastest phases seen on the two-core virtual machine (Intel Xeon, CPython
# 3.11.7) that recorded the first baseline
REFERENCE_S = 0.0006
PERIOD_S = 0.05
# an interval's speed also uses the samples this close to it, so that a
# short answer, which may contain no sample, still has ten around it
MARGIN_S = 0.25


def reference() -> Fraction:
    acc = {}
    total = Fraction(0)
    for i in range(1, 100):
        f = Fraction(i, i + 7)
        total += f * f
        acc[i % 17] = acc.get(i % 17, Fraction(0)) + f
    return total


def sample(runs: int) -> float:
    """Mean duration of `runs` reference computations, back to back."""
    t0 = perf_counter()
    for _ in range(runs):
        reference()
    return (perf_counter() - t0) / runs


class SpeedSampler:
    """Times reference() every PERIOD_S seconds while the `with` block runs."""

    def __init__(self):
        self.stamps: list[float] = []  # when each sample started
        self.durations: list[float] = []  # its timed reference()
        self.costs: list[float] = []  # the whole handler

    def _on_alarm(self, signum, frame):
        # a collection here would traverse densym's heap, not time the core
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        # one untimed run first, so that what densym's work evicted from the
        # caches does not count as the core being slow
        reference()
        t0 = perf_counter()
        reference()
        end = perf_counter()
        self.stamps.append(start)
        self.durations.append(end - t0)
        self.costs.append(end - start)
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _slice(self, start, end):
        return bisect_left(self.stamps, start), bisect_right(self.stamps, end)

    def scale(self, start: float, end: float) -> float:
        """The interval's duration without sampling, at the reference speed."""
        lo, hi = self._slice(start, end)
        spent = sum(self.costs[lo:hi])
        near_lo, near_hi = self._slice(start - MARGIN_S, end + MARGIN_S)
        near = self.durations[near_lo:near_hi] or self.durations
        return (end - start - spent) * REFERENCE_S / fmean(near)

    def speed(self) -> float:
        """Mean reference duration over everything sampled."""
        return fmean(self.durations)
