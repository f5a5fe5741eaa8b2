"""Machine-speed calibration with a fixed stdlib loop (no cbp code).

On a shared virtual machine the speed of one core swings by up to 2x
within seconds (a busy neighbour on the same physical core), and the
swings last long enough that a 30-second run does not average them out.
The benchmark therefore times a fixed int and Fraction loop from a timer
signal while the workload runs, every INTERVAL_S seconds in the workload's
own thread, and divides each item's time, minus the loop's own time, by
the slowdown the loop saw: its duration over REFERENCE_S.  Times reported
this way are seconds at the reference speed: a run on an idle core of the
machine the bounds were set on reads about the same as raw wall time.

On a 2-core Xeon VM, sweep passes over the same inputs took 1.58 times
longer in a slow period than in a fast one, while the loop took 1.62
times longer; per item, loop and cbp times correlate at 0.78 to 0.86.
Sampling every 0.1 s costs 4-8% of a run's wall time, which is excluded
from every reported time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

LOOP_ITERATIONS = 1500
REFERENCE_S = 0.0039  # one loop on an idle core of a 2-core Xeon VM, Python 3.11
INTERVAL_S = 0.1  # 0.25 s left sweep's median latency spread at 15% over six seeds


def loop(iterations: int = LOOP_ITERATIONS) -> int:
    acc, h = Fraction(0), 0
    for i in range(1, iterations):
        acc += Fraction(i % 97, i % 89 + 1)
        h = (h * 31 + i * i) % 1000003
    return h


def timed_loop(iterations: int = LOOP_ITERATIONS) -> float:
    start = time.perf_counter()
    loop(iterations)
    return time.perf_counter() - start


class Calibrator:
    """Samples the loop from SIGALRM while active; use as a context manager."""

    def __init__(self, interval: float = INTERVAL_S, on_sample=None):
        self.interval = interval
        self.on_sample = on_sample  # called with each sample's duration
        self.times: list[float] = []  # perf_counter at the end of each sample
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent in samples so far

    def sample(self, *_):
        start = time.perf_counter()
        loop()
        end = time.perf_counter()
        self.times.append(end)
        self.durations.append(end - start)
        self.spent += end - start
        if self.on_sample is not None:
            self.on_sample(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Slowdown over [start, end]: from the samples taken inside it and
        the two that bracket it; over the whole run when no interval is given."""
        if start is None:
            return slowdown(statistics.fmean(self.durations))
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return slowdown(statistics.fmean(self.durations[lo:hi]))


def slowdown(loop_seconds: float) -> float:
    return loop_seconds / REFERENCE_S
