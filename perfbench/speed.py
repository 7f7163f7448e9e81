"""The host's speed, sampled inside the measured process while jobs run.

The benchmark's host is a shared VM whose processor speed drifts: a
fixed pure-Python loop runs between about 0.8 and 1.3 times its median
time, in stretches of a few seconds to minutes, and the two vCPUs drift
independently of each other.  A job's wall time moves with it, so
timings from runs minutes apart differ by more than any change worth
measuring.

``Sampler`` times a small fixed loop (``kernel``, which uses nothing of
algstat) from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds, in the
same thread as the jobs, so each sample sees the speed the job sees at
that moment.  A job's *reference time* is its wall time, less the time
the handler took, scaled by ``REFERENCE_S`` over the median kernel time
of the samples taken during the job: the time the job would take on
this host at the speed at which the kernel runs in ``REFERENCE_S``.  A
change to algstat moves reference time as it moves wall time; a drift
of the host moves wall time and the kernel alike and cancels.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.025
KERNEL_LOOPS = 5000
# Median kernel time on the 2-vCPU Intel Xeon VM of README.md.
REFERENCE_S = 0.00045
# A job with fewer samples than this is scaled by the last MIN_SAMPLES.
MIN_SAMPLES = 8


def kernel() -> int:
    s = 0
    for i in range(KERNEL_LOOPS):
        s += i * i % 7
    return s


class Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def sample(self, count: int = MIN_SAMPLES):
        """Take ``count`` samples at once."""
        for _ in range(count):
            self._tick()

    @contextmanager
    def running(self):
        """Sample while the block runs; the first MIN_SAMPLES are taken at once."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def reference_time(self, wall: float, start: tuple[int, float], end: tuple[int, float]) -> float:
        """Reference time of a job that took ``wall`` seconds between two marks."""
        lo, hi = start[0], end[0]
        if hi - lo < MIN_SAMPLES:
            lo = max(0, hi - MIN_SAMPLES)
        return (wall - (end[1] - start[1])) * self.scale(lo, hi)

    def scale(self, lo: int, hi: int) -> float:
        """Reference time per second of wall time, by the samples ``lo`` to ``hi``."""
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
