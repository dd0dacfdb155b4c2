"""Wall time scaled to a reference machine speed.

On a shared host the speed of one core drifts by tens of percent over
seconds, which swamps the differences the benchmark must resolve.  The
clock therefore measures the speed of the core all through each timed
call: a fixed kernel runs before and after the call and, from a SIGALRM
timer, every ``SAMPLE_PERIOD_S`` during it.  The call's time without the
samples is scaled by ``REFERENCE_KERNEL_S`` / (mean kernel time), and
reads as seconds on a core that runs the kernel in ``REFERENCE_KERNEL_S``.
The kernel mixes scalar Python calls, small numpy ops and a strided numpy
reduction, like the workloads, and calls no library code, so no library
change can move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# kernel time on an idle vCPU of the 2-vCPU shared VM (2.1 GHz) the bounds were set on
REFERENCE_KERNEL_S = 0.0013
SAMPLE_PERIOD_S = 0.05
BRACKET_RUNS = 5
_TRACE = np.sin(np.arange(10_000) * 0.01)


def _hill(u: float, k: float) -> float:
    r = (u / k) ** 4.0
    return r / (1.0 + r)


def kernel() -> float:
    x = np.zeros(8)
    ks = tuple(0.3 + 0.05 * i for i in range(8))
    for _ in range(12):
        for _ in range(4):
            dx = np.empty_like(x)
            for i in range(8):
                levels = (float(x[i - 1]) + 0.5, 0.75)
                dx[i] = 1.2 * (_hill(levels[0], ks[i]) * _hill(levels[1], ks[i]) - x[i])
            x = x + 0.005 * dx
    y = np.linspace(0.0, 1.0, 1601)
    for _ in range(20):
        y = np.minimum(y + 0.01, 1.0) * 0.99
    return float(x.sum() + y.sum() + sliding_window_view(_TRACE, 101).min(axis=1).sum())


class SpeedClock:
    def __init__(self):
        self.kernel_times: list[float] = []
        self.last = self._bracket()

    def _kernel(self) -> float:
        t0 = perf_counter()
        kernel()
        self.kernel_times.append(perf_counter() - t0)
        return self.kernel_times[-1]

    def _bracket(self) -> list[float]:
        return [self._kernel() for _ in range(BRACKET_RUNS)]

    def scale_last(self, wall: float) -> float:
        """``wall`` seconds, scaled by the most recent bracket."""
        return wall * REFERENCE_KERNEL_S / statistics.fmean(self.last)

    def time(self, fn):
        """(fn(), seconds, reference seconds) for one call of ``fn``.

        The seconds exclude the kernel runs made during the call.
        """
        during: list[float] = []

        def on_alarm(signum, frame):
            during.append(self._kernel())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            before, self.last = self.last, self._bracket()
        busy = wall - sum(during)
        speed = statistics.fmean(before + during + self.last)
        return result, busy, busy * REFERENCE_KERNEL_S / speed

    def speed(self) -> float:
        """Reference kernel time / median measured kernel time."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_times)
