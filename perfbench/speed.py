"""Machine speed, from a fixed reference kernel timed between ops.

On a shared host the same op can take a third longer from one minute to the
next as other tenants load the CPU, and a run can sit in a slow or a fast
phase throughout.  Timing a fixed kernel next to the ops and dividing by it
gives times in reference seconds: how long the op would have taken had the
kernel run in its reference time, its typical time on the 2-vCPU Xeon box
this benchmark was tuned on.  Each workload uses the kernel that resembles
its own inner loop, since interpreter-bound and array-bound code slow down
differently.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

_X = np.linspace(0.1, 1.0, 32)


def scalar_kernel():
    """Small-array numpy calls and scalar Python, like the quadrature loops."""
    acc = 0.0
    for k in range(30):
        acc += float(np.dot(np.exp(-_X * k), _X))
    for k in range(300):
        acc += math.sin(k * 0.1) * k
    return acc


def array_kernel():
    """Philox normals and passes over a float32 path block, like montecarlo."""
    inc = np.random.Generator(np.random.Philox(key=[0, 0])).standard_normal(
        (16, 4096), dtype=np.float32)
    b = np.cumsum(inc, axis=1)
    np.square(b, out=b)
    return float(np.exp(-b, out=b).sum())


REFERENCE_S = {scalar_kernel: 1.3e-4, array_kernel: 1.6e-3}
EVERY_S = 0.05  # least gap between two timings of the kernel
RECENT = 9      # timings the factor takes its median over


class Speed:
    """Reference seconds per wall second.

    The kernel is timed (best of 3) at most every EVERY_S seconds; the
    factor uses the median of the last RECENT timings, so one disturbed
    timing does not rescale the ops around it.  On closed-form and
    chaos-growth that is the last half second or so; mc-grid ops take about
    a second each, so there it is the last nine ops.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.factor = 1.0
        self.kernel_s = []
        self._last = -math.inf

    def factor_now(self):
        now = perf_counter()
        if now - self._last >= EVERY_S:
            best = math.inf
            for _ in range(3):
                t0 = perf_counter()
                self.kernel()
                best = min(best, perf_counter() - t0)
            self._last = now
            self.kernel_s.append(best)
            self.factor = REFERENCE_S[self.kernel] / statistics.median(
                self.kernel_s[-RECENT:])
        return self.factor
