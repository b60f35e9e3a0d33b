"""Machine-speed calibration for a shared, noisy host.

The host's speed drifts by up to 2x within minutes, so raw wall times
spread too widely from run to run. The benchmark therefore times this fixed
kernel before and between its operations. The kernel belongs to the
benchmark, so no change to swphase can move it. Every time a run reports is
multiplied by ``REFERENCE_S`` over the median kernel time of that run. That
gives the time at the speed where the kernel takes ``REFERENCE_S``.

The kernel mixes the two kinds of work the measured code does, in about
three to one: a per-sample Python loop (method calls, float arithmetic,
``math`` calls, ring-buffer indexing, occasional appends), then a numpy
pass over an array too large for the caches (FFT, power, cumulative sum).
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.04       # kernel time on the 2-vCPU Xeon host when it is fast
_TAU = 2.0 * math.pi
_XS = [math.sin(k * 0.01) for k in range(90_000)]
_ARRAY = np.sin(np.arange(1 << 19) * 0.001)


class _Stage:
    def __init__(self):
        self.z = 0.0

    def step(self, x: float) -> float:
        y = 0.9 * x + self.z
        self.z = 0.1 * x - 0.5 * y
        return y


def kernel() -> int:
    step = _Stage().step
    buf = [0.0] * 125
    total = 0.0
    theta = 0.0
    hits = []
    for k, x0 in enumerate(_XS):
        x = step(x0)
        i_new = x * math.sin(theta)
        j = k % 125
        total += i_new - buf[j]
        buf[j] = i_new
        theta = math.fmod(theta + 0.0251 + total * 1e-4, _TAU)
        if theta < 0.05:
            hits.append((k, x))
    power = np.abs(np.fft.rfft(_ARRAY)) ** 2
    return len(hits) + int(np.cumsum(power)[-1] > 0.0)


class Speed:
    """Kernel times taken between the timed steps of one run."""

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Multiplier from this run's wall seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
