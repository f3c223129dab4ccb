"""Host-speed calibration: a fixed reference kernel timed between ops.

On a shared host the CPU's speed drifts: a fixed pure-Python loop timed in
30 s windows on the 2-core VM where the benchmark was written varied by
24% (IQR/median) from one window to the next, and it moves a zenoport op's
latency the same way.  The benchmark therefore times this kernel, which
touches no zenoport code, just before every op, and scales each op's
latency to the reference speed:

    scaled = measured * REFERENCE_S / (median kernel time around that op)

The kernel is a chained rotation in numpy longdouble scalars, the shape
of the dwell recursion in ``cqze``.  Of the kernels tried (this one, dict
and tuple churn, complex arithmetic with ``abs``, JSON round trips), it
tracked the drift of ``deep_chain``, ``presence`` and ``sweep_grid`` ops
best: their log latencies rose 0.8 to 1.0 times as fast as its log time,
against 0.5 to 0.7 for the others.  Scaled latencies are seconds on a host
that runs the kernel in ``REFERENCE_S``.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 7.0e-4  # kernel time on the reference VM at its usual speed
REPEATS = 5           # kernel runs per sample; the sample is their median


def kernel() -> float:
    c = np.longdouble(0.999)
    s = np.longdouble(0.01)
    a, b = np.longdouble(0.0), np.longdouble(1.0)
    for i in range(1500):
        a, b = c * a - s * b, s * a + c * b
        if i % 7 == 0:
            a = a * c
    return float(a)


def sample(repeats: int = REPEATS) -> float:
    """Seconds one kernel run takes now (median of ``repeats`` runs)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(measured: list[float], samples: list[float], window: int) -> list[float]:
    """Each measured time at the reference speed.

    samples[i] was taken just before measured[i]; the speed for i is the
    median of the samples within ``window`` places of it.
    """
    return [m * REFERENCE_S / statistics.median(samples[max(0, i - window):i + window + 1])
            for i, m in enumerate(measured)]
