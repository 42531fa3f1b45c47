"""Host speed, measured with a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed swings by
up to about 2x for seconds to minutes at a time, under the process and
without preemption (CPU time equals wall time).  A run samples the host
now and then by timing a fixed kernel that does not touch hardylab: small
numpy expressions on a 225-point array, as in one Gauss-Kronrod panel,
between plain Python arithmetic, as in the expression layer.  A sample is
the kernel's best time of three over REFERENCE_S, so 1.0 is the speed of
the recording machine at its typical state and 1.3 a host 30% slower.
Dividing a task's wall time by the factor around it gives the time the
task would take at factor 1.0.  A change to hardylab does not change the
kernel, so it moves the adjusted times as much as the wall times.

On the recording machine the factor and the wall time of a fixed pool of
cube tasks, both averaged over 5-s windows for two minutes, correlated at
0.99: the wall time swung between 0.68 and 1.17 of its median, the
adjusted time varied by 2% (coefficient of variation); for fuzz tasks by
4% against 12%.  The kernel does not follow every state of the host: for
a few minutes of the recorded batches the fuzz tasks ran a quarter slower
while the kernel's time rose by only a few percent (baseline.json, fuzz b2
seeds 1-5).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.80e-3   # the kernel's best-of-three time at factor 1.0
_X = np.linspace(0.01, 1.0, 225)


def kernel() -> float:
    s = 0.0
    for k in range(40):
        y = np.exp(-_X * (0.01 * k)) * _X ** 1.5
        s += float(y.sum())
        for j in range(60):
            s += j * 0.5 / (j + 1.0)
    return s


def factor(repeats: int = 3) -> float:
    """The host's slowness now: the kernel's best time of ``repeats`` over
    REFERENCE_S."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S
