"""Machine-speed calibration for the benchmark's times.

The benchmark was defined on a shared 2-core virtual machine (Intel Xeon at
2.1 GHz). Other tenants' load moves it between fast and slow phases that last
from seconds to minutes, and in a slow phase the same unit of work takes up to
1.8 times as long. Raw wall times from runs made
minutes apart therefore differ by more than any useful regression bound.

So the benchmark times a fixed kernel of its own just before every unit and
divides the unit's wall time by the kernel's slowdown against a reference
time. The kernel is numpy calls on 32 x 48 matrices, the shape of rtune's
forecaster. It uses no rtune code, so no change to rtune changes it. Over ten
30 s runs per workload that spanned a fast/slow phase switch, normalized
times spread by 4-6% (interquartile range over median) where raw times spread
by 8-31%. A pure-Python parsing kernel tracked worse, even on ``sweep_csv``,
whose time goes mostly to CSV parsing.
"""

import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on (Intel Xeon
# at 2.1 GHz, 2 vCPUs, numpy 2.4 on OpenBLAS with one thread). It sets the
# scale only: there, a normalized time is about the raw wall time of a typical
# phase.
REFERENCE_S = 0.0040


class Calibrator:
    """Measures how much slower than the reference the machine runs now."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._weights = rng.standard_normal((32, 48))
        self._inputs = rng.standard_normal((32, 48))
        self._bias = rng.standard_normal(32)

    def slowdown(self):
        """Kernel time now over the reference time (1.0 at reference speed)."""
        start = time.perf_counter()
        for _ in range(300):
            np.tanh(self._inputs @ self._weights.T + self._bias).sum()
        return (time.perf_counter() - start) / REFERENCE_S
