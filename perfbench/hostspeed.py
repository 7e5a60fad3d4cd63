"""Host speed, measured by a fixed reference kernel timed between units.

The host this benchmark was defined on has slow spells that last
minutes and stretch every timing by 25-85%, far more than any bound
a regression check can use. The reference kernel does the same kind of
work as the sampler's hot path (a Python loop over tiny numpy ops) and
uses nothing from ``paim``, so its median time tracks the host's speed
and no change to ``paim`` can move it. End-to-end times are reported
at the reference speed: raw seconds × ``REFERENCE_S`` / median kernel
seconds.
"""

from __future__ import annotations

import math
from statistics import median
from time import perf_counter

import numpy as np

# Median kernel time on the defining host outside slow spells; it only
# sets the scale, both sides of a comparison use the same constant.
REFERENCE_S = 0.020
KERNEL_STEPS = 3000


def reference_kernel() -> float:
    rng = np.random.default_rng(0)
    mean = np.zeros(2)
    scatter = np.zeros((2, 2))
    total = 0.0
    for i in range(KERNEL_STEPS):
        delta = rng.standard_normal(2) - mean
        mean += delta / (i + 1)
        scatter += np.outer(delta, delta)
        total += math.log1p(float(delta @ delta))
    return total


class HostSpeed:
    """Kernel timings collected over one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, reps: int = 3) -> None:
        for _ in range(reps):
            t0 = perf_counter()
            reference_kernel()
            self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns raw seconds into seconds at the reference speed."""
        return REFERENCE_S / median(self.samples)
