"""Wall time scaled to a reference machine speed.

On a shared host the same CPU-bound work can run at two speeds about 1.5x
apart, switching every few seconds, and different kinds of work slow down
by different amounts.  :class:`SpeedClock` times each segment of benchmark
work and also times a fixed calibration kernel just before and just after
it.  Each workload's kernel does the kind of work that dominates the
workload (scipy CSR row gathers of its batch size and shape, or a
160 x 160 ``eigh``) on fixed data and calls no vrkit code, so a change to
vrkit moves the segment's time and not the kernel's.  A segment's scaled
time is its wall time times ``ref_s / c``, where ``c`` is the mean of the
two kernel times around it: the time the segment would take when the
kernel takes ``ref_s``.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np
import scipy.sparse as sp

# A kernel run older than this no longer describes the next segment.
GAP_S = 0.01


def gather_kernel(n: int, d: int, density: float, batch: int, steps: int) -> Callable[[], None]:
    """Row gathers and the two products of a mini-batch gradient, on a fixed
    random CSR matrix of the given shape."""
    rng = np.random.default_rng(0)
    rows = sp.random(n, d, density=density, format="csr", random_state=rng)
    w = rng.standard_normal(d)
    batches = rng.integers(0, n, size=(steps, batch))

    def kernel() -> None:
        for b in batches:
            sub = rows[b]
            sub.T @ (sub @ w) + 1e-3 * w

    return kernel


def eigh_kernel() -> Callable[[], None]:
    """A 160 x 160 symmetric eigendecomposition, some small row gathers and
    an interpreted loop."""
    rng = np.random.default_rng(0)
    rows = sp.random(500, 200, density=0.2, format="csr", random_state=rng)
    sym = rng.standard_normal((160, 160))
    sym = sym @ sym.T
    batches = rng.integers(0, 500, size=(15, 8))

    def kernel() -> None:
        for batch in batches:
            rows[batch]
        np.linalg.eigh(sym)
        total = 0
        for i in range(7000):
            total += i

    return kernel


class SpeedClock:
    """Times segments of work and scales each to the reference speed."""

    def __init__(self, kernel: Callable[[], None], ref_s: float):
        self._kernel = kernel
        self.ref_s = ref_s
        self.samples: list[float] = []
        self.kernel()  # the first call pays for lazy set-up
        self._last, self._last_end = self.kernel(), time.perf_counter()

    def kernel(self) -> float:
        """Time the calibration kernel: the median of three runs, so that one
        interrupted run does not skew the scale."""
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - start)
        elapsed = sorted(runs)[1]
        self.samples.append(elapsed)
        return elapsed

    def measure(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run ``fn``; return its result, wall time and scaled time.

        Back-to-back segments share the kernel run between them; after a
        gap the kernel runs again before the segment.
        """
        if time.perf_counter() - self._last_end > GAP_S:
            self._last = self.kernel()
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        after = self.kernel()
        self._last_end = time.perf_counter()
        scale = self.ref_s / (0.5 * (self._last + after))
        self._last = after
        return out, wall, wall * scale
