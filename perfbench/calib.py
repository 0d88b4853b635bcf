"""Calibration kernel: a fixed numpy and Python computation, independent of
hsdecomp, timed next to the items to measure the machine's current speed.

On a shared machine the speed of the same code swings by up to 2x, in
episodes from seconds to minutes long (other tenants of the host). A time
divided by the kernel's time measured next to it stays steady where the raw
time does not. The benchmark reports times scaled to the speed at which the
kernel takes ``NOMINAL_MS``: ``scaled = raw * NOMINAL_MS / kernel_ms``.

The kernel mixes what the library's items do: small Hermitian eigensolves,
a 64 x 64 SVD, array temporaries and plain Python loops.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The kernel's time on the 2-core machine the benchmark was written on, at
# its usual fast speed; it only fixes the scale, comparisons do not depend on it.
NOMINAL_MS = 1.5
# Runs within this many seconds of an item judge the speed during the item.
MARGIN_S = 0.5
# A calibration runs after an item once this many seconds have passed since
# the last one, with one kernel run per elapsed period (about 3% of the time).
PERIOD_S = 0.1


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._h8, self._m64 = x + x.conj().T, y
        self._starts: list[float] = []
        self._ms: list[float] = []
        self._last = time.perf_counter()
        self.kernel()  # first calls set up LAPACK; not recorded

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(12):
            _, v = np.linalg.eigh(self._h8 + 0.0)
            acc += float(np.abs(np.kron(v, v.conj())[0]).sum())
        acc += float(np.linalg.svd(self._m64, compute_uv=False)[0])
        table: dict = {}
        for i in range(1500):
            table[i % 97] = table.get(i % 97, 0) + i
        return acc + len(table)

    def measure(self, runs: int) -> None:
        for _ in range(runs):
            a = time.perf_counter()
            self.kernel()
            self._starts.append(a)
            self._ms.append(1000.0 * (time.perf_counter() - a))
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Calibrate when a period has passed since the last calibration."""
        due = time.perf_counter() - self._last
        if due >= PERIOD_S:
            self.measure(int(due / PERIOD_S))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_MS over the median kernel time of the runs near [start, end]."""
        lo = bisect.bisect_left(self._starts, start - MARGIN_S)
        hi = bisect.bisect_right(self._starts, end + MARGIN_S)
        if lo == hi:  # no run near: take the closest ones
            lo, hi = max(0, lo - 1), min(len(self._ms), hi + 1)
        return NOMINAL_MS / statistics.median(self._ms[lo:hi])
