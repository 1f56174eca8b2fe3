"""Wall time scaled to the speed of a reference machine.

On a shared host the same work runs up to 2x slower for stretches of
seconds to minutes, and no run is long enough to average that away. A
`Clock` therefore times a fixed calibration kernel of the benchmark's own
next to the work: it splits a timed stretch into segments of at least
`GAP_S` at its ticks (an observer of a fairseed function called many times
per round), times the kernel at the end of each segment, and scales the
segment's wall time by REFERENCE_S / (kernel time). The kernel mixes the
kinds of work fairseed does (a small dense matrix product, a Philox fill,
an interpreted loop and small-array numpy indexing), so a slower machine
slows it by about as much as it slows the program; the kernel's own time
is in neither the wall nor the scaled total. The kernel runs on inputs
fixed here, independent of the workload's seed and of fairseed's code, so
a change to the program moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# A round figure near the kernel's time on the reference machine
# (benchmarks/README.md); only a unit: scaled times read as times on a
# machine on which the kernel takes this long.
REFERENCE_S = 7.0e-3
# shortest segment between two kernel runs; the kernel then takes about 7%
# of the time
GAP_S = 0.1

# the large arrays are written in place: a fresh allocation of this size
# is a fresh mapping whose page faults would make the kernel's time depend
# on the allocator's history
_A = np.linspace(-1.0, 1.0, 500 * 67).reshape(500, 67)
_B = np.linspace(1.0, -1.0, 67 * 128).reshape(67, 128)
_C = np.empty((500, 128))
_BITS = np.random.Generator(np.random.Philox(0))
_U = np.empty(100_000)
_IDX = np.arange(3000)


def kernel() -> float:
    """Seconds taken by one run of the calibration kernel."""
    start = perf_counter()
    for _ in range(4):
        np.matmul(_A, _B, out=_C)
    _BITS.random(out=_U)
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(30):
        np.unique(_IDX[_IDX % 3 == 0])
    return perf_counter() - start


def speed() -> float:
    """REFERENCE_S over the median of nine kernel runs (about 70 ms) after
    a warm-up run: how many reference seconds one wall second is worth
    right now."""
    kernel()
    return REFERENCE_S / sorted(kernel() for _ in range(9))[4]


class Clock:
    """Wall and scaled time of the work between `start` and `stop`."""

    def __init__(self, gap: float = GAP_S):
        self.gap = gap
        self.start()

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self.kernels: list[float] = []
        self._last = perf_counter()

    def tick(self, *_) -> None:
        """End a segment here if it has lasted `gap`; takes an observer's
        (args, kwargs, result) and ignores them."""
        if perf_counter() - self._last >= self.gap:
            self._segment()

    def stop(self) -> tuple[float, float]:
        """End the last segment; returns (wall seconds, scaled seconds)."""
        self._segment()
        return self.wall, self.scaled

    def _segment(self) -> None:
        seconds = perf_counter() - self._last
        k = kernel()
        self.wall += seconds
        self.scaled += seconds * REFERENCE_S / k
        self.kernels.append(k)
        self._last = perf_counter()
