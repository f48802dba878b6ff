"""Machine-speed calibration.

The benchmark runs on shared virtual machines whose cores switch between a
fast and a slow mode (about 1.6x apart) every few seconds, which moves every
CPU-bound timing by 15 % or more from run to run. The benchmark therefore
pins itself, and so every child it starts, to one CPU, and times a fixed
reference kernel on that CPU all through the run: between sweep members,
and while a child interpreter runs (the parent wakes every 20 ms; the
child's own CPU time does not include the parent's). The kernel is pure
Python Cayley-table lookups and small frozenset building, the program's own
style of work but none of its code. Each operation's CPU time is scaled by
REFERENCE_MS / (mean kernel time over that operation), which reports it as
it would read on a core where the kernel takes REFERENCE_MS. Raw wall times
are printed next to the scaled values.
"""

from __future__ import annotations

import bisect
import time

# a fixed scale: about the kernel's CPU time on an uncontended core of a
# 2-vCPU x86-64 VM under Python 3.11, where the benchmark was defined
REFERENCE_MS = 1.0
REPS = 40
WINDOW_PAD_S = 0.15

_TABLE = tuple(tuple((i * j + 3) % 7 for j in range(7)) for i in range(7))


def reference_kernel() -> int:
    t = _TABLE
    n = 0
    for _ in range(REPS):
        for a in range(7):
            ta = t[a]
            for b in range(7):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(7):
                    if tab[c] == ta[tb[c]]:
                        n += 1
    blocks = {frozenset(x for x in range(7) if t[a][x] == b) for a in range(7) for b in range(7)}
    return n + len(blocks)


class Calibrator:
    """Reference-kernel CPU times with the wall-clock instant each was taken
    (time.perf_counter, which is comparable across processes on Linux)."""

    def __init__(self):
        reference_kernel()  # warm-up (first allocations); not recorded
        self.at: list[float] = []
        self.ms: list[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.process_time()
            reference_kernel()
            self.ms.append((time.process_time() - t0) * 1000.0)
            self.at.append(time.perf_counter())
        self._last = time.perf_counter()

    def tick(self, every_s: float = 0.02) -> None:
        """Sample if `every_s` has passed since the last sample."""
        if time.perf_counter() - self._last >= every_s:
            self.sample()

    def mean_ms(self, start: float | None = None, end: float | None = None) -> float:
        """Mean kernel time over the samples within WINDOW_PAD_S of
        [start, end], or over all samples."""
        vals = self.ms
        if start is not None:
            lo = bisect.bisect_left(self.at, start - WINDOW_PAD_S)
            hi = bisect.bisect_right(self.at, end + WINDOW_PAD_S)
            vals = self.ms[lo:hi] or self.ms
        return sum(vals) / len(vals)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiply a CPU time measured over [start, end] by this."""
        return REFERENCE_MS / self.mean_ms(start, end)
