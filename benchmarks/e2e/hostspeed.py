"""Host-speed reference: time stated at the speed of a quiet host.

The reference host is a 2-vCPU virtual machine whose speed moves with
its neighbours: the same ``Deco.schedule`` call took 0.18 s or 0.38 s
depending on the half minute it fell in, CPU time inflated alike and
steal time near zero, so neither CPU time nor a longer run averages it
out (measured over seven minutes: medians of 8-second windows spread by
27% of their median, quartile to quartile).  A benchmark whose noise is
three times the change it should detect is of no use, so every timing is
divided by how much slower than its best the host ran at that moment.

``tick()`` times a fixed pure-Python kernel -- nothing of the program
under test, so a faster program does not move it.  Ticks are taken only
while nothing else of the workload runs (between ops; in ``service-mix``
while the client has no job outstanding).  The stretch between two ticks
is a *segment*; its slow-down is the mean of its two ticks over
``REF_S``, the kernel's time on the quiet host, and every wall-clock
length inside the segment is divided by it.  In the seven-minute
measurement this brought the window medians to within 7% (Montage-8) and
10% (Montage-1) of each other; a quiet host reads a slow-down of 1 and
loses nothing.

On another host ``REF_S`` is only a unit: all times scale by one
constant, and comparisons between two commits on that host hold.
"""

from __future__ import annotations

import statistics
import time

#: Time of ``_kernel`` on the quiet reference host: 1st percentile of 5500 runs (seconds).
REF_S = 0.0035

_clock = time.perf_counter


def _kernel() -> list[int]:
    counts: dict[int, int] = {}
    for i in range(40000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return sorted(counts.values())


class HostSpeed:
    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def tick(self) -> None:
        start = _clock()
        runs = []
        for _ in range(5):
            t0 = _clock()
            _kernel()
            runs.append(_clock() - t0)
        self.ticks.append((start, _clock(), statistics.median(runs)))

    def segments(self, first: int = 0) -> list[tuple[float, float, float]]:
        """``(from, to, slow-down)`` between consecutive ticks, from tick ``first`` on."""
        ticks = self.ticks[first:]
        return [
            (a[1], b[0], (a[2] + b[2]) / 2.0 / REF_S)
            for a, b in zip(ticks, ticks[1:])
        ]

    def slowdown_at(self, t: float) -> float:
        """Slow-down of the segment that holds ``t`` (the nearest one outside all)."""
        segments = self.segments()
        for start, end, factor in segments:
            if t <= end:
                return factor
        return segments[-1][2]
