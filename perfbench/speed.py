"""Machine speed, read from a fixed pure-Python loop run between measurements.

On a shared machine the speed of a CPU drifts by 1.5x and more within
seconds, and wall times drift with it.  So every timed piece of work is
bracketed by runs of a reference loop on the same CPU, and its time is
multiplied by ``REFERENCE_S / (mean of the two reference times)``: the time
it would have taken at the speed at which the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

# nominal time of the reference loop
REFERENCE_S = 0.017


class Speed:
    def __init__(self):
        self.samples: list[float] = []
        self.last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        total, table = 0, {}
        for i in range(100000):
            total += i * i % 7
            table[i & 1023] = (i, total)
        self.last = time.perf_counter() - t0
        self.samples.append(self.last)
        return self.last

    def scale_since(self, before: float) -> float:
        """Scale for work done since the reference read `before`."""
        return REFERENCE_S / ((before + self.measure()) / 2)

    def around(self, fn):
        """(fn(), scale of the time fn took)."""
        before = self.last
        result = fn()
        return result, self.scale_since(before)
