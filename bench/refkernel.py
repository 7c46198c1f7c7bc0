"""Reference kernel for drift normalization.

A fixed piece of stdlib-only work (exact `Fraction` arithmetic and a
sort) whose duration tracks the speed the host currently gives this
process. It imports nothing from `toricmld`, so no change to the
program can move it. Dividing an operation's time by readings of the
kernel taken just before and after it turns wall time into "reference
units", which stay comparable while the host's CPU speed drifts.
"""

from __future__ import annotations

import time
from fractions import Fraction

_COUNT = 600
_INTERVAL = 0.1  # seconds between readings, well under the host's drift time


def kernel() -> Fraction:
    """One fixed unit of work; the result only keeps it from being skipped."""
    x = 12345
    values = []
    for _ in range(_COUNT):
        x = (x * 1103515245 + 12345) % 2147483648
        values.append(Fraction(x % 997 + 1, x % 991 + 1))
    acc = Fraction(0)
    for a, b in zip(values, values[1:]):
        acc += a * b - a / b
    values.sort()
    return acc + values[_COUNT // 2]


def reading() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class RefClock:
    """Kernel readings interleaved with the operations being timed.

    `before_op` takes a reading when at least `_INTERVAL` seconds have
    passed since the last one and returns the index of the latest
    reading; `finish` takes the closing reading. An operation that
    started after reading k is normalized by the mean of readings k and
    k + 1, the two that bracket it.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.times: list[float] = []
        self._last_end = float("-inf")

    def _take(self) -> None:
        start = time.perf_counter()
        self.readings.append(reading())
        self._last_end = time.perf_counter()
        self.times.append(start)

    def before_op(self) -> int:
        if time.perf_counter() - self._last_end >= _INTERVAL:
            self._take()
        return len(self.readings) - 1

    def finish(self) -> None:
        self._take()

    def ref(self, index: int) -> float:
        """Kernel seconds around an operation that started after reading `index`."""
        return (self.readings[index] + self.readings[index + 1]) / 2
