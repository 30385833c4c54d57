"""Machine-speed calibration of the benchmark's timings.

A shared machine can change speed from one second to the next: the same
solve has taken anywhere from 0.97 s to 1.48 s within a minute on the
2-core virtual machine the reference figures come from.  So the benchmark
times a fixed pure-Python loop between operations, at least every EVERY_S
seconds (the fastest of three runs each time), and scales each operation's
duration by NOMINAL_S over the mean of the loop times just before and just
after it.  Durations then read as seconds on a machine where the loop
takes NOMINAL_S, and most of a change of speed during or between runs
cancels out.  The loop is the benchmark's own
code, so a change to the package moves the scaled times as it moves the
raw ones.  Raw durations are kept in each run's detail file.  Start-up
times are scaled by a reference start-up instead (STARTUP_* below).
"""

from __future__ import annotations

import math
from time import perf_counter

NOMINAL_S = 0.0035
EVERY_S = 0.1
_ITERATIONS = 6000


def _loop() -> float:
    """Interpreter work of the kinds the package does: tuples, dict
    lookups, big-integer bit operations and float maths."""
    seen: dict[tuple[int, int], int] = {}
    mask = 0
    x = 0.0
    for i in range(_ITERATIONS):
        key = (i & 1023, i >> 4)
        seen[key] = seen.get(key, 0) + 1
        mask ^= (1 << (i & 255)) | i
        x += math.log1p(i)
    return x + len(seen) + mask.bit_count()


class Calibration:
    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = -math.inf

    def tick(self, force: bool = False) -> int:
        """Time the loop if EVERY_S has passed since it last ran (or if
        forced); return the index of the latest loop time."""
        if force or perf_counter() - self._last >= EVERY_S:
            runs = []
            for _ in range(3):
                t0 = perf_counter()
                _loop()
                self._last = perf_counter()
                runs.append(self._last - t0)
            # The fastest of three: a stall during one loop run is noise
            # in the calibration, not a slower machine.
            self.times.append(min(runs))
        return len(self.times) - 1

    def factor(self, index: int) -> float:
        """Scale for work done between loop runs `index` and `index + 1`."""
        return NOMINAL_S / ((self.times[index] + self.times[index + 1]) / 2)


# Start-up is file reads, compiling or unmarshalling, and module set-up
# more than interpreting, and the loop above does not follow it.  A CLI start-up is scaled instead by a
# reference start-up run just before it in a fresh interpreter, which
# imports standard modules only.
STARTUP_NOMINAL_S = 0.1
STARTUP_REFERENCE = (
    "import argparse, csv, dataclasses, decimal, fractions, json, random, statistics, typing"
)
