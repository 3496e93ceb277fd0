"""Host-speed calibration, so that times from a drifting host compare.

The host's speed drifts by tens of percent over seconds to minutes, the same
way on both CPUs.  A short pure-Python loop is timed just before and just
after each measured piece of work; the work's wall and CPU times are
multiplied by ``REF_S`` over the mean of the two loop times, which gives the
times the work would take at a fixed host speed.
"""

from __future__ import annotations

import time

ITERS = 150_000  # steps of integer arithmetic in one loop
REPEATS = 5  # loops per calibration; the fastest is kept
# The loop's time on the reference machine (see README.md) when the host is
# quiet, so that scaled times read as seconds on that machine.
REF_S = 0.010


def _loop() -> int:
    total = 0
    for i in range(ITERS):
        total += i * i % 7
    return total


def loop_time() -> float:
    """The fastest of a few timings of the loop: how slow the host runs now."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best

