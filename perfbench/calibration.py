"""Machine speed, for reporting times in reference seconds.

A shared machine's speed drifts by tens of percent within seconds.  Every
end-to-end time is therefore reported in reference seconds: wall seconds
multiplied by the machine's current speed relative to the reference,
which is :data:`CAL_SPINS` passes of :func:`calibration_pass` per second.
The loop does not touch the program under test, so a change to the
program moves a reference time exactly as it moves the wall time.
"""

from __future__ import annotations

from time import perf_counter

# About the rate of the machine the reference figures were taken on.
CAL_SPINS = 6400
SLICE_S = 0.04


def calibration_pass() -> int:
    """A fixed pure-Python loop."""
    total = 0
    for value in range(2000):
        total += value * value % 7
    return total


def speed(slice_s: float = SLICE_S) -> float:
    """Reference seconds per wall second, measured over one slice."""
    passes = 0
    start = perf_counter()
    while (elapsed := perf_counter() - start) < slice_s or passes < 3:
        calibration_pass()
        passes += 1
    return passes / elapsed / CAL_SPINS
