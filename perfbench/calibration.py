"""Host-speed calibration.

The benchmark shares a few cores of a host with other work, and the speed at
which it runs pure-Python code drifts by up to ~1.8x over seconds to minutes.
A fixed interpreter loop, timed right before and right after each operation,
measures that speed.  Each operation's time is scaled to the reference speed
at which the loop takes REFERENCE_S, so that the figures follow twistlab and
not the host's load.  The loop calls nothing in twistlab.  It builds small
tuples, lists, strings and a dict, as twistlab does; of the loops tried, this
one followed the speed of twistlab's operations most closely.
"""
from __future__ import annotations

import gc
import time

# Any fixed value would do: it only sets the units.  The loop takes about
# this long on a 2-vCPU Xeon sandbox when the host is quiet.
REFERENCE_S = 0.0005
REPEATS = 3


def _loop() -> None:
    table = {}
    for i in range(1500):
        table[i, i % 7] = [i, str(i)]


def sample() -> float:
    """Seconds of the calibration loop: the least of a few repeats, so that
    a single interrupt does not count.  The collector is off meanwhile, so
    the loop neither triggers a collection nor shifts when the next one runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from time measured between two samples to reference time."""
    return REFERENCE_S / ((before + after) / 2)
