"""How fast the shared host runs right now, read off a fixed piece of work.

The host's speed moves by a fifth or more from one second to the next (other
tenants share it), which moves every time an episode measures.  The probe is
a fixed loop of Python and numpy work that no change to the program can
touch.  Divided by ``REFERENCE_S``, its time is the host's current slowdown,
and a time divided by the slowdown reads as it would at the reference speed.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Seconds ``probe`` takes on the reference machine.
REFERENCE_S = 0.0023


def probe() -> float:
    """Seconds the fixed probe work takes now, with the garbage collector paused.

    Pausing the collector keeps the size of the program's heap out of the
    reading when the probe runs inside an episode.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        values = np.arange(64, dtype=float)
        table: dict[int, float] = {}
        total = 0.0
        for i in range(1_000):
            scaled = values * 1.0001 + 0.5
            total += float(scaled[i & 63])
            table[i % 251] = total
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def slowdown(repeats: int = 3) -> float:
    """The median of ``repeats`` probes over ``REFERENCE_S``."""
    return statistics.median(probe() for _ in range(repeats)) / REFERENCE_S
