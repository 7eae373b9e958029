"""Summary statistics of the benchmark's samples."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Tail percentiles the benchmark may report, highest first.
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_level(n_samples: int) -> float:
    """Highest percentile in ``TAIL_LEVELS`` with at least 10 samples beyond it.

    Falls back to the median when even that is not supported, so a tail
    figure is never read off fewer than ten samples without saying so (the
    report prints the level and the sample count next to the value).
    """
    for level in TAIL_LEVELS:
        if n_samples * (100.0 - level) / 100.0 >= 10.0:
            return level
    return 50.0


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest value with ``level``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(math.ceil(level / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]

