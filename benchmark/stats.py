"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 100).

    Refuses, with ValueError, a percentile that fewer than MIN_TAIL samples
    lie beyond, so p90 needs at least 100 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q / 100 * n)
    if n - rank < MIN_TAIL:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it; "
                         f"need {MIN_TAIL}")
    return ordered[rank - 1]

