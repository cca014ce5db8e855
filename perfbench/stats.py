"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` sorted
    samples the k-th smallest (1-based) has ``n - k`` samples beyond
    it, so the tail is the ``(n - TAIL_BEYOND)``-th smallest, reported as
    percentile ``100 * k / n``.  The rule never reports below the
    median: with ``2 * TAIL_BEYOND`` samples or fewer no tail percentile
    above the median is supported by the data, and the median
    (percentile 50) is given.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    k = n - TAIL_BEYOND
    if 2 * k <= n:
        return median(ordered), 50.0, n
    return float(ordered[k - 1]), 100.0 * k / n, n
