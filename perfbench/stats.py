"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile; a lone sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """The highest ladder percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted samples
    is the sample at rank ceil(p * n / 100), and the samples ranked after it
    lie beyond it. Returns (p, value), or None when even the median has fewer
    than ``beyond`` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p * n / 100 - 1e-9))  # 99.9 * n is inexact
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None
