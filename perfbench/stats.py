"""Percentiles and summaries for the benchmark's latency samples."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by the exclusive rule of statistics.quantiles.

    The position is q * (n + 1) in 1-based sorted order, interpolated
    linearly and clamped to the sample range.
    """
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    n = len(data)
    pos = q * (n + 1)
    if pos <= 1:
        return data[0]
    if pos >= n:
        return data[-1]
    lo = math.floor(pos)
    frac = pos - lo
    return data[lo - 1] + (data[lo] - data[lo - 1]) * frac


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples rank strictly above the q-quantile position."""
    return max(0, n - math.floor(q * (n + 1)))
