"""Order statistics shared by the benchmark runner and the compare tool."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``.  The percentile is never taken
    below the median: up to ``2 * TAIL_BEYOND + 1`` samples, where no
    higher percentile keeps ten samples beyond it, the tail is the
    median (for 21 samples the rule itself lands on the median).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 2 * TAIL_BEYOND + 1:
        return median(ordered), 50.0
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count
