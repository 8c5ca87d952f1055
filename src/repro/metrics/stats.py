"""Small statistics helpers (no numpy dependency in the core library)."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def ordered_sum(values: Iterable[float]) -> float:
    """``sum(values)``, added strictly left to right.

    From Python 3.12 the builtin ``sum()`` compensates float rounding,
    so a mean would differ in its last digits from the same mean on
    3.11 and earlier, and every result checksum with it. This loop is
    what ``sum()`` did before 3.12, so results match on every version.
    """
    total = 0
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return ordered_sum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Population variance."""
    if not values:
        raise ValueError("variance of empty sequence")
    mu = mean(values)
    return ordered_sum((v - mu) ** 2 for v in values) / len(values)


def stddev(values: Sequence[float]) -> float:
    return math.sqrt(variance(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile, pct in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be within [0, 100], got %r" % pct)
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    value = ordered[low] + (ordered[high] - ordered[low]) * frac
    # Clamp against float rounding so interpolation stays within its
    # bracketing samples (keeps percentile monotone in pct).
    return min(max(value, ordered[low]), ordered[high])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def jitter(values: Sequence[float]) -> float:
    """Mean absolute successive difference — the "variance in delay"
    sense of jitter used in §3."""
    if len(values) < 2:
        return 0.0
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    return ordered_sum(diffs) / len(diffs)


def summarize(values: Sequence[float]) -> dict:
    """Mean / median / p95 / p99 / max summary used in reports."""
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "mean": mean(values),
        "median": median(values),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
        "max": max(values),
        "min": min(values),
    }
