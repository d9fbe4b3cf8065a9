"""Percentiles that carry their sample counts.

The benchmark reports a timing as a median plus one tail percentile, and
every percentile travels with the number of samples behind it and the
number of samples beyond it, so a reader can tell a p99.9 resting on
hundreds of tail samples from one resting on three.
"""

import math
from bisect import bisect_right
from fractions import Fraction


def percentile(ordered, q):
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of an
    ascending sequence: the smallest sample with at least ``q`` percent
    of the samples at or below it."""
    if len(ordered) == 0:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # Exact arithmetic: in floats 99.9 / 100 * 1000 rounds up past 999.
    rank = max(1, math.ceil(Fraction(str(q)) * len(ordered) / 100))
    return ordered[rank - 1]


def beyond(ordered, value):
    """How many samples of an ascending sequence exceed ``value``."""
    return len(ordered) - bisect_right(ordered, value)


def tail_summary(ordered, q):
    """``{"value", "samples", "beyond"}`` for percentile ``q``."""
    value = percentile(ordered, q)
    return {"value": value, "samples": len(ordered),
            "beyond": beyond(ordered, value)}
