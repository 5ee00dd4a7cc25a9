"""Percentiles, computed one way for every metric."""

import math


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of `values`.

    The smallest value with at least q% of the sample at or below it, so
    the result is always an observed value. Infinite values (requests that
    got no response) sort last and count as missing any limit.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values):
    return percentile(values, 50)

