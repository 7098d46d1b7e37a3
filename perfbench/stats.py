"""Summary statistics shared by the benchmark phases and ``compare``.

Timings are reported as a median and a *tail*: the value at the highest
percentile that still has at least ``MIN_BEYOND`` samples above it, so
the tail never rests on a handful of outliers.  The percentile and the
sample count travel with the value.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

MIN_BEYOND = 10


def tail(samples: Sequence[float], min_beyond: int = MIN_BEYOND
         ) -> Dict[str, float]:
    """Value at the highest percentile with ``min_beyond`` samples above.

    With ``n`` sorted samples that is the sample at rank ``n - 1 -
    min_beyond`` (0-based); its percentile is the share of samples at or
    below it.  Raises ``ValueError`` when the sample is too small to
    support any tail.
    """
    n = len(samples)
    if n <= min_beyond:
        raise ValueError(
            f"{n} samples cannot support a tail with {min_beyond} beyond")
    ordered = sorted(samples)
    rank = n - 1 - min_beyond
    return {"value": ordered[rank], "percentile": 100.0 * (rank + 1) / n,
            "samples": n, "beyond": min_beyond}


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartiles(samples: Sequence[float]) -> Sequence[float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    return tuple(statistics.quantiles(samples, n=4))


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(samples)
    return (q3 - q1) / abs(mid) if mid else float("inf")
