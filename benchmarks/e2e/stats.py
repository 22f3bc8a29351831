"""How a list of timing samples is reported."""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional, Sequence

__all__ = ["summarize", "spread"]


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, sample count and ``p_hi``: the highest
    percentile that still has at least ten samples beyond it, with its
    1-based rank in the sorted samples (None below eleven samples).
    Only the median is ever compared between runs."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return {"n": 0, "median": None, "q1": None, "q3": None, "p_hi": None}
    q1, _, q3 = statistics.quantiles(xs, n=4) if n > 1 else (xs[0],) * 3
    p_hi = None
    if n > 10:
        rank = n - 10
        p_hi = {"percentile": 100.0 * rank / n, "rank": rank, "value": xs[rank - 1]}
    return {
        "n": n, "median": statistics.median(xs), "q1": q1, "q3": q3, "p_hi": p_hi,
    }


def spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the
    median — the noise band a bound is judged against.  None when there
    are fewer than two values or the median is zero."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else None
