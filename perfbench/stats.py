"""Percentiles under the benchmark's reporting rules."""

from __future__ import annotations

import math

__all__ = ["percentile", "reported_percentiles", "summarize", "MIN_BEYOND"]

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the number of samples beyond it.

    Failed decompositions enter ``samples`` as ``math.inf``, so they
    sort last and push every percentile they reach to infinity.
    """
    ordered = sorted(samples)
    if not ordered:
        return math.nan, 0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def reported_percentiles(samples) -> dict:
    """``{p: (value, beyond)}`` for p50, p90 and p99 as the samples allow.

    The median is always reported; a higher percentile only when at
    least :data:`MIN_BEYOND` samples lie beyond it.
    """
    out = {}
    for p in (50, 90, 99):
        value, beyond = percentile(samples, p)
        if p == 50 or beyond >= MIN_BEYOND:
            out[p] = (value, beyond)
    return out


def summarize(requests) -> dict:
    """Latency percentiles and throughput over the measured requests.

    Warm-up requests are left out.  A failed or wrong request counts as
    infinite latency; throughput is completed requests per second of
    rank 0's loop time (pacing plus decomposition), which leaves out
    checks and world relaunches.
    """
    measured = [r for r in requests if not r.warm]
    lat = [r.latency for r in measured]
    busy = sum(r.busy for r in measured)
    return {
        "samples": len(lat),
        "failed": sum(1 for r in measured if not r.ok),
        "pct": {p: percentile(lat, p) for p in (50, 90, 99)},
        "reported": reported_percentiles(lat),
        "throughput": sum(1 for r in measured if r.ok) / busy if busy > 0 else 0.0,
    }
