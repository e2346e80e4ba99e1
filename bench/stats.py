"""Percentiles, the ten-samples-beyond rule, and histogram deltas."""

from __future__ import annotations

import math
import re
import statistics
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

#: A percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` (0..1) percentile by nearest rank: the smallest sample
    with at least ``q`` of the samples at or below it (always one of
    the measured values)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q`` percentile."""
    return int(count * (1.0 - q) + 1e-9)


def reportable(count: int, q: float) -> bool:
    """Whether the ``q`` percentile of ``count`` samples has at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# --- Prometheus histograms -----------------------------------------------

_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="(?P<le>[^"]+)"\})?'
    r"\s+(?P<value>\S+)$"
)


def parse_prometheus(text: str) -> Dict[str, float]:
    """Samples of a text exposition, keyed ``name`` or ``name|le``."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match is None:
            continue
        key = match["name"]
        if match["le"] is not None:
            key = f"{key}|{match['le']}"
        samples[key] = float(match["value"])
    return samples


def histogram_delta(before: Dict[str, float], after: Dict[str, float],
                    name: str) -> List[Tuple[float, float]]:
    """Per-bucket ``(upper bound, count)`` of the samples a histogram
    gained between two :func:`parse_prometheus` snapshots."""
    prefix = f"{name}_bucket|"
    bounds = sorted(
        {float(key[len(prefix):]) for key in after if key.startswith(prefix)}
    )

    def cumulative(snapshot: Dict[str, float], bound: float) -> float:
        # Empty buckets are not emitted; their cumulative count is the
        # next lower bound's.
        best = 0.0
        for key, value in snapshot.items():
            if key.startswith(prefix) and float(key[len(prefix):]) <= bound:
                best = max(best, value)
        return best

    out = []
    previous = 0.0
    for bound in bounds:
        gained = cumulative(after, bound) - cumulative(before, bound)
        if gained > previous:
            out.append((bound, gained - previous))
        previous = max(previous, gained)
    return out


def bucket_quantile(buckets: List[Tuple[float, float]], q: float) -> float:
    """The ``q`` quantile of :func:`histogram_delta` buckets, estimated
    by the daemon's own ``repro.obs.metrics.Histogram``.

    Each sample is placed at the geometric centre of its bucket, so the
    estimate stays within half a bucket of the daemon's.
    """
    from repro.obs.metrics import BUCKET_BOUNDS, Histogram

    histogram = Histogram("delta")
    for bound, count in buckets:
        index = min(bisect_left(BUCKET_BOUNDS, bound), len(BUCKET_BOUNDS) - 1)
        lower = BUCKET_BOUNDS[index - 1] if index else BUCKET_BOUNDS[0]
        centre = math.sqrt(lower * BUCKET_BOUNDS[index])
        for _ in range(int(count)):
            histogram.observe(centre)
    return histogram.quantile(q)
