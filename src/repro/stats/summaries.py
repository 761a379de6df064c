"""Small statistics helpers used across the analyses.

Deliberately dependency-light (plain Python over numpy where the input
sizes are small) so analysis results are exactly reproducible across
platforms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Median; raises on empty input."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); zero for single values."""
    if not values:
        raise ValueError("stdev of empty sequence")
    if len(values) == 1:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile, ``pct`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # Clamp: a*(1-w) + b*w can exceed [a, b] by an ulp in floating
    # point (e.g. a == b == 23.0), which would break the bounds
    # invariant callers rely on.
    return min(max(value, ordered[low]), ordered[high])


@dataclass(frozen=True)
class ConfidenceInterval:
    """A bootstrap confidence interval around a statistic."""

    estimate: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


#: Coverage and resample count of every bootstrap interval.
BOOTSTRAP_CONFIDENCE = 0.95
BOOTSTRAP_RESAMPLES = 2000


def bootstrap_ci(values: Sequence[float], seed: int) -> ConfidenceInterval:
    """Percentile-bootstrap CI for the mean of ``values``."""
    if not values:
        raise ValueError("bootstrap over empty sequence")
    rng = random.Random(seed)
    n = len(values)
    estimates = sorted(
        mean([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(BOOTSTRAP_RESAMPLES)
    )
    alpha = (1 - BOOTSTRAP_CONFIDENCE) / 2
    return ConfidenceInterval(
        estimate=mean(values),
        low=percentile(estimates, 100 * alpha),
        high=percentile(estimates, 100 * (1 - alpha)),
        confidence=BOOTSTRAP_CONFIDENCE,
    )
