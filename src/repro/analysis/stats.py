"""Summary statistics and jitter for measurement results."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import ConfigError


@dataclass
class SummaryStats:
    """Five-number-style summary of a sample set (times in ps)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    p999: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> Optional["SummaryStats"]:
        """Summarise ``samples``; ``None`` for an empty set.

        A single sample yields a degenerate summary (std 0, every
        percentile equal to the sample) rather than an error, so
        callers can summarise whatever a run produced.
        """
        if not samples:
            return None
        ordered = sorted(samples)
        count = len(ordered)
        mean = sum(ordered) / count
        variance = sum((x - mean) ** 2 for x in ordered) / count
        return cls(
            count=count,
            mean=mean,
            std=math.sqrt(variance),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 50, presorted=True),
            p90=percentile(ordered, 90, presorted=True),
            p99=percentile(ordered, 99, presorted=True),
            p999=percentile(ordered, 99.9, presorted=True),
        )


def percentile(
    samples: Sequence[float], pct: float, presorted: bool = False
) -> Optional[float]:
    """Linear-interpolation percentile (inclusive method).

    ``None`` for an empty sample set; a single sample is its own value
    at every percentile. An out-of-range ``pct`` is still a caller bug
    and raises.
    """
    if not 0 <= pct <= 100:
        raise ConfigError(f"percentile must be in [0, 100], got {pct}")
    if not samples:
        return None
    ordered = samples if presorted else sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    weight = rank - low
    # a + w*(b-a) rather than a*(1-w) + b*w: exact when a == b and never
    # leaves the [a, b] interval through rounding.
    return ordered[low] + weight * (ordered[high] - ordered[low])


def rfc3550_jitter(transit_times: Sequence[float]) -> float:
    """Smoothed interarrival jitter, as RTP receivers compute it.

    ``J += (|D(i-1, i)| - J) / 16`` where D is the change in one-way
    transit time between consecutive packets.
    """
    jitter = 0.0
    for previous, current in zip(transit_times, transit_times[1:]):
        jitter += (abs(current - previous) - jitter) / 16
    return jitter


def gap_jitter_std(timestamps: Sequence[int]) -> float:
    """Standard deviation of inter-arrival gaps (pacing jitter)."""
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
    if len(gaps) < 2:
        return 0.0
    mean = sum(gaps) / len(gaps)
    return math.sqrt(sum((g - mean) ** 2 for g in gaps) / len(gaps))
