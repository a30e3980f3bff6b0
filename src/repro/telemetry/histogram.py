"""Hardware-style log-linear histograms.

P4TG's histogram extension keeps RTT distributions *in the data plane*:
a fixed set of buckets, one O(1) increment per packet, and the host
reads aggregated counts instead of shipping every sample up. This
module models that structure in software: a
:class:`LogLinearHistogram` covers the full 64-bit range of positive
integer samples (picosecond latencies, frame sizes) with a bounded
relative error, supports O(1) :meth:`record`, lossless :meth:`merge`,
and percentile summaries read straight from the bucket counts.

Bucket layout (HdrHistogram-style log-linear):

* values below ``2 ** (subbucket_bits + 1)`` get exact width-1 buckets;
* above that, each power-of-two octave is split into
  ``2 ** subbucket_bits`` linear sub-buckets, bounding the relative
  quantization error by ``2 ** -subbucket_bits`` (~3% at the default 5
  bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError

DEFAULT_SUBBUCKET_BITS = 5


@dataclass
class HistogramSummary:
    """Percentile summary of one histogram (``None``-valued when empty)."""

    count: int
    minimum: Optional[int]
    maximum: Optional[int]
    mean: Optional[float]
    p50: Optional[float]
    p90: Optional[float]
    p99: Optional[float]
    p999: Optional[float]

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
        }


class LogLinearHistogram:
    """Fixed-cost histogram over non-negative integers.

    ``record`` is one bit-length, one shift and one dict increment —
    cheap enough to sit in the capture path's per-packet hot loop, as
    the hardware equivalent sits in the data plane.
    """

    __slots__ = (
        "subbucket_bits",
        "unit",
        "_base",
        "_counts",
        "count",
        "total",
        "minimum",
        "maximum",
        "rejected",
    )

    def __init__(self, subbucket_bits: int = DEFAULT_SUBBUCKET_BITS, unit: str = "") -> None:
        if not 0 <= subbucket_bits <= 16:
            raise ConfigError(f"subbucket_bits must be 0..16, got {subbucket_bits}")
        self.subbucket_bits = subbucket_bits
        self.unit = unit
        self._base = 1 << subbucket_bits
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.minimum: Optional[int] = None
        self.maximum: Optional[int] = None
        #: Samples refused (negative): counted, never binned.
        self.rejected = 0

    # -- recording ---------------------------------------------------------

    def _index_of(self, value: int) -> int:
        base = self._base
        if value < base:
            return value
        octave = value.bit_length() - 1
        offset = (value >> (octave - self.subbucket_bits)) & (base - 1)
        return (octave - self.subbucket_bits + 1) * base + offset

    def record(self, value: int) -> None:
        """O(1): bump the bucket containing ``value``."""
        if value < 0:
            self.rejected += 1
            return
        value = int(value)
        index = self._index_of(value)
        counts = self._counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def record_many(self, values: Iterable[int]) -> None:
        for value in values:
            self.record(value)

    def record_repeat(self, value: int, repeat: int) -> None:
        """O(1): record the same value ``repeat`` times.

        Exactly equivalent to calling :meth:`record` ``repeat`` times —
        the batched datapath uses this for constant-size frame runs.
        """
        if repeat <= 0:
            return
        if value < 0:
            self.rejected += repeat
            return
        value = int(value)
        index = self._index_of(value)
        counts = self._counts
        counts[index] = counts.get(index, 0) + repeat
        self.count += repeat
        self.total += value * repeat
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    # -- bucket geometry ---------------------------------------------------

    def bucket_bounds(self, index: int) -> Tuple[int, int]:
        """Half-open ``[low, high)`` value range of bucket ``index``."""
        base = self._base
        if index < 2 * base:
            return index, index + 1
        octave = index // base + self.subbucket_bits - 1
        offset = index % base
        width_shift = octave - self.subbucket_bits
        low = (base + offset) << width_shift
        return low, low + (1 << width_shift)

    def bucket_rows(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(low, high, count)`` rows for populated buckets."""
        return [
            (*self.bucket_bounds(index), count)
            for index, count in sorted(self._counts.items())
        ]

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def percentile(self, pct: float) -> Optional[float]:
        """Value at the given percentile, exact to bucket resolution.

        Returns the midpoint of the bucket holding the rank, clamped to
        the exactly-tracked ``[minimum, maximum]`` envelope; ``None``
        for an empty histogram.
        """
        if not 0 <= pct <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {pct}")
        if self.count == 0:
            return None
        rank = pct / 100 * self.count
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= rank:
                low, high = self.bucket_bounds(index)
                mid = (low + high - 1) / 2
                return float(min(max(mid, self.minimum), self.maximum))
        return float(self.maximum)  # pragma: no cover - rank <= count always

    def summary(self) -> HistogramSummary:
        return HistogramSummary(
            count=self.count,
            minimum=self.minimum,
            maximum=self.maximum,
            mean=self.mean,
            p50=self.percentile(50),
            p90=self.percentile(90),
            p99=self.percentile(99),
            p999=self.percentile(99.9),
        )

    # -- merge / serialize -------------------------------------------------

    def merge(self, other: "LogLinearHistogram") -> "LogLinearHistogram":
        """Fold ``other``'s counts into this histogram (lossless)."""
        if other.subbucket_bits != self.subbucket_bits:
            raise ConfigError(
                "cannot merge histograms with different subbucket_bits "
                f"({self.subbucket_bits} vs {other.subbucket_bits})"
            )
        counts = self._counts
        for index, count in other._counts.items():
            counts[index] = counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.rejected += other.rejected
        if other.minimum is not None:
            self.minimum = (
                other.minimum if self.minimum is None else min(self.minimum, other.minimum)
            )
        if other.maximum is not None:
            self.maximum = (
                other.maximum if self.maximum is None else max(self.maximum, other.maximum)
            )
        return self

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity serialization (JSON-safe; see ``from_dict``)."""
        return {
            "subbucket_bits": self.subbucket_bits,
            "unit": self.unit,
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "rejected": self.rejected,
            "buckets": {str(index): count for index, count in sorted(self._counts.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LogLinearHistogram":
        histogram = cls(
            subbucket_bits=int(payload["subbucket_bits"]),
            unit=str(payload.get("unit", "")),
        )
        histogram._counts = {
            int(index): int(count) for index, count in payload["buckets"].items()
        }
        histogram.count = int(payload["count"])
        histogram.total = int(payload["total"])
        histogram.minimum = None if payload["min"] is None else int(payload["min"])
        histogram.maximum = None if payload["max"] is None else int(payload["max"])
        histogram.rejected = int(payload.get("rejected", 0))
        return histogram

    def clear(self) -> None:
        self._counts.clear()
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogLinearHistogram(count={self.count}, min={self.minimum}, "
            f"max={self.maximum}, buckets={len(self._counts)})"
        )


class HistogramBank:
    """A keyed family of log-linear histograms (per-flow RTT, P4TG-style).

    One bounded dict of histograms, one O(1) increment per sample.  The
    key is whatever the caller hashes a packet down to (a destination
    port, a source IP, a five-tuple string).  Once ``max_keys`` distinct
    keys exist, further new keys fold into a shared ``"(overflow)"``
    histogram — counts are never silently dropped, only coarsened, the
    way a hardware register file would saturate.
    """

    OVERFLOW_KEY = "(overflow)"

    def __init__(
        self,
        subbucket_bits: int = DEFAULT_SUBBUCKET_BITS,
        unit: str = "",
        max_keys: int = 4096,
    ) -> None:
        if max_keys < 1:
            raise ConfigError(f"max_keys must be >= 1, got {max_keys}")
        self.subbucket_bits = subbucket_bits
        self.unit = unit
        self.max_keys = max_keys
        self._histograms: Dict[object, LogLinearHistogram] = {}
        self.overflowed = 0  # samples routed to the overflow histogram

    def _histogram_for(self, key: object) -> LogLinearHistogram:
        histograms = self._histograms
        histogram = histograms.get(key)
        if histogram is None:
            if len(histograms) >= self.max_keys and key != self.OVERFLOW_KEY:
                self.overflowed += 1
                return self._histogram_for(self.OVERFLOW_KEY)
            histogram = LogLinearHistogram(self.subbucket_bits, unit=self.unit)
            histograms[key] = histogram
        return histogram

    def record(self, key: object, value: int) -> None:
        self._histogram_for(key).record(value)

    def get(self, key: object) -> Optional[LogLinearHistogram]:
        return self._histograms.get(key)

    def keys(self) -> List[object]:
        return sorted(self._histograms, key=str)

    def __len__(self) -> int:
        return len(self._histograms)

    def __contains__(self, key: object) -> bool:
        return key in self._histograms

    def items(self) -> List[Tuple[object, LogLinearHistogram]]:
        """Histograms in deterministic (stringified-key) order."""
        return [(key, self._histograms[key]) for key in self.keys()]

    def aggregate(self) -> LogLinearHistogram:
        """Merge every keyed histogram into one (lossless)."""
        merged = LogLinearHistogram(self.subbucket_bits, unit=self.unit)
        for _, histogram in self.items():
            merged.merge(histogram)
        return merged

    def summary_rows(self) -> List[Dict[str, object]]:
        """One percentile row per key, deterministically ordered."""
        rows = []
        for key, histogram in self.items():
            row: Dict[str, object] = {"key": key}
            row.update(histogram.summary().as_dict())
            rows.append(row)
        return rows

    def merge(self, other: "HistogramBank") -> "HistogramBank":
        """Fold ``other``'s keyed histograms into this bank (lossless)."""
        if other.subbucket_bits != self.subbucket_bits:
            raise ConfigError(
                "cannot merge banks with different subbucket_bits "
                f"({self.subbucket_bits} vs {other.subbucket_bits})"
            )
        for key, histogram in other.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histogram_for(key)
            mine.merge(histogram)
        self.overflowed += other.overflowed
        return self

    def to_dict(self) -> Dict[str, object]:
        """Full-fidelity serialization (string keys; see ``from_dict``)."""
        return {
            "subbucket_bits": self.subbucket_bits,
            "unit": self.unit,
            "max_keys": self.max_keys,
            "overflowed": self.overflowed,
            "histograms": {
                str(key): histogram.to_dict() for key, histogram in self.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "HistogramBank":
        bank = cls(
            subbucket_bits=int(payload["subbucket_bits"]),
            unit=str(payload.get("unit", "")),
            max_keys=int(payload.get("max_keys", 4096)),
        )
        bank.overflowed = int(payload.get("overflowed", 0))
        for key, entry in payload["histograms"].items():
            bank._histograms[key] = LogLinearHistogram.from_dict(entry)
        return bank

    def clear(self) -> None:
        self._histograms.clear()
        self.overflowed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HistogramBank(keys={len(self._histograms)}, unit={self.unit!r})"
