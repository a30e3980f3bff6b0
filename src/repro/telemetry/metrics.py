"""The metrics registry: named counters, gauges and histograms.

MoonGen-style testers live and die by their stats plumbing: every layer
(MACs, DMA, capture pipelines, rate samplers, OFLOPS modules) must
publish into one place so a single read captures the whole card
coherently. :class:`MetricsRegistry` is that place.

Three metric kinds:

* :class:`Counter` — monotonically increasing int, owned by the
  registry (push model, for code without an existing stats object);
* :class:`Gauge` — a value *read at snapshot time*, either set
  explicitly or backed by a callable. Callable gauges are the main
  integration mechanism: existing hardware stats objects stay the
  single source of truth and cost nothing between snapshots;
* :class:`LogLinearHistogram` — registered directly; snapshots carry
  its percentile summary.

``snapshot()`` walks names in sorted order and returns a plain dict, so
two identical simulation runs produce byte-identical snapshots.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ConfigError
from .histogram import DEFAULT_SUBBUCKET_BITS, LogLinearHistogram


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value: set directly or computed from a source."""

    __slots__ = ("name", "_value", "_source")

    def __init__(self, name: str, source: Optional[Callable[[], Any]] = None) -> None:
        self.name = name
        self._value: Any = 0
        self._source = source

    def set(self, value: Any) -> None:
        if self._source is not None:
            raise ConfigError(f"gauge {self.name} is source-backed; cannot set()")
        self._value = value

    def value(self) -> Any:
        if self._source is not None:
            return self._source()
        return self._value


Metric = Union[Counter, Gauge, LogLinearHistogram]


class MetricsRegistry:
    """Flat namespace of metrics with deterministic snapshot semantics.

    Names are dot-paths (``"p0.rx.packets"``); :meth:`snapshot` nests
    nothing — flat names keep diffs and CSV trivial — but histograms
    expand to a summary sub-dict under their name.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._metrics: Dict[str, Metric] = {}

    # -- registration ------------------------------------------------------

    def _full(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def _add(self, name: str, metric: Metric) -> Metric:
        full = self._full(name)
        existing = self._metrics.get(full)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ConfigError(
                    f"metric {full} already registered as {type(existing).__name__}"
                )
            return existing
        self._metrics[full] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Create (or fetch) a counter."""
        return self._add(name, Counter(self._full(name)))

    def gauge(self, name: str, source: Optional[Callable[[], Any]] = None) -> Gauge:
        """Create (or fetch) a gauge, optionally backed by ``source``."""
        return self._add(name, Gauge(self._full(name), source))

    def histogram(
        self,
        name: str,
        subbucket_bits: int = DEFAULT_SUBBUCKET_BITS,
        unit: str = "",
    ) -> LogLinearHistogram:
        """Create (or fetch) a registered histogram."""
        return self._add(name, LogLinearHistogram(subbucket_bits, unit=unit))

    def register_histogram(self, name: str, histogram: LogLinearHistogram) -> LogLinearHistogram:
        """Register an externally owned histogram (e.g. a pipeline's)."""
        return self._add(name, histogram)

    # -- reads -------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(self._full(name))

    def histograms(self) -> List[Tuple[str, LogLinearHistogram]]:
        return [
            (name, metric)
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, LogLinearHistogram)
        ]

    def snapshot(self) -> Dict[str, Any]:
        """One coherent read of every metric, keyed by sorted full name.

        Counters snapshot to ints, gauges to their current value,
        histograms to their :class:`~.histogram.HistogramSummary` dict.

        A source-backed gauge whose callable raises (a component torn
        down between registration and read) records the error as an
        ``"<error: ...>"`` string under its name instead of aborting
        the whole snapshot — one dead gauge must not blind the card.
        """
        result: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                result[name] = metric.value
            elif isinstance(metric, Gauge):
                try:
                    result[name] = metric.value()
                except Exception as exc:  # noqa: BLE001 — recorded in-band
                    result[name] = f"<error: {type(exc).__name__}: {exc}>"
            else:
                result[name] = metric.summary().as_dict()
        return result

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return self._full(name) in self._metrics
