"""Telemetry & tracing: in-band histograms, event traces, metrics export.

The observability layer shared by the tester's datapaths, dashboard,
CLI, benchmarks and OFLOPS modules:

* :class:`LogLinearHistogram` — hardware-style latency/size histograms
  fed in-band by the capture and TX paths (O(1) record, mergeable,
  bounded-error percentiles), after P4TG's data-plane RTT histograms;
* :class:`Tracer` — bounded rings of simulation trace records (kernel
  event scheduling/firing, fault and OFLOPS instants), exportable as
  Chrome ``trace_event`` JSON; per-packet hops are recorded once, by
  :class:`repro.obs.SpanRecorder`, so an armed tracer keeps burst lanes;
* :class:`MetricsRegistry` — named counters/gauges/histograms with
  deterministic ``snapshot()`` semantics; one call reads the whole card;
* :class:`WaveformRecorder` — deterministic sim-time waveforms (queue
  occupancy, cwnd, windowed utilization) sampled on state change, with
  min/max-envelope decimation, Chrome counter tracks and CSV/JSONL
  timelines (see :mod:`~repro.telemetry.timeseries`);
* :mod:`~repro.telemetry.export` — JSON/CSV snapshot serialization and
  Chrome trace files;
* :mod:`~repro.telemetry.openmetrics` — OpenMetrics text exposition of
  any snapshot (plus the strict parser the tests use to check it).

Arm a tracer with ``Tracer().arm(sim)`` and a waveform recorder with
``WaveformRecorder().arm(sim)`` — the same ``arm``/``disarm`` protocol
as the :mod:`repro.obs` recorders, bundled for simulators built inside
scenario code by :func:`repro.obs.observe_simulators`. Read a card
with ``device.snapshot()`` after ``device.start_telemetry()``.
"""

from .export import (
    chrome_trace,
    chrome_trace_json,
    flatten_snapshot,
    registry_histograms_to_dict,
    snapshot_to_csv,
    snapshot_to_json,
    write_chrome_trace,
    write_snapshot_csv,
    write_snapshot_json,
)
from .histogram import (
    DEFAULT_SUBBUCKET_BITS,
    HistogramBank,
    HistogramSummary,
    LogLinearHistogram,
)
from .metrics import Counter, Gauge, MetricsRegistry
from .openmetrics import (
    metric_name,
    parse_openmetrics,
    snapshot_to_openmetrics,
    write_openmetrics,
)
from .timeseries import (
    DEFAULT_KEEP_EVERY,
    DEFAULT_UTIL_WINDOW_PS,
    DEFAULT_WAVEFORM_CAPACITY,
    RateWaveform,
    Waveform,
    WaveformRecorder,
)
from .trace import DEFAULT_CAPACITY, Tracer

__all__ = [
    "Counter",
    "DEFAULT_CAPACITY",
    "DEFAULT_KEEP_EVERY",
    "DEFAULT_SUBBUCKET_BITS",
    "DEFAULT_UTIL_WINDOW_PS",
    "DEFAULT_WAVEFORM_CAPACITY",
    "Gauge",
    "HistogramBank",
    "HistogramSummary",
    "LogLinearHistogram",
    "MetricsRegistry",
    "RateWaveform",
    "Tracer",
    "Waveform",
    "WaveformRecorder",
    "chrome_trace",
    "chrome_trace_json",
    "flatten_snapshot",
    "metric_name",
    "parse_openmetrics",
    "registry_histograms_to_dict",
    "snapshot_to_csv",
    "snapshot_to_json",
    "snapshot_to_openmetrics",
    "write_chrome_trace",
    "write_openmetrics",
    "write_snapshot_csv",
    "write_snapshot_json",
]
