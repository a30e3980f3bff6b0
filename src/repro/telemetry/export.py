"""Serialization for telemetry: snapshot JSON/CSV and Chrome traces.

Everything here turns in-memory telemetry objects into the formats the
OSNT tooling ships: ``snapshot`` dicts (from
:meth:`~.metrics.MetricsRegistry.snapshot`) to JSON documents or flat
``name,value`` CSV, and :class:`~.trace.Tracer` rings to Chrome
``trace_event`` JSON that loads directly in ``chrome://tracing`` /
Perfetto.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Dict, Union

from .metrics import MetricsRegistry
from .trace import Tracer

PathLike = Union[str, Path]


# -- metrics snapshots -------------------------------------------------------


def snapshot_to_json(snapshot: Dict[str, Any], indent: int = 2) -> str:
    """A snapshot dict as a JSON document (keys already sorted)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def flatten_snapshot(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Expand histogram sub-dicts into dotted scalar entries.

    ``{"lat": {"p50": 3}}`` becomes ``{"lat.p50": 3}`` so the result is
    a flat name -> scalar mapping suitable for CSV or time-series sinks.
    """
    flat: Dict[str, Any] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            for key, sub in value.items():
                flat[f"{name}.{key}"] = sub
        else:
            flat[name] = value
    return flat


def snapshot_to_csv(snapshot: Dict[str, Any]) -> str:
    """A snapshot as ``metric,value`` CSV rows (header included)."""
    out = io.StringIO()
    out.write("metric,value\r\n")
    for name, value in sorted(flatten_snapshot(snapshot).items()):
        rendered = "" if value is None else value
        out.write(f"{name},{rendered}\r\n")
    return out.getvalue()


def write_snapshot_json(path: PathLike, snapshot: Dict[str, Any]) -> None:
    """Write a snapshot as a JSON document (trailing newline included)."""
    Path(path).write_text(snapshot_to_json(snapshot) + "\n")


def write_snapshot_csv(path: PathLike, snapshot: Dict[str, Any]) -> None:
    """Write a snapshot as flat ``metric,value`` CSV."""
    Path(path).write_text(snapshot_to_csv(snapshot))


def registry_histograms_to_dict(registry: MetricsRegistry) -> Dict[str, Any]:
    """Full-fidelity bucket dumps of every registered histogram."""
    return {
        name: histogram.to_dict() for name, histogram in registry.histograms()
    }


# -- Chrome traces -----------------------------------------------------------


def chrome_trace(
    tracer: Tracer, span_recorder=None, waves=None, registry=None
) -> Dict[str, Any]:
    """The tracer's rings as a Chrome trace document (object form).

    The object form (``{"traceEvents": [...]}``) is what the trace
    viewers accept alongside the bare-array form, and it leaves room
    for metadata such as the eviction count.

    ``span_recorder`` (a :class:`repro.obs.SpanRecorder`) nests its
    packet-lifecycle spans into the same document: each span renders as
    its own begin/end track beside the tracer's kernel events, so causal
    packet stories and kernel events load in one Perfetto view. The
    tracer records no packet events, so the spans are a trace's only
    per-packet tracks.

    ``waves`` (a :class:`repro.telemetry.WaveformRecorder`) merges its
    sim-time waveforms as counter ("C"-phase) tracks — queue depths and
    utilization plotted under the spans that caused them. ``registry``
    (a :class:`MetricsRegistry`) opts in to one counter event per flat
    numeric snapshot metric, placed at the trace's final timestamp so
    end-of-run totals show as terminal counter values. Both default to
    off, leaving existing trace documents byte-identical.

    ``tracer`` may be None when exporting waveform/metric tracks alone
    (the ``osnt-telemetry timeline`` path).
    """
    if tracer is not None:
        events = tracer.chrome_events()
        other: Dict[str, Any] = {
            "recorded": tracer.recorded,
            "evicted": tracer.evicted,
            "capacity": tracer.capacity,
        }
    else:
        events = []
        other = {}
    if span_recorder is not None:
        events = events + span_recorder.chrome_events()
        other["spans"] = {
            "started": span_recorder.started,
            "evicted": span_recorder.evicted,
            "stamp_matches": span_recorder.stamp_matches,
        }
    if waves is not None:
        events = events + waves.chrome_events()
        other["waveforms"] = waves.counts()
    if registry is not None:
        end_ts = max((event["ts"] for event in events), default=0.0)
        emitted = 0
        for name, value in sorted(flatten_snapshot(registry.snapshot()).items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            events.append(
                {
                    "name": name,
                    "cat": "metric",
                    "ph": "C",
                    "ts": end_ts,
                    "pid": 0,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
            emitted += 1
        other["metrics"] = {"count": emitted}
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def chrome_trace_json(
    tracer: Tracer, indent: int = None, span_recorder=None, waves=None, registry=None
) -> str:
    """The Chrome trace document serialized to a JSON string."""
    return json.dumps(
        chrome_trace(tracer, span_recorder=span_recorder, waves=waves, registry=registry),
        indent=indent,
    )


def write_chrome_trace(
    path: PathLike, tracer: Tracer, span_recorder=None, waves=None, registry=None
) -> int:
    """Write the trace JSON; returns the number of events written."""
    document = chrome_trace(
        tracer, span_recorder=span_recorder, waves=waves, registry=registry
    )
    Path(path).write_text(json.dumps(document))
    return len(document["traceEvents"])
