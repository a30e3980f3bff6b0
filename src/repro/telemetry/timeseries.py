"""Deterministic sim-time waveforms: state series sampled on change.

Counters and histograms answer "how much"; a waveform answers "what did
the state look like *while* it happened" — the egress queue filling
during an incast collapse, a cwnd sawtooth, the DMA ring breathing.
:class:`WaveformRecorder` is the observability plane for exactly that:
armed on a :class:`~repro.sim.Simulator` (``sim.waves``), instrumented
components append integer-picosecond ``(sim_time, value)`` points to
named series **on state change only** — never on a timer, because a
recorder that schedules events would perturb the event order it is
meant to observe.

Two series kinds:

* :class:`Waveform` — a step series of a state variable (queue bytes,
  ring depth, cwnd). Change-suppressed (equal consecutive values are
  not re-committed), bounded by ``capacity`` retained points, and
  decimated deterministically: with ``keep_every=k`` each run of ``k``
  committed points collapses to at most three — the bucket's min, max
  and last — so burst peaks survive downsampling (the min/max
  envelope), and the retained stream is a pure function of the sample
  stream (no wall clock, no RNG).
* :class:`RateWaveform` — a windowed counter series (wire bytes per
  ``window_ps``), the "utilization over a sliding window" view. Samples
  are deltas; each completed window commits one ``(window_end, sum)``
  point, empty windows are skipped.

The burst datapath (:mod:`repro.hw.burst`) never walks frames one at a
time, so both classes also accept *closed-form runs*:
:meth:`Waveform.record_run` / :meth:`Waveform.record_toggle_run` /
:meth:`RateWaveform.record_run` are arithmetically exact equivalents of
the corresponding per-sample loops, costing ``O(points_retained)``
instead of ``O(samples)`` — that is how a burst lane reconstructs the
per-packet path's waveforms from parked scalar state, bit-identically
(proven by ``tests/test_datapath_equivalence.py``).

Exports: Chrome ``trace_event`` counter ("C"-phase) tracks that merge
into :func:`repro.telemetry.chrome_trace` beside span and kernel
tracks, CSV/JSONL timelines (the ``osnt-telemetry timeline``
subcommand), last-value gauges for the OpenMetrics exposition, and a
SHA-256 digest over the canonical JSON of every series — the value
sweeps fold per shard to prove merged timelines are byte-identical at
any worker count and across kill-and-resume.
"""

from __future__ import annotations

import io
import json
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ConfigError
from ..spec import digest

#: Default retained points per series (the ring bound).
DEFAULT_WAVEFORM_CAPACITY = 1 << 14
#: Default decimation: keep every committed point.
DEFAULT_KEEP_EVERY = 1
#: Default utilization window: 10 simulated µs per rate bucket.
DEFAULT_UTIL_WINDOW_PS = 10_000_000

#: "No value committed yet" sentinel — never equal to a sample value,
#: so the first sample of a series always commits.
_UNSET = object()


class Waveform:
    """One step series: ``(time_ps, value)`` committed on state change."""

    __slots__ = (
        "name",
        "unit",
        "capacity",
        "keep_every",
        "recorded",
        "committed",
        "retained",
        "_points",
        "_last",
        "_fill",
        "_min_v",
        "_min_t",
        "_min_i",
        "_max_v",
        "_max_t",
        "_max_i",
        "_last_t",
        "_last_v",
    )

    def __init__(
        self,
        name: str,
        unit: str = "",
        capacity: int = DEFAULT_WAVEFORM_CAPACITY,
        keep_every: int = DEFAULT_KEEP_EVERY,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"waveform {name!r}: capacity must be >= 1")
        if keep_every < 1:
            raise ConfigError(f"waveform {name!r}: keep_every must be >= 1")
        self.name = name
        self.unit = unit
        self.capacity = capacity
        self.keep_every = keep_every
        self.recorded = 0  # raw samples offered
        self.committed = 0  # samples that changed the state
        self.retained = 0  # points ever appended to the ring
        self._points: deque = deque(maxlen=capacity)
        self._last: Any = _UNSET
        self._fill = 0  # committed points in the open decimation bucket

    # -- hot path ----------------------------------------------------------

    def record(self, t_ps: int, value) -> None:
        """Offer one sample; commits only when ``value`` changed."""
        self.recorded += 1
        if value == self._last:
            return
        self._last = value
        self.committed += 1
        if self.keep_every == 1:
            self._points.append((t_ps, value))
            self.retained += 1
        else:
            self._feed(t_ps, value)

    def _feed(self, t_ps: int, value) -> None:
        """Fold one committed point into the open decimation bucket."""
        f = self._fill
        if f == 0:
            self._min_v = self._max_v = value
            self._min_t = self._max_t = t_ps
            self._min_i = self._max_i = 0
        elif value < self._min_v:
            self._min_v, self._min_t, self._min_i = value, t_ps, f
        elif value > self._max_v:
            self._max_v, self._max_t, self._max_i = value, t_ps, f
        self._last_t, self._last_v = t_ps, value
        self._fill = f + 1
        if self._fill == self.keep_every:
            for point in self._bucket_entries():
                self._points.append(point)
                self.retained += 1
            self._fill = 0

    def _bucket_entries(self) -> List[Tuple[int, Any]]:
        """The open bucket's retained points (min/max/last, time order)."""
        entries = {
            self._min_i: (self._min_t, self._min_v),
            self._max_i: (self._max_t, self._max_v),
            self._fill - 1: (self._last_t, self._last_v),
        }
        return [entries[index] for index in sorted(entries)]

    # -- closed-form runs (the burst datapath's feed) ----------------------

    def record_run(self, t0: int, n: int, stride: int, v0, dv) -> None:
        """Exactly ``for i in range(n): record(t0+i*stride, v0+i*dv)``.

        For monotonic runs (``dv != 0``) the cost is proportional to the
        points *retained*, not to ``n`` — whole decimation buckets of a
        monotonic run keep only their first and last point.
        """
        if n <= 0:
            return
        self.recorded += n
        if dv == 0:
            # One state change at most: the run holds a single value.
            if v0 == self._last:
                return
            self.recorded -= 1  # record() re-counts this sample
            self.record(t0, v0)
            return
        skip = 1 if v0 == self._last else 0
        m = n - skip
        if m <= 0:
            return
        self.committed += m
        self._last = v0 + (n - 1) * dv
        k = self.keep_every
        points = self._points
        if k == 1:
            # Only the trailing ``capacity`` commits can survive the ring.
            start = skip + m - self.capacity if m > self.capacity else skip
            for i in range(start, n):
                points.append((t0 + i * stride, v0 + i * dv))
            self.retained += m
            return
        i = skip
        while i < n and self._fill:  # finish the open bucket per-point
            self._feed_run_point(t0, stride, v0, dv, i)
            i += 1
        whole = (n - i) // k
        if whole:
            # Monotonic whole bucket => min/max are its ends: retain
            # exactly (first, last). Skip buckets the ring would evict.
            b0 = whole - (self.capacity // 2 + 1) if 2 * whole > self.capacity else 0
            for b in range(b0, whole):
                first = i + b * k
                last = first + k - 1
                points.append((t0 + first * stride, v0 + first * dv))
                points.append((t0 + last * stride, v0 + last * dv))
            self.retained += 2 * whole
            i += whole * k
        while i < n:  # trailing partial bucket
            self._feed_run_point(t0, stride, v0, dv, i)
            i += 1

    def _feed_run_point(self, t0, stride, v0, dv, i) -> None:
        self._feed(t0 + i * stride, v0 + i * dv)

    def record_toggle_run(self, t0: int, n: int, stride: int, hi, lo) -> None:
        """Exactly ``for i in range(n): record(t, hi); record(t, lo)``.

        The never-queueing TX FIFO's shape under the per-packet path:
        each frame pushes (occupancy ``hi``) and immediately pops back
        to ``lo`` at the same instant. Cost is proportional to points
        retained — with ``keep_every >= 2`` that is ``O(n / keep_every)``.
        """
        if n <= 0:
            return
        if hi == lo:
            raise ConfigError(f"waveform {self.name!r}: toggle needs hi != lo")
        self.recorded += 2 * n
        skip = 1 if hi == self._last else 0
        m = 2 * n - skip
        self.committed += m
        self._last = lo

        def pt(o: int) -> Tuple[int, Any]:
            # Original sample index o: frame o>>1, hi on even, lo on odd.
            return (t0 + (o >> 1) * stride, lo if o & 1 else hi)

        k = self.keep_every
        end = 2 * n
        points = self._points
        if k == 1:
            start = skip + m - self.capacity if m > self.capacity else skip
            for o in range(start, end):
                points.append(pt(o))
            self.retained += m
            return
        o = skip
        while o < end and self._fill:
            self._feed(*pt(o))
            o += 1
        whole = (end - o) // k
        if whole:
            # Alternating bucket: min (first lo) and max (first hi) sit
            # at relative indices {0, 1}; the last point closes it.
            per_bucket = 2 if k == 2 else 3
            b0 = 0
            if per_bucket * whole > self.capacity:
                b0 = whole - (self.capacity // per_bucket + 1)
            for b in range(b0, whole):
                start_o = o + b * k
                entries = {0: pt(start_o), 1: pt(start_o + 1)}
                entries[k - 1] = pt(start_o + k - 1)
                for ri in sorted(entries):
                    points.append(entries[ri])
            self.retained += per_bucket * whole
            o += whole * k
        while o < end:
            self._feed(*pt(o))
            o += 1

    # -- export ------------------------------------------------------------

    @property
    def last(self):
        """Last committed value, or None before the first commit."""
        return None if self._last is _UNSET else self._last

    @property
    def evicted(self) -> int:
        return self.retained - len(self._points)

    def points(self) -> List[Tuple[int, Any]]:
        """Retained points plus the open bucket's pending envelope."""
        pts = list(self._points)
        if self.keep_every > 1 and self._fill:
            pts.extend(self._bucket_entries())
        return pts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "state",
            "name": self.name,
            "unit": self.unit,
            "capacity": self.capacity,
            "keep_every": self.keep_every,
            "recorded": self.recorded,
            "committed": self.committed,
            "retained": self.retained,
            "evicted": self.evicted,
            "points": [[t, v] for t, v in self.points()],
        }


class RateWaveform:
    """Windowed counter series: sum of deltas per ``window_ps`` bucket."""

    __slots__ = (
        "name",
        "unit",
        "capacity",
        "window_ps",
        "recorded",
        "retained",
        "_points",
        "_win",
        "_acc",
    )

    def __init__(
        self,
        name: str,
        unit: str = "bytes",
        capacity: int = DEFAULT_WAVEFORM_CAPACITY,
        window_ps: int = DEFAULT_UTIL_WINDOW_PS,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"waveform {name!r}: capacity must be >= 1")
        if window_ps < 1:
            raise ConfigError(f"waveform {name!r}: window_ps must be >= 1")
        self.name = name
        self.unit = unit
        self.capacity = capacity
        self.window_ps = window_ps
        self.recorded = 0
        self.retained = 0
        self._points: deque = deque(maxlen=capacity)
        self._win: Optional[int] = None
        self._acc = 0

    def record(self, t_ps: int, delta) -> None:
        """Add ``delta`` into the window containing ``t_ps``."""
        self.recorded += 1
        w = t_ps // self.window_ps
        if w != self._win:
            self._close_window()
            self._win = w
        self._acc += delta

    def _close_window(self) -> None:
        if self._win is not None and self._acc:
            self._points.append(((self._win + 1) * self.window_ps, self._acc))
            self.retained += 1
        self._acc = 0

    def record_run(self, t0: int, n: int, stride: int, delta) -> None:
        """Exactly ``for i in range(n): record(t0+i*stride, delta)``.

        Cost is proportional to the number of windows the run touches.
        """
        if n <= 0:
            return
        if stride < 0:
            raise ConfigError(f"waveform {self.name!r}: run stride must be >= 0")
        self.recorded += n
        window = self.window_ps
        if stride == 0:
            w = t0 // window
            if w != self._win:
                self._close_window()
                self._win = w
            self._acc += n * delta
            return
        i = 0
        while i < n:
            w = (t0 + i * stride) // window
            if w != self._win:
                self._close_window()
                self._win = w
            # Last run index still inside window w.
            j = ((w + 1) * window - 1 - t0) // stride
            if j > n - 1:
                j = n - 1
            self._acc += (j - i + 1) * delta
            i = j + 1

    # -- export ------------------------------------------------------------

    @property
    def last(self):
        """The open window's sum, else the last committed sum, else None."""
        if self._win is not None and self._acc:
            return self._acc
        if self._points:
            return self._points[-1][1]
        return None

    @property
    def evicted(self) -> int:
        return self.retained - len(self._points)

    def points(self) -> List[Tuple[int, Any]]:
        pts = list(self._points)
        if self._win is not None and self._acc:
            pts.append(((self._win + 1) * self.window_ps, self._acc))
        return pts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "rate",
            "name": self.name,
            "unit": self.unit,
            "capacity": self.capacity,
            "window_ps": self.window_ps,
            "recorded": self.recorded,
            "retained": self.retained,
            "evicted": self.evicted,
            "points": [[t, v] for t, v in self.points()],
        }


AnyWaveform = Union[Waveform, RateWaveform]


class WaveformRecorder:
    """Named waveforms for one (or more) simulators' instrumented state.

    >>> waves = WaveformRecorder().arm(sim)
    >>> ...run the workload...
    >>> waves.write_csv("timeline.csv")

    Arming sets ``sim.waves``; every probe site reads that attribute, so
    the disarmed datapath pays one attribute load + ``None`` check (the
    ``sim.spans`` / tracer pattern). Unlike spans and tracers, an armed
    recorder does **not** disqualify burst-datapath lanes: burst lanes
    feed the same series closed-form at window edges (see
    :mod:`repro.hw.burst`), bit-identically to the per-packet probes.

    Recording never schedules events, never mutates packets and never
    touches RNG streams, so arming leaves every scenario result
    bit-identical — the guarantee ``tests/test_timeseries.py`` and the
    CI timeline smoke enforce.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_WAVEFORM_CAPACITY,
        keep_every: int = DEFAULT_KEEP_EVERY,
        window_ps: int = DEFAULT_UTIL_WINDOW_PS,
    ) -> None:
        if capacity < 1:
            raise ConfigError("waveform recorder: capacity must be >= 1")
        if keep_every < 1:
            raise ConfigError("waveform recorder: keep_every must be >= 1")
        if window_ps < 1:
            raise ConfigError("waveform recorder: window_ps must be >= 1")
        self.capacity = capacity
        self.keep_every = keep_every
        self.window_ps = window_ps
        self._series: Dict[str, AnyWaveform] = {}
        self._sim = None

    # -- arming ------------------------------------------------------------

    def arm(self, sim) -> "WaveformRecorder":
        """Attach to ``sim`` (re-arming moves the recorder; series kept)."""
        if self._sim is not None and self._sim is not sim:
            self.disarm()
        self._sim = sim
        sim.waves = self
        return self

    def disarm(self) -> "WaveformRecorder":
        """Detach from the current simulator (recorded series survive)."""
        if self._sim is not None:
            if getattr(self._sim, "waves", None) is self:
                self._sim.waves = None
            self._sim = None
        return self

    @property
    def armed(self) -> bool:
        return self._sim is not None

    # -- series registry ---------------------------------------------------

    def series(self, name: str, unit: str = "") -> Waveform:
        """The state waveform called ``name`` (created on first use)."""
        wf = self._series.get(name)
        if wf is None:
            wf = Waveform(
                name, unit=unit, capacity=self.capacity, keep_every=self.keep_every
            )
            self._series[name] = wf
        elif not isinstance(wf, Waveform):
            raise ConfigError(f"series {name!r} already exists as a rate series")
        return wf

    def rate_series(self, name: str, unit: str = "bytes") -> RateWaveform:
        """The windowed-rate waveform called ``name`` (created on use)."""
        wf = self._series.get(name)
        if wf is None:
            wf = RateWaveform(
                name, unit=unit, capacity=self.capacity, window_ps=self.window_ps
            )
            self._series[name] = wf
        elif not isinstance(wf, RateWaveform):
            raise ConfigError(f"series {name!r} already exists as a state series")
        return wf

    def sample(self, t_ps: int, name: str, value, unit: str = "") -> None:
        """Convenience one-shot: ``series(name).record(t_ps, value)``."""
        self.series(name, unit=unit).record(t_ps, value)

    def get(self, name: str) -> Optional[AnyWaveform]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return sorted(self._series)

    def waveforms(self) -> List[AnyWaveform]:
        return [self._series[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._series)

    # -- export: documents and digests -------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "keep_every": self.keep_every,
            "window_ps": self.window_ps,
            "series": {wf.name: wf.to_dict() for wf in self.waveforms()},
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of every series.

        A pure function of the recorded sample streams: equal digests
        prove two runs produced byte-identical timelines (the property
        the datapath-equivalence tests and the sweep fold assert).
        """
        return digest(self.to_dict())

    def summary(self) -> Dict[str, Any]:
        """Compact per-series facts + digest (what scenarios report)."""
        series: Dict[str, Any] = {}
        for wf in self.waveforms():
            pts = wf.points()
            values = [v for __, v in pts]
            series[wf.name] = {
                "points": len(pts),
                "recorded": wf.recorded,
                "evicted": wf.evicted,
                "min": min(values) if values else None,
                "max": max(values) if values else None,
                "last": wf.last,
            }
        return {"digest": self.digest(), "series": series}

    # -- export: Chrome counter tracks --------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Every series as a Chrome ``trace_event`` counter track.

        "C"-phase events share the tracer/span timebase (1 simulated ps
        -> 1e-6 trace µs), so queue waveforms line up under the packet
        spans that caused them in one Perfetto view.
        """
        events: List[Dict[str, Any]] = []
        for wf in self.waveforms():
            name = wf.name
            for t_ps, value in wf.points():
                events.append(
                    {
                        "name": name,
                        "cat": "waveform",
                        "ph": "C",
                        "ts": t_ps / 1e6,
                        "pid": 0,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
        return events

    def counts(self) -> Dict[str, int]:
        """Operational totals for trace metadata."""
        return {
            "series": len(self._series),
            "recorded": sum(wf.recorded for wf in self._series.values()),
            "retained": sum(wf.retained for wf in self._series.values()),
            "evicted": sum(wf.evicted for wf in self._series.values()),
        }

    # -- export: flat timelines (CSV / JSONL) --------------------------------

    def timeline_rows(self) -> List[Tuple[str, int, Any]]:
        """``(series, time_ps, value)`` rows, series-sorted, time-ordered."""
        rows: List[Tuple[str, int, Any]] = []
        for wf in self.waveforms():
            name = wf.name
            for t_ps, value in wf.points():
                rows.append((name, t_ps, value))
        return rows

    def csv(self) -> str:
        """The timeline as ``series,time_ps,value`` CSV (CRLF rows)."""
        out = io.StringIO()
        out.write("series,time_ps,value\r\n")
        for name, t_ps, value in self.timeline_rows():
            out.write(f"{name},{t_ps},{value}\r\n")
        return out.getvalue()

    def jsonl(self) -> str:
        """The timeline as JSON Lines (one point per line)."""
        lines = [
            json.dumps(
                {"series": name, "t_ps": t_ps, "value": value}, sort_keys=True
            )
            for name, t_ps, value in self.timeline_rows()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_csv(self, path: Union[str, Path]) -> int:
        """Write the CSV timeline; returns the number of points."""
        Path(path).write_text(self.csv())
        return sum(len(wf.points()) for wf in self._series.values())

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Write the JSONL timeline; returns the number of points."""
        Path(path).write_text(self.jsonl())
        return sum(len(wf.points()) for wf in self._series.values())

    # -- export: last-value gauges ------------------------------------------

    def gauges(self) -> Dict[str, Any]:
        """``wave.<series>.last`` -> last value (series with data only).

        A flat scalar mapping, ready for
        :func:`repro.telemetry.snapshot_to_openmetrics`.
        """
        flat: Dict[str, Any] = {}
        for wf in self.waveforms():
            last = wf.last
            if last is not None:
                flat[f"wave.{wf.name}.last"] = last
        return flat

    def register_metrics(self, registry, prefix: str = "wave") -> None:
        """Publish each existing series' last value as a pull gauge."""
        for wf in self.waveforms():
            registry.gauge(f"{prefix}.{wf.name}.last", lambda wf=wf: wf.last)
