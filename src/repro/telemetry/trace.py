"""Event tracing: bounded ring buffers of simulation trace records.

Fault injectors and the OFLOPS runner emit *instant* records —
``(time_ps, category, name, detail)`` tuples — through
:meth:`Tracer.instant`. The sim kernel is hotter (two records per
event), so it bypasses Python entirely: :meth:`Tracer.arm` hands it the
raw C-level ``deque.append`` of two dedicated rings — one holding
``(scheduled_at_ps, Event)`` pairs, one holding fired ``Event``
objects — and totals come from the kernel's own counters rather than
per-record increments, carried over when the tracer moves to another
simulator. When no tracer is armed the only cost anywhere is a
``None`` check. The hooks attach to the kernel's
schedule/fire path, *above* the event queue, so they cost the same one
C-level append per event under both queue implementations (timing
wheel and binary heap — see :mod:`repro.sim.wheel`).

The tracer reads no packets. Each packet hop is recorded once, on the
packet's span (:class:`repro.obs.SpanRecorder`), so an armed tracer
leaves burst-datapath lanes on their closed-form path and records the
kernel events a lane actually ran.

The rings render as Chrome ``trace_event`` JSON (load it at
``chrome://tracing`` or https://ui.perfetto.dev) with simulated
picoseconds mapped onto the trace timebase's microseconds, so one
simulated µs reads as one trace µs.

Categories used by the built-in instrumentation:

* ``kernel`` — event ``schedule`` / ``fire`` (detail: the Event),
* ``fault`` — fault-model actions (detail: a small dict),
* ``oflops`` — measurement-module lifecycle.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Tuple

from ..errors import ConfigError
from ..sim.kernel import _Recorder

DEFAULT_CAPACITY = 1 << 16

#: One trace record: (time_ps, category, name, detail). ``detail`` may
#: be None, a dict of Chrome ``args``, or a kernel Event (resolved at
#: export time so the hot path never formats strings).
TraceRecord = Tuple[int, str, str, Any]


class Tracer(_Recorder):
    """The handle components talk to; owns the trace rings.

    Arm with :meth:`arm` (``Tracer().arm(sim)``, or
    :func:`repro.obs.observe_simulators` for simulators built inside
    scenario code); the kernel then reports event scheduling/firing
    into the dedicated kernel rings, and fault injectors and the OFLOPS
    runner record instants through :meth:`instant`. Each of the three
    rings keeps the newest ``capacity`` records.
    """

    __slots__ = (
        "_instants",
        "_instants_recorded",
        "_sched_ring",
        "_fire_ring",
        "_scheduled",
        "_fired",
        "_base_scheduled",
        "_base_fired",
    )
    _SLOT = "tracer"

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigError(f"trace capacity must be >= 1, got {capacity}")
        self._instants: deque = deque(maxlen=capacity)
        self._instants_recorded = 0
        self._sched_ring: deque = deque(maxlen=capacity)
        self._fire_ring: deque = deque(maxlen=capacity)
        self._sim = None
        #: Kernel records made while armed on earlier simulators.
        self._scheduled = 0
        self._fired = 0
        #: The armed simulator's event counters when it was armed.
        self._base_scheduled = 0
        self._base_fired = 0

    def instant(self, time_ps: int, category: str, name: str, detail: Any = None) -> None:
        """Record one instant event."""
        self._instants_recorded += 1
        self._instants.append((time_ps, category, name, detail))

    def _attach(self, sim: Any) -> None:
        # The kernel's hooks are the rings' raw ``deque.append`` bound
        # methods (fed ``(now_ps, Event)`` pairs and fired ``Event``s),
        # so no Python frame is entered per record.
        self._base_scheduled = sim.events_scheduled
        self._base_fired = sim.events_processed
        sim._tracer = self
        sim._trace_sched = self._sched_ring.append
        sim._trace_fire = self._fire_ring.append

    def _detach(self, sim: Any) -> None:
        self._scheduled = self.kernel_scheduled_recorded
        self._fired = self.kernel_fired_recorded
        sim._tracer = sim._trace_sched = sim._trace_fire = None

    # -- accounting --------------------------------------------------------

    @property
    def kernel_scheduled_recorded(self) -> int:
        """Schedule records ever made (retained or evicted)."""
        if self._sim is None:
            return self._scheduled
        return self._scheduled + self._sim.events_scheduled - self._base_scheduled

    @property
    def kernel_fired_recorded(self) -> int:
        """Fire records ever made (retained or evicted)."""
        if self._sim is None:
            return self._fired
        return self._fired + self._sim.events_processed - self._base_fired

    @property
    def recorded(self) -> int:
        """Total records ever made across all rings."""
        return (
            self._instants_recorded
            + self.kernel_scheduled_recorded
            + self.kernel_fired_recorded
        )

    @property
    def evicted(self) -> int:
        """Records pushed out of any ring by later arrivals."""
        return self.recorded - len(self)

    @property
    def capacity(self) -> int:
        return self._instants.maxlen

    def records(self) -> List[TraceRecord]:
        """All retained records as uniform tuples, ordered by time.

        Kernel ring entries are expanded into the common
        ``(time_ps, category, name, detail)`` shape here, at export
        time, so the hot path never builds them.
        """
        merged: List[TraceRecord] = list(self._instants)
        merged.extend(
            (now_ps, "kernel", "schedule", event)
            for now_ps, event in self._sched_ring
        )
        merged.extend(
            (event.time, "kernel", "fire", event) for event in self._fire_ring
        )
        merged.sort(key=lambda record: record[0])
        return merged

    # -- export ------------------------------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """All retained records as a Chrome ``trace_event`` array."""
        events = []
        for time_ps, category, name, detail in self.records():
            events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "i",
                    "s": "g",
                    # 1 simulated ps -> 1e-6 trace µs: timelines read in
                    # real simulated time.
                    "ts": time_ps / 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": _detail_args(detail),
                }
            )
        return events

    def __len__(self) -> int:
        return len(self._instants) + len(self._sched_ring) + len(self._fire_ring)


def _detail_args(detail: Any) -> Dict[str, Any]:
    """Normalise a record's detail into JSON-safe Chrome ``args``."""
    if detail is None:
        return {}
    if isinstance(detail, dict):
        return detail
    callback = getattr(detail, "callback", None)
    if callback is not None:  # a kernel Event
        return {
            "seq": detail.seq,
            "at_ps": detail.time,
            "callback": getattr(
                callback, "__qualname__", getattr(callback, "__name__", repr(callback))
            ),
        }
    return {"detail": repr(detail)}
