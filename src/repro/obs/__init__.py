"""Causal observability: packet spans, sim profiler, flight recorder.

Built on :mod:`repro.telemetry` (which aggregates), :mod:`repro.obs`
answers *causal* and *operational* questions:

* :class:`SpanRecorder` — per-packet lifecycle spans (generator → TX
  stamp → MACs → DUT → capture → host, including fault actions),
  correlated across the device under test by the in-band TX stamp,
  exportable as Chrome trace JSON and a JSONL "packet story" table.
  Spans are the simulator's one per-packet record;
* :class:`SimProfiler` — wall-clock attribution of kernel dispatch and
  the "sim speedometer" (sim-ps advanced per wall second);
* :class:`HeartbeatWriter` / :class:`FlightTailer` — the sweep flight
  recorder: per-shard heartbeat files, live progress/ETA, stall
  detection (see :class:`repro.runner.SweepRunner`'s ``flight_dir``).

Nothing in this package perturbs simulated behaviour: spans and
profiles never schedule events, mutate packets or touch RNG streams,
so results stay bit-identical with observability on or off.

Every recorder — these two and :mod:`repro.telemetry`'s ``Tracer`` and
``WaveformRecorder`` — arms the same way: ``recorder.arm(sim)`` returns
it, ``disarm()`` detaches it, ``armed`` reports it, and moving to
another simulator keeps what was recorded. :func:`observe_simulators`
arms recorders on every simulator created inside a ``with`` block — the
way to observe scenario code that builds its own
:class:`~repro.sim.Simulator` internally::

    spans, profiler = SpanRecorder(), SimProfiler()
    with observe_simulators(spans=spans, profiler=profiler):
        result = legacy_latency_point(frame_size=256, load=0.4)
    spans.write_stories("packets.jsonl")
    print(profiler.format_report())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from ..sim import kernel as _kernel
from .flight import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_STALL_FACTOR,
    FlightTailer,
    HeartbeatWriter,
    heartbeat_path,
    read_heartbeats,
    render_progress,
)
from .profiler import SimProfiler
from .spans import DEFAULT_SPAN_CAPACITY, PacketSpan, SpanRecorder


@contextmanager
def observe_simulators(
    spans: Optional[SpanRecorder] = None,
    profiler: Optional[SimProfiler] = None,
    tracer=None,
    waves=None,
):
    """Arm observability on every Simulator created inside the block.

    Each new simulator gets the given :class:`SpanRecorder`,
    :class:`SimProfiler`, :class:`repro.telemetry.Tracer` and
    :class:`repro.telemetry.WaveformRecorder` armed at construction
    time (a recorder moves to the newest simulator and keeps what it
    recorded on the earlier ones). On exit every given recorder is
    disarmed, so no simulator built in the block keeps one.
    """
    recorders = [r for r in (tracer, spans, profiler, waves) if r is not None]

    def hook(sim) -> None:
        for recorder in recorders:
            recorder.arm(sim)

    _kernel.add_creation_hook(hook)
    try:
        yield
    finally:
        _kernel.remove_creation_hook(hook)
        for recorder in recorders:
            recorder.disarm()


__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_SPAN_CAPACITY",
    "DEFAULT_STALL_FACTOR",
    "FlightTailer",
    "HeartbeatWriter",
    "PacketSpan",
    "SimProfiler",
    "SpanRecorder",
    "heartbeat_path",
    "observe_simulators",
    "read_heartbeats",
    "render_progress",
]
