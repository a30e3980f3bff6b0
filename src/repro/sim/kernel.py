"""The discrete-event simulation kernel.

A :class:`Simulator` owns the virtual clock (integer picoseconds) and the
event queue. Components schedule callbacks with :meth:`Simulator.call_at`
/ :meth:`Simulator.call_after`, or run generator-based *processes*
(see :mod:`repro.sim.process`) for sequential logic.

Determinism: the run order of same-timestamp events is fixed by
``(priority, scheduling order)``, and all randomness comes from seeded
:class:`~repro.sim.random.RandomStreams`. The same configuration always
produces bit-identical results.

Observability hooks in: a simulator has one slot per recorder kind
(``tracer``, ``profiler``, ``spans``, ``waves``), and only the
recorders' ``arm(sim)`` / ``disarm()`` fill or clear them (the protocol
is :class:`_Recorder`). An empty slot costs each hook site one ``None``
check. ``spans`` records packets, one record per hop, and ``waves``
samples the per-packet probes, so these two armed slots move
burst-datapath lanes onto the per-packet path (see
:mod:`repro.hw.burst`).
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Callable, List, Optional, TypeVar

from ..errors import ConfigError, SimulationError
from .events import Event, EventQueue, PRIORITY_NORMAL
from .wheel import TimingWheelQueue

#: Selectable event-queue implementations. Both honour the same
#: ``(time, priority, seq)`` ordering contract, proven bit-identical by
#: tests/test_sim_queue_equivalence.py; ``wheel`` is the fast default,
#: ``heap`` the simple baseline kept as an escape hatch (select it with
#: ``REPRO_EVENT_QUEUE=heap`` or ``Simulator(event_queue="heap")``).
QUEUE_IMPLS = {"heap": EventQueue, "wheel": TimingWheelQueue}
DEFAULT_QUEUE_IMPL = "wheel"

#: Observability registry (:mod:`repro.obs`): callbacks invoked with each
#: newly constructed :class:`Simulator`, plus a weak pointer to the most
#: recent one. This is how cross-process tooling (the sweep flight
#: recorder's heartbeat sampler) and ``observe_simulators`` arm
#: observability on simulators created deep inside scenario code without
#: threading arguments through every constructor. Cost when unused: one
#: weakref and one truthiness check per Simulator created.
_CREATION_HOOKS: List[Callable[["Simulator"], None]] = []
_CURRENT_SIM: Optional["weakref.ref"] = None


def add_creation_hook(hook: Callable[["Simulator"], None]) -> None:
    """Register ``hook(sim)`` to run for every Simulator created."""
    _CREATION_HOOKS.append(hook)


def remove_creation_hook(hook: Callable[["Simulator"], None]) -> None:
    """Remove a previously added creation hook (no-op if absent)."""
    try:
        _CREATION_HOOKS.remove(hook)
    except ValueError:
        pass


def current_simulator() -> Optional["Simulator"]:
    """The most recently created live Simulator in this process, if any."""
    ref = _CURRENT_SIM
    return None if ref is None else ref()


_R = TypeVar("_R", bound="_Recorder")


class _Recorder:
    """The arming protocol of the four observability recorders.

    :class:`repro.telemetry.Tracer`, :class:`repro.obs.SimProfiler`,
    :class:`repro.obs.SpanRecorder` and
    :class:`repro.telemetry.WaveformRecorder` each own one slot of a
    :class:`Simulator` (named by ``_SLOT``), and only their :meth:`arm`
    and :meth:`disarm` fill or clear it:

    * ``arm(sim)`` fills the slot and returns the recorder; arming the
      simulator it is already armed on changes nothing;
    * arming another simulator disarms the first one, and a recorder
      already in the new simulator's slot is disarmed too, so a
      recorder watches at most one simulator at a time;
    * ``disarm()`` clears the slot. Everything recorded so far is kept,
      and later arms add to it.

    Spans and waveforms set a plain attribute; the tracer and profiler
    override :meth:`_attach` / :meth:`_detach` to also set or clear the
    kernel hooks the run loop calls.
    """

    __slots__ = ("_sim",)
    _SLOT = ""

    def arm(self: _R, sim: "Simulator") -> _R:
        """Record ``sim`` from now on (moves off any earlier simulator)."""
        if self._sim is not sim:
            self.disarm()
            occupant = getattr(sim, self._SLOT)
            if occupant is not None:
                occupant.disarm()
            self._sim = sim
            self._attach(sim)
        return self

    def disarm(self: _R) -> _R:
        """Stop recording; what was recorded so far is kept."""
        sim = self._sim
        if sim is not None:
            self._detach(sim)
            self._sim = None
        return self

    @property
    def armed(self) -> bool:
        """Whether the recorder is armed on a simulator."""
        return self._sim is not None

    def _attach(self, sim: "Simulator") -> None:
        setattr(sim, self._SLOT, self)

    def _detach(self, sim: "Simulator") -> None:
        setattr(sim, self._SLOT, None)


class Simulator:
    """Discrete-event simulator with an integer-picosecond clock."""

    def __init__(self, event_queue: Optional[str] = None) -> None:
        impl = event_queue or os.environ.get("REPRO_EVENT_QUEUE") or DEFAULT_QUEUE_IMPL
        factory = QUEUE_IMPLS.get(impl)
        if factory is None:
            raise ConfigError(
                f"unknown event queue {impl!r}; choose from {sorted(QUEUE_IMPLS)}"
            )
        self.queue_impl: str = impl
        self._now: int = 0
        self._queue = factory()
        self._seq: int = 0
        self._running = False
        self._stop_requested = False
        #: The ``until`` bound of the active :meth:`run` call (None when
        #: open-ended or idle). Batched components (:mod:`repro.hw.burst`)
        #: read it to avoid advancing state past the run horizon.
        self._run_until: Optional[int] = None
        self.events_processed: int = 0
        #: The armed :class:`repro.telemetry.Tracer` and the kernel
        #: hooks it supplies: raw C-level ``deque.append`` methods, so
        #: an armed trace costs one append per fired event and one
        #: small tuple per scheduled event — cheap enough to stay on
        #: under line-rate workloads, where burst lanes stay eligible.
        #: Unarmed, each hot path pays one None check.
        self._tracer: Optional[Any] = None
        self._trace_sched: Optional[Callable[[Any], None]] = None
        self._trace_fire: Optional[Callable[[Any], None]] = None
        #: Armed :class:`repro.obs.SpanRecorder`, or None. Instrumented
        #: components read this directly (``spans = sim.spans``) so the
        #: disarmed datapath pays one attribute load + None check.
        self.spans: Optional[Any] = None
        #: Armed :class:`repro.telemetry.WaveformRecorder`, or None.
        #: Same pattern as ``spans``: probe sites read ``sim.waves`` and
        #: skip on None. Like spans, an armed recorder makes
        #: burst-datapath lanes fall back to the per-packet path, whose
        #: probes are the one producer of waveforms (see
        #: :mod:`repro.hw.burst`).
        self.waves: Optional[Any] = None
        #: Number of attached closed-loop traffic sources (flow
        #: transports — see :mod:`repro.flows`). The burst-datapath
        #: eligibility audit reads this: closed-loop traffic reacts to
        #: every delivery, so batched window advancement is unsafe while
        #: any source is attached.
        self._closed_loop_sources: int = 0
        #: The armed :class:`repro.obs.SimProfiler` and its cached
        #: ``dispatch``: when set, the run loop routes
        #: ``event.callback(*args)`` through it for wall-clock
        #: attribution.
        self._profiler: Optional[Any] = None
        self._profile_dispatch: Optional[Callable[[Any], None]] = None
        global _CURRENT_SIM
        _CURRENT_SIM = weakref.ref(self)
        if _CREATION_HOOKS:
            for hook in list(_CREATION_HOOKS):
                hook(self)

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    # -- observability slots -----------------------------------------------

    @property
    def tracer(self) -> Optional[Any]:
        """The armed telemetry tracer, if any (see ``Tracer.arm``)."""
        return self._tracer

    @property
    def profiler(self) -> Optional[Any]:
        """The armed dispatch profiler, if any (see ``SimProfiler.arm``).

        While armed, every fired event is dispatched through
        ``profiler.dispatch(event)`` instead of calling
        ``event.callback(*event.args)`` directly. Arming takes effect on
        the next :meth:`run` call (the loop binds the hook on entry).
        """
        return self._profiler

    @property
    def events_scheduled(self) -> int:
        """Total events ever created on this simulator."""
        return self._seq

    # -- scheduling ------------------------------------------------------

    def call_at(
        self,
        time_ps: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ps``.

        ``daemon=True`` marks background housekeeping (periodic clock
        ticks, stats snapshots): an open-ended :meth:`run` stops once
        only daemon events remain.
        """
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ps} ps; now is {self._now} ps"
            )
        self._seq += 1
        event = Event(time_ps, priority, self._seq, callback, args, daemon=daemon)
        self._queue.push(event)
        trace = self._trace_sched
        if trace is not None:
            trace((self._now, event))
        return event

    def call_after(
        self,
        delay_ps: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback(*args)`` after a relative delay.

        This is the hardware models' hot path (everything schedules at
        ``now + wire_time``), so it inlines :meth:`call_at` rather than
        delegating — one Python frame per scheduled event, not two.
        """
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        self._seq = seq = self._seq + 1
        event = Event(self._now + delay_ps, priority, seq, callback, args, daemon)
        self._queue.push(event)
        trace = self._trace_sched
        if trace is not None:
            trace((self._now, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event scheduled on this simulator.

        Idempotent: cancelling the same event again is a no-op (the
        queue's live accounting is adjusted exactly once, so repeated
        cancels cannot drain an open-ended :meth:`run` early).
        Cancelling an event that already fired raises
        :class:`SimulationError`.
        """
        event.cancel()

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is an absolute simulated time; when given, the clock is
        advanced to exactly ``until`` even if the queue drains earlier.
        Returns the number of events processed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until} ps; now is {self._now} ps"
            )
        self._running = True
        self._stop_requested = False
        self._run_until = until
        queue = self._queue
        peek_time = queue.peek_time
        pop = queue.pop
        profile = self._profile_dispatch
        fired = 0
        try:
            # One Python frame per fired event, with the queue methods
            # pre-bound. The ``fired != max_events`` form also covers
            # max_events=None (never equal), keeping that check to a
            # single compare.
            while not self._stop_requested and fired != max_events:
                next_time = peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                # Open-ended runs stop when only daemon housekeeping
                # (e.g. GPS pulse-per-second ticks) remains. Reads the
                # counter, not the live_foreground property: a Python
                # property costs a frame per dispatched event here.
                if until is None and queue._live_foreground == 0:
                    break
                event = pop()
                self._now = event.time
                event.fired = True
                self.events_processed += 1
                trace = self._trace_fire
                if trace is not None:
                    trace(event)
                if profile is None:
                    event.callback(*event.args)
                else:
                    profile(event)
                fired += 1
        finally:
            self._running = False
            self._run_until = None
        if until is not None and not self._stop_requested:
            self._now = max(self._now, until)
        return fired

    def run_for(self, duration_ps: int, max_events: Optional[int] = None) -> int:
        """Run for a relative duration of simulated time."""
        return self.run(until=self._now + duration_ps, max_events=max_events)

    def stop(self) -> None:
        """Request that the current :meth:`run` loop stop after this event."""
        self._stop_requested = True

    def pending_events(self) -> int:
        """Number of live (non-cancelled, unfired) events."""
        return len(self._queue)

    def queue_stats(self) -> dict:
        """Event-queue introspection (impl name, live/dead/resident)."""
        return self._queue.debug_stats()
