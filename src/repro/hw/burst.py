"""The batched (burst) datapath for the generator → monitor hot loop.

The per-packet datapath spends three to four kernel events on every
frame of a line-rate run: the generator's process wake, the TX MAC's
serializer chain event and the link's delivery event. At 14.88 Mpps a
millisecond of simulated traffic is ~45 000 events whose callbacks all
do the same integer arithmetic with different timestamps.

This module replaces that loop with *burst advancement*: one controller
event per work window advances packed scalar state — next wake time,
serializer clear time, FIFO occupancy, parked delivery runs — through
generator scheduling, TX-MAC serialization, link delay and RX delivery
arithmetically, touching the kernel only where ordering is observable.
Full :class:`~repro.net.packet.Packet` objects are never materialized on
an eligible lane. Whatever needs them (capture buffers, spans, waveform
probes, in-band latency, fault hooks, modifiers, TX stamps) makes a lane
fall back to the stock per-packet path, so results stay bit-identical by
construction (proven by tests/test_datapath_equivalence.py). One ordered
rule, :meth:`BurstLane._broken`, names the first broken condition with
one of :data:`FALLBACK_CODES`: the audit keeps it on ``lane.fallback``,
and every later window's recheck raises a
:class:`~repro.errors.SimulationError` naming it. The tracer
(``sim.tracer``) reads no packets, so it stays on the fast path and
records the controller events an eligible lane actually runs.

Constant-gap schedules and exactly periodic trains that never queue
advance in closed form, through one body that each feeds only its
timeline of frame starts. Any other schedule (Poisson gaps, scripted
gaps, FIFO-saturating loads) takes the serial lane, whose only per-frame
work is the gap draw and a few integer comparisons: the TX FIFO is the
Lindley recursion ``start_k = max(push_k, clear_{k-1})``, the deliveries
of one busy period form one parked run, and counters move once per
window.

Selection follows the ``REPRO_EVENT_QUEUE`` precedent: the
``REPRO_DATAPATH`` environment variable or the ``datapath=`` argument
of :class:`~repro.osnt.generator.engine.PortGenerator` picks
``"packet"`` or ``"burst"``.

Correctness rules the controller honours:

* **Window = inter-event gap.** A work window never crosses the next
  queued kernel event (daemon rate ticks, GPS pulses, other processes)
  or the active ``run(until=)`` bound, so no callback can observe
  counters mid-window and oscillator anchors are constant within one.
* **RX counters are parked.** Deliveries landing at or beyond the
  window edge are held and applied after the boundary events fire —
  the same order the per-packet path produces, where a rate tick
  (scheduled an interval earlier, lower seq) beats a same-time delivery.
* **Exact-time duties fire exactly.** The generator's finish (which
  fires its ``done`` signal and stamps ``finished_at_ps``) and the final
  trailing MAC/delivery time each get a dedicated controller firing at
  that precise simulated time, keeping ``sim.now`` at run end identical
  to the per-packet datapath. After ``stop()`` that includes the killed
  generator's next wake, which the per-packet path leaves queued.
* **Same-time ties follow the kernel's order.** When a generator wake
  and the TX MAC's chain event fall at one time, the event scheduled
  first runs first (see :meth:`BurstLane._emit_serial`).
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from typing import Optional

from ..errors import ConfigError, SimulationError

#: Selectable datapath implementations (see module docstring). Burst is
#: the default (like the timing-wheel event queue); ``REPRO_DATAPATH=packet``
#: is the escape hatch back to the stock per-packet processes.
DATAPATH_IMPLS = ("packet", "burst")
DEFAULT_DATAPATH_IMPL = "burst"

#: Why a lane runs per packet, in the order :meth:`BurstLane._broken`
#: checks. The ``*_swapped`` codes and ``limit_changed`` apply only to an
#: engaged lane and ``mac_busy`` only to its audit.
FALLBACK_CODES = (
    "spans", "waves", "closed_loop",  # the simulator
    "schedule_swapped", "source_swapped", "source_kind", "template_swapped",
    "modifiers", "limit_changed", "no_limit", "timestamper",  # the generator
    "unconnected", "mac_busy", "impairment",  # the port and its link
    "peer_not_capture", "capture_enabled", "latency",  # the far end
)

_INF = math.inf


@functools.cache
def _lane_kinds():
    """The lane's source and sink classes (their packages import this one)."""
    from ..osnt.generator.source import TemplateSource
    from ..osnt.monitor.capture import CapturePipeline

    return TemplateSource, CapturePipeline


def resolve_datapath(explicit: Optional[str] = None) -> str:
    """Pick the datapath implementation: argument, env var, default."""
    impl = explicit or os.environ.get("REPRO_DATAPATH") or DEFAULT_DATAPATH_IMPL
    if impl not in DATAPATH_IMPLS:
        raise ConfigError(
            f"unknown datapath {impl!r}; choose from {sorted(DATAPATH_IMPLS)}"
        )
    return impl


def attach_lane(engine) -> "BurstLane":
    """Register a started generator with its simulator's burst controller."""
    sim = engine.sim
    controller = getattr(sim, "_burst_controller", None)
    if controller is None:
        controller = BurstController(sim)
        sim._burst_controller = controller
    lane = BurstLane(controller, engine)
    controller.register(lane)
    return lane


class BurstController:
    """One foreground kernel event serving every burst lane of one sim.

    The controller keeps at most one pending event. Each firing defers
    to any other same-time events (rescheduling itself with a fresh,
    maximal sequence number — exactly how the per-packet path's events,
    scheduled later than long-standing daemon ticks, order after them),
    performs exact-time duties, then advances every lane to the next
    kernel event's time.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.lanes: list = []
        self._event = None

    def register(self, lane: "BurstLane") -> None:
        self.lanes.append(lane)
        self.wake_at(self.sim.now)

    def wake_at(self, time_ps: int) -> None:
        """Ensure a firing no later than ``time_ps``."""
        event = self._event
        if event is not None and not event.fired:
            if event.time <= time_ps:
                return
            self.sim.cancel(event)
        self._event = self.sim.call_at(time_ps, self._fire)

    def _fire(self) -> None:
        self._event = None
        sim = self.sim
        now = sim.now
        queue = sim._queue
        # Defer: events already queued at this instant carry lower
        # sequence numbers than this firing would have given any work
        # scheduled now, so they go first — then we resume at the same
        # time. Terminates because boundary events do not re-arm
        # themselves at their own firing time.
        if queue.peek_time() == now:
            self._event = sim.call_at(now, self._fire)
            return
        for lane in self.lanes:
            if lane.pending_finish_at == now:
                lane.finish(now)
        if queue.peek_time() == now:
            # finish() fired done signals whose waiters woke at `now`;
            # let them run before batching further work.
            self._event = sim.call_at(now, self._fire)
            return
        horizon = queue.peek_time()
        limit = _INF if horizon is None else horizon
        until = sim._run_until
        if until is not None and until + 1 < limit:
            limit = until + 1
        need = _INF
        active = []
        for lane in self.lanes:
            lane.advance(limit)
            if lane.complete:
                continue
            active.append(lane)
            t = lane.next_required(limit)
            if t < need:
                need = t
        self.lanes = active
        if active and need != _INF:
            self._event = sim.call_at(int(need), self._fire)


class BurstLane:
    """Arithmetic emulation of one generator → TX MAC → link → RX path.

    Eligibility is audited at the first controller firing; ineligible
    lanes record why on :attr:`fallback` and spawn the stock per-packet
    process instead (in registration order, preserving the packet
    datapath's scheduling order). The same rule is re-checked every
    window; a mid-run violation (e.g. host capture, latency or a
    waveform recorder armed while a lane is active) fails loudly rather
    than silently dropping observations.
    """

    def __init__(self, controller: BurstController, engine) -> None:
        self.controller = controller
        self.sim = engine.sim
        self.engine = engine
        self.audited = False
        self.complete = False
        self.emitting = True
        self.finished = False
        self.pending_finish_at: Optional[int] = None
        self.tx = None
        #: The audit's verdict: the first broken condition's code from
        #: :data:`FALLBACK_CODES`, or None when the lane engaged.
        self.fallback: Optional[str] = None

    # -- eligibility -------------------------------------------------------

    def _broken(self) -> Optional[str]:
        """The code of the first broken lane condition, or None.

        The audit applies it before the lane engages (``self.tx`` is None)
        and each window's recheck after, when the generator must also keep
        the schedule, source, template and limits the lane read. Generator-side
        conditions lapse once emission ends: a finished engine may be
        reconfigured while its old lane drains.
        """
        TemplateSource, CapturePipeline = _lane_kinds()
        sim = self.sim
        engine = self.engine
        port = engine.port
        tx = port.tx
        link = port.link
        engaged = self.tx is not None
        if sim.spans is not None:
            return "spans"
        if sim.waves is not None:
            return "waves"
        # Closed-loop sources (repro.flows transports) react to every
        # delivery; batched window advancement is unsafe anywhere in the
        # same simulation.
        if sim._closed_loop_sources:
            return "closed_loop"
        if self.emitting:
            source = engine.source
            if engaged and engine.schedule is not self.schedule:
                return "schedule_swapped"
            if engaged and source is not self.source:
                return "source_swapped"
            if type(source) is not TemplateSource:
                return "source_kind"
            if engaged and (
                source.template is not self.template
                or self.template.data is not self.data
            ):
                return "template_swapped"
            if source.modifiers:
                return "modifiers"
            limits = (engine.limit_count, engine.limit_duration_ps, source.count)
            if engaged and limits != self.limits:
                return "limit_changed"
            if limits == (None, None, None):
                return "no_limit"
            stamper = engine.timestamper
            if tx.on_start_of_frame is not stamper or stamper.enabled:
                return "timestamper"
        if link is None or tx._deliver is None:
            return "unconnected"
        if not engaged and (tx._busy or not tx.fifo.is_empty):
            return "mac_busy"
        if link._impairments or link.bit_error_rate:
            return "impairment"
        sinks = link.peer_of(port).rx._sinks
        sink = sinks[0] if len(sinks) == 1 else None
        pipeline = getattr(sink, "__self__", None)
        if (
            not isinstance(pipeline, CapturePipeline)
            or getattr(sink, "__func__", None) is not CapturePipeline._on_frame
        ):
            return "peer_not_capture"
        if pipeline.enabled:
            return "capture_enabled"
        # In-band latency (per port or per flow) reads each frame's TX
        # stamp, which a lane's frames never carry.
        if pipeline._latency_offset is not None:
            return "latency"
        return None

    def _audit(self) -> bool:
        """Engage the lane if no condition is broken; else name the first."""
        engine = self.engine
        port = engine.port
        tx = port.tx
        if tx._burst_lane is not None:
            raise SimulationError(
                f"generator {engine.name!r} restarted while a previous burst "
                "lane is still draining its MAC; run with REPRO_DATAPATH=packet"
            )
        self.fallback = self._broken()
        if self.fallback is not None:
            return False

        source = engine.source
        self.tx = tx
        self.fifo = tx.fifo
        self.rx = port.link.peer_of(port).rx
        self.pipeline = self.rx._sinks[0].__self__
        self.source = source
        self.template = source.template
        self.data = source.template.data
        # Packet.frame_length semantics: FCS included, sub-minimum
        # frames padded to 64 — the value every stock counter records.
        self.flen = max(len(self.data) + 4, 64)
        self.serialize, self.slot, self.fwb = tx.wire_times[self.flen]
        self.dconst = self.serialize + tx._delivery_delay_ps
        self.capacity = tx.fifo.capacity_bytes
        self.schedule = engine.schedule
        self.limits = (engine.limit_count, engine.limit_duration_ps, source.count)
        counts = [c for c in (engine.limit_count, source.count) if c is not None]
        self.max_count = min(counts) if counts else None
        now = self.sim.now
        duration = engine.limit_duration_ps
        self.deadline = None if duration is None else now + duration
        self.index = 0
        self.next_wake = now + self.schedule.initial_gap()
        # The TX FIFO: ``queued`` frames wait and start back to back from
        # ``clear``, the end of the serializer's current slot (-1: never
        # busy). The serial lane also keeps the previous generator step's
        # time and the last start that ran after a step at its own time.
        self.queued = 0
        self.clear = -1
        self.prev_step = now
        self.late = -1
        self.parked: deque = deque()  # (first_d, count, stride) runs
        self.last_event_time = now
        # Closed-form windows need a timeline on which no frame can ever
        # queue (every start-to-start spacing covers the wire slot) or
        # tail-drop. An exactly periodic schedule publishes its
        # (n, intra, period); a train of one-frame bursts, which is what
        # a constant gap publishes, is the O(1) bulk path.
        self.bulk_gap = self.train = None
        self.t0 = self.next_wake  # the first step: any lane's first start
        profile = self.schedule.train_profile(self.flen)
        if profile is not None and self.flen <= self.capacity:
            n, intra, period = profile
            if n >= 1 and intra >= self.slot and period - (n - 1) * intra >= self.slot:
                if n == 1:
                    self.bulk_gap = period
                else:
                    self.train = (int(n), int(intra), int(period))
        engine.stats.started_at_ps = now
        tx._burst_lane = self
        return True

    def _recheck(self) -> None:
        code = self._broken()
        if code is not None:
            raise SimulationError(
                f"generator {self.engine.name!r}: burst-datapath lane broken by "
                f"{code!r} while active (configure spans, waveforms, capture, "
                "latency, faults, flow transports and the generator before "
                "start, or run with REPRO_DATAPATH=packet)"
            )

    def _run_per_packet(self) -> None:
        from ..sim import spawn

        engine = self.engine
        engine._burst_lane = None
        self.complete = True
        self.emitting = False
        engine._process = spawn(engine.sim, engine._run(), name=engine.name)

    # -- window advancement ------------------------------------------------

    def advance(self, limit) -> None:
        """Process all lane work strictly before ``limit``."""
        if self.complete:
            return
        if not self.audited:
            self.audited = True
            if not self._audit():
                self._run_per_packet()
                return
        else:
            self._recheck()
        if self.emitting:
            self._emit(limit)
        work_limit = limit
        if self.pending_finish_at is not None:
            # Until the finish fires (at its exact time), stay at or
            # before it: a woken waiter must not observe later work.
            work_limit = min(work_limit, self.pending_finish_at + 1)
        self._drain_starts(work_limit - 1)
        self._apply_deliveries(work_limit)
        if (
            self.finished
            and not self.queued
            and not self.parked
            and self.sim.now >= self.last_event_time
        ):
            self.complete = True
            if self.tx is not None and self.tx._burst_lane is self:
                self.tx._burst_lane = None

    def next_required(self, limit):
        """Earliest time this lane needs a controller firing."""
        if self.pending_finish_at is not None:
            return min(limit, self.pending_finish_at)
        if self.finished and not self.queued and not self.parked:
            # One final (no-op) firing keeps sim.now's end-of-run value
            # identical to the trailing chain/delivery events of the
            # per-packet path.
            return self.last_event_time
        return limit

    def _emit(self, limit) -> None:
        """Emit every frame the generator steps strictly before ``limit``."""
        if self.bulk_gap is not None:
            self._emit_bulk(limit)
        elif self.train is not None:
            self._emit_train(limit)
        else:
            self._emit_serial(limit)

    def _emit_serial(self, limit) -> None:
        """Per-frame emission: any schedule, queueing and drops allowed.

        The TX FIFO is a Lindley recursion, ``start_k = max(push_k,
        clear_{k-1})``: waiting frames start back to back from ``clear``,
        so a step drains the backlog in O(1). A frame's delivery time is
        fixed when it is pushed, and the deliveries of one busy period
        form one parked run. Counters are applied once per window.
        """
        w = self.next_wake
        index = index0 = self.index
        flen = self.flen
        slot = self.slot
        dconst = self.dconst
        stop_index = _INF if self.max_count is None else self.max_count
        stop_w = limit if self.deadline is None else min(limit, self.deadline)
        gap_after = self.schedule.gap_after
        room = self.capacity // flen
        queued = q0 = self.queued
        clear = self.clear
        prev = self.prev_step
        late = self.late
        parked = self.parked
        # The open delivery run ends at the last accepted frame's
        # delivery, one slot before ``clear + queued * slot + dconst``.
        d0, n = parked.pop()[:2] if parked else (clear + queued * slot + dconst, 0)
        dropped = peak = 0
        fresh = True  # w is a new generator step, not a zero-gap push
        while w < stop_w and index < stop_index:
            if fresh:
                # A start (or idle) due at w comes from the chain event
                # that the start at w - slot scheduled. It runs before
                # this step iff it was scheduled first: before the
                # previous step, or within it, unless that start itself
                # ran after the previous step at the same time.
                s = w - slot
                due = w if s < prev or (s == prev and late != prev) else w - 1
                if queued and clear <= due:
                    m = (due - clear) // slot + 1
                    if m > queued:
                        m = queued
                    queued -= m
                    clear += m * slot
            if queued >= room:
                dropped += 1
            elif queued or clear > due:
                queued += 1
                if queued > peak:
                    peak = queued
                n += 1
            else:
                # The frame finds the serializer idle and starts now; its
                # delivery opens a new run unless the last slot ends now.
                if w != clear:
                    if n:
                        parked.append((d0, n, slot))
                    d0, n = w + dconst, 0
                n += 1
                clear = w + slot
            index += 1
            gap = gap_after(flen)
            fresh = gap > 0
            if fresh:
                if queued and clear == w:
                    late = w  # the head starts after this step
                prev = w
                w += gap
        if w < limit:
            # Count or deadline reached: this wake is the finishing one.
            self._begin_finish(w)
        if n:
            parked.append((d0, n, slot))
        self.index = index
        self.next_wake = w
        self.queued = queued
        self.clear = clear
        self.prev_step = prev
        self.late = late
        sent = index - index0 - dropped
        started = sent + q0 - queued
        if started:
            # The first start matters only for the MAC's first frame,
            # which is this lane's first push.
            self._note_starts(started, self.t0, clear - slot)
        if sent:
            self._note_sent(sent, max(peak, 1) * flen)
            tail = clear + queued * slot
            end = max(tail, tail - slot + dconst)
            if end > self.last_event_time:
                self.last_event_time = end
        if dropped:
            self.fifo.dropped += dropped
            self.tx.stats.drops_overflow += dropped
            self.engine.stats.tx_fifo_drops += dropped
        self.fifo.occupancy_bytes = queued * flen

    # -- closed-form emission ----------------------------------------------

    def _emit_bulk(self, limit) -> None:
        """O(1) emission for constant-gap, never-queueing schedules."""
        gap = self.bulk_gap
        t0 = self.t0
        dconst = self.dconst

        def before(t):
            return 0 if t <= t0 else (t - 1 - t0) // gap + 1

        def start(k):
            return t0 + k * gap

        def runs(first, last):
            return ((start(first) + dconst, last - first + 1, gap),)

        self._emit_closed(limit, before, start, runs)

    def _emit_train(self, limit) -> None:
        """O(bursts) emission for exactly periodic, never-queueing trains."""
        n, intra, period = self.train
        t0 = self.t0
        dconst = self.dconst

        def before(t):
            if t <= t0:
                return 0
            full, rem = divmod(t - 1 - t0, period)
            return full * n + min(n, rem // intra + 1)

        def start(k):
            full, pos = divmod(k, n)
            return t0 + full * period + pos * intra

        def runs(first, last):
            # One parked delivery run per (partial) burst: constant
            # intra-burst stride, arbitrary inter-burst spacing.
            for burst in range(first // n, last // n + 1):
                lo = max(first, burst * n)
                hi = min(last, burst * n + n - 1)
                d0 = t0 + burst * period + (lo - burst * n) * intra + dconst
                yield d0, hi - lo + 1, intra

        self._emit_closed(limit, before, start, runs)

    def _emit_closed(self, limit, before, start, runs) -> None:
        """Emission along a timeline on which no frame queues or drops:
        ``before(t)`` counts the frames that start before ``t``,
        ``start(k)`` is frame ``k``'s start (the next wake is frame
        ``index``'s) and ``runs(first, last)`` yields the parked delivery
        runs of frames ``first`` to ``last``."""
        i = self.index
        remaining = _INF if self.max_count is None else self.max_count - i
        if self.deadline is not None:
            remaining = min(remaining, before(self.deadline) - i)
        in_window = _INF if limit == _INF else before(limit) - i
        m = int(min(remaining, in_window))
        if m > 0:
            last = i + m - 1
            s_last = start(last)
            self._note_sent(m, self.flen)
            self._note_starts(m, self.next_wake, s_last)
            self.clear = s_last + self.slot
            self.parked.extend(runs(i, last))
            self.last_event_time = max(
                self.last_event_time, self.clear, s_last + self.dconst
            )
            self.index = last + 1
            self.next_wake = start(last + 1)
        if m == remaining:
            # Count or deadline reached: the next wake is the finishing one.
            self._begin_finish(self.next_wake)

    def _begin_finish(self, wake: int) -> None:
        self.pending_finish_at = wake
        self.emitting = False

    def _note_sent(self, n: int, peak_bytes: int) -> None:
        """Generator and FIFO counters for ``n`` accepted pushes."""
        gen_stats = self.engine.stats
        gen_stats.sent += n
        gen_stats.sent_bytes += n * self.flen
        self.engine.tx_sizes.record_repeat(self.flen, n)
        fifo = self.fifo
        fifo.enqueued += n
        if peak_bytes > fifo.peak_occupancy_bytes:
            fifo.peak_occupancy_bytes = peak_bytes

    def _note_starts(self, n: int, first: int, last: int) -> None:
        """TX MAC counters for ``n`` starts from ``first`` to ``last``."""
        txs = self.tx.stats
        txs.packets += n
        txs.bytes += n * self.flen
        txs.wire_bytes += n * self.fwb
        txs.busy_ps += n * self.slot
        if txs.first_activity_ps is None:
            txs.first_activity_ps = first
        txs.last_activity_ps = last

    def _drain_starts(self, t) -> None:
        """Start serialization of queued frames whose start time is <= t."""
        queued = self.queued
        clear = self.clear
        if not queued or clear > t:
            return
        m = (t - clear) // self.slot + 1
        if m > queued:
            m = queued
        self._note_starts(m, clear, clear + (m - 1) * self.slot)
        self.queued = queued = queued - m
        self.clear = clear + m * self.slot
        self.fifo.occupancy_bytes = queued * self.flen

    def _apply_deliveries(self, limit) -> None:
        """Apply RX-side effects for deliveries strictly before ``limit``.

        The RX MAC and monitor counters take one update for all the runs.
        """
        parked = self.parked
        if not parked or parked[0][0] >= limit:
            return
        first = parked[0][0]
        total = 0
        while parked:
            d0, n, stride = parked[0]
            if d0 >= limit:
                break
            parked.popleft()
            last = d0 + (n - 1) * stride
            if last >= limit:
                m = (limit - 1 - d0) // stride + 1
                parked.appendleft((d0 + m * stride, n - m, stride))
                n = m
                last = d0 + (m - 1) * stride
            total += n
        flen = self.flen
        rxs = self.rx.stats
        rxs.packets += total
        rxs.bytes += total * flen
        rxs.wire_bytes += total * self.fwb
        if rxs.first_activity_ps is None:
            rxs.first_activity_ps = first
        rxs.last_activity_ps = last
        mon = self.pipeline.stats
        mon.rx_packets += total
        mon.rx_bytes += total * flen
        if mon.first_rx_ps is None:
            mon.first_rx_ps = first
        mon.last_rx_ps = last

    # -- exact-time duties -------------------------------------------------

    def finish(self, now: int) -> None:
        """Run the generator's finish at its exact simulated time."""
        self._end_emission(now, now)
        engine = self.engine
        if engine._burst_lane is self:
            engine._burst_lane = None
        engine._finish()

    def abort(self) -> None:
        """Stop emitting (engine.stop()); queued frames keep draining."""
        if self.complete:
            return
        if not self.audited:
            # Never advanced: nothing was emitted, nothing to drain.
            self.audited = True
            self.complete = True
            self.emitting = False
            self.finished = True
            return
        now = self.sim.now
        if self.emitting:
            # Emissions at exactly `now` precede the stopping call in the
            # per-packet event order; include them, then cut the stream.
            self._emit(now + 1)
        # The per-packet path kills the generator process but leaves its
        # next wake queued, and that wake still advances the clock.
        self._end_emission(now, max(now, self.next_wake))
        self.controller.wake_at(now)

    def _end_emission(self, now: int, end: int) -> None:
        """Stop emitting at ``now``; the run lasts at least until ``end``.

        Same-time serializer and delivery work precedes the finish (or
        the stopping call) in the per-packet event order; apply it so
        woken waiters see it.
        """
        self.pending_finish_at = None
        self.emitting = False
        if end > self.last_event_time:
            self.last_event_time = end
        self._drain_starts(now)
        self._apply_deliveries(now + 1)
        self.finished = True
