"""Packet-lifecycle spans: the causal record of one frame's journey.

The paper's tester correlates per-packet cause and effect by embedding a
64-bit timestamp just before the TX MAC and extracting it at capture.
:class:`SpanRecorder` lifts that correlation trick into the simulation's
observability plane: when armed on a :class:`~repro.sim.Simulator`, the
instrumented datapaths report hop events —

    generator → tx_stamp → mac_tx → (fault actions) → mac_rx
              → switch / flow table → rx_capture → host

— into per-packet :class:`PacketSpan` records. Correlation across the
device under test uses two keys, exactly mirroring the hardware:

* the Python-side ``packet_id`` while the same :class:`~repro.net.packet.
  Packet` object travels (tester-internal hops);
* the **raw embedded TX stamp** once the DUT re-emits a *fresh* frame
  object (a real switch outputs a new signal, not the tester's packet
  instance) — :meth:`SpanRecorder.lookup` falls back to extracting the
  stamp bytes and aliases the new ``packet_id`` onto the span.

Disarmed cost is one attribute load + None check per hop site (the same
pattern the kernel tracer uses). Spans never mutate packets, never
schedule events and never touch RNG streams, so arming/disarming leaves
every scenario result bit-identical — the determinism guard in
``tests/test_obs.py`` asserts exactly that.

Exports: Chrome ``trace_event`` JSON (nested begin/end pairs per span,
loadable in Perfetto next to the kernel tracer's instants — see
:func:`repro.telemetry.chrome_trace`) and a per-packet JSONL "packet
story" table (:meth:`SpanRecorder.stories_jsonl`).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ConfigError
from ..hw.timestamp import STAMP_OFFSET, read_stamp
from ..net.packet import Packet
from ..sim.kernel import _Recorder

#: Bound on live spans: beyond this the oldest span (and its index
#: entries) is evicted, like the tracer's ring buffer.
DEFAULT_SPAN_CAPACITY = 1 << 14

#: Fault actions that end a packet's life on the wire: the span is
#: closed with outcome ``fault_<action>`` when one touches it.
_TERMINAL_FAULT_ACTIONS = frozenset({"drop", "corrupt"})


class PacketSpan:
    """One packet's recorded lifecycle: hops, fault actions, outcome."""

    __slots__ = (
        "span_id",
        "packet_ids",
        "origin",
        "born_ps",
        "tx_stamp_raw",
        "hops",
        "faults",
        "closed",
        "outcome",
    )

    def __init__(self, span_id: int, packet_id: int, origin: str, born_ps: int) -> None:
        self.span_id = span_id
        #: Every Packet identity this span travelled as (DUTs re-emit
        #: fresh frame objects; stamp-based lookup aliases them here).
        self.packet_ids: List[int] = [packet_id]
        self.origin = origin
        self.born_ps = born_ps
        self.tx_stamp_raw: Optional[int] = None
        #: ``(time_ps, hop_name, detail_or_None)`` in recording order.
        self.hops: List[Tuple[int, str, Optional[dict]]] = []
        #: ``(time_ps, fault_name, action)`` for fault actions that
        #: touched this packet.
        self.faults: List[Tuple[int, str, str]] = []
        self.closed = False
        self.outcome: Optional[str] = None

    @property
    def end_ps(self) -> int:
        """Time of the last recorded hop (``born_ps`` when none)."""
        return self.hops[-1][0] if self.hops else self.born_ps

    def as_story(self) -> Dict[str, Any]:
        """This span as one plain-JSON "packet story" row."""
        return {
            "span": self.span_id,
            "packet_ids": list(self.packet_ids),
            "origin": self.origin,
            "born_ps": self.born_ps,
            "end_ps": self.end_ps,
            "tx_stamp_raw": self.tx_stamp_raw,
            "outcome": self.outcome if self.outcome is not None else "open",
            "hops": [
                {"t_ps": t, "hop": name, **({"detail": detail} if detail else {})}
                for t, name, detail in self.hops
            ],
            "faults": [
                {"t_ps": t, "fault": fault, "action": action}
                for t, fault, action in self.faults
            ],
        }


class SpanRecorder(_Recorder):
    """Records :class:`PacketSpan` lifecycles while armed on a simulator.

    >>> spans = SpanRecorder().arm(sim)
    >>> ...run the workload...
    >>> spans.disarm()
    >>> spans.write_stories("packets.jsonl")

    ``sample_one_in=N`` keeps every Nth generated packet (a deterministic
    modulo counter, never RNG — sampling must not perturb seeded
    streams). Capacity is bounded; the oldest span is evicted when full.
    Both indexes (packet id and raw TX stamp) map straight to the span,
    so recording a hop costs one dict lookup.
    """

    _SLOT = "spans"

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        sample_one_in: int = 1,
        stamp_offset: int = STAMP_OFFSET,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"span capacity must be >= 1, got {capacity}")
        if sample_one_in < 1:
            raise ConfigError(f"sample_one_in must be >= 1, got {sample_one_in}")
        if stamp_offset < 0:
            raise ConfigError(f"stamp_offset must be >= 0, got {stamp_offset}")
        self.capacity = capacity
        self.sample_one_in = sample_one_in
        self.stamp_offset = stamp_offset
        self._spans: deque = deque()  # live spans, oldest first
        self._by_packet: Dict[int, PacketSpan] = {}
        self._by_stamp: Dict[int, PacketSpan] = {}  # raw TX stamp -> span
        self._next_span = 0
        self._sample_tick = 0
        self.started = 0
        self.evicted = 0
        self.stamp_matches = 0
        self._sim = None

    # -- hot-path recording (called only while armed) ----------------------

    def begin(self, time_ps: int, packet: Packet, origin: str) -> Optional[PacketSpan]:
        """Open a span for a freshly generated packet (generator hop)."""
        self._sample_tick += 1
        if self._sample_tick < self.sample_one_in:
            return None
        self._sample_tick = 0
        self._next_span += 1
        span = PacketSpan(self._next_span, packet.packet_id, origin, time_ps)
        if len(self._spans) >= self.capacity:
            self._evict_oldest()
        self._spans.append(span)
        self._by_packet[packet.packet_id] = span
        self.started += 1
        span.hops.append((time_ps, "generator", {"origin": origin}))
        return span

    def _evict_oldest(self) -> None:
        oldest = self._spans.popleft()
        for packet_id in oldest.packet_ids:
            if self._by_packet.get(packet_id) is oldest:
                del self._by_packet[packet_id]
        if self._by_stamp.get(oldest.tx_stamp_raw) is oldest:
            del self._by_stamp[oldest.tx_stamp_raw]
        self.evicted += 1

    def lookup(self, packet: Packet) -> Optional[PacketSpan]:
        """The span this packet belongs to, correlating across the DUT.

        Fast path: the ``packet_id`` index. Fallback: extract the raw
        64-bit TX stamp from the frame bytes — the in-band correlation
        key that survives the DUT re-emitting a fresh frame object —
        and alias this ``packet_id`` onto the matched span.
        """
        span = self._by_packet.get(packet.packet_id)
        if span is None and self._by_stamp:
            # A frame too short to carry a stamp reads None: no span.
            span = self._by_stamp.get(read_stamp(packet.data, self.stamp_offset))
            if span is not None:
                self._by_packet[packet.packet_id] = span
                span.packet_ids.append(packet.packet_id)
                self.stamp_matches += 1
        return span

    def hop(
        self, time_ps: int, packet: Packet, name: str, detail: Optional[dict] = None
    ) -> Optional[PacketSpan]:
        """Record a hop on the packet's span (no-op for unknown packets)."""
        span = self.lookup(packet)
        if span is not None and not span.closed:
            span.hops.append((time_ps, name, detail))
        return span

    def note_tx_stamp(self, time_ps: int, packet: Packet, raw: int) -> None:
        """Register the embedded raw TX stamp as a correlation key.

        Called by the TX timestamper at the instant it embeds the stamp
        — the exact value later extracted at capture, so the index hit
        is exact (the ps→raw conversion is lossy, the raw value is not).
        """
        span = self._by_packet.get(packet.packet_id)
        if span is None or span.closed:
            return
        span.tx_stamp_raw = raw
        self._by_stamp[raw] = span
        span.hops.append((time_ps, "tx_stamp", {"raw": raw}))

    def transfer(
        self,
        time_ps: int,
        packet: Packet,
        clone: Packet,
        name: str,
        detail: Optional[dict] = None,
    ) -> None:
        """Record a hop and alias a re-emitted frame onto the same span.

        Used by DUT models that forward a *fresh* Packet (e.g. the
        legacy switch's egress): the clone inherits the span identity
        even before any stamp-based lookup could match it.
        """
        span = self.lookup(packet)
        if span is None or span.closed:
            return
        span.hops.append((time_ps, name, detail))
        self._by_packet[clone.packet_id] = span
        span.packet_ids.append(clone.packet_id)

    def close(
        self,
        time_ps: int,
        packet: Packet,
        outcome: str,
        name: Optional[str] = None,
        detail: Optional[dict] = None,
    ) -> Optional[PacketSpan]:
        """Record a terminal hop and seal the span with ``outcome``."""
        span = self.lookup(packet)
        if span is None or span.closed:
            return span
        span.hops.append((time_ps, name if name is not None else outcome, detail))
        span.closed = True
        span.outcome = outcome
        return span

    def fault(
        self,
        time_ps: int,
        packet: Packet,
        fault_name: str,
        action: str,
        detail: Optional[dict] = None,
    ) -> None:
        """Record a fault action that touched this packet (from the
        injector); drop-class actions close the span."""
        span = self.lookup(packet)
        if span is None or span.closed:
            return
        span.faults.append((time_ps, fault_name, action))
        span.hops.append((time_ps, f"fault:{fault_name}.{action}", detail or None))
        if action in _TERMINAL_FAULT_ACTIONS:
            span.closed = True
            span.outcome = f"fault_{action}"

    # -- reads -------------------------------------------------------------

    def spans(self) -> List[PacketSpan]:
        """Recorded spans in start order (evicted ones excluded)."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def find_by_stamp(self, raw: int) -> Optional[PacketSpan]:
        return self._by_stamp.get(raw)

    # -- export: packet stories --------------------------------------------

    def stories(self) -> List[Dict[str, Any]]:
        """All spans as plain-JSON story rows, in start order."""
        return [span.as_story() for span in self._spans]

    def stories_jsonl(self) -> str:
        """The story table as JSON Lines (one packet per line)."""
        lines = [json.dumps(story, sort_keys=True) for story in self.stories()]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_stories(self, path: Union[str, Path]) -> int:
        """Write the JSONL story table; returns the number of spans."""
        Path(path).write_text(self.stories_jsonl())
        return len(self._spans)

    # -- export: Chrome trace events ---------------------------------------

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Spans as Chrome ``trace_event`` records (µs timescale).

        Each span gets its own ``tid`` (the span id): an outer ``B``/``E``
        pair covering the whole lifetime, nested ``B``/``E`` pairs for
        each hop-to-hop segment (emitted in stack-valid order), and an
        instant per hop carrying its detail — so one packet reads as one
        collapsible track next to the kernel tracer's events.
        """
        events: List[Dict[str, Any]] = []
        for span in self._spans:
            tid = span.span_id
            outcome = span.outcome if span.outcome is not None else "open"
            start_us = span.born_ps / 1e6
            end_us = span.end_ps / 1e6
            events.append(
                {
                    "name": f"packet span {span.span_id}",
                    "cat": "span",
                    "ph": "B",
                    "ts": start_us,
                    "pid": 0,
                    "tid": tid,
                    "args": {"origin": span.origin, "outcome": outcome},
                }
            )
            hops = span.hops
            for (t0, name0, _d0), (t1, name1, _d1) in zip(hops, hops[1:]):
                events.append(
                    {
                        "name": f"{name0}->{name1}",
                        "cat": "span.segment",
                        "ph": "B",
                        "ts": t0 / 1e6,
                        "pid": 0,
                        "tid": tid,
                    }
                )
                events.append(
                    {
                        "name": f"{name0}->{name1}",
                        "cat": "span.segment",
                        "ph": "E",
                        "ts": t1 / 1e6,
                        "pid": 0,
                        "tid": tid,
                    }
                )
            for t, name, detail in hops:
                event: Dict[str, Any] = {
                    "name": name,
                    "cat": "span.hop",
                    "ph": "i",
                    "s": "t",
                    "ts": t / 1e6,
                    "pid": 0,
                    "tid": tid,
                }
                if detail:
                    event["args"] = dict(detail)
                events.append(event)
            events.append(
                {
                    "name": f"packet span {span.span_id}",
                    "cat": "span",
                    "ph": "E",
                    "ts": end_us,
                    "pid": 0,
                    "tid": tid,
                }
            )
        return events
