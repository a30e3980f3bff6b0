"""10GbE MAC models.

The transmit MAC serializes one frame at a time at the configured line
rate, accounting for preamble, FCS, minimum-frame padding and the
inter-frame gap — this is where "full line rate regardless of packet
size" becomes a modelled property rather than an assumption. The receive
MAC delivers frames to its sink at last-bit arrival (store-and-forward),
which is also the instant the OSNT monitor timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..net.packet import Packet
from ..sim import Simulator
from ..units import (
    ETH_PREAMBLE_BYTES,
    TEN_GBPS,
    WireTimeTable,
    frame_wire_bytes,
    wire_time_ps,
)


@dataclass
class MacStats:
    """Counters kept by each MAC direction."""

    packets: int = 0
    bytes: int = 0  # frame bytes incl. FCS (what rate maths use)
    #: Padded wire bytes incl. preamble and IFG — the bytes the
    #: serializer actually clocked out. For sub-minimum frames this
    #: disagrees with ``bytes`` (the MAC pads to 64); utilisation maths
    #: must use this counter, not ``bytes``.
    wire_bytes: int = 0
    errors: int = 0
    #: Frames lost to genuine FIFO exhaustion (tail drop under load).
    drops_overflow: int = 0
    #: Frames removed on purpose by a fault model (:mod:`repro.faults`).
    #: Kept apart from ``drops_overflow`` so an injected-loss experiment
    #: can still prove the un-impaired path itself lost nothing.
    drops_injected: int = 0
    #: Time the serializer was busy (TX only), for utilisation maths.
    busy_ps: int = 0
    first_activity_ps: Optional[int] = None
    last_activity_ps: Optional[int] = None

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish these counters as pull gauges under ``prefix``."""
        registry.gauge(f"{prefix}.packets", lambda: self.packets)
        registry.gauge(f"{prefix}.bytes", lambda: self.bytes)
        registry.gauge(f"{prefix}.wire_bytes", lambda: self.wire_bytes)
        registry.gauge(f"{prefix}.errors", lambda: self.errors)
        registry.gauge(f"{prefix}.drops.overflow", lambda: self.drops_overflow)
        registry.gauge(f"{prefix}.drops.injected", lambda: self.drops_injected)
        registry.gauge(f"{prefix}.busy_ps", lambda: self.busy_ps)


def _frame_wire_times(frame_len: int, rate_bps: float) -> Tuple[int, int, int]:
    """(serialize_ps, slot_ps, wire_bytes) of one frame. The last bit leaves
    after preamble + padded frame; the IFG only gates the *next* start."""
    wire_bytes = frame_wire_bytes(frame_len)
    return (
        wire_time_ps(ETH_PREAMBLE_BYTES + max(frame_len, 64), rate_bps),
        wire_time_ps(wire_bytes, rate_bps),
        wire_bytes,
    )


class TxMac:
    """Serializing transmit MAC with a byte-bounded staging FIFO."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "tx",
        rate_bps: float = TEN_GBPS,
        fifo_bytes: int = 512 * 1024,
    ) -> None:
        from .fifo import ByteFifo

        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.fifo = ByteFifo(fifo_bytes, name=f"{name}.fifo")
        self.stats = MacStats()
        self._busy = False
        #: Called with the packet at start of serialization — the point
        #: "just before the transmit MAC" where OSNT embeds timestamps.
        self.on_start_of_frame: Optional[Callable[[Packet], None]] = None
        #: Wired by the Link: (packet) -> None, invoked at last-bit
        #: arrival on the peer (serialization + propagation later).
        self._deliver: Optional[Callable[[Packet], None]] = None
        self._delivery_delay_ps = 0
        #: Set while a burst-datapath lane is emulating this MAC's
        #: serialization arithmetically (see :mod:`repro.hw.burst`).
        #: Foreign enqueues would corrupt that emulation, so they fail
        #: loudly instead of silently interleaving.
        self._burst_lane = None
        #: (recorder, fifo waveform, wire-rate waveform) cache — rebuilt
        #: when a different WaveformRecorder is armed on the simulator.
        self._waves_cache = None

    @property
    def rate_bps(self) -> float:
        """Line rate; assigning it starts a fresh :attr:`wire_times` table."""
        return self.wire_times.rate_bps

    @rate_bps.setter
    def rate_bps(self, rate_bps: float) -> None:
        #: frame length -> (serialize_ps, slot_ps, wire_bytes) at this rate.
        self.wire_times = WireTimeTable(rate_bps, _frame_wire_times)

    def attach_delivery(self, deliver: Callable[[Packet], None], propagation_ps: int) -> None:
        self._deliver = deliver
        self._delivery_delay_ps = propagation_ps

    @property
    def connected(self) -> bool:
        return self._deliver is not None

    def enqueue(self, packet: Packet) -> bool:
        """Stage a frame for transmission; False if the FIFO tail-drops."""
        if self._burst_lane is not None:
            from ..errors import SimulationError

            raise SimulationError(
                f"MAC {self.name!r} is driven by a burst-datapath lane; "
                "per-packet enqueues would corrupt its emulated state "
                "(run with REPRO_DATAPATH=packet)"
            )
        if not self.fifo.push(packet):
            self.stats.drops_overflow += 1
            return False
        waves = self.sim.waves
        if waves is not None:
            cache = self._waves_cache
            if cache is None or cache[0] is not waves:
                cache = self._wave_series(waves)
            cache[1](self.sim.now, self.fifo.occupancy_bytes)
        if not self._busy:
            self._start_next()
        return True

    def _wave_series(self, waves):
        """This MAC's waveform probes under the armed recorder.

        Caches *bound* ``record`` methods: the probes fire per frame,
        so the attribute lookups are paid once per recorder, not once
        per packet.
        """
        cache = self._waves_cache
        if cache is None or cache[0] is not waves:
            cache = self._waves_cache = (
                waves,
                waves.series(f"{self.name}.fifo_bytes", unit="bytes").record,
                waves.rate_series(f"{self.name}.wire_bytes", unit="bytes").record,
            )
        return cache

    def _start_next(self) -> None:
        packet = self.fifo.pop()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        if self.on_start_of_frame is not None:
            self.on_start_of_frame(packet)
        frame_len = packet.frame_length
        serialize_ps, slot_ps, wire_bytes = self.wire_times[frame_len]
        now = self.sim.now
        stats = self.stats
        stats.packets += 1
        stats.bytes += frame_len
        stats.wire_bytes += wire_bytes
        stats.busy_ps += slot_ps
        if stats.first_activity_ps is None:
            stats.first_activity_ps = now
        stats.last_activity_ps = now
        waves = self.sim.waves
        if waves is not None:
            cache = self._waves_cache
            if cache is None or cache[0] is not waves:
                cache = self._wave_series(waves)
            cache[1](now, self.fifo.occupancy_bytes)
            cache[2](now, wire_bytes)
        spans = self.sim.spans
        if spans is not None:
            spans.hop(now, packet, "mac_tx", {"mac": self.name, "bytes": frame_len})
        if self._deliver is not None:
            self.sim.call_after(serialize_ps + self._delivery_delay_ps, self._deliver, packet)
        self.sim.call_after(slot_ps, self._start_next)

    @property
    def idle(self) -> bool:
        return not self._busy and self.fifo.is_empty


class RxMac:
    """Receive MAC: fans a delivered frame out to registered sinks."""

    def __init__(self, sim: Simulator, name: str = "rx") -> None:
        self.sim = sim
        self.name = name
        self.stats = MacStats()
        self._sinks: List[Callable[[Packet], None]] = []
        self._waves_cache = None

    def add_sink(self, sink: Callable[[Packet], None]) -> None:
        """Register a callback invoked at last-bit arrival of each frame."""
        self._sinks.append(sink)

    def receive(self, packet: Packet) -> None:
        now = self.sim.now
        frame_len = packet.frame_length
        wire_bytes = frame_wire_bytes(frame_len)
        stats = self.stats
        stats.packets += 1
        stats.bytes += frame_len
        stats.wire_bytes += wire_bytes
        if stats.first_activity_ps is None:
            stats.first_activity_ps = now
        stats.last_activity_ps = now
        waves = self.sim.waves
        if waves is not None:
            cache = self._waves_cache
            if cache is None or cache[0] is not waves:
                cache = self._waves_cache = (
                    waves,
                    waves.rate_series(f"{self.name}.wire_bytes", unit="bytes").record,
                )
            cache[1](now, wire_bytes)
        spans = self.sim.spans
        if spans is not None:
            spans.hop(now, packet, "mac_rx", {"mac": self.name})
        for sink in self._sinks:
            sink(packet)
