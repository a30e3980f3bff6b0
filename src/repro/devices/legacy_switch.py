"""A legacy (non-OpenFlow) L2 learning switch model — the Part-I DUT.

Store-and-forward: a frame is processed after its last bit arrives, then
spends the switching latency (lookup + fabric) before being queued on
the egress port, whose TX MAC serializes at line rate. Under load the
egress queue grows and latency rises — the "different load conditions"
behaviour the demo measures with OSNT.

Knobs chosen to match typical ToR switches of the era:

* ``switching_latency_ps`` — fixed pipeline latency (default 800 ns);
* ``latency_jitter_ps`` — uniform per-packet fabric jitter;
* ``buffer_bytes_per_port`` — egress buffering (tail drop when full);
* MAC learning with a bounded table and optional aging.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..hw.port import EthernetPort
from ..net.fields import is_multicast_mac, mac_to_str
from ..net.packet import Packet
from ..sim import Simulator
from ..units import TEN_GBPS, ns, seconds


class MacTable:
    """Bounded MAC learning table with optional entry aging."""

    def __init__(self, capacity: int = 16_384, aging_ps: Optional[int] = seconds(300)) -> None:
        if capacity < 1:
            raise ConfigError("MAC table capacity must be positive")
        self.capacity = capacity
        self.aging_ps = aging_ps
        self._entries: Dict[str, Tuple[int, int]] = {}  # mac -> (port, learned_at)
        self.learned = 0
        self.evicted = 0

    def learn(self, mac: str, port: int, now: int) -> None:
        if mac not in self._entries and len(self._entries) >= self.capacity:
            # Evict the oldest entry (hardware uses hash buckets; oldest
            # is a fair stand-in with the same "table full" consequence).
            oldest = min(self._entries, key=lambda m: self._entries[m][1])
            del self._entries[oldest]
            self.evicted += 1
        if mac not in self._entries:
            self.learned += 1
        self._entries[mac] = (port, now)

    def lookup(self, mac: str, now: int) -> Optional[int]:
        entry = self._entries.get(mac)
        if entry is None:
            return None
        port, learned_at = entry
        if self.aging_ps is not None and now - learned_at > self.aging_ps:
            del self._entries[mac]
            return None
        return port

    def __len__(self) -> int:
        return len(self._entries)


class LegacySwitch:
    """Store-and-forward L2 learning switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "sw",
        num_ports: int = 4,
        port_rate_bps: float = TEN_GBPS,
        switching_latency_ps: int = ns(800),
        latency_jitter_ps: int = ns(50),
        buffer_bytes_per_port: int = 128 * 1024,
        mac_table_capacity: int = 16_384,
        fabric_rate_bps: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if num_ports < 2:
            raise ConfigError("a switch needs at least two ports")
        if switching_latency_ps < 0 or latency_jitter_ps < 0:
            raise ConfigError("latencies must be non-negative")
        if fabric_rate_bps is not None and fabric_rate_bps <= 0:
            raise ConfigError("fabric rate must be positive")
        self.sim = sim
        self.name = name
        self.switching_latency_ps = switching_latency_ps
        self.latency_jitter_ps = latency_jitter_ps
        #: Aggregate forwarding capacity. ``None`` = non-blocking fabric;
        #: a value below num_ports x line rate models an oversubscribed
        #: switch, whose achievable bandwidth RFC 2544 searches find.
        self.fabric_rate_bps = fabric_rate_bps
        self.fabric_buffer_bytes = buffer_bytes_per_port
        self._fabric_clear_ps = 0
        self._fabric_backlog_bytes = 0
        self._rng = rng or random.Random(0)
        self.mac_table = MacTable(capacity=mac_table_capacity)
        self.ports: List[EthernetPort] = []
        for index in range(num_ports):
            port = EthernetPort(
                sim,
                f"{name}.p{index}",
                rate_bps=port_rate_bps,
                tx_fifo_bytes=buffer_bytes_per_port,
            )
            port.add_rx_sink(self._make_rx_handler(index))
            self.ports.append(port)
        # Counters.
        self.forwarded = 0
        self.flooded = 0
        self.dropped_no_buffer = 0
        self.dropped_same_port = 0
        self.dropped_fabric = 0
        # Header-decode memo: first 12 wire bytes -> (dst_mac, src_mac,
        # is_multicast). Pure string formatting of immutable bytes, so
        # entries never go stale; the dict is merely bounded.
        self._hdr_cache: Dict[bytes, Tuple[str, str, bool]] = {}

    def port(self, index: int) -> EthernetPort:
        return self.ports[index]

    def _make_rx_handler(self, port_index: int):
        def handler(packet: Packet) -> None:
            self._ingress(packet, port_index)

        return handler

    def _ingress(self, packet: Packet, in_port: int) -> None:
        delay = self.switching_latency_ps
        if self.latency_jitter_ps:
            delay += self._rng.randint(0, self.latency_jitter_ps)
        if self.fabric_rate_bps is not None:
            # The shared fabric serialises frames at its aggregate rate.
            # Its input buffering is bounded: above capacity the backlog
            # fills and frames tail-drop, which is what an RFC 2544
            # search detects as the achievable bandwidth.
            from ..units import wire_time_ps

            frame_bytes = packet.frame_length
            if self._fabric_backlog_bytes + frame_bytes > self.fabric_buffer_bytes:
                self.dropped_fabric += 1
                return
            self._fabric_backlog_bytes += frame_bytes
            crossing = wire_time_ps(frame_bytes, self.fabric_rate_bps)
            start = max(self.sim.now + delay, self._fabric_clear_ps)
            self._fabric_clear_ps = start + crossing
            delay = (start + crossing) - self.sim.now
            self.sim.call_after(delay, self._fabric_release, frame_bytes)
        self.sim.call_after(delay, self._forward, packet, in_port)

    def _fabric_release(self, frame_bytes: int) -> None:
        self._fabric_backlog_bytes -= frame_bytes

    _HDR_CACHE_MAX = 4096

    def _forward(self, packet: Packet, in_port: int) -> None:
        header = packet.data[0:12]
        cached = self._hdr_cache.get(header)
        if cached is None:
            dst_mac = mac_to_str(header[0:6])
            src_mac = mac_to_str(header[6:12])
            cached = (dst_mac, src_mac, is_multicast_mac(dst_mac))
            if len(self._hdr_cache) >= self._HDR_CACHE_MAX:
                self._hdr_cache.clear()
            self._hdr_cache[header] = cached
        dst_mac, src_mac, multicast = cached
        now = self.sim.now
        self.mac_table.learn(src_mac, in_port, now)
        if multicast:
            out_port = None
        else:
            out_port = self.mac_table.lookup(dst_mac, now)
        spans = self.sim.spans
        if spans is not None:
            spans.hop(
                now, packet, "switch_lookup",
                {
                    "switch": self.name,
                    "in_port": in_port,
                    "dst": dst_mac,
                    "out_port": out_port if out_port is not None else "flood",
                },
            )
        if out_port is None:
            self._flood(packet, in_port)
        elif out_port == in_port:
            self.dropped_same_port += 1
            if spans is not None:
                spans.close(now, packet, "switch_drop",
                            detail={"reason": "same_port"})
        else:
            self._emit(packet, out_port)
            self.forwarded += 1

    def _flood(self, packet: Packet, in_port: int) -> None:
        self.flooded += 1
        for index, port in enumerate(self.ports):
            if index != in_port:
                self._emit(packet, index)

    def _emit(self, packet: Packet, out_port: int) -> None:
        # Forward a fresh frame object: the DUT's output is a new signal
        # on the wire, not the tester's packet instance.
        frame = Packet(packet.data)
        spans = self.sim.spans
        if spans is not None:
            # Alias the egress frame onto the ingress packet's span so
            # correlation holds even for frames with no embedded stamp.
            spans.transfer(
                self.sim.now, packet, frame, "switch_emit",
                {"switch": self.name, "out_port": out_port},
            )
        if not self.ports[out_port].send(frame):
            self.dropped_no_buffer += 1
            if spans is not None:
                spans.close(self.sim.now, frame, "switch_drop",
                            detail={"reason": "no_buffer", "out_port": out_port})

    @property
    def egress_drops(self) -> int:
        return self.dropped_no_buffer
