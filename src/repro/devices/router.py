"""An IPv4 router model — a second class of DUT for the tester.

Store-and-forward router: longest-prefix-match FIB lookup (binary trie,
like hardware LPM pipelines), TTL decrement with incremental checksum
update, MAC rewrite on egress, and ICMP Time Exceeded generation. The
lookup latency can scale with the matched prefix depth, so a tester
can observe FIB-dependent forwarding latency (experiment E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigError
from ..hw.port import EthernetPort
from ..net.checksum import internet_checksum
from ..net.ethernet import ETHERTYPE_IPV4
from ..net.fields import ipv4_to_int, mac_to_bytes, mac_to_str, u16
from ..net.ipv4 import Ipv4Header, PROTO_ICMP
from ..net.packet import Packet
from ..net.parser import decode
from ..sim import Simulator
from ..units import TEN_GBPS, ns

ICMP_TIME_EXCEEDED = 11


@dataclass
class Route:
    """One FIB entry: prefix → (egress port, next-hop MAC)."""

    prefix: str
    prefix_len: int
    out_port: int
    next_hop_mac: str

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ConfigError(f"bad prefix length {self.prefix_len}")


class _TrieNode:
    __slots__ = ("children", "route")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.route: Optional[Route] = None


class Fib:
    """Binary-trie longest-prefix-match table."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self.size = 0

    def add(self, route: Route) -> None:
        node = self._root
        address = ipv4_to_int(route.prefix)
        for depth in range(route.prefix_len):
            bit = (address >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if node.route is None:
            self.size += 1
        node.route = route

    def remove(self, prefix: str, prefix_len: int) -> bool:
        node = self._root
        address = ipv4_to_int(prefix)
        for depth in range(prefix_len):
            bit = (address >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return False
        if node.route is None:
            return False
        node.route = None
        self.size -= 1
        return True

    def lookup(self, address: str) -> Tuple[Optional[Route], int]:
        """Best route plus the trie depth walked (for latency models)."""
        value = ipv4_to_int(address)
        node = self._root
        best = node.route
        depth = 0
        walked = 0
        while True:
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            walked += 1
            node = child
            if node.route is not None:
                best = node.route
            depth += 1
            if depth == 32:
                break
        return best, walked


class Router:
    """Store-and-forward IPv4 router with a trie FIB."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "rtr",
        num_ports: int = 4,
        port_rate_bps: float = TEN_GBPS,
        base_latency_ps: int = ns(900),
        per_trie_level_ps: int = ns(12),  # one memory access per level
        interface_mac_base: str = "02:0f:00:00:00:00",
        send_ttl_exceeded: bool = True,
    ) -> None:
        if num_ports < 1:
            raise ConfigError("router needs at least one port")
        self.sim = sim
        self.name = name
        self.base_latency_ps = base_latency_ps
        self.per_trie_level_ps = per_trie_level_ps
        self.send_ttl_exceeded = send_ttl_exceeded
        self.fib = Fib()
        base = int.from_bytes(mac_to_bytes(interface_mac_base), "big")
        self.interface_macs = [
            mac_to_str((base + index + 1).to_bytes(6, "big"))
            for index in range(num_ports)
        ]
        self.interface_ips = [f"10.255.{index}.1" for index in range(num_ports)]
        self.ports: List[EthernetPort] = []
        for index in range(num_ports):
            port = EthernetPort(sim, f"{name}.p{index}", rate_bps=port_rate_bps)
            port.add_rx_sink(self._make_rx_handler(index))
            self.ports.append(port)
        # Counters.
        self.forwarded = 0
        self.no_route = 0
        self.ttl_expired = 0
        self.non_ip_dropped = 0
        self.egress_drops = 0

    def port(self, index: int) -> EthernetPort:
        return self.ports[index]

    def add_route(self, prefix_cidr: str, out_port: int, next_hop_mac: str) -> None:
        """Install a route given ``"a.b.c.d/len"`` CIDR notation."""
        prefix, __, length = prefix_cidr.partition("/")
        self.fib.add(
            Route(
                prefix=prefix,
                prefix_len=int(length) if length else 32,
                out_port=out_port,
                next_hop_mac=next_hop_mac,
            )
        )

    def _make_rx_handler(self, port_index: int):
        def handler(packet: Packet) -> None:
            self._ingress(packet, port_index)

        return handler

    def _ingress(self, packet: Packet, in_port: int) -> None:
        decoded = decode(packet.data)
        if decoded.ipv4 is None:
            self.non_ip_dropped += 1
            return
        route, levels = self.fib.lookup(decoded.ipv4.dst)
        latency = self.base_latency_ps + levels * self.per_trie_level_ps
        self.sim.call_after(latency, self._forward, packet, decoded, route, in_port)

    def _forward(self, packet: Packet, decoded, route: Optional[Route], in_port: int) -> None:
        if route is None:
            self.no_route += 1
            return
        header_offset = 14
        ttl = decoded.ipv4.ttl
        if ttl <= 1:
            self.ttl_expired += 1
            if self.send_ttl_exceeded:
                self._send_time_exceeded(packet, decoded, in_port)
            return
        data = bytearray(packet.data)
        # Rewrite MACs for the next hop.
        data[0:6] = mac_to_bytes(route.next_hop_mac)
        data[6:12] = mac_to_bytes(self.interface_macs[route.out_port])
        # Decrement TTL; update the header checksum incrementally
        # (RFC 1624: HC' = HC + 0x0100 with end-around carry).
        data[header_offset + 8] = ttl - 1
        checksum = int.from_bytes(
            data[header_offset + 10 : header_offset + 12], "big"
        )
        checksum += 0x0100
        checksum = (checksum & 0xFFFF) + (checksum >> 16)
        data[header_offset + 10 : header_offset + 12] = u16(checksum)
        if not self.ports[route.out_port].send(Packet(bytes(data))):
            self.egress_drops += 1
            return
        self.forwarded += 1

    def _send_time_exceeded(self, packet: Packet, decoded, in_port: int) -> None:
        """ICMP type 11 back towards the source, per RFC 792."""
        original = packet.data
        ip_offset = 14
        # The ICMP body quotes the offending IP header + first 8 bytes.
        inner = original[ip_offset : ip_offset + decoded.ipv4.header_length + 8]
        body = b"\x00" * 4 + inner  # 4 unused bytes, then the quote
        checksum = internet_checksum(bytes([ICMP_TIME_EXCEEDED, 0, 0, 0]) + body)
        message = bytes([ICMP_TIME_EXCEEDED, 0]) + u16(checksum) + body
        ip = Ipv4Header(
            src=self.interface_ips[in_port],
            dst=decoded.ipv4.src,
            protocol=PROTO_ICMP,
            ttl=64,
        )
        network = ip.pack(len(message)) + message
        frame = (
            mac_to_bytes(decoded.ethernet.src)
            + mac_to_bytes(self.interface_macs[in_port])
            + u16(ETHERTYPE_IPV4)
            + network
        )
        self.ports[in_port].send(Packet(frame))
