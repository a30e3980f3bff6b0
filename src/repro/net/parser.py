"""Decode a frame into its header stack.

:func:`decode` walks Ethernet → (VLAN) → L3 → L4 and returns a
:class:`DecodedPacket` with whichever layers were present. Unknown or
truncated inner layers stop the walk gracefully — the tester must cope
with arbitrary traffic — but a frame too short for Ethernet raises.

:func:`header_offsets` walks the same headers under the same rules but
only finds where each one starts, for the paths that patch one field of
a frame in place instead of reading it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Union

from ..errors import PacketError, TruncatedPacketError
from .arp import ArpPacket
from .ethernet import (
    ETH_HEADER_LEN,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_VLAN,
    VLAN_TAG_LEN,
    EthernetHeader,
    VlanTag,
)
from .icmp import IcmpHeader
from .ipv4 import IPV4_MIN_HEADER_LEN, PROTO_ICMP, PROTO_TCP, PROTO_UDP, Ipv4Header
from .ipv6 import IPV6_HEADER_LEN, Ipv6Header
from .tcp import TCP_MIN_HEADER_LEN, TcpHeader
from .udp import UDP_HEADER_LEN, UdpHeader

L3Header = Union[Ipv4Header, Ipv6Header, ArpPacket]
L4Header = Union[TcpHeader, UdpHeader, IcmpHeader]


@dataclass
class DecodedPacket:
    """Result of :func:`decode`: the recognised layers of one frame."""

    ethernet: EthernetHeader
    vlan_tags: List[VlanTag] = field(default_factory=list)
    ipv4: Optional[Ipv4Header] = None
    ipv6: Optional[Ipv6Header] = None
    arp: Optional[ArpPacket] = None
    tcp: Optional[TcpHeader] = None
    udp: Optional[UdpHeader] = None
    icmp: Optional[IcmpHeader] = None
    payload: bytes = b""
    #: Offset of ``payload`` within the original frame bytes.
    payload_offset: int = 0

    @property
    def l3(self) -> Optional[L3Header]:
        return self.ipv4 or self.ipv6 or self.arp

    @property
    def l4(self) -> Optional[L4Header]:
        return self.tcp or self.udp or self.icmp


def decode(data: bytes) -> DecodedPacket:
    """Parse as many layers of ``data`` as possible."""
    ethernet, offset = EthernetHeader.unpack(data)
    decoded = DecodedPacket(ethernet=ethernet)

    ethertype = ethernet.ethertype
    while ethertype == ETHERTYPE_VLAN:
        try:
            tag, offset = VlanTag.unpack(data, offset)
        except TruncatedPacketError:
            return _finish(decoded, data, offset)
        decoded.vlan_tags.append(tag)
        ethertype = tag.inner_ethertype

    try:
        if ethertype == ETHERTYPE_IPV4:
            decoded.ipv4, offset = Ipv4Header.unpack(data, offset)
            offset = _decode_l4(decoded, data, offset, decoded.ipv4.protocol)
        elif ethertype == ETHERTYPE_IPV6:
            decoded.ipv6, offset = Ipv6Header.unpack(data, offset)
            offset = _decode_l4(decoded, data, offset, decoded.ipv6.next_header)
        elif ethertype == ETHERTYPE_ARP:
            decoded.arp, offset = ArpPacket.unpack(data, offset)
    except (TruncatedPacketError, PacketError):
        pass  # leave inner layers unset; payload is what remains
    return _finish(decoded, data, offset)


def _decode_l4(decoded: DecodedPacket, data: bytes, offset: int, protocol: int) -> int:
    if protocol == PROTO_TCP:
        decoded.tcp, offset = TcpHeader.unpack(data, offset)
    elif protocol == PROTO_UDP:
        decoded.udp, offset = UdpHeader.unpack(data, offset)
    elif protocol == PROTO_ICMP:
        decoded.icmp, offset = IcmpHeader.unpack(data, offset)
    return offset


def _finish(decoded: DecodedPacket, data: bytes, offset: int) -> DecodedPacket:
    decoded.payload = data[offset:]
    decoded.payload_offset = offset
    return decoded


class HeaderOffsets(NamedTuple):
    """Where the headers of one frame start; see :func:`header_offsets`."""

    #: Number of complete 802.1Q tags after the MAC addresses.
    vlan_tags: int
    #: Start of the header the innermost EtherType names.
    l3_offset: int
    #: ``ETHERTYPE_IPV4`` or ``ETHERTYPE_IPV6`` when :func:`decode` would
    #: parse that header, else None.
    l3: Optional[int] = None
    #: IP header length in bytes (IHL x 4 for IPv4, 40 for IPv6), else 0.
    ip_header_len: int = 0
    #: IPv4 protocol or IPv6 next header, else None.
    protocol: Optional[int] = None
    #: Start of the TCP or UDP header when :func:`decode` would parse it,
    #: else None.
    l4_offset: Optional[int] = None


def header_offsets(data: bytes) -> HeaderOffsets:
    """Find where each header of ``data`` starts, without decoding any.

    An offset is set exactly when :func:`decode` would parse that header:
    a frame too short for Ethernet raises the same error, and a
    truncated tag, a truncated or malformed IP header, or an incomplete
    TCP or UDP header ends the walk.
    """
    size = len(data)
    if size < ETH_HEADER_LEN:
        EthernetHeader.unpack(data)  # raises decode's TruncatedPacketError
    ethertype = (data[12] << 8) | data[13]
    offset = ETH_HEADER_LEN
    tags = 0
    while ethertype == ETHERTYPE_VLAN:
        if offset + VLAN_TAG_LEN > size:
            return HeaderOffsets(tags, offset)
        ethertype = (data[offset + 2] << 8) | data[offset + 3]
        offset += VLAN_TAG_LEN
        tags += 1
    if ethertype == ETHERTYPE_IPV4:
        if offset + IPV4_MIN_HEADER_LEN > size or data[offset] >> 4 != 4:
            return HeaderOffsets(tags, offset)
        header_len = (data[offset] & 0xF) * 4
        if header_len < IPV4_MIN_HEADER_LEN or offset + header_len > size:
            return HeaderOffsets(tags, offset)
        protocol = data[offset + 9]
    elif ethertype == ETHERTYPE_IPV6:
        if offset + IPV6_HEADER_LEN > size or data[offset] >> 4 != 6:
            return HeaderOffsets(tags, offset)
        header_len = IPV6_HEADER_LEN
        protocol = data[offset + 6]
    else:
        return HeaderOffsets(tags, offset)
    l4 = offset + header_len
    if protocol == PROTO_TCP:
        whole = (
            l4 + TCP_MIN_HEADER_LEN <= size
            and TCP_MIN_HEADER_LEN <= (data[l4 + 12] >> 4) * 4 <= size - l4
        )
    else:
        whole = protocol == PROTO_UDP and l4 + UDP_HEADER_LEN <= size
    return HeaderOffsets(tags, offset, ethertype, header_len, protocol, l4 if whole else None)
