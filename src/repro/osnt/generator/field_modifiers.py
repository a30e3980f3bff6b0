"""Per-packet field modifiers.

The OSNT generator can rewrite header fields as it replays a template —
sweeping addresses or ports to synthesise many flows from one stored
packet, or writing a sequence number for loss detection. Modifiers are
pure functions of (frame bytes, packet index) so a source can apply a
chain of them deterministically.
"""

from __future__ import annotations

from ...errors import GeneratorError
from ...net.checksum import internet_checksum
from ...net.ethernet import ETHERTYPE_IPV4
from ...net.fields import ipv4_to_int, ipv4_to_str, u16, u32
from ...net.ipv4 import PROTO_UDP
from ...net.parser import HeaderOffsets, header_offsets


def fix_ipv4_checksum(data: bytes) -> bytes:
    """Recompute the IPv4 header checksum of an (untagged or tagged) frame."""
    return _fix_ipv4_checksum(data, header_offsets(data))


def zero_l4_checksum(data: bytes) -> bytes:
    """Clear the UDP checksum after a header rewrite (legal for UDP/IPv4).

    TCP checksums cannot legally be zeroed; swept TCP templates keep a
    stale checksum exactly as the hardware would emit them.
    """
    return _zero_udp_checksum(data, header_offsets(data))


# The helpers below take the frame's offsets from the caller: a rewrite
# moves no header, so one walk serves every step of it.


def _fix_ipv4_checksum(data: bytes, at: HeaderOffsets) -> bytes:
    if at.l3 != ETHERTYPE_IPV4:
        return data
    start, end = at.l3_offset, at.l3_offset + at.ip_header_len
    header = bytearray(data[start:end])
    header[10:12] = b"\x00\x00"
    header[10:12] = u16(internet_checksum(bytes(header)))
    return data[:start] + bytes(header) + data[end:]


def _zero_udp_checksum(data: bytes, at: HeaderOffsets) -> bytes:
    if at.l3 != ETHERTYPE_IPV4 or at.protocol != PROTO_UDP or at.l4_offset is None:
        return data
    checksum_at = at.l4_offset + 6
    return data[:checksum_at] + b"\x00\x00" + data[checksum_at + 2 :]


class FieldModifier:
    """Base class: transform frame bytes for packet number ``index``."""

    def apply(self, data: bytes, index: int) -> bytes:
        raise NotImplementedError


class Ipv4AddressSweep(FieldModifier):
    """Cycle an IPv4 address (src or dst) through ``count`` values."""

    def __init__(self, field: str, base_ip: str, count: int, stride: int = 1) -> None:
        if field not in ("src", "dst"):
            raise GeneratorError(f"field must be 'src' or 'dst', not {field!r}")
        if count < 1:
            raise GeneratorError("sweep count must be >= 1")
        self.field = field
        self.base = ipv4_to_int(base_ip)
        self.count = count
        self.stride = stride

    def address_for(self, index: int) -> str:
        return ipv4_to_str((self.base + (index % self.count) * self.stride) & 0xFFFFFFFF)

    def apply(self, data: bytes, index: int) -> bytes:
        at = header_offsets(data)
        if at.l3 != ETHERTYPE_IPV4:
            return data
        field_offset = at.l3_offset + (12 if self.field == "src" else 16)
        value = (self.base + (index % self.count) * self.stride) & 0xFFFFFFFF
        data = data[:field_offset] + u32(value) + data[field_offset + 4 :]
        return _zero_udp_checksum(_fix_ipv4_checksum(data, at), at)


class UdpPortSweep(FieldModifier):
    """Cycle a UDP port (src or dst) through ``count`` values."""

    def __init__(self, field: str, base_port: int, count: int) -> None:
        if field not in ("src", "dst"):
            raise GeneratorError(f"field must be 'src' or 'dst', not {field!r}")
        if count < 1:
            raise GeneratorError("sweep count must be >= 1")
        self.field = field
        self.base_port = base_port
        self.count = count

    def apply(self, data: bytes, index: int) -> bytes:
        at = header_offsets(data)
        if at.protocol != PROTO_UDP or at.l4_offset is None:
            return data
        field_offset = at.l4_offset + (0 if self.field == "src" else 2)
        port = (self.base_port + index % self.count) & 0xFFFF
        data = data[:field_offset] + u16(port) + data[field_offset + 2 :]
        return _zero_udp_checksum(data, at)


class SequenceNumber(FieldModifier):
    """Write a 32-bit packet index at a payload offset (loss detection)."""

    def __init__(self, offset: int) -> None:
        if offset < 0:
            raise GeneratorError("sequence offset must be >= 0")
        self.offset = offset

    def apply(self, data: bytes, index: int) -> bytes:
        if self.offset + 4 > len(data):
            raise GeneratorError(
                f"sequence number at {self.offset} does not fit {len(data)}-byte frame"
            )
        return (
            data[: self.offset]
            + u32(index & 0xFFFFFFFF)
            + data[self.offset + 4 :]
        )


class VlanIdRewrite(FieldModifier):
    """Set the VLAN id of an already-tagged frame."""

    def __init__(self, vid: int) -> None:
        if not 0 <= vid <= 4095:
            raise GeneratorError(f"VLAN id {vid} out of range")
        self.vid = vid

    def apply(self, data: bytes, index: int) -> bytes:
        if not header_offsets(data).vlan_tags:
            return data
        tci_offset = 14
        old_tci = int.from_bytes(data[tci_offset : tci_offset + 2], "big")
        new_tci = (old_tci & 0xF000) | self.vid
        return data[:tci_offset] + u16(new_tci) + data[tci_offset + 2 :]
