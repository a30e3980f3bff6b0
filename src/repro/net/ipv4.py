"""IPv4 header build and parse."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Tuple

from ..errors import PacketError, TruncatedPacketError
from .checksum import internet_checksum
from .fields import ipv4_to_bytes, ipv4_to_str, u16

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

IPV4_MIN_HEADER_LEN = 20

# version/IHL, DSCP/ECN, total length, identification, flags/fragment
# offset, TTL, protocol, checksum, source, destination.
_IPV4 = struct.Struct("!BBHHHBBHII")


@dataclass
class Ipv4Header:
    """IPv4 header (options supported as raw bytes)."""

    src: str
    dst: str
    protocol: int
    total_length: int = 0  # filled by pack() callers; includes header
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    ecn: int = 0
    flags: int = 0b010  # don't-fragment, as test traffic normally sets
    fragment_offset: int = 0
    options: bytes = field(default=b"")
    checksum: int = 0  # as parsed; recomputed on pack

    @property
    def header_length(self) -> int:
        return IPV4_MIN_HEADER_LEN + len(self.options)

    def pack(self, payload_length: int) -> bytes:
        """Serialize with correct total length and checksum."""
        if len(self.options) % 4:
            raise PacketError("IPv4 options must pad to a 4-byte multiple")
        ihl_words = self.header_length // 4
        if ihl_words > 15:
            raise PacketError("IPv4 header too long")
        total_length = self.header_length + payload_length
        if total_length > 0xFFFF:
            raise PacketError(f"IPv4 total length {total_length} exceeds 65535")
        header = bytearray()
        header.append((4 << 4) | ihl_words)
        header.append(((self.dscp & 0x3F) << 2) | (self.ecn & 0x3))
        header += u16(total_length)
        header += u16(self.identification)
        header += u16(((self.flags & 0x7) << 13) | (self.fragment_offset & 0x1FFF))
        header.append(self.ttl)
        header.append(self.protocol)
        header += b"\x00\x00"  # checksum placeholder
        header += ipv4_to_bytes(self.src)
        header += ipv4_to_bytes(self.dst)
        header += self.options
        checksum = internet_checksum(bytes(header))
        header[10:12] = u16(checksum)
        return bytes(header)

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> Tuple["Ipv4Header", int]:
        """Parse at ``offset``; returns (header, offset of payload)."""
        if offset + IPV4_MIN_HEADER_LEN > len(data):
            raise TruncatedPacketError("IPv4 header truncated")
        version_ihl = data[offset]
        if version_ihl >> 4 != 4:
            raise PacketError(f"not IPv4 (version={version_ihl >> 4})")
        header_len = (version_ihl & 0xF) * 4
        if header_len < IPV4_MIN_HEADER_LEN:
            raise PacketError(f"bad IPv4 IHL: {header_len} bytes")
        if offset + header_len > len(data):
            raise TruncatedPacketError("IPv4 options truncated")
        _, tos, total_length, identification, flags_frag, ttl, protocol, checksum, src, dst = (
            _IPV4.unpack_from(data, offset)
        )
        header = cls(
            src=ipv4_to_str(src),
            dst=ipv4_to_str(dst),
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            identification=identification,
            dscp=tos >> 2,
            ecn=tos & 0x3,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            options=bytes(data[offset + IPV4_MIN_HEADER_LEN : offset + header_len]),
            checksum=checksum,
        )
        return header, offset + header_len

    def verify_checksum(self, data: bytes, offset: int) -> bool:
        """True if the checksum of the header at ``offset`` is valid."""
        return internet_checksum(data[offset : offset + self.header_length]) == 0
