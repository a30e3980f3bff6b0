"""UDP header build and parse."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from ..errors import TruncatedPacketError
from .checksum import pseudo_header_checksum
from .fields import u16

UDP_HEADER_LEN = 8
PROTO_UDP = 17

_UDP = struct.Struct("!HHHH")


@dataclass
class UdpHeader:
    src_port: int
    dst_port: int
    length: int = 0  # includes the 8-byte header; filled on pack
    checksum: int = 0

    def pack(self, payload: bytes, src_addr: bytes = b"", dst_addr: bytes = b"") -> bytes:
        """Serialize header + payload; checksums when addresses given.

        If the packed addresses are omitted the checksum is left zero,
        which UDP-over-IPv4 permits ("no checksum").
        """
        length = UDP_HEADER_LEN + len(payload)
        header = u16(self.src_port) + u16(self.dst_port) + u16(length)
        if src_addr and dst_addr:
            checksum = pseudo_header_checksum(
                src_addr, dst_addr, PROTO_UDP, header + b"\x00\x00" + payload
            )
            if checksum == 0:
                checksum = 0xFFFF  # RFC 768: zero is "no checksum"
        else:
            checksum = 0
        return header + u16(checksum) + payload

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> Tuple["UdpHeader", int]:
        if offset + UDP_HEADER_LEN > len(data):
            raise TruncatedPacketError("UDP header truncated")
        src_port, dst_port, length, checksum = _UDP.unpack_from(data, offset)
        header = cls(src_port=src_port, dst_port=dst_port, length=length, checksum=checksum)
        return header, offset + UDP_HEADER_LEN
