"""TCP header build and parse."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Tuple

from ..errors import PacketError, TruncatedPacketError
from .checksum import pseudo_header_checksum
from .fields import u16, u32

TCP_MIN_HEADER_LEN = 20
PROTO_TCP = 6

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20

# ports, sequence, acknowledgement, data offset, flags, window,
# checksum, urgent pointer.
_TCP = struct.Struct("!HHIIBBHHH")


@dataclass
class TcpHeader:
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = FLAG_ACK
    window: int = 65535
    urgent: int = 0
    options: bytes = field(default=b"")
    checksum: int = 0  # as parsed; recomputed on pack

    @property
    def header_length(self) -> int:
        return TCP_MIN_HEADER_LEN + len(self.options)

    def pack(self, payload: bytes, src_addr: bytes = b"", dst_addr: bytes = b"") -> bytes:
        """Serialize header + payload; checksums when addresses given."""
        if len(self.options) % 4:
            raise PacketError("TCP options must pad to a 4-byte multiple")
        data_offset_words = self.header_length // 4
        if data_offset_words > 15:
            raise PacketError("TCP header too long")
        header = bytearray()
        header += u16(self.src_port) + u16(self.dst_port)
        header += u32(self.seq) + u32(self.ack)
        header.append(data_offset_words << 4)
        header.append(self.flags & 0x3F)
        header += u16(self.window)
        header += b"\x00\x00"  # checksum placeholder
        header += u16(self.urgent)
        header += self.options
        segment = bytes(header) + payload
        if src_addr and dst_addr:
            checksum = pseudo_header_checksum(src_addr, dst_addr, PROTO_TCP, segment)
            header[16:18] = u16(checksum)
        return bytes(header) + payload

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> Tuple["TcpHeader", int]:
        if offset + TCP_MIN_HEADER_LEN > len(data):
            raise TruncatedPacketError("TCP header truncated")
        header_len = (data[offset + 12] >> 4) * 4
        if header_len < TCP_MIN_HEADER_LEN:
            raise PacketError(f"bad TCP data offset: {header_len} bytes")
        if offset + header_len > len(data):
            raise TruncatedPacketError("TCP options truncated")
        src_port, dst_port, seq, ack, _, flags, window, checksum, urgent = _TCP.unpack_from(
            data, offset
        )
        header = cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags & 0x3F,
            window=window,
            urgent=urgent,
            options=bytes(data[offset + TCP_MIN_HEADER_LEN : offset + header_len]),
            checksum=checksum,
        )
        return header, offset + header_len
