"""Classic libpcap file reading and writing.

Supports microsecond (magic ``0xa1b2c3d4``) and nanosecond
(``0xa1b23c4d``) timestamp resolution in either byte order on read, and
writes nanosecond little-endian files by default — matching the OSNT
software tools, which store high-resolution capture timestamps.

Timestamps cross the API as integer **picoseconds** (the simulator's
unit); they are truncated to the file's resolution on write.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Optional, Union

from ..errors import PcapError
from ..units import PS_PER_NS, PS_PER_SEC, PS_PER_US
from .packet import Packet

MAGIC_USEC = 0xA1B2C3D4
MAGIC_NSEC = 0xA1B23C4D

LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = "IHHiIII"  # magic, major, minor, thiszone, sigfigs, snaplen, network
_RECORD_HEADER = "IIII"  # ts_sec, ts_subsec, incl_len, orig_len


@dataclass
class PcapRecord:
    """One captured frame: bytes plus capture metadata."""

    timestamp_ps: int
    data: bytes
    #: Original frame length if the capture was truncated (snaplen).
    orig_len: Optional[int] = None

    @property
    def original_length(self) -> int:
        return self.orig_len if self.orig_len is not None else len(self.data)


class PcapReader:
    """Iterate :class:`PcapRecord` objects from a pcap file or stream."""

    def __init__(self, source: Union[str, Path, BinaryIO]) -> None:
        if isinstance(source, (str, Path)):
            self._stream: BinaryIO = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = source
            self._owns_stream = False
        self._read_global_header()

    def _read_global_header(self) -> None:
        raw = self._stream.read(24)
        if len(raw) < 24:
            raise PcapError("file too short for a pcap global header")
        for endian in ("<", ">"):
            magic = struct.unpack(endian + "I", raw[:4])[0]
            if magic in (MAGIC_USEC, MAGIC_NSEC):
                self._endian = endian
                self._subsec_ps = PS_PER_NS if magic == MAGIC_NSEC else PS_PER_US
                break
        else:
            raise PcapError(f"bad pcap magic: {raw[:4].hex()}")
        fields = struct.unpack(self._endian + _GLOBAL_HEADER, raw)
        __, major, minor, __, __, self.snaplen, self.network = fields
        if (major, minor) != (2, 4):
            raise PcapError(f"unsupported pcap version {major}.{minor}")
        if self.network != LINKTYPE_ETHERNET:
            raise PcapError(f"unsupported linktype {self.network}")

    def __iter__(self) -> Iterator[PcapRecord]:
        return self

    def __next__(self) -> PcapRecord:
        header = self._stream.read(16)
        if not header:
            raise StopIteration
        if len(header) < 16:
            raise PcapError("truncated pcap record header")
        ts_sec, ts_subsec, incl_len, orig_len = struct.unpack(
            self._endian + _RECORD_HEADER, header
        )
        data = self._stream.read(incl_len)
        if len(data) < incl_len:
            raise PcapError("truncated pcap record body")
        timestamp_ps = ts_sec * PS_PER_SEC + ts_subsec * self._subsec_ps
        return PcapRecord(timestamp_ps=timestamp_ps, data=data, orig_len=orig_len)

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PcapWriter:
    """Write :class:`PcapRecord` objects to a pcap file or stream."""

    def __init__(
        self,
        target: Union[str, Path, BinaryIO],
        nanosecond: bool = True,
        snaplen: int = 65535,
    ) -> None:
        if isinstance(target, (str, Path)):
            self._stream: BinaryIO = open(target, "wb")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self._subsec_ps = PS_PER_NS if nanosecond else PS_PER_US
        self._subsec_per_sec = PS_PER_SEC // self._subsec_ps
        magic = MAGIC_NSEC if nanosecond else MAGIC_USEC
        self._stream.write(
            struct.pack("<" + _GLOBAL_HEADER, magic, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
        )
        self.records_written = 0

    def write(self, record: PcapRecord) -> None:
        ts_sec, remainder_ps = divmod(record.timestamp_ps, PS_PER_SEC)
        ts_subsec = remainder_ps // self._subsec_ps
        self._stream.write(
            struct.pack(
                "<" + _RECORD_HEADER,
                ts_sec,
                ts_subsec,
                len(record.data),
                record.original_length,
            )
        )
        self._stream.write(record.data)
        self.records_written += 1

    def write_packet(self, packet: Packet, timestamp_ps: int) -> None:
        """Convenience: write a simulator :class:`Packet` at a timestamp."""
        self.write(
            PcapRecord(timestamp_ps, packet.held_data, orig_len=len(packet.data))
        )

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_pcap(path: Union[str, Path]) -> List[PcapRecord]:
    """Read a whole pcap file into memory."""
    with PcapReader(path) as reader:
        return list(reader)


def write_pcap(
    path: Union[str, Path],
    records: Iterable[PcapRecord],
    nanosecond: bool = True,
) -> int:
    """Write records to ``path``; returns the number written."""
    with PcapWriter(path, nanosecond=nanosecond) as writer:
        for record in records:
            writer.write(record)
        return writer.records_written
