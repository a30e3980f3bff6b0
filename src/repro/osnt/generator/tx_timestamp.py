"""TX timestamp embedding.

The paper: "The traffic generator has an accurate timestamping mechanism,
located just before the transmit 10GbE MAC. ... When enabled, the
timestamp is embedded within the packet at a preconfigured location and
can be extracted at the receiver as required."

The embedded value is the 64-bit 32.32 fixed-point counter. Because the
hardware overwrites payload bytes *after* checksums were computed, it
also clears the UDP checksum (legal for UDP/IPv4) when the stamped bytes
fall inside a UDP datagram — mirroring what the OSNT software tools
arrange so stamped packets are not dropped as corrupt.
"""

from __future__ import annotations

from ...errors import GeneratorError
from ...hw.timestamp import (
    STAMP_BYTES,
    STAMP_OFFSET as DEFAULT_OFFSET,  # the generator's name for it
    STAMP_ORDER,
    TimestampUnit,
    ps_to_raw,
    raw_to_ps,
    read_stamp,
)
from ...net.packet import Packet
from ...net.parser import header_offsets
from ...net.udp import UDP_HEADER_LEN
from .field_modifiers import _zero_udp_checksum


def embed_raw(data: bytes, offset: int, raw: int) -> bytes:
    """Write the 64-bit stamp big-endian at ``offset``; returns new bytes."""
    if offset < 0 or offset + STAMP_BYTES > len(data):
        raise GeneratorError(
            f"timestamp at offset {offset} does not fit a {len(data)}-byte frame"
        )
    stamp = raw.to_bytes(STAMP_BYTES, STAMP_ORDER)
    return data[:offset] + stamp + data[offset + STAMP_BYTES :]


def extract_raw(data: bytes, offset: int = DEFAULT_OFFSET) -> int:
    """Read the 64-bit embedded stamp at ``offset``."""
    raw = read_stamp(data, offset)
    if raw is None:
        raise GeneratorError(
            f"no timestamp at offset {offset} in a {len(data)}-byte frame"
        )
    return raw


def extract_ps(data: bytes, offset: int = DEFAULT_OFFSET) -> int:
    """Embedded stamp converted to device picoseconds."""
    return raw_to_ps(extract_raw(data, offset))


def _clear_udp_checksum(data: bytes, offset: int) -> bytes:
    """Zero the UDP checksum if the stamp landed inside a UDP payload."""
    at = header_offsets(data)
    if at.l4_offset is None or offset < at.l4_offset + UDP_HEADER_LEN:
        return data  # no datagram, or the stamp hit its headers: nothing to fix
    return _zero_udp_checksum(data, at)


class TxTimestamper:
    """Hooks a TX MAC's start-of-frame and stamps departing packets."""

    def __init__(
        self,
        timestamp_unit: TimestampUnit,
        offset: int = DEFAULT_OFFSET,
        enabled: bool = True,
    ) -> None:
        self.timestamp_unit = timestamp_unit
        self.offset = offset
        self.enabled = enabled
        self.stamped = 0
        self.skipped_short = 0

    def __call__(self, packet: Packet) -> None:
        """Start-of-frame hook: stamp in place (packet bytes mutate)."""
        stamp_ps = self.timestamp_unit.now_ps()
        packet.tx_timestamp = stamp_ps
        if not self.enabled:
            return
        if self.offset + STAMP_BYTES > len(packet.data):
            self.skipped_short += 1
            return
        raw = ps_to_raw(stamp_ps)
        data = embed_raw(packet.data, self.offset, raw)
        packet.data = _clear_udp_checksum(data, self.offset)
        self.stamped += 1
        # Register the embedded raw value as the span correlation key —
        # the exact 64-bit pattern a capture pipeline will re-extract,
        # so matching across the DUT is exact, not ps-rounded.
        sim = self.timestamp_unit.sim
        spans = sim.spans
        if spans is not None:
            spans.note_tx_stamp(sim.now, packet, raw)
