"""Latency extraction from OSNT captures.

The demo's Part I measurement: the generator embeds a TX timestamp in
each packet; the monitor timestamps on receipt; latency is the
difference — both stamps from the same GPS-disciplined clock, so no
cross-device synchronisation error. These helpers turn a host capture
buffer into latency samples, summaries and loss counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import ReproError
from ..net.packet import Packet
from ..osnt.generator.tx_timestamp import DEFAULT_OFFSET, STAMP_BYTES, extract_ps
from .stats import SummaryStats, rfc3550_jitter


@dataclass
class LatencyResult:
    """Per-run latency measurement output (times in ps)."""

    samples: List[int] = field(default_factory=list)
    skipped: int = 0  # packets without a readable stamp

    @property
    def summary(self) -> SummaryStats:
        return SummaryStats.of(self.samples)

    @property
    def jitter_rfc3550_ps(self) -> float:
        return rfc3550_jitter(self.samples)


def latency_from_capture(
    packets: Sequence[Packet],
    timestamp_offset: int = DEFAULT_OFFSET,
) -> LatencyResult:
    """Latency samples for every captured packet with an embedded stamp.

    Packets whose capture is too short to contain the stamp (cut before
    the offset) or that carry no RX timestamp are counted as skipped.
    """
    result = LatencyResult()
    for packet in packets:
        if packet.rx_timestamp is None:
            result.skipped += 1
            continue
        usable = (
            packet.capture_length
            if packet.capture_length is not None
            else len(packet.data)
        )
        if timestamp_offset + STAMP_BYTES > usable:
            result.skipped += 1
            continue
        tx_ps = extract_ps(packet.data, timestamp_offset)
        if tx_ps == 0:
            result.skipped += 1  # stamp field never written
            continue
        result.samples.append(packet.rx_timestamp - tx_ps)
    return result


@dataclass
class LossResult:
    """Sequence-number based loss/reorder accounting."""

    received: int = 0
    lost: int = 0
    reordered: int = 0
    duplicates: int = 0

    @property
    def loss_fraction(self) -> float:
        offered = self.received + self.lost
        return self.lost / offered if offered else 0.0


def loss_from_sequence_numbers(
    packets: Sequence[Packet],
    offset: int,
    expected_count: Optional[int] = None,
) -> LossResult:
    """Analyse 32-bit sequence numbers written by
    :class:`~repro.osnt.generator.field_modifiers.SequenceNumber`.

    If ``expected_count`` is given, trailing losses (sequence numbers
    never seen at all) are included.
    """
    result = LossResult()
    seen = set()
    highest = -1
    for packet in packets:
        if offset + 4 > len(packet.data):
            raise ReproError(
                f"sequence offset {offset} beyond {len(packet.data)}-byte capture"
            )
        seq = int.from_bytes(packet.data[offset : offset + 4], "big")
        result.received += 1
        if seq in seen:
            result.duplicates += 1
            continue
        if seq < highest:
            result.reordered += 1
        seen.add(seq)
        highest = max(highest, seq)
    unique = len(seen)
    if expected_count is not None:
        result.lost = expected_count - unique
    else:
        result.lost = (highest + 1) - unique if highest >= 0 else 0
    return result
