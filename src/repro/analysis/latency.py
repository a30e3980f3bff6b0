"""Latency extraction from OSNT captures.

The demo's Part I measurement: the generator embeds a TX timestamp in
each packet; the monitor timestamps on receipt; latency is the
difference — both stamps from the same GPS-disciplined clock, so no
cross-device synchronisation error. These helpers turn a host capture
buffer into latency samples, summaries and loss counts;
:func:`stamped_frames` is the one place that decides which captured
frames are latency samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigError, ReproError
from ..hw.timestamp import STAMP_OFFSET, raw_to_ps, read_stamp
from ..net.packet import Packet
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


def stamped_frames(
    packets: Iterable[Packet], offset: int = STAMP_OFFSET
) -> Iterator[Tuple[Packet, int]]:
    """Each captured frame that is a latency sample, with its TX stamp in ps.

    The host-side rule: a frame is a sample when it carries an RX stamp,
    the host holds the whole TX stamp (:attr:`Packet.held_data`, so a cut
    before the stamp ends does not count), and the stamp field is
    non-zero (a zero field is taken as never written). Two readers keep
    rules of their own on purpose: the monitor's in-band histogram
    (:meth:`~repro.osnt.monitor.capture.CapturePipeline._on_frame`)
    bins every delta within its 10 s range check, and the OFLOPS
    PacketIn module, whose probes are all stamped, takes a zero stamp
    as a real time.
    """
    if offset < 0:
        raise ConfigError(f"stamp offset must be >= 0, got {offset}")
    for packet in packets:
        if packet.rx_timestamp is None:
            continue
        raw = read_stamp(packet.held_data, offset)
        if raw:  # None: cut before the stamp ends; 0: never written
            yield packet, raw_to_ps(raw)


def latency_from_capture(
    packets: Sequence[Packet],
    timestamp_offset: int = STAMP_OFFSET,
) -> LatencyResult:
    """Latency samples for every captured packet with an embedded stamp.

    Packets that are not samples under :func:`stamped_frames` (no RX
    timestamp, cut before the stamp, stamp never written) are counted as
    skipped.
    """
    samples = [
        packet.rx_timestamp - tx_ps
        for packet, tx_ps in stamped_frames(packets, timestamp_offset)
    ]
    return LatencyResult(samples, skipped=len(packets) - len(samples))


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
    :class:`~repro.osnt.generator.field_modifiers.SequenceNumber`, read
    from the held bytes (:attr:`Packet.held_data`).

    If ``expected_count`` is given, trailing losses (sequence numbers
    never seen at all) are included.
    """
    result = LossResult()
    seen = set()
    highest = -1
    for packet in packets:
        data = packet.held_data
        if offset + 4 > len(data):
            raise ReproError(f"sequence offset {offset} beyond {len(data)}-byte capture")
        seq = int.from_bytes(data[offset : offset + 4], "big")
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
