"""Packet sources for the generator: templates, lists and PCAP replay."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...errors import GeneratorError
from ...net.packet import Packet
from ...net.pcap import PcapRecord
from .field_modifiers import FieldModifier


class PacketSource:
    """Base class: yields the next frame, or ``None`` when exhausted."""

    def next_packet(self, index: int) -> Optional[Packet]:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the first packet (for repeated runs)."""


class TemplateSource(PacketSource):
    """Replays one template frame, optionally rewritten per packet.

    ``count=None`` streams forever (the engine's count/duration limits
    then bound the run).
    """

    def __init__(
        self,
        template: Packet,
        count: Optional[int] = None,
        modifiers: Sequence[FieldModifier] = (),
    ) -> None:
        if count is not None and count < 0:
            raise GeneratorError("count must be >= 0")
        self.template = template
        self.count = count
        self.modifiers = list(modifiers)

    def next_packet(self, index: int) -> Optional[Packet]:
        if self.count is not None and index >= self.count:
            return None
        data = self.template.data
        for modifier in self.modifiers:
            data = modifier.apply(data, index)
        return Packet(data)


class PacketListSource(PacketSource):
    """Yields a fixed list of frames once (optionally looped)."""

    def __init__(self, packets: Sequence[Packet], loop: int = 1) -> None:
        if loop < 1:
            raise GeneratorError("loop count must be >= 1")
        if not packets:
            raise GeneratorError("packet list must not be empty")
        self.packets = list(packets)
        self.loop = loop

    def next_packet(self, index: int) -> Optional[Packet]:
        if index >= len(self.packets) * self.loop:
            return None
        template = self.packets[index % len(self.packets)]
        return Packet(template.data)


class PcapReplaySource(PacketListSource):
    """Replay captured frames; :meth:`gaps` gives their recorded timing.

    ``speed`` scales the recorded inter-departure times: 2.0 replays
    twice as fast, 0.5 at half speed. A schedule built from the gaps
    (the ``explicit_gaps`` traffic-model kind) never compresses one below
    the port's wire time, exactly like the hardware replay engine.
    """

    def __init__(self, records: Sequence[PcapRecord], loop: int = 1, speed: float = 1.0) -> None:
        if speed <= 0:
            raise GeneratorError("replay speed must be positive")
        usable = [record for record in records if len(record.data) >= 14]
        if not usable:
            raise GeneratorError("no replayable frames in the capture")
        super().__init__([Packet(record.data) for record in usable], loop=loop)
        self.timestamps = [record.timestamp_ps for record in usable]
        self.speed = speed

    def gaps(self) -> List[int]:
        """The capture's inter-departure gaps (ps) over every loop, scaled
        by ``speed``; the gap between loops repeats a loop's last gap."""
        gaps: List[int] = []
        for previous, current in zip(self.timestamps, self.timestamps[1:]):
            gap = current - previous
            if gap < 0:
                raise GeneratorError("capture timestamps go backwards")
            gaps.append(round(gap / self.speed))
        one_loop = gaps + [gaps[-1] if gaps else 0]  # wrap gap between loops
        return one_loop * self.loop
