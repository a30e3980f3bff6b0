"""Standard tester workloads: size sweeps, IMIX, multi-flow traffic."""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from ..net.builder import DEFAULT_DST_MAC, build_udp
from ..net.packet import Packet
from ..osnt.generator.field_modifiers import Ipv4AddressSweep, SequenceNumber
from ..osnt.generator.source import PacketListSource, TemplateSource

#: The RFC 2544 frame sizes every tester sweeps.
RFC2544_SIZES = [64, 128, 256, 512, 1024, 1280, 1518]

#: Simple IMIX: 7×64B : 4×576B : 1×1518B (the classic 7:4:1 mix).
IMIX_PATTERN = [64] * 7 + [576] * 4 + [1518]


def udp_template(
    frame_size: int,
    dst_mac: str = DEFAULT_DST_MAC,
    src_mac: str = "02:00:00:00:00:01",
    dst_ip: str = "10.0.0.2",
    src_ip: str = "10.0.0.1",
    dst_port: int = 5001,
) -> Packet:
    """The canonical test frame used across scenarios."""
    return build_udp(
        frame_size=frame_size,
        src_mac=src_mac,
        dst_mac=dst_mac,
        src_ip=src_ip,
        dst_ip=dst_ip,
        dst_port=dst_port,
    )


def fixed_size_source(
    frame_size: int,
    count: Optional[int] = None,
    sequence_offset: Optional[int] = None,
    **template_kwargs,
) -> TemplateSource:
    """A stream of identical frames, optionally sequence-numbered."""
    modifiers = []
    if sequence_offset is not None:
        modifiers.append(SequenceNumber(sequence_offset))
    return TemplateSource(
        udp_template(frame_size, **template_kwargs), count=count, modifiers=modifiers
    )


def imix_source(loops: int = 1, **template_kwargs) -> PacketListSource:
    """One IMIX pattern repetition per loop."""
    packets = [udp_template(size, **template_kwargs) for size in IMIX_PATTERN]
    return PacketListSource(packets, loop=loops)


def multi_flow_source(
    frame_size: int,
    flow_count: int,
    count: Optional[int] = None,
    base_dst_ip: str = "10.1.0.1",
    **template_kwargs,
) -> TemplateSource:
    """Sweeps the destination address across ``flow_count`` flows."""
    if flow_count < 1:
        raise ConfigError("flow_count must be >= 1")
    return TemplateSource(
        udp_template(frame_size, **template_kwargs),
        count=count,
        modifiers=[Ipv4AddressSweep("dst", base_dst_ip, flow_count)],
    )


def load_points(steps: int = 5, maximum: float = 1.0) -> List[float]:
    """Evenly spaced offered-load fractions ending at ``maximum``."""
    if steps < 1:
        raise ConfigError("need at least one load point")
    return [maximum * (index + 1) / steps for index in range(steps)]
