"""OSNT traffic generation subsystem."""

from .composite import CompositeSource, INTERNET_MIX, RandomSizeSource
from .engine import GeneratorStats, PortGenerator
from .field_modifiers import (
    FieldModifier,
    Ipv4AddressSweep,
    SequenceNumber,
    UdpPortSweep,
    VlanIdRewrite,
    fix_ipv4_checksum,
    zero_l4_checksum,
)
from .schedule import (
    ConstantBitRate,
    ConstantGap,
    ExplicitGaps,
    LineRate,
    PoissonGaps,
    Schedule,
    rate_for_load,
)
from .source import PacketListSource, PacketSource, PcapReplaySource, TemplateSource
from .trafficmodels import (
    BurstTrain,
    Composite,
    CompositeStage,
    MarkovOnOff,
    Periodic,
)
from .trafficspec import (
    TRAFFIC_MODELS,
    TrafficModelSpec,
    build_traffic,
    traffic_model,
)
from .tx_timestamp import (
    DEFAULT_OFFSET,
    STAMP_BYTES,
    TxTimestamper,
    embed_raw,
    extract_ps,
    extract_raw,
)

__all__ = [
    "BurstTrain",
    "Composite",
    "CompositeSource",
    "CompositeStage",
    "INTERNET_MIX",
    "ConstantBitRate",
    "ConstantGap",
    "DEFAULT_OFFSET",
    "ExplicitGaps",
    "FieldModifier",
    "GeneratorStats",
    "Ipv4AddressSweep",
    "LineRate",
    "MarkovOnOff",
    "Periodic",
    "TRAFFIC_MODELS",
    "TrafficModelSpec",
    "PacketListSource",
    "PacketSource",
    "PcapReplaySource",
    "PoissonGaps",
    "PortGenerator",
    "RandomSizeSource",
    "STAMP_BYTES",
    "Schedule",
    "SequenceNumber",
    "TemplateSource",
    "TxTimestamper",
    "UdpPortSweep",
    "VlanIdRewrite",
    "build_traffic",
    "embed_raw",
    "extract_ps",
    "extract_raw",
    "fix_ipv4_checksum",
    "rate_for_load",
    "traffic_model",
    "zero_l4_checksum",
]
