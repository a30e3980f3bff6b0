"""Standard OFLOPS-turbo measurement modules."""

from .echo_latency import EchoLatencyModule
from .flow_expiry import FlowExpiryModule
from .flow_mod_latency import FlowModLatencyModule, FlowModResult
from .forwarding_consistency import ConsistencyResult, ForwardingConsistencyModule
from .interaction import ControlInteractionModule
from .packet_in_latency import PacketInLatencyModule
from .port_stats import PortStatsAccuracyModule
from .throughput import ThroughputModule

ALL_MODULES = {
    module.name: module
    for module in (
        ControlInteractionModule,
        EchoLatencyModule,
        FlowExpiryModule,
        FlowModLatencyModule,
        ForwardingConsistencyModule,
        PacketInLatencyModule,
        PortStatsAccuracyModule,
        ThroughputModule,
    )
}

__all__ = [
    "ALL_MODULES",
    "ConsistencyResult",
    "ControlInteractionModule",
    "EchoLatencyModule",
    "FlowExpiryModule",
    "FlowModLatencyModule",
    "FlowModResult",
    "ForwardingConsistencyModule",
    "PacketInLatencyModule",
    "PortStatsAccuracyModule",
    "ThroughputModule",
]
