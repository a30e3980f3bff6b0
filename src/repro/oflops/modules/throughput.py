"""Data-plane throughput through the OpenFlow switch, cross-checked on
all three channels: OSNT counters (data), flow stats (control), and the
interface counters (SNMP)."""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional

from ...openflow import constants as ofp
from ...openflow.actions import OutputAction
from ...openflow.match import Match
from ...testbed.workloads import udp_template
from ...units import ms
from ..context import OflopsContext
from ..module import MeasurementModule


class ThroughputModule(MeasurementModule):
    name = "throughput"
    description = "line-rate forwarding, verified via data/control/SNMP"

    def __init__(
        self,
        load: float = 1.0,
        frame_size: int = 512,
        duration_ps: int = ms(2),
    ) -> None:
        self.load = load
        self.frame_size = frame_size
        self.duration_ps = duration_ps
        self._aggregate_xid: Optional[int] = None
        self._generation_done = False
        self._snmp_done = False

    def setup(self, ctx: OflopsContext) -> None:
        ctx.control.add_flow(
            Match.exact(dl_type=0x0800),
            actions=[OutputAction(ctx.egress_of_port)],
            priority=10,
        )
        self.sync_setup(ctx, ms(5))
        ctx.data.start_capture(keep_one_in=64)  # thinned: counters matter here

    def start(self, ctx: OflopsContext) -> None:
        generator = ctx.data.generator
        generator.load_template(udp_template(self.frame_size))
        if self.load >= 1.0:
            generator.at_line_rate()
        else:
            generator.set_load(self.load)
        generator.for_duration(self.duration_ps)
        generator.start()

        def on_done(stats) -> None:
            self._generation_done = True
            # Snapshot the two slower channels once traffic stops.
            self._aggregate_xid = ctx.control.request_stats(ofp.OFPST_AGGREGATE)
            ctx.snmp.poll_port_counters(
                ctx.egress_of_port, callback=lambda s: setattr(self, "_snmp_done", True)
            )

        from ...sim import spawn

        def waiter():
            yield generator.done
            on_done(None)

        spawn(ctx.sim, waiter())

    def is_finished(self, ctx: OflopsContext) -> bool:
        return (
            self._generation_done
            and self._snmp_done
            and self._aggregate_xid in ctx.control.reply_times
        )

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        sent = ctx.data.generator.packets_sent
        received = ctx.data.monitor("egress").rx_packets
        reply = next(
            e.message
            for e in ctx.control.events("stats_reply")
            if e.xid == self._aggregate_xid
        )
        flow_packets, flow_bytes, __ = struct.unpack_from("!QQI", reply.reply_body)
        snmp_out = ctx.snmp.samples[-1].values.get(
            f"1.3.6.1.2.1.2.2.1.17.{ctx.egress_of_port}"
        )
        elapsed = self.duration_ps
        return {
            "load": self.load,
            "frame_size": self.frame_size,
            "sent": sent,
            "received": received,
            "loss": sent - received,
            "flow_stats_packets": flow_packets,
            "snmp_out_packets": snmp_out,
            "forwarding_bps": received * self.frame_size * 8 * 1e12 / elapsed,
            "channels_agree": received == flow_packets == snmp_out,
        }
