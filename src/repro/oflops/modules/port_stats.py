"""Port-counter accuracy and latency — an OFLOPS staple.

Controllers drive traffic engineering off OFPST_PORT counters, so
OFLOPS measures how *stale* those counters run: the module blasts a
known packet count through the switch while polling port stats, then
reports (a) whether the final counters agree with the OSNT ground truth
and (b) how long after the last packet the counters converged.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from ...openflow import constants as ofp
from ...openflow.actions import OutputAction
from ...openflow.match import Match
from ...openflow.messages import StatsReply
from ...testbed.workloads import udp_template
from ...units import ms, us
from ..context import OflopsContext
from ..module import MeasurementModule

_PORT_STATS_LEN = 104


def _parse_port_stats(body: bytes) -> Dict[int, Tuple[int, int]]:
    """OFPST_PORT reply body → {port: (rx_packets, tx_packets)}."""
    stats = {}
    for offset in range(0, len(body) - _PORT_STATS_LEN + 1, _PORT_STATS_LEN):
        port_no = struct.unpack_from("!H", body, offset)[0]
        rx_packets, tx_packets = struct.unpack_from("!QQ", body, offset + 8)
        stats[port_no] = (rx_packets, tx_packets)
    return stats


class PortStatsAccuracyModule(MeasurementModule):
    name = "port_stats_accuracy"
    description = "OFPST_PORT counter accuracy and convergence latency"

    def __init__(
        self,
        packet_count: int = 500,
        poll_interval_ps: int = us(200),
        frame_size: int = 256,
    ) -> None:
        self.packet_count = packet_count
        self.poll_interval_ps = poll_interval_ps
        self.frame_size = frame_size
        self.samples: List[Tuple[int, int]] = []  # (reply time, tx count)
        self._generation_done_at: Optional[int] = None
        self._polling = True
        self._final_tx: Optional[int] = None

    def setup(self, ctx: OflopsContext) -> None:
        ctx.control.add_flow(
            Match.exact(dl_type=0x0800),
            actions=[OutputAction(ctx.egress_of_port)],
            priority=10,
        )
        self.sync_setup(ctx, ms(5))
        ctx.control.add_listener(self._make_listener(ctx))

    def _make_listener(self, ctx: OflopsContext):
        def on_message(message) -> None:
            if not isinstance(message, StatsReply):
                return
            if message.stats_type != ofp.OFPST_PORT:
                return
            stats = _parse_port_stats(message.reply_body)
            tx_packets = stats.get(ctx.egress_of_port, (0, 0))[1]
            self.samples.append((ctx.sim.now, tx_packets))

        return on_message

    def start(self, ctx: OflopsContext) -> None:
        generator = ctx.data.generator
        generator.load_template(udp_template(self.frame_size), count=self.packet_count)
        generator.set_load(0.5)
        generator.start()

        from ...sim import spawn

        module = self

        def poller():
            while module._polling:
                ctx.control.request_stats(ofp.OFPST_PORT)
                yield module.poll_interval_ps

        spawn(ctx.sim, poller(), name="port-stats-poller")

        def waiter():
            yield generator.done
            module._generation_done_at = ctx.sim.now

        spawn(ctx.sim, waiter())

    def is_finished(self, ctx: OflopsContext) -> bool:
        if self._generation_done_at is None:
            return False
        # Finished once a poll reflects the full count (converged) or we
        # clearly waited long enough to declare the counters broken.
        converged = any(count >= self.packet_count for __, count in self.samples)
        timed_out = ctx.sim.now > self._generation_done_at + ms(50)
        if converged or timed_out:
            self._polling = False
            return True
        return False

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        truth = ctx.data.monitor("egress").rx_packets
        converged_at = next(
            (when for when, count in self.samples if count >= self.packet_count),
            None,
        )
        lag_us = (
            (converged_at - self._generation_done_at) / 1e6
            if converged_at is not None and converged_at > self._generation_done_at
            else 0.0
        )
        final_count = self.samples[-1][1] if self.samples else 0
        return {
            "packets_sent": self.packet_count,
            "osnt_ground_truth": truth,
            "final_counter": final_count,
            "counters_accurate": final_count == truth == self.packet_count,
            "polls": len(self.samples),
            "convergence_lag_us": lag_us,
        }
