"""Forwarding consistency during large flow-table updates (demo Part II).

Rules steering N flows to one port are burst-rewritten to another. The
module counts probes still delivered to the *old* port after (a) the
update was issued and (b) the switch's barrier claimed completion. A
spec-honest switch shows zero post-barrier staleness; an eager switch
keeps forwarding stale for the whole residual table-write backlog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ...errors import OflopsError
from ...openflow.actions import OutputAction
from ...openflow.match import Match
from ...osnt.generator.field_modifiers import UdpPortSweep
from ...testbed.workloads import udp_template
from ...units import ms, us
from ..context import OflopsContext
from ..module import MeasurementModule

#: How long the run continues after the barrier reply, so the last
#: stale probes reach the old port.
_SETTLE_PS = ms(5)


@dataclass
class ConsistencyResult:
    barrier_mode: str
    n_rules: int
    #: Probes that arrived at the OLD destination after the barrier
    #: reply claimed the update was complete.
    stale_after_barrier: int
    #: Probes at the old destination after the update burst was sent.
    stale_during_update: int
    #: Update transition span (first to last rule flip), data-plane view.
    transition_span_ps: int
    barrier_latency_ps: int


class ForwardingConsistencyModule(MeasurementModule):
    name = "forwarding_consistency"
    description = "stale forwarding during a burst rule update"

    def __init__(
        self,
        n_rules: int = 32,
        base_port: int = 7000,
        probe_gap_ps: int = us(2),
    ) -> None:
        self.n_rules = n_rules
        self.base_port = base_port
        self.probe_gap_ps = probe_gap_ps
        self.t_update: Optional[int] = None
        self._barrier_xid: Optional[int] = None
        self._finish_at: Optional[int] = None

    def setup(self, ctx: OflopsContext) -> None:
        if ctx.egress2_of_port is None:
            raise OflopsError(f"module {self.name!r} needs cross ports wired")
        for index in range(self.n_rules):
            ctx.control.add_flow(
                Match.exact(dl_type=0x0800, nw_proto=17, tp_dst=self.base_port + index),
                actions=[OutputAction(ctx.egress_of_port)],
                priority=100,
            )
        self.sync_setup(ctx, ms(10))
        ctx.data.start_capture()
        ctx.data.generator.load_template(
            udp_template(128),
            modifiers=[UdpPortSweep("dst", self.base_port, self.n_rules)],
        ).set_gap(self.probe_gap_ps).start()
        ctx.run_for(ms(1))  # steady state through the old port

    def start(self, ctx: OflopsContext) -> None:
        self.t_update = ctx.sim.now
        for index in range(self.n_rules):
            ctx.control.modify_flow(
                Match.exact(dl_type=0x0800, nw_proto=17, tp_dst=self.base_port + index),
                actions=[OutputAction(ctx.egress2_of_port)],
                priority=100,
            )
        self._barrier_xid = ctx.control.barrier()

    def is_finished(self, ctx: OflopsContext) -> bool:
        if ctx.control.rtt_of(self._barrier_xid) is None:
            return False
        if self._finish_at is None:
            self._finish_at = ctx.sim.now + _SETTLE_PS
        return ctx.sim.now >= self._finish_at

    def result(self, ctx: OflopsContext) -> ConsistencyResult:
        """The probes captured so far, against the update and its barrier."""
        barrier_at = ctx.control.reply_times[self._barrier_xid]
        old_rx = [
            p.rx_timestamp
            for p in ctx.data.captured("egress")
            if p.rx_timestamp >= self.t_update
        ]
        new_rx = [p.rx_timestamp for p in ctx.data.captured("egress2")]
        last_old = max(old_rx) if old_rx else self.t_update
        first_new = min(new_rx) if new_rx else last_old
        return ConsistencyResult(
            barrier_mode=ctx.switch.profile.barrier_mode,
            n_rules=self.n_rules,
            stale_after_barrier=sum(1 for t in old_rx if t > barrier_at),
            stale_during_update=len(old_rx),
            transition_span_ps=max(0, last_old - first_new),
            barrier_latency_ps=barrier_at - self.t_update,
        )

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        ctx.data.generator.stop()
        result = self.result(ctx)
        return {
            "n_rules": self.n_rules,
            "barrier_mode": result.barrier_mode,
            "barrier_latency_us": result.barrier_latency_ps / 1e6,
            "stale_during_update": result.stale_during_update,
            "stale_after_barrier": result.stale_after_barrier,
            "transition_span_us": result.transition_span_ps / 1e6,
            "new_path_packets": len(ctx.data.captured("egress2")),
        }
