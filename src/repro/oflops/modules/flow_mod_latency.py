"""Flow-table modification latency — the demo's Part II headline test.

"a test which measures the latency to modify the entries of the switch
flow table through control and data plane measurements."

Control-plane view: flow_mod burst followed by a barrier; the barrier
RTT is what the switch *claims*. Data-plane view: OSNT probes cycling
every rule's flow; a rule is *actually* installed when its first probe
emerges from the switch, timestamped in hardware at the capture MAC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...net.parser import decode
from ...openflow.actions import OutputAction
from ...openflow.match import Match
from ...osnt.generator.field_modifiers import UdpPortSweep
from ...testbed.workloads import udp_template
from ...units import ms, us
from ..context import OflopsContext
from ..module import MeasurementModule


@dataclass
class FlowModResult:
    barrier_mode: str
    n_rules: int
    #: Time from the first flow_mod leaving the controller to the
    #: barrier reply arriving back (the control plane's claim); the
    #: whole deadline when the reply never came.
    control_latency_ps: int
    #: Per-rule data-plane activation latency (first forwarded probe).
    rule_activation_ps: List[int] = field(default_factory=list)
    #: True when rules stayed unactivated or the barrier unanswered
    #: (fault-injection runs); healthy runs report False and the
    #: ``flowmod_latency`` scenario omits the field.
    degraded: bool = False
    #: Setup-barrier resends that were needed (flapped control channel).
    control_retries: int = 0

    @property
    def data_plane_complete_ps(self) -> int:
        return max(self.rule_activation_ps) if self.rule_activation_ps else 0

    @property
    def control_says_done_before_data_ps(self) -> int:
        """Positive when the barrier claimed completion early."""
        return self.data_plane_complete_ps - self.control_latency_ps


class FlowModLatencyModule(MeasurementModule):
    name = "flow_mod_latency"
    description = "flow_mod install latency: barrier vs first forwarded packet"
    #: Survives flapped control channels: missing barrier replies or
    #: unactivated rules degrade the result instead of crashing.
    degradable = True
    #: Setup-barrier resends when its reply does not come back.
    setup_retries = 3
    #: Whether the probes carry in-band TX stamps.
    stamp_probes = False

    def __init__(
        self,
        n_rules: int = 32,
        base_port: int = 6000,
        probe_gap_ps: int = us(2),
        warmup_ps: int = ms(1),
    ) -> None:
        self.n_rules = n_rules
        self.base_port = base_port
        self.probe_gap_ps = probe_gap_ps
        #: Probing before the update burst, to confirm the steady
        #: miss/drop state (0 sends the burst with the first probe).
        self.warmup_ps = warmup_ps
        self.activation: Dict[int, int] = {}
        self.t0: Optional[int] = None
        self._barrier_xid: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    def setup(self, ctx: OflopsContext) -> None:
        # UDP catch-all drop keeps probe misses off the control channel
        # until their rules land; other traffic still misses.
        ctx.control.add_flow(
            Match.exact(dl_type=0x0800, nw_proto=17), actions=[], priority=1
        )
        # Bounded resends: on a flapped channel the barrier (or its
        # reply) may be lost; on a healthy one this is a single
        # barrier + run_for.
        ctx.control.sync_barrier(ctx.run_for, ms(5), retries=self.setup_retries)
        self.before_probes(ctx)
        ctx.data.start_capture()
        ctx.data.monitor("egress").on_packet(self._on_capture)
        generator = ctx.data.generator
        generator.load_template(
            udp_template(128),
            modifiers=[UdpPortSweep("dst", self.base_port, self.n_rules)],
        ).set_gap(self.probe_gap_ps)
        if self.stamp_probes:
            generator.embed_timestamps()
        generator.start()
        if self.warmup_ps:
            ctx.run_for(self.warmup_ps)

    def before_probes(self, ctx: OflopsContext) -> None:
        """Hook between the setup barrier and the first probe."""

    def start(self, ctx: OflopsContext) -> None:
        self.t0 = ctx.sim.now
        for index in range(self.n_rules):
            ctx.control.add_flow(
                Match.exact(dl_type=0x0800, nw_proto=17, tp_dst=self.base_port + index),
                actions=[OutputAction(ctx.egress_of_port)],
                priority=100,
            )
        self._barrier_xid = ctx.control.barrier()

    def _on_capture(self, packet) -> None:
        decoded = decode(packet.data)
        if decoded.udp is None:
            return
        rule = decoded.udp.dst_port - self.base_port
        if 0 <= rule < self.n_rules and rule not in self.activation:
            self.activation[rule] = packet.rx_timestamp

    def is_finished(self, ctx: OflopsContext) -> bool:
        return (
            len(self.activation) == self.n_rules
            and ctx.control.rtt_of(self._barrier_xid) is not None
        )

    def result(self, ctx: OflopsContext) -> FlowModResult:
        """The measurement so far, in ps from the first measured flow_mod."""
        barrier_done = ctx.control.reply_times.get(self._barrier_xid)
        deadline = self.t0 + self.max_duration_ps
        return FlowModResult(
            barrier_mode=ctx.switch.profile.barrier_mode,
            n_rules=self.n_rules,
            control_latency_ps=(deadline if barrier_done is None else barrier_done)
            - self.t0,
            rule_activation_ps=[
                self.activation[i] - self.t0 for i in sorted(self.activation)
            ],
            degraded=barrier_done is None or len(self.activation) < self.n_rules,
            control_retries=ctx.control.retry_count,
        )

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        ctx.data.generator.stop()
        # Tolerant of a degraded run: the barrier reply may never have
        # arrived and some rules may never have activated.
        result = self.result(ctx)
        answered = self._barrier_xid in ctx.control.reply_times
        activations = result.rule_activation_ps
        out: Dict[str, Any] = {
            "n_rules": self.n_rules,
            "barrier_mode": result.barrier_mode,
        }
        if answered:
            out["control_done_us"] = result.control_latency_ps / 1e6
        if activations:
            out["data_done_us"] = result.data_plane_complete_ps / 1e6
            out["first_rule_us"] = min(activations) / 1e6
            out["median_rule_us"] = sorted(activations)[len(activations) // 2] / 1e6
            if answered:
                out["barrier_understates_by_us"] = (
                    result.control_says_done_before_data_ps / 1e6
                )
            out["per_rule_activation_us"] = [a / 1e6 for a in activations]
        if result.degraded or result.control_retries:
            out["rules_activated"] = len(activations)
            out["control_retries"] = result.control_retries
        return out
