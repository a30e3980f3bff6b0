"""Control-plane interaction: packet-in load slows flow installation.

A classic OFLOPS finding: the switch's management CPU serialises *all*
control work, so a burst of table misses (packet-ins) delays concurrent
flow_mod processing. The module measures single-rule install latency
(flow_mod → first forwarded probe) twice — on a quiet switch, and while
a miss storm loads the firmware — and reports the inflation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...net.parser import decode
from ...openflow.actions import OutputAction
from ...openflow.match import Match
from ...osnt.generator.field_modifiers import UdpPortSweep
from ...testbed.workloads import udp_template
from ...units import ms, us
from ..context import OflopsContext
from ..module import MeasurementModule

_PROBE_PORT = 9100
_STORM_PORT = 9990


class ControlInteractionModule(MeasurementModule):
    name = "control_interaction"
    description = "flow_mod install latency, quiet vs under packet-in load"

    def __init__(self, storm_gap_ps: int = us(20), probe_gap_ps: int = us(2)) -> None:
        self.storm_gap_ps = storm_gap_ps
        self.probe_gap_ps = probe_gap_ps
        self.quiet_install_ps: Optional[int] = None
        self.loaded_install_ps: Optional[int] = None
        self._phase = "quiet"
        self._t0: Optional[int] = None
        self._first_forwarded: Optional[int] = None
        self._storm_generator = None

    def setup(self, ctx: OflopsContext) -> None:
        # Drop rule for the probe flows only; storm traffic (different
        # port range) must keep MISSING so it generates packet-ins.
        ctx.control.add_flow(
            Match.exact(dl_type=0x0800, nw_proto=17, tp_dst=_PROBE_PORT),
            actions=[],
            priority=1,
        )
        ctx.control.add_flow(
            Match.exact(dl_type=0x0800, nw_proto=17, tp_dst=_PROBE_PORT + 1),
            actions=[],
            priority=1,
        )
        self.sync_setup(ctx, ms(5))
        ctx.data.start_capture()
        ctx.data.monitor("egress").on_packet(self._on_capture)
        # Continuous probes alternating the two measured flows.
        ctx.data.generator.load_template(
            udp_template(128), modifiers=[UdpPortSweep("dst", _PROBE_PORT, 2)]
        ).set_gap(self.probe_gap_ps).start()
        ctx.run_for(ms(1))

    def start(self, ctx: OflopsContext) -> None:
        # Phase 1 (quiet): install the rule for flow 0 and time it.
        self._phase = "quiet"
        self._begin_install(ctx, _PROBE_PORT)

    def _begin_install(self, ctx: OflopsContext, port: int) -> None:
        self._t0 = ctx.sim.now
        self._first_forwarded = None
        self._target_port = port
        ctx.control.add_flow(
            Match.exact(dl_type=0x0800, nw_proto=17, tp_dst=port),
            actions=[OutputAction(ctx.egress_of_port)],
            priority=100,
        )

    def _on_capture(self, packet) -> None:
        if self._first_forwarded is not None:
            return
        decoded = decode(packet.data)
        if decoded.udp is not None and decoded.udp.dst_port == self._target_port:
            self._first_forwarded = packet.rx_timestamp

    def _start_storm(self, ctx: OflopsContext) -> None:
        """Miss traffic from a second tester port (cross-wired)."""
        storm = ctx.testbed.tester.generator(2)
        storm.load_template(
            udp_template(64, dst_port=_STORM_PORT, src_mac="02:00:00:00:00:07")
        )
        storm.set_gap(self.storm_gap_ps)
        storm.start()
        self._storm_generator = storm

    def is_finished(self, ctx: OflopsContext) -> bool:
        if self._first_forwarded is None:
            return False
        if self._phase == "quiet":
            self.quiet_install_ps = self._first_forwarded - self._t0
            # Phase 2: same measurement for flow 1 under a miss storm.
            self._phase = "loaded"
            self._start_storm(ctx)
            ctx.run_for(ms(1))  # let the storm fill the firmware queue
            self._begin_install(ctx, _PROBE_PORT + 1)
            return False
        self.loaded_install_ps = self._first_forwarded - self._t0
        return True

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        ctx.data.generator.stop()
        if self._storm_generator is not None:
            self._storm_generator.stop()
        return {
            "quiet_install_us": self.quiet_install_ps / 1e6,
            "loaded_install_us": self.loaded_install_ps / 1e6,
            "inflation": self.loaded_install_ps / self.quiet_install_ps,
            "packet_ins_during_run": len(ctx.control.packet_in_events()),
        }
