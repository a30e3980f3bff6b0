"""The OFLOPS-turbo measurement context: testbed + three channels."""

from __future__ import annotations

from typing import Optional

from ..devices.openflow_switch import SwitchProfile
from ..sim import Simulator
from ..testbed.topology import openflow_testbed
from ..units import us
from .channels import ControlChannelHandle, DataChannelHandle, SnmpChannelHandle


class OflopsContext:
    """Everything a measurement module may touch.

    Built around the Figure-2 topology: OSNT port 0 feeds switch port 1
    (OF numbering), switch port 2 feeds OSNT port 1 ("egress" monitor),
    and with cross ports wired, switch port 3 feeds OSNT port 2
    ("egress2") — used by consistency tests that redirect traffic.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        profile: Optional[SwitchProfile] = None,
        control_latency_ps: int = us(50),
        wire_cross_ports: bool = True,
        impairments=None,
        seed: int = 0,
        **osnt_kwargs,
    ) -> None:
        self.sim = sim or Simulator()
        self.testbed = openflow_testbed(
            self.sim,
            profile=profile,
            control_latency_ps=control_latency_ps,
            wire_cross_ports=wire_cross_ports,
            **osnt_kwargs,
        )
        self.control = ControlChannelHandle(self.sim, self.testbed.controller)
        monitors = {"egress": self.testbed.tester.monitor(1)}
        if wire_cross_ports:
            monitors["egress2"] = self.testbed.tester.monitor(2)
        self.data = DataChannelHandle(self.sim, self.testbed.generator, monitors)
        self.snmp = SnmpChannelHandle(self.sim, self.testbed.snmp)
        #: Framework-level telemetry: control-channel visibility plus
        #: per-module run stats (see :class:`~repro.oflops.module.ModuleRunner`).
        #: :meth:`snapshot` merges this with the tester card's registry so
        #: one read covers all three measurement channels.
        from ..telemetry import MetricsRegistry

        self.metrics = MetricsRegistry("oflops")
        self.metrics.gauge("control.received", lambda: len(self.control.received))
        self.metrics.gauge("control.sent", lambda: len(self.control.send_times))
        self.metrics.gauge("control.replies", lambda: len(self.control.reply_times))
        self.metrics.gauge("control.retries", lambda: self.control.retry_count)
        self.metrics.gauge(
            "control.dropped", lambda: self.testbed.channel.dropped_messages
        )
        #: OF port numbers (1-based) of the wired paths.
        self.ingress_of_port = 1
        self.egress_of_port = 2
        self.egress2_of_port = 3 if wire_cross_ports else None
        #: Armed fault injector, when an ImpairmentSpec was supplied.
        self.injector = None
        from ..faults import ImpairmentSpec

        spec = ImpairmentSpec.from_any(impairments)
        if not spec.empty:
            from ..faults import FaultInjector

            device = self.testbed.tester.device
            self.injector = FaultInjector(
                self.sim, spec, seed=seed, registry=self.metrics
            )
            self.injector.bind(
                link=self.testbed.links[0],
                link_egress=self.testbed.links[1],
                dma=device.dma,
                clock=device,
                control=self.testbed.channel,
            ).arm()

    def snapshot(self) -> dict:
        """Tester-card and framework telemetry in one sorted read."""
        combined = dict(self.testbed.tester.snapshot())
        combined.update(self.metrics.snapshot())
        return dict(sorted(combined.items()))

    def snapshot_openmetrics(self) -> str:
        """The combined snapshot as OpenMetrics text (``oflops`` prefix)."""
        from ..telemetry import snapshot_to_openmetrics

        return snapshot_to_openmetrics(self.snapshot(), prefix="oflops")

    @property
    def switch(self):
        return self.testbed.switch

    def run_until(self, time_ps: int) -> None:
        self.sim.run(until=time_ps)

    def run_for(self, duration_ps: int) -> None:
        self.sim.run(until=self.sim.now + duration_ps)
