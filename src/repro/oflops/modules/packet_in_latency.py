"""Packet-in latency: data-plane TX → control-plane arrival.

OSNT embeds a hardware TX timestamp in each probe; the probe misses the
flow table and returns to the OFLOPS host as an OFPT_PACKET_IN carrying
those bytes. The latency is controller-arrival minus embedded TX stamp —
a cross-channel measurement only possible because both channels share
the measurement clock (the paper's core OFLOPS-turbo argument).

Every probe is stamped, so a zero stamp is a real time (the run may
start at t=0). That differs on purpose from the host-side capture rule,
:func:`repro.analysis.latency.stamped_frames`, which takes a zero stamp
field as never written.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...analysis.stats import SummaryStats
from ...hw.timestamp import STAMP_OFFSET, raw_to_ps, read_stamp
from ...openflow.messages import PacketIn
from ...testbed.workloads import udp_template
from ...units import us
from ..context import OflopsContext
from ..module import MeasurementModule


class PacketInLatencyModule(MeasurementModule):
    name = "packet_in_latency"
    description = "miss → OFPT_PACKET_IN latency, via embedded TX timestamps"

    def __init__(
        self,
        count: int = 100,
        probe_gap_ps: int = us(100),
        frame_size: int = 128,
    ) -> None:
        self.count = count
        self.probe_gap_ps = probe_gap_ps
        self.frame_size = frame_size
        self.samples: List[int] = []

    def setup(self, ctx: OflopsContext) -> None:
        ctx.control.add_listener(self._make_listener(ctx))

    def start(self, ctx: OflopsContext) -> None:
        ctx.data.generator.load_template(
            udp_template(self.frame_size), count=self.count
        ).set_gap(self.probe_gap_ps).embed_timestamps().start()

    def _make_listener(self, ctx: OflopsContext):
        def on_message(message) -> None:
            if not isinstance(message, PacketIn):
                return
            raw = read_stamp(message.data, STAMP_OFFSET)
            if raw is None:
                return  # the frame ends before the stamp does
            self.samples.append(ctx.sim.now - raw_to_ps(raw))  # a zero stamp too

        return on_message

    def is_finished(self, ctx: OflopsContext) -> bool:
        return len(self.samples) >= self.count

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        summary = SummaryStats.of(self.samples)
        return {
            "count": summary.count,
            "latency_mean_us": summary.mean / 1e6,
            "latency_p50_us": summary.p50 / 1e6,
            "latency_p99_us": summary.p99 / 1e6,
            "latency_max_us": summary.maximum / 1e6,
        }
