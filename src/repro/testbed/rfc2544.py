"""RFC 2544 benchmarking methodology on top of OSNT.

The demo says users "capture high-resolution timestamped packets to
evaluate the achievable bandwidth and latency of a network device" —
the standard way to do that is RFC 2544: binary-search the highest
offered load the DUT forwards with zero loss (throughput), then report
latency at that rate.

Each trial builds a fresh testbed (RFC 2544 trials are independent),
offers a fixed load of one frame size for the trial duration, and
counts sequence-numbered frames end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.latency import latency_from_capture, loss_from_sequence_numbers
from ..devices.legacy_switch import LegacySwitch
from ..osnt.generator.field_modifiers import SequenceNumber
from ..sim import RandomStreams, Simulator
from ..units import line_rate_goodput_bps, ms
from .topology import legacy_testbed
from .workloads import udp_template

#: Where the sequence number lives in the probe frames (clear of the
#: default timestamp offset at 42..49).
SEQUENCE_OFFSET = 54


@dataclass
class Trial:
    load: float
    sent: int
    received: int

    @property
    def lossless(self) -> bool:
        return self.received == self.sent


@dataclass
class ThroughputResult:
    frame_size: int
    #: Highest zero-loss load as a fraction of line rate.
    throughput_load: float
    #: Goodput at that load (frame bits per second).
    throughput_bps: float
    #: Mean/p99 latency measured at the found rate (µs).
    latency_mean_us: float
    latency_p99_us: float
    trials: List[Trial] = field(default_factory=list)


def _run_trial(
    frame_size: int,
    fabric_rate_bps: Optional[float],
    switch_seed: int,
    duration_ps: int,
    load: float,
    with_timestamps: bool,
):
    sim = Simulator()
    switch = LegacySwitch(
        sim,
        fabric_rate_bps=fabric_rate_bps,
        rng=RandomStreams(switch_seed).stream("sw"),
    )
    # Generous DMA: the tester's own capture path must not lose packets,
    # or capture loss would be misattributed to the DUT. Cutting to 64
    # bytes keeps both the timestamp (42..49) and sequence (54..57).
    bed = legacy_testbed(
        sim, switch=switch, dma_bandwidth_bps=40e9, dma_ring_slots=1 << 14
    )
    bed.teach_mac_table("02:00:00:00:00:02")
    bed.monitor.start_capture(snaplen=64)
    generator = bed.generator
    generator.load_template(
        udp_template(frame_size),
        modifiers=[SequenceNumber(SEQUENCE_OFFSET)],
    )
    if load >= 1.0:
        generator.at_line_rate()
    else:
        generator.set_load(load)
    if with_timestamps:
        generator.embed_timestamps()
    generator.for_duration(duration_ps)
    generator.start()
    sim.run()
    sent = generator.packets_sent
    loss = loss_from_sequence_numbers(
        bed.monitor.packets, offset=SEQUENCE_OFFSET, expected_count=sent
    )
    return sent, loss, bed.monitor.packets


def rfc2544_point(
    frame_size: int,
    fabric_rate_bps: Optional[float] = None,
    duration_ps: int = ms(2),
    resolution: float = 0.01,
    switch_seed: int = 1,
) -> ThroughputResult:
    """Binary-search the DUT's zero-loss throughput for one frame size.

    The DUT is a :class:`~repro.devices.LegacySwitch` with a
    ``fabric_rate_bps`` fabric (``None``: non-blocking) and RNG seed
    ``switch_seed``, built afresh for every trial. ``resolution`` is the
    search's load granularity (fraction of line rate). The returned
    latency figures are measured in a final trial at the found rate with
    embedded timestamps.
    """
    trials: List[Trial] = []
    setup = (frame_size, fabric_rate_bps, switch_seed, duration_ps)

    def lossless_at(load: float) -> bool:
        sent, loss, __ = _run_trial(*setup, load, with_timestamps=False)
        trials.append(Trial(load=load, sent=sent, received=sent - loss.lost))
        return loss.lost == 0

    low, high = 0.0, 1.0
    if lossless_at(1.0):
        best = 1.0
    else:
        best = 0.0
        while high - low > resolution:
            mid = (low + high) / 2
            if lossless_at(mid):
                best = mid
                low = mid
            else:
                high = mid

    # Latency at the found throughput (RFC 2544 §26.2).
    measure_load = max(best, resolution)
    __, __, packets = _run_trial(*setup, measure_load, with_timestamps=True)
    latency = latency_from_capture(packets).summary
    return ThroughputResult(
        frame_size=frame_size,
        throughput_load=best,
        throughput_bps=best * line_rate_goodput_bps(frame_size) / 1.0,
        latency_mean_us=latency.mean / 1e6,
        latency_p99_us=latency.p99 / 1e6,
        trials=trials,
    )
