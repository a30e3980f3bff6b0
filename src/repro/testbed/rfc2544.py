"""RFC 2544 benchmarking methodology on top of OSNT.

The demo says users "capture high-resolution timestamped packets to
evaluate the achievable bandwidth and latency of a network device" —
the standard way to do that is RFC 2544: binary-search the highest
offered load the DUT forwards with zero loss (throughput), then report
latency at that rate.

Each trial builds a fresh testbed (RFC 2544 trials are independent)
and offers a fixed load of one frame size for the trial duration. A
search trial counts frames as RFC 2544 §26.1 does: the generator's
sent count against the monitor's hardware RX counter, with host capture
off. Only the final latency trial embeds TX timestamps and captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.latency import latency_from_capture
from ..errors import ConfigError
from ..sim import Simulator
from ..units import line_rate_goodput_bps, ms
from .topology import legacy_testbed
from .workloads import udp_template


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
    # Generous DMA for the latency trial's capture: the tester's own
    # capture path must not lose stamped frames.
    bed = legacy_testbed(
        sim,
        {"seed": switch_seed, "fabric_rate": fabric_rate_bps},
        dma_bandwidth_bps=40e9,
        dma_ring_slots=1 << 14,
    )
    generator = bed.generator
    generator.load_template(udp_template(frame_size))
    if load >= 1.0:
        generator.at_line_rate()
    else:
        generator.set_load(load)
    if with_timestamps:
        # A search trial reads the monitor's RX counter, which counts
        # every frame with capture off. Cutting the latency trial's
        # capture to 64 bytes keeps the timestamp (42..49).
        bed.monitor.start_capture(snaplen=64)
        generator.embed_timestamps()
    generator.for_duration(duration_ps)
    generator.start()
    sim.run()
    return generator.packets_sent, bed.monitor


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
    search's load granularity (fraction of line rate, in (0, 1)) and
    ``duration_ps`` must be positive. The returned latency figures are
    measured in a final trial at the found rate with embedded
    timestamps.
    """
    if not 0 < resolution < 1:
        raise ConfigError(f"resolution must be in (0, 1), got {resolution!r}")
    if not duration_ps > 0:
        raise ConfigError(f"duration must be positive, got {duration_ps!r} ps")
    trials: List[Trial] = []
    setup = (frame_size, fabric_rate_bps, switch_seed, duration_ps)

    def lossless_at(load: float) -> bool:
        sent, monitor = _run_trial(*setup, load, with_timestamps=False)
        trials.append(Trial(load=load, sent=sent, received=monitor.rx_packets))
        return trials[-1].lossless

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
    __, monitor = _run_trial(*setup, measure_load, with_timestamps=True)
    latency = latency_from_capture(monitor.packets).summary
    return ThroughputResult(
        frame_size=frame_size,
        throughput_load=best,
        throughput_bps=best * line_rate_goodput_bps(frame_size) / 1.0,
        latency_mean_us=latency.mean / 1e6,
        latency_p99_us=latency.p99 / 1e6,
        trials=trials,
    )
