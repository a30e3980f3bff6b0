"""Reusable measurement scenarios — the code behind experiments E1–E9.

Each experiment is factored into a **single-point function**
(``*_point``): build one fresh topology, run one measurement, return a
plain dataclass row plus an extras dict (telemetry when requested).
Each point function *is* a named scenario: :mod:`repro.runner.scenarios`
binds a spec's params straight onto its keyword parameters
(``duration`` fills ``duration_ps``; ``*_ps`` and ``*_bps`` parameters
take human units), which makes it sweepable, shardable and resumable
through :class:`~repro.runner.ExperimentSpec`. So each parameter name
is a spec key and each default is written once, here.

Call a point function directly for one row; build an
:class:`~repro.runner.ExperimentSpec` for a sweep (see
``docs/RUNNER.md``). Their defaults (``seed=0``, ``switch_seed=1``)
are the seeds behind the golden E-series numbers.
E4 and E5 are single measurements already:
:func:`measure_flowmod_latency` and
:func:`measure_forwarding_consistency` run the OFLOPS-turbo modules
(:mod:`repro.oflops.modules`) and are bound the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..analysis.latency import latency_from_capture, stamped_frames
from ..analysis.stats import SummaryStats, gap_jitter_std
from ..devices.openflow_switch import SwitchProfile
from ..errors import ConfigError
from ..hw.port import connect
from ..osnt.api import OSNT
from ..osnt.generator.schedule import ConstantGap
from ..osnt.software_baseline import SoftwareGenerator
from ..sim import RandomStreams, Simulator
from ..units import (
    GBPS,
    TEN_GBPS,
    line_rate_goodput_bps,
    line_rate_pps,
    ms,
    seconds,
    us,
)
from .topology import legacy_testbed
from .workloads import fixed_size_source, udp_template

if TYPE_CHECKING:
    from ..oflops.modules.flow_mod_latency import FlowModResult
    from ..oflops.modules.forwarding_consistency import ConsistencyResult

#: Extras returned by every point function (telemetry snapshots etc.).
Extras = Dict[str, Any]


def _maybe_snapshot(tester: OSNT, telemetry: bool) -> Extras:
    return {"telemetry": tester.snapshot()} if telemetry else {}


# ---------------------------------------------------------------------------
# E1 — line rate vs packet size
# ---------------------------------------------------------------------------


@dataclass
class LineRateRow:
    frame_size: int
    ports: int
    achieved_pps: float
    theoretical_pps: float
    achieved_goodput_bps: float
    theoretical_goodput_bps: float

    @property
    def efficiency(self) -> float:
        return self.achieved_pps / self.theoretical_pps


def line_rate_point(
    frame_size: int,
    duration_ps: int = ms(1),
    ports: int = 1,
    seed: int = 0,
    telemetry: bool = False,
) -> Tuple[LineRateRow, Extras]:
    """One E1 point: line-rate generation for one frame size.

    ``ports=4`` exercises all four card ports simultaneously (two
    loopback pairs, both directions), demonstrating the paper's "full
    line-rate ... across the four card ports".
    """
    sim = Simulator()
    tester = OSNT(sim, root_seed=seed)
    connect(tester.port(0), tester.port(1))
    connect(tester.port(2), tester.port(3))
    if telemetry:
        # The line-rate frames carry no TX stamps: nothing to bin.
        tester.start_telemetry(latency_offset=None)
    active = [0] if ports == 1 else list(range(ports))
    generators = []
    for port_index in active:
        generator = tester.generator(port_index)
        generator.load_template(udp_template(frame_size)).at_line_rate()
        generator.for_duration(duration_ps)
        generator.start()
        generators.append(generator)
    sim.run()
    row = LineRateRow(
        frame_size=frame_size,
        ports=len(active),
        achieved_pps=sum(g.stats.achieved_pps() for g in generators),
        theoretical_pps=line_rate_pps(frame_size) * len(active),
        achieved_goodput_bps=sum(g.stats.achieved_bps() for g in generators),
        theoretical_goodput_bps=line_rate_goodput_bps(frame_size) * len(active),
    )
    return row, _maybe_snapshot(tester, telemetry)


# ---------------------------------------------------------------------------
# E2 — timing precision: hardware vs software, GPS discipline
# ---------------------------------------------------------------------------


@dataclass
class PrecisionRow:
    generator: str  # "osnt" or "software"
    target_gap_ns: float
    mean_gap_ns: float
    gap_std_ns: float
    worst_error_ns: float


def idt_precision_point(
    kind: str,
    target_gap_ps: int,
    packet_count: int = 500,
    frame_size: int = 128,
    seed: int = 0,
) -> Tuple[PrecisionRow, Extras]:
    """One E2 point: wire-level inter-departure precision for one
    generator kind (``"osnt"`` hardware model or ``"software"`` host)."""
    if kind not in ("osnt", "software"):
        raise ConfigError(f"unknown generator kind {kind!r} (osnt|software)")
    if packet_count < 2:
        raise ConfigError(
            f"packet_count must be >= 2 to measure a gap, got {packet_count}"
        )
    sim = Simulator()
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    departures: List[int] = []
    if kind == "osnt":
        tester.device.ports[0].tx.on_start_of_frame = (
            lambda p: departures.append(sim.now)
        )
        tester.generator(0).load_template(
            udp_template(frame_size), count=packet_count
        ).set_gap(target_gap_ps).start()
    else:
        # A separate port pair driven by the host-stack model.
        from ..hw.port import EthernetPort

        a = EthernetPort(sim, "sw-a")
        b = EthernetPort(sim, "sw-b")
        connect(a, b)
        swgen = SoftwareGenerator(sim, a, rng=RandomStreams(seed).stream("swgen"))
        a.tx.on_start_of_frame = lambda p: departures.append(sim.now)
        swgen.configure(
            fixed_size_source(frame_size, count=packet_count),
            ConstantGap(target_gap_ps),
            count=packet_count,
        )
        swgen.start()
    sim.run()
    gaps = [b_ - a_ for a_, b_ in zip(departures, departures[1:])]
    mean = sum(gaps) / len(gaps)
    row = PrecisionRow(
        generator=kind,
        target_gap_ns=target_gap_ps / 1e3,
        mean_gap_ns=mean / 1e3,
        gap_std_ns=gap_jitter_std(departures) / 1e3,
        worst_error_ns=max(abs(g - target_gap_ps) for g in gaps) / 1e3,
    )
    return row, {}


@dataclass
class ClockErrorRow:
    mode: str  # "free-running" or "gps-disciplined"
    after_seconds: int
    abs_error_ns: float


def clock_error_point(
    mode: str,
    freq_error_ppm: float = 30.0,
    walk_ppb: float = 20.0,
    horizon_s: int = 10,
    seed: int = 0,
) -> Tuple[List[ClockErrorRow], Extras]:
    """One E2b point: clock error over time for one discipline mode."""
    gps_enabled = mode == "gps-disciplined"
    sim = Simulator()
    tester = OSNT(
        sim,
        root_seed=seed,
        freq_error_ppm=freq_error_ppm,
        oscillator_walk_ppb=walk_ppb,
        gps_enabled=gps_enabled,
    )
    rows = []
    for second in range(1, horizon_s + 1):
        # Sample mid-interval: at the pulse instant a disciplined
        # clock reads zero by construction, which would overstate it.
        sim.run(until=seconds(second) + seconds(1) // 2)
        rows.append(
            ClockErrorRow(
                mode=mode,
                after_seconds=second,
                abs_error_ns=abs(tester.device.oscillator.error_ps()) / 1e3,
            )
        )
    return rows, {}


# ---------------------------------------------------------------------------
# E3 — legacy switch latency vs load (demo Part I)
# ---------------------------------------------------------------------------


@dataclass
class LatencyRow:
    frame_size: int
    load: float
    packets: int
    mean_us: float
    p50_us: float
    p99_us: float
    max_us: float
    jitter_us: float
    switch_drops: int


def legacy_latency_point(
    frame_size: int,
    load: float,
    duration_ps: int = ms(2),
    probe_load: float = 0.05,
    seed: int = 0,
    switch_seed: int = 1,
    telemetry: bool = False,
) -> Tuple[LatencyRow, Extras]:
    """One E3 point: probe latency through the switch at one load.

    Timestamped probes flow OSNT port 0 → switch → OSNT port 1 at a
    fixed low rate; background traffic from OSNT port 2 shares the same
    egress at ``load - probe_load``, so sweeping ``load`` sweeps the
    egress-queue occupancy the probes experience. At loads near/above
    1.0 the queue saturates: latency plateaus at the buffer depth and
    the switch drops — exactly the shape a hardware DUT shows.
    """
    if not duration_ps > 0:
        raise ConfigError(f"duration must be positive, got {duration_ps!r} ps")
    sim = Simulator()
    bed = legacy_testbed(
        sim, {"seed": switch_seed}, wire_cross_ports=True, root_seed=seed
    )
    if telemetry:
        bed.tester.start_telemetry()
    bed.monitor.start_capture()
    background_load = max(0.0, load - probe_load)
    if background_load > 0:
        # Poisson arrivals: real aggregates are bursty, and the
        # classic latency-vs-load queueing curve needs burstiness
        # (deterministic CBR only queues at saturation).
        background = bed.tester.generator(2)
        background.load_template(
            udp_template(frame_size, src_mac="02:00:00:00:00:03")
        )
        from ..units import frame_wire_bytes, wire_time_ps

        wire_ps = wire_time_ps(frame_wire_bytes(frame_size), TEN_GBPS)
        background.poisson(wire_ps / min(background_load, 1.0))
        background.for_duration(duration_ps)
        background.start()
    bed.generator.load_template(udp_template(frame_size))
    bed.generator.set_load(min(load, probe_load))
    bed.generator.embed_timestamps().for_duration(duration_ps)
    bed.generator.start()
    sim.run()
    result = latency_from_capture(bed.monitor.packets)
    summary = result.summary
    row = LatencyRow(
        frame_size=frame_size,
        load=load,
        packets=summary.count,
        mean_us=summary.mean / 1e6,
        p50_us=summary.p50 / 1e6,
        p99_us=summary.p99 / 1e6,
        max_us=summary.maximum / 1e6,
        jitter_us=result.jitter_rfc3550_ps / 1e6,
        switch_drops=bed.switch.egress_drops,
    )
    return row, _maybe_snapshot(bed.tester, telemetry)


# ---------------------------------------------------------------------------
# E4/E5 — flow-table updates, control vs data plane (demo Part II)
# ---------------------------------------------------------------------------


def measure_flowmod_latency(
    n_rules: int = 32,
    barrier_mode: str = "spec",
    firmware_delay_ps: int = us(10),
    table_write_ps: int = us(100),
    probe_gap_ps: int = us(2),
    base_port: int = 6000,
    impairments=None,
    seed: int = 0,
    deadline_ps: Optional[int] = None,
) -> FlowModResult:
    """Demo Part II: latency to modify the flow table, measured both ways.

    Runs :class:`~repro.oflops.FlowModLatencyModule` with no warm-up:
    the update burst leaves with the first probe, and each rule's
    activation is the RX timestamp of the first probe it forwards.

    ``impairments`` accepts anything
    :meth:`repro.faults.ImpairmentSpec.from_any` does; under active
    faults the run degrades instead of crashing: the setup barrier is
    resent up to 3 times, and a deadline hit reports ``degraded=True``
    with whatever activated.
    """
    from ..oflops import FlowModLatencyModule, OflopsContext

    ctx = OflopsContext(
        profile=SwitchProfile(
            barrier_mode=barrier_mode,
            firmware_delay_ps=firmware_delay_ps,
            table_write_ps=table_write_ps,
        ),
        wire_cross_ports=False,
        impairments=impairments,
        seed=seed,
    )
    module = FlowModLatencyModule(n_rules, base_port, probe_gap_ps, warmup_ps=0)
    module.max_duration_ps = seconds(2) if deadline_ps is None else deadline_ps
    return _run_to_result(ctx, module)


def measure_forwarding_consistency(
    n_rules: int = 32,
    barrier_mode: str = "eager",
    firmware_delay_ps: int = us(30),
    table_write_ps: int = us(50),
    probe_gap_ps: int = us(2),
    base_port: int = 7000,
) -> ConsistencyResult:
    """Demo Part II: is forwarding consistent with control-plane claims?

    Runs :class:`~repro.oflops.ForwardingConsistencyModule`: rules
    steering ``n_rules`` flows to OF port 2 (old) are rewritten to OF
    port 3 (new), and a probe the switch still delivers to the old port
    is stale — counted against both the update start and the barrier
    reply.
    """
    from ..oflops import ForwardingConsistencyModule, OflopsContext

    ctx = OflopsContext(
        profile=SwitchProfile(
            barrier_mode=barrier_mode,
            firmware_delay_ps=firmware_delay_ps,
            table_write_ps=table_write_ps,
        )
    )
    return _run_to_result(
        ctx, ForwardingConsistencyModule(n_rules, base_port, probe_gap_ps)
    )


def _run_to_result(ctx, module):
    """Run ``module`` and read its result once in-flight probes land."""
    from ..oflops import ModuleRunner

    ModuleRunner(ctx).run(module)
    ctx.run_for(us(100))
    return module.result(ctx)


# ---------------------------------------------------------------------------
# E6 — loss-limited capture path
# ---------------------------------------------------------------------------


@dataclass
class CaptureRow:
    offered_load: float
    variant: str
    offered_packets: int
    captured: int
    dropped: int

    @property
    def capture_fraction(self) -> float:
        total = self.captured + self.dropped
        return self.captured / total if total else 0.0


#: The capture reducer variants E6 compares, as spec-friendly dicts.
CAPTURE_VARIANTS: List[Dict[str, Any]] = [
    {"name": "full"},
    {"name": "cut-64", "snaplen": 64},
    {"name": "thin-1in8", "keep_one_in": 8},
    {"name": "cut+thin", "snaplen": 64, "keep_one_in": 8},
]

#: Keys a capture variant may carry: ``name`` plus the start_capture options.
_VARIANT_KEYS = {"name", "snaplen", "keep_one_in", "hash_packets"}


def capture_path_point(
    load: float,
    variant: Optional[Dict[str, Any]] = None,
    frame_size: int = 512,
    duration_ps: int = ms(2),
    dma_bandwidth_bps: float = 2 * GBPS,
    seed: int = 0,
) -> Tuple[CaptureRow, Extras]:
    """One E6 point: capture completeness for one load and one reducer
    variant (``{"name": ..., "snaplen": ..., "keep_one_in": ...,
    "hash_packets": ...}``)."""
    variant = dict(variant or {"name": "full"})
    unknown = set(variant) - _VARIANT_KEYS
    if unknown:
        raise ConfigError(
            f"capture variant: unknown key(s) {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(_VARIANT_KEYS))})"
        )
    variant_name = variant.pop("name", "custom")
    sim = Simulator()
    tester = OSNT(sim, root_seed=seed, dma_bandwidth_bps=dma_bandwidth_bps)
    connect(tester.port(0), tester.port(1))
    monitor = tester.monitor(1)
    monitor.start_capture(**variant)
    generator = tester.generator(0)
    generator.load_template(udp_template(frame_size))
    generator.set_load(load).for_duration(duration_ps)
    generator.start()
    sim.run()
    pipeline = tester.device.monitor(1)
    row = CaptureRow(
        offered_load=load,
        variant=variant_name,
        offered_packets=generator.packets_sent,
        captured=pipeline.captured,
        dropped=pipeline.dma_drops_at_port,
    )
    return row, {}


# ---------------------------------------------------------------------------
# E7 — timestamp placement: MAC-adjacent vs host-side
# ---------------------------------------------------------------------------


@dataclass
class PlacementRow:
    load: float
    hw_mean_us: float
    hw_std_us: float
    host_mean_us: float
    host_std_us: float

    @property
    def host_error_inflation(self) -> float:
        """How many times wider host-side measurement spread is."""
        return self.host_std_us / self.hw_std_us if self.hw_std_us else float("inf")


def timestamp_placement_point(
    load: float,
    frame_size: int = 512,
    duration_ps: int = ms(2),
    dma_bandwidth_bps: float = 4 * GBPS,
    seed: int = 0,
    switch_seed: int = 1,
) -> Tuple[PlacementRow, Extras]:
    """One E7 point: hardware vs host-side latency spread at one load —
    quantifying the "queueing noise" the MAC-side stamp eliminates."""
    if not duration_ps > 0:
        raise ConfigError(f"duration must be positive, got {duration_ps!r} ps")
    sim = Simulator()
    bed = legacy_testbed(
        sim,
        {"seed": switch_seed},
        dma_bandwidth_bps=dma_bandwidth_bps,
        root_seed=seed,
    )
    host_arrivals: Dict[int, int] = {}
    bed.monitor.start_capture()
    bed.monitor.on_packet(
        lambda packet: host_arrivals.__setitem__(packet.packet_id, sim.now)
    )
    bed.generator.load_template(udp_template(frame_size))
    bed.generator.set_load(load).embed_timestamps().for_duration(duration_ps)
    bed.generator.start()
    sim.run()
    hw_samples = []
    host_samples = []
    for packet, tx in stamped_frames(bed.monitor.packets):
        hw_samples.append(packet.rx_timestamp - tx)
        host_samples.append(host_arrivals[packet.packet_id] - tx)
    hw = SummaryStats.of(hw_samples)
    host = SummaryStats.of(host_samples)
    row = PlacementRow(
        load=load,
        hw_mean_us=hw.mean / 1e6,
        hw_std_us=hw.std / 1e6,
        host_mean_us=host.mean / 1e6,
        host_std_us=host.std / 1e6,
    )
    return row, {}


# ---------------------------------------------------------------------------
# E9 — router forwarding latency vs FIB shape
# ---------------------------------------------------------------------------


@dataclass
class RouterLatencyRow:
    fib_routes: int
    prefix_len: int
    packets: int
    mean_us: float
    p99_us: float
    forwarded: int
    no_route: int


def router_latency_point(
    prefix_len: int,
    fib_fill: int = 1000,
    frame_size: int = 256,
    duration_ps: int = ms(1),
    seed: int = 0,
) -> Tuple[RouterLatencyRow, Extras]:
    """One E9 point: forwarding latency at one matched-prefix depth.

    The FIB is filled with ``fib_fill`` filler routes plus one route of
    the probed prefix length; probes hit that route, so the latency
    reflects the LPM walk depth — the router-specific effect a tester
    can resolve thanks to sub-µs timestamping.
    """
    if not duration_ps > 0:
        raise ConfigError(f"duration must be positive, got {duration_ps!r} ps")
    from ..devices.router import Router

    sim = Simulator()
    router = Router(sim)
    tester = OSNT(sim, root_seed=seed)
    connect(tester.port(0), router.port(0))
    connect(tester.port(1), router.port(1))
    # Filler routes across a disjoint space (192.0.0.0/10 region).
    for index in range(fib_fill):
        router.add_route(
            f"192.{(index >> 8) & 0x3F}.{index & 0xFF}.0/24",
            out_port=2,
            next_hop_mac="02:aa:00:00:00:ff",
        )
    # The measured route: covers the probe address at the probed
    # length (the trie consumes only the first prefix_len bits).
    router.add_route(
        f"10.0.0.1/{prefix_len}", out_port=1, next_hop_mac="02:aa:00:00:00:01"
    )
    monitor = tester.monitor(1)
    monitor.start_capture()
    generator = tester.generator(0)
    generator.load_template(udp_template(frame_size, dst_ip="10.0.0.1"))
    generator.set_load(0.2).embed_timestamps().for_duration(duration_ps)
    generator.start()
    sim.run()
    result = latency_from_capture(monitor.packets)
    summary = result.summary
    row = RouterLatencyRow(
        fib_routes=router.fib.size,
        prefix_len=prefix_len,
        packets=summary.count,
        mean_us=summary.mean / 1e6,
        p99_us=summary.p99 / 1e6,
        forwarded=router.forwarded,
        no_route=router.no_route,
    )
    return row, {}


# ---------------------------------------------------------------------------
# E3b — per-size latency from one mixed (IMIX) stream
# ---------------------------------------------------------------------------


@dataclass
class ImixLatencyRow:
    frame_size: int
    packets: int
    mean_us: float
    p99_us: float


def imix_latency_point(
    load: float = 0.5,
    duration_ps: int = ms(2),
    seed: int = 0,
    switch_seed: int = 1,
) -> Tuple[List[ImixLatencyRow], Extras]:
    """One E3b run: one IMIX stream through the switch, latency
    classified per frame size from the single capture.

    This is the measurement style hardware testers enable: because every
    captured packet carries its own embedded TX stamp, one mixed-traffic
    run yields the full per-size latency breakdown — no need for one
    run per size.
    """
    from ..net.pcap import PcapRecord
    from .workloads import IMIX_PATTERN

    sim = Simulator()
    bed = legacy_testbed(sim, {"seed": switch_seed}, root_seed=seed)
    bed.monitor.start_capture()
    records = [PcapRecord(0, udp_template(size).data) for size in IMIX_PATTERN]
    generator = bed.generator
    generator.load_pcap(records, loop=10**6, preserve_timing=False)
    generator.set_rate(load * TEN_GBPS).for_duration(duration_ps)
    generator.embed_timestamps().start()
    sim.run()
    by_size: Dict[int, List[int]] = {}
    for packet, tx in stamped_frames(bed.monitor.packets):
        by_size.setdefault(packet.frame_length, []).append(packet.rx_timestamp - tx)
    rows = []
    for size in sorted(by_size):
        summary = SummaryStats.of(by_size[size])
        rows.append(
            ImixLatencyRow(
                frame_size=size,
                packets=summary.count,
                mean_us=summary.mean / 1e6,
                p99_us=summary.p99 / 1e6,
            )
        )
    return rows, {}
