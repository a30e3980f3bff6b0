"""Attack-style workloads: control-plane churn and synchronized incast.

Two measurement points built from the traffic-model pattern library
(:mod:`repro.osnt.generator.trafficmodels`), registered as sweepable
scenarios in :mod:`repro.runner.scenarios`:

* ``syn_flood_flowmod`` — many-flow TCP SYN churn drives continuous
  table misses (and thus packet-ins) through the OpenFlow switch's
  serial firmware, while a measured flow_mod burst times rule
  installation the E4 way. Sweeping the churn's traffic model shows how
  burstiness — not just average rate — degrades control-plane latency.
* ``incast_burst`` — ``k`` synchronized burst-train senders converge on
  one legacy-switch egress; the monitor's per-flow RTT bank answers
  "p99.9 RTT per sender under burst load" from in-band TX stamps while
  the egress FIFO's peak occupancy and drop counters size the buffer.

Both accept anything :meth:`~repro.osnt.generator.trafficspec
.TrafficModelSpec.from_any` does for their ``traffic`` argument and
report the spec's fingerprint, so sweep rows are self-describing.
Both compose with :mod:`repro.faults` (``impairments``) and with
recorders armed through :func:`repro.obs.observe_simulators` without
perturbing a single timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..devices.openflow_switch import SwitchProfile
from ..net.builder import build_tcp
from ..osnt.generator.field_modifiers import Ipv4AddressSweep
from ..osnt.generator.trafficspec import TrafficModelSpec
from ..sim import Simulator
from ..units import duration_ps as _dur
from ..units import ms, seconds, us
from .scenarios import _run_to_result
from .topology import legacy_testbed
from .workloads import udp_template

#: Extras returned by every point function (telemetry snapshots etc.).
Extras = Dict[str, Any]

#: Default churn/incast pacing: 32-frame trains at peak rate, 40 µs
#: apart — bursty enough to pile misses into the firmware queue and
#: frames into an egress FIFO, while averaging well below line rate.
DEFAULT_TRAFFIC: Dict[str, Any] = {
    "model": "burst_train",
    "params": {"frames_per_burst": 32, "inter_burst_gap": "40us"},
}


def _arm_waves(sim: Simulator, waveforms: bool):
    """Optionally arm a waveform recorder; returns it (or None).

    Recording is non-perturbing, so the scenario's row is bit-identical
    with or without it; the recorder's digest and per-series summary
    land in the extras for sweep-wide folding.
    """
    if not waveforms:
        return None
    from ..telemetry import WaveformRecorder

    return WaveformRecorder().arm(sim)


def _wave_extras(extras: Extras, recorder) -> None:
    if recorder is not None:
        summary = recorder.summary()
        extras["waveform_digest"] = summary["digest"]
        extras["waveforms"] = summary["series"]


def _traffic_spec(traffic) -> TrafficModelSpec:
    spec = TrafficModelSpec.from_any(traffic)
    return spec if spec is not None else TrafficModelSpec.from_dict(DEFAULT_TRAFFIC)


def _percentiles_us(rows_source) -> Dict[str, Optional[float]]:
    """Aggregate p50/p99/p999 in µs from a latency bank (or None)."""
    if rows_source is None or not len(rows_source):
        return {"rtt_p50_us": None, "rtt_p99_us": None, "rtt_p999_us": None}
    summary = rows_source.aggregate().summary()
    return {
        "rtt_p50_us": None if summary.p50 is None else summary.p50 / 1e6,
        "rtt_p99_us": None if summary.p99 is None else summary.p99 / 1e6,
        "rtt_p999_us": None if summary.p999 is None else summary.p999 / 1e6,
    }


# ---------------------------------------------------------------------------
# A1 — SYN-flood churn vs flow_mod latency
# ---------------------------------------------------------------------------


@dataclass
class SynFloodRow:
    n_flows: int
    n_rules: int
    traffic: str  # the churn model's spec fingerprint
    #: First measured flow_mod out to barrier reply back.
    control_latency_ps: int
    #: Per-rule data-plane activation latency (first forwarded probe).
    rule_activation_ps: List[int] = field(default_factory=list)
    degraded: bool = False
    churn_sent: int = 0
    datapath_misses: int = 0
    packet_ins_sent: int = 0
    packet_ins_dropped: int = 0
    firmware_queue_peak: int = 0
    flow_mods_handled: int = 0
    #: Per-flow probe RTT percentile rows (keyed by UDP dst port), with
    #: the ``p999`` column the monitor's log-linear bank provides.
    flow_rtt_rows: List[Dict[str, Any]] = field(default_factory=list)
    rtt_p50_us: Optional[float] = None
    rtt_p99_us: Optional[float] = None
    rtt_p999_us: Optional[float] = None


def syn_flood_flowmod_point(
    n_flows: int = 256,
    n_rules: int = 16,
    traffic=None,
    frame_size: int = 64,
    duration_ps: int = ms(4),
    probe_gap_ps: int = us(4),
    base_port: int = 6000,
    packet_in_queue_limit: Optional[int] = 64,
    firmware_delay_ps: int = us(10),
    table_write_ps: int = us(100),
    warmup_ps: int = us(500),
    impairments=None,
    seed: int = 0,
    deadline_ps: Optional[int] = None,
    telemetry: bool = False,
    waveforms: bool = False,
) -> Tuple[SynFloodRow, Extras]:
    """One A1 point: flow_mod latency while SYN churn floods the firmware.

    TCP SYNs cycling ``n_flows`` source addresses enter OF port 3; no
    TCP rule exists, so every SYN misses and becomes a packet-in job on
    the same serial firmware that must execute the measured flow_mods.
    The measurement is :class:`~repro.oflops.FlowModLatencyModule`, as
    in E4: its UDP catch-all drop keeps the *probe* stream off the
    control channel until its rules land, so the only churn is the
    attack traffic. Here the probes carry TX stamps, giving both
    per-rule activation times and per-flow RTT histograms.
    """
    from ..oflops import FlowModLatencyModule, OflopsContext

    sim = Simulator()
    waves = _arm_waves(sim, waveforms)
    spec = _traffic_spec(traffic)
    ctx = OflopsContext(
        sim,
        profile=SwitchProfile(
            firmware_delay_ps=firmware_delay_ps,
            table_write_ps=table_write_ps,
            packet_in_queue_limit=packet_in_queue_limit,
        ),
        impairments=impairments,
        seed=seed,
        root_seed=seed,
    )
    tester = ctx.testbed.tester
    if telemetry:
        tester.start_telemetry()
    monitor = ctx.data.monitor("egress")
    # The churn: SYNs from n_flows sources, paced by the traffic model.
    syn = build_tcp(
        frame_size=frame_size,
        dst_mac="02:00:00:00:00:02",
        dst_ip="10.0.0.2",
        src_ip="10.9.0.1",
        flags=0x02,
    )
    churn = tester.generator(2)
    churn.load_template(syn, modifiers=[Ipv4AddressSweep("src", "10.9.0.1", n_flows)])
    churn.use_model(spec)
    churn.for_duration(duration_ps)

    class SynFloodFlowMod(FlowModLatencyModule):
        name = "syn_flood_flowmod"
        setup_retries = 0
        # Stamped probes feed the monitor's per-destination-port RTT bank.
        stamp_probes = True

        def before_probes(self, ctx: OflopsContext) -> None:
            churn.start()
            monitor.enable_latency(per_flow=True, flow_key="dst_port")

    module = SynFloodFlowMod(n_rules, base_port, probe_gap_ps, warmup_ps=warmup_ps)
    module.max_duration_ps = seconds(1) if deadline_ps is None else deadline_ps
    result = _run_to_result(ctx, module)

    switch = ctx.switch
    row = SynFloodRow(
        n_flows=n_flows,
        n_rules=n_rules,
        traffic=spec.fingerprint(),
        control_latency_ps=result.control_latency_ps,
        rule_activation_ps=result.rule_activation_ps,
        degraded=result.degraded,
        churn_sent=churn.packets_sent,
        datapath_misses=switch.datapath_misses,
        packet_ins_sent=switch.packet_ins_sent,
        packet_ins_dropped=switch.packet_ins_dropped,
        firmware_queue_peak=switch.firmware_queue_peak,
        flow_mods_handled=switch.flow_mods_handled,
        flow_rtt_rows=monitor.flow_latency_rows(),
        **_percentiles_us(monitor.flow_latency),
    )
    extras: Extras = {}
    if telemetry:
        extras["telemetry"] = tester.snapshot()
    if ctx.injector is not None:
        extras["fault_timeline_digest"] = ctx.injector.timeline_digest()
    _wave_extras(extras, waves)
    return row, extras


# ---------------------------------------------------------------------------
# A2 — synchronized incast onto one egress
# ---------------------------------------------------------------------------

#: OSNT ports available as incast senders (port 1 is the capture side).
_SENDER_PORTS = (0, 2, 3)


@dataclass
class IncastRow:
    senders: int
    frame_size: int
    traffic: str  # the senders' spec fingerprint
    sent: int
    received: int
    egress_drops: int
    queue_peak_bytes: int
    #: Per-sender RTT percentile rows (keyed by source IP).
    flow_rtt_rows: List[Dict[str, Any]] = field(default_factory=list)
    rtt_p50_us: Optional[float] = None
    rtt_p99_us: Optional[float] = None
    rtt_p999_us: Optional[float] = None

    @property
    def delivery_fraction(self) -> float:
        return self.received / self.sent if self.sent else 0.0


def incast_burst_point(
    senders: int = 3,
    traffic=None,
    frame_size: int = 512,
    duration_ps: int = ms(2),
    buffer_bytes: int = 32 * 1024,
    phase_step_ps: int = 0,
    seed: int = 0,
    switch_seed: int = 1,
    telemetry: bool = False,
    waveforms: bool = False,
) -> Tuple[IncastRow, Extras]:
    """One A2 point: ``senders`` burst trains converge on one egress.

    Every sender runs the *same* traffic model, so their bursts land at
    the egress FIFO simultaneously — the incast worst case. For
    ``periodic`` models ``phase_step_ps`` staggers sender ``i`` by
    ``i * phase_step_ps``, turning the same offered load into a
    non-overlapping schedule; the queue-peak delta between the two is
    the quantity the experiment exists to show. Per-sender RTT comes
    from the monitor's in-band bank keyed by source IP.
    """
    from ..errors import ConfigError

    if not 1 <= senders <= len(_SENDER_PORTS):
        raise ConfigError(f"senders must be 1..{len(_SENDER_PORTS)}")
    sim = Simulator()
    waves = _arm_waves(sim, waveforms)
    spec = _traffic_spec(traffic)
    bed = legacy_testbed(
        sim,
        {"seed": switch_seed, "buffer_bytes": buffer_bytes},
        wire_cross_ports=True,
        root_seed=seed,
    )
    if telemetry:
        bed.tester.start_telemetry()
    bed.monitor.enable_latency(per_flow=True, flow_key="src_ip")

    generators = []
    for index in range(senders):
        generator = bed.tester.generator(_SENDER_PORTS[index])
        generator.load_template(
            udp_template(
                frame_size,
                src_mac=f"02:00:00:00:00:1{index}",
                src_ip=f"10.0.{10 + index}.1",
            )
        )
        generator.use_model(_staggered(spec, index, phase_step_ps))
        generator.embed_timestamps().for_duration(duration_ps)
        generator.start()
        generators.append(generator)
    sim.run()

    pipeline = bed.tester.device.monitor(1)
    bank = pipeline.flow_latency
    row = IncastRow(
        senders=senders,
        frame_size=frame_size,
        traffic=spec.fingerprint(),
        sent=sum(g.packets_sent for g in generators),
        received=pipeline.stats.rx_packets,
        egress_drops=bed.switch.egress_drops,
        queue_peak_bytes=bed.switch.port(1).tx.fifo.peak_occupancy_bytes,
        flow_rtt_rows=bed.monitor.flow_latency_rows(),
        **_percentiles_us(bank),
    )
    extras: Extras = {}
    if telemetry:
        extras["telemetry"] = bed.tester.snapshot()
    _wave_extras(extras, waves)
    return row, extras


def _staggered(spec: TrafficModelSpec, index: int, phase_step_ps: int) -> TrafficModelSpec:
    """Sender ``index``'s spec: phase-shifted for periodic models."""
    if spec.model != "periodic" or not phase_step_ps or not index:
        return spec
    params = dict(spec.params)
    period = _dur(params["on"]) + _dur(params["off"])
    base = _dur(params.get("phase", 0))
    params["phase"] = (base + index * phase_step_ps) % period
    return TrafficModelSpec(model=spec.model, params=params, name=spec.name)
