"""Fault-injection measurement scenarios.

Three end-to-end demonstrations that the measurement stack reacts
correctly when the testbed is degraded on purpose — each registered as
a named scenario in :mod:`repro.runner.scenarios`, so fault parameters
are sweepable axes like any frame size:

* ``lossy_link_latency`` — timestamped probes through the legacy switch
  over a link with (optionally bursty) injected loss; reports loss
  accounting (injected vs overflow) alongside the latency summary;
* ``gps_holdover_drift`` — clock error over time with a GPS holdover
  window in the middle: the servo loses the pulse, the crystal drifts
  away, re-acquisition snaps it back;
* ``flowmod_under_flap`` — the flow-mod latency measurement under a
  flapping control channel: bounded retries, then an explicit
  ``degraded`` result instead of a crash.

Every result carries the injector's ``fault_timeline_digest``: a
SHA-256 over the full impairment timeline, which is what the
seed-determinism tests compare across worker counts and resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..analysis.latency import latency_from_capture
from ..osnt.api import OSNT
from ..sim import Simulator
from ..testbed.topology import legacy_testbed
from ..testbed.workloads import udp_template
from ..units import ms, seconds
from .injector import FaultInjector
from .spec import ImpairmentSpec


@dataclass
class LossyLatencyRow:
    frame_size: int
    load: float
    loss_rate: float
    burst: float
    probes_sent: int
    probes_captured: int
    drops_injected: int
    drops_overflow: int
    mean_us: float
    p99_us: float

    @property
    def observed_loss(self) -> float:
        return 1.0 - self.probes_captured / self.probes_sent if self.probes_sent else 0.0


def lossy_link_latency_point(
    loss_rate: float = 0.01,
    burst: float = 1.0,
    frame_size: int = 256,
    load: float = 0.05,
    duration_ps: int = ms(2),
    seed: int = 0,
    switch_seed: int = 1,
) -> Tuple[LossyLatencyRow, Dict[str, Any]]:
    """Probe latency over a lossy ingress link (Part I topology).

    The loss model rides the probe link OSNT→switch; dropped probes are
    counted as *injected* MAC drops, kept apart from genuine FIFO
    overflow, so the experiment can assert the un-impaired path itself
    lost nothing. ``loss_rate=0`` attaches nothing and is a
    byte-for-byte no-op on the capture output.
    """
    sim = Simulator()
    bed = legacy_testbed(sim, {"seed": switch_seed}, root_seed=seed)
    spec = ImpairmentSpec.from_any(
        []
        if loss_rate <= 0.0
        else [
            {
                "name": "loss",
                "model": "link_loss",
                "params": {"rate": loss_rate, "burst": burst},
            }
        ]
    )
    injector = FaultInjector(sim, spec, seed=seed)
    injector.bind(link=bed.links[0]).arm()
    bed.monitor.start_capture()
    bed.generator.load_template(udp_template(frame_size))
    bed.generator.set_load(load)
    bed.generator.embed_timestamps().for_duration(duration_ps)
    bed.generator.start()
    sim.run()
    summary = latency_from_capture(bed.monitor.packets).summary
    ingress_rx = bed.switch.port(0).rx.stats
    row = LossyLatencyRow(
        frame_size=frame_size,
        load=load,
        loss_rate=loss_rate,
        burst=burst,
        probes_sent=bed.generator.packets_sent,
        probes_captured=summary.count if summary else 0,
        drops_injected=ingress_rx.drops_injected,
        drops_overflow=bed.tester.port(0).tx.stats.drops_overflow,
        mean_us=summary.mean / 1e6 if summary else 0.0,
        p99_us=summary.p99 / 1e6 if summary else 0.0,
    )
    return row, {"fault_timeline_digest": injector.timeline_digest()}


@dataclass
class HoldoverRow:
    after_seconds: int
    abs_error_ns: float
    in_holdover: bool


def gps_holdover_drift_point(
    holdover_start_s: int = 3,
    holdover_len_s: int = 4,
    horizon_s: int = 10,
    freq_error_ppm: float = 30.0,
    walk_ppb: float = 20.0,
    seed: int = 0,
) -> Tuple[List[HoldoverRow], Dict[str, Any]]:
    """Clock error through a GPS holdover window (E2b, impaired).

    Before the window the servo keeps the error sub-µs; during it the
    clock free-runs on the drifting crystal and the error grows; after
    re-acquisition the step-and-steer discipline snaps it back. Sampled
    mid-interval like :func:`repro.testbed.scenarios.clock_error_point`.
    """
    sim = Simulator()
    tester = OSNT(
        sim,
        root_seed=seed,
        freq_error_ppm=freq_error_ppm,
        oscillator_walk_ppb=walk_ppb,
        gps_enabled=True,
    )
    start = seconds(holdover_start_s)
    stop = seconds(holdover_start_s + holdover_len_s)
    spec = ImpairmentSpec.from_any(
        [
            {
                "name": "holdover",
                "model": "gps_holdover",
                "start": start,
                "stop": stop,
            }
        ]
    )
    injector = FaultInjector(sim, spec, seed=seed)
    injector.bind(clock=tester.device).arm()
    rows: List[HoldoverRow] = []
    for second in range(1, horizon_s + 1):
        sample_at = seconds(second) + seconds(1) // 2
        sim.run(until=sample_at)
        rows.append(
            HoldoverRow(
                after_seconds=second,
                abs_error_ns=abs(tester.device.oscillator.error_ps()) / 1e3,
                in_holdover=start <= sample_at < stop,
            )
        )
    return rows, {"fault_timeline_digest": injector.timeline_digest()}


def flowmod_under_flap_point(
    n_rules: int = 32,
    flap_period_ps: int = ms(10),
    flap_down_ps: int = ms(6),
    deadline_ps: int = ms(30),
    barrier_mode: str = "spec",
    seed: int = 0,
) -> Dict[str, Any]:
    """The flow-mod latency measurement with the control session flapping.

    The flap windows are deterministic (period/down-time, no RNG), so a
    fixed parameter set always exercises the same degradation path:
    the setup barrier is resent up to 3 times, the update burst may die
    on a down window, and the run ends at ``deadline_ps`` with
    ``degraded=True`` plus retry counts — never an exception.
    """
    import dataclasses

    from ..testbed.scenarios import measure_flowmod_latency

    impairments = [
        {
            "name": "flap",
            "model": "control_flap",
            "params": {"period": flap_period_ps, "down_time": flap_down_ps},
        }
    ]
    result = measure_flowmod_latency(
        n_rules=n_rules,
        barrier_mode=barrier_mode,
        impairments=impairments,
        seed=seed,
        deadline_ps=deadline_ps,
    )
    out = dataclasses.asdict(result)
    out["rules_activated"] = len(result.rule_activation_ps)
    return out
