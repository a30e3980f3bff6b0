"""Built-in scenarios: the paper's experiments bound to the spec API.

Each wrapper adapts one single-point measurement function to the
scenario calling convention ``fn(params, seed) -> dict``:

* rates and durations in params may be human strings (``"9.5Gbps"``,
  ``"10ms"``) — coerced here through :mod:`repro.units`;
* the shard's derived ``seed`` is used unless the spec pins an explicit
  ``params["seed"]`` (pin ``seed: 0`` — and ``switch_seed: 1`` where
  the scenario has one — to reproduce the point functions' defaults
  and the golden E-series numbers);
* ``params["telemetry"] = true`` asks supporting scenarios to include
  the card's metrics snapshot under the ``"telemetry"`` result key,
  which :meth:`~repro.runner.SweepReport.merged_telemetry` folds across
  shards.

Also here: ``echo``, ``sleep`` and ``flaky_marker`` — tiny operational
scenarios used by CI smoke sweeps and the runner's own tests.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Dict

from ..units import duration_ps, ms, us
from .registry import scenario


def _seed(params: Dict[str, Any], derived: int) -> int:
    pinned = params.get("seed")
    return derived if pinned is None else pinned


def _rowdict(row, extras: Dict[str, Any]) -> Dict[str, Any]:
    result = dataclasses.asdict(row)
    result.update(extras)
    return result


def _rowsdict(rows, extras: Dict[str, Any]) -> Dict[str, Any]:
    result = {"rows": [dataclasses.asdict(row) for row in rows]}
    result.update(extras)
    return result


# -- operational scenarios ---------------------------------------------------


@scenario("echo")
def _echo(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Return the shard's params and seed — smoke tests and examples.

    Honors the ``params["seed"]`` pin like every built-in scenario, so
    the pinning contract is testable without running a real testbed.
    """
    return {"params": params, "seed": _seed(params, seed)}


@scenario("sleep")
def _sleep(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Sleep ``duration_s`` of wall-clock time — timeout-path testing."""
    duration_s = float(params.get("duration_s", 0.1))
    time.sleep(duration_s)
    return {"slept_s": duration_s, "seed": seed}


@scenario("flaky_marker")
def _flaky_marker(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Fail until ``params["marker"]`` exists (created on first try).

    Models a transient fault: the first attempt plants the marker file
    and raises; the retry finds it and succeeds. Works across worker
    processes because the state lives on the filesystem.
    """
    marker = params["marker"]
    if os.path.exists(marker):
        return {"recovered": True, "seed": seed}
    with open(marker, "w") as handle:
        handle.write("attempted\n")
    raise RuntimeError(f"transient failure (marker {marker} planted)")


# -- paper experiments -------------------------------------------------------


@scenario("line_rate")
def _line_rate(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E1: line-rate generation for one frame size."""
    from ..testbed.scenarios import line_rate_point

    row, extras = line_rate_point(
        frame_size=params["frame_size"],
        duration_ps=duration_ps(params.get("duration", ms(1))),
        ports=params.get("ports", 1),
        seed=_seed(params, seed),
        telemetry=bool(params.get("telemetry", False)),
    )
    return _rowdict(row, extras)


@scenario("idt_precision")
def _idt_precision(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E2: inter-departure precision for one generator kind."""
    from ..testbed.scenarios import idt_precision_point

    row, extras = idt_precision_point(
        kind=params["kind"],
        target_gap_ps=duration_ps(params["target_gap_ps"]),
        packet_count=params.get("packet_count", 500),
        frame_size=params.get("frame_size", 128),
        seed=_seed(params, seed),
    )
    return _rowdict(row, extras)


@scenario("clock_error")
def _clock_error(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E2b: clock error over time for one discipline mode."""
    from ..testbed.scenarios import clock_error_point

    rows, extras = clock_error_point(
        mode=params["mode"],
        freq_error_ppm=params.get("freq_error_ppm", 30.0),
        walk_ppb=params.get("walk_ppb", 20.0),
        horizon_s=params.get("horizon_s", 10),
        seed=_seed(params, seed),
    )
    return _rowsdict(rows, extras)


@scenario("legacy_latency")
def _legacy_latency(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E3: probe latency through the legacy switch at one load."""
    from ..testbed.scenarios import legacy_latency_point

    row, extras = legacy_latency_point(
        frame_size=params["frame_size"],
        load=params["load"],
        duration_ps=duration_ps(params.get("duration", ms(2))),
        probe_load=params.get("probe_load", 0.05),
        switch_kwargs=params.get("switch_kwargs"),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
        telemetry=bool(params.get("telemetry", False)),
    )
    return _rowdict(row, extras)


@scenario("capture_path")
def _capture_path(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E6: capture completeness for one load and reducer variant."""
    from ..testbed.scenarios import capture_path_point
    from ..units import rate_bps

    row, extras = capture_path_point(
        load=params["load"],
        variant=params.get("variant"),
        frame_size=params.get("frame_size", 512),
        duration_ps=duration_ps(params.get("duration", ms(2))),
        dma_bandwidth_bps=rate_bps(params.get("dma_bandwidth_bps", 2e9)),
        seed=_seed(params, seed),
    )
    return _rowdict(row, extras)


@scenario("timestamp_placement")
def _timestamp_placement(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E7: hardware vs host-side latency spread at one load."""
    from ..testbed.scenarios import timestamp_placement_point
    from ..units import rate_bps

    row, extras = timestamp_placement_point(
        load=params["load"],
        frame_size=params.get("frame_size", 512),
        duration_ps=duration_ps(params.get("duration", ms(2))),
        dma_bandwidth_bps=rate_bps(params.get("dma_bandwidth_bps", 4e9)),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
    )
    return _rowdict(row, extras)


@scenario("router_latency")
def _router_latency(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E9: router forwarding latency at one matched-prefix depth."""
    from ..testbed.scenarios import router_latency_point

    row, extras = router_latency_point(
        prefix_len=params["prefix_len"],
        fib_fill=params.get("fib_fill", 1000),
        frame_size=params.get("frame_size", 256),
        duration_ps=duration_ps(params.get("duration", ms(1))),
        seed=_seed(params, seed),
    )
    return _rowdict(row, extras)


@scenario("imix_latency")
def _imix_latency(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E3b: per-size latency classified from one IMIX stream."""
    from ..testbed.scenarios import imix_latency_point

    rows, extras = imix_latency_point(
        load=params.get("load", 0.5),
        duration_ps=duration_ps(params.get("duration", ms(2))),
        switch_kwargs=params.get("switch_kwargs"),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
    )
    return _rowsdict(rows, extras)


@scenario("flowmod_latency")
def _flowmod_latency(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E4: flow_mod install latency, control vs data plane."""
    from ..testbed.scenarios import measure_flowmod_latency

    impairments = params.get("impairments")
    deadline = params.get("deadline")
    result = measure_flowmod_latency(
        n_rules=params.get("n_rules", 32),
        barrier_mode=params.get("barrier_mode", "spec"),
        firmware_delay_ps=duration_ps(params.get("firmware_delay", us(10))),
        table_write_ps=duration_ps(params.get("table_write", us(100))),
        probe_gap_ps=duration_ps(params.get("probe_gap", us(2))),
        base_port=params.get("base_port", 6000),
        impairments=impairments,
        seed=_seed(params, seed),
        deadline_ps=None if deadline is None else duration_ps(deadline),
        barrier_retries=params.get("barrier_retries", 3),
    )
    out = dataclasses.asdict(result)
    out["data_plane_complete_ps"] = result.data_plane_complete_ps
    out["control_says_done_before_data_ps"] = result.control_says_done_before_data_ps
    if not impairments and not result.degraded and not result.control_retries:
        # Unimpaired runs keep the pre-faults result schema bit-identical.
        del out["degraded"], out["control_retries"]
    return out


@scenario("forwarding_consistency")
def _forwarding_consistency(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E5: forwarding consistency during a large table update."""
    from ..testbed.scenarios import measure_forwarding_consistency

    result = measure_forwarding_consistency(
        n_rules=params.get("n_rules", 32),
        barrier_mode=params.get("barrier_mode", "eager"),
        firmware_delay_ps=duration_ps(params.get("firmware_delay", us(30))),
        table_write_ps=duration_ps(params.get("table_write", us(50))),
        probe_gap_ps=duration_ps(params.get("probe_gap", us(2))),
        base_port=params.get("base_port", 7000),
    )
    return dataclasses.asdict(result)


@scenario("rfc2544")
def _rfc2544(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """E8: RFC 2544 zero-loss throughput search for one frame size."""
    from ..testbed.rfc2544 import rfc2544_point
    from ..units import rate_bps

    fabric = params.get("fabric_rate_bps")
    result = rfc2544_point(
        frame_size=params["frame_size"],
        fabric_rate_bps=None if fabric is None else rate_bps(fabric),
        duration_ps=duration_ps(params.get("duration", ms(2))),
        resolution=params.get("resolution", 0.01),
        switch_seed=params.get("switch_seed", 1),
    )
    return dataclasses.asdict(result)


@scenario("oflops")
def _oflops(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One OFLOPS-turbo module run against a configured DUT profile."""
    from ..devices.openflow_switch import PROFILES, SwitchProfile
    from ..oflops.context import OflopsContext
    from ..oflops.module import ModuleRunner
    from ..oflops.modules import ALL_MODULES
    from ..errors import SweepError

    name = params["module"]
    if name not in ALL_MODULES:
        raise SweepError(
            f"unknown oflops module {name!r}; known: {', '.join(sorted(ALL_MODULES))}"
        )
    if params.get("dut") is not None:
        profile = PROFILES[params["dut"]]
    else:
        profile = SwitchProfile(
            barrier_mode=params.get("barrier_mode", "spec"),
            firmware_delay_ps=duration_ps(params.get("firmware_delay", us(10))),
            table_write_ps=duration_ps(params.get("table_write", us(100))),
        )
    ctx = OflopsContext(
        profile=profile,
        control_latency_ps=duration_ps(params.get("control_latency", us(50))),
        impairments=params.get("impairments"),
        seed=_seed(params, seed),
        root_seed=_seed(params, seed),
    )
    module_cls = ALL_MODULES[name]
    if name in ("flow_mod_latency", "forwarding_consistency"):
        module = module_cls(n_rules=params.get("n_rules", 32))
    else:
        module = module_cls()
    if params.get("max_duration") is not None:
        # Degradable modules run out the full deadline on a faulted
        # channel; impaired sweeps cap it to keep shards fast.
        module.max_duration_ps = duration_ps(params["max_duration"])
    result = dict(ModuleRunner(ctx).run(module))
    if params.get("telemetry"):
        result["telemetry"] = ctx.snapshot()
    return result


# -- attack-workload scenarios -----------------------------------------------


@scenario("syn_flood_flowmod")
def _syn_flood_flowmod(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A1: flow_mod latency under many-flow SYN churn."""
    from ..testbed.attacks import syn_flood_flowmod_point

    deadline = params.get("deadline")
    limit = params.get("packet_in_queue_limit", 64)
    row, extras = syn_flood_flowmod_point(
        n_flows=params.get("n_flows", 256),
        n_rules=params.get("n_rules", 16),
        traffic=params.get("traffic"),
        frame_size=params.get("frame_size", 64),
        duration_ps=duration_ps(params.get("duration", ms(4))),
        probe_gap_ps=duration_ps(params.get("probe_gap", us(4))),
        base_port=params.get("base_port", 6000),
        packet_in_queue_limit=limit,
        firmware_delay_ps=duration_ps(params.get("firmware_delay", us(10))),
        table_write_ps=duration_ps(params.get("table_write", us(100))),
        warmup_ps=duration_ps(params.get("warmup", us(500))),
        impairments=params.get("impairments"),
        seed=_seed(params, seed),
        deadline_ps=None if deadline is None else duration_ps(deadline),
        observe=bool(params.get("observe", False)),
        telemetry=bool(params.get("telemetry", False)),
        waveforms=bool(params.get("waveforms", False)),
    )
    return _rowdict(row, extras)


@scenario("incast_burst")
def _incast_burst(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A2: k synchronized burst trains converging on one egress."""
    from ..testbed.attacks import incast_burst_point

    row, extras = incast_burst_point(
        senders=params.get("senders", 3),
        traffic=params.get("traffic"),
        frame_size=params.get("frame_size", 512),
        duration_ps=duration_ps(params.get("duration", ms(2))),
        buffer_bytes=params.get("buffer_bytes", 32 * 1024),
        phase_step_ps=duration_ps(params.get("phase_step", 0)),
        switch_kwargs=params.get("switch_kwargs"),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
        observe=bool(params.get("observe", False)),
        telemetry=bool(params.get("telemetry", False)),
        waveforms=bool(params.get("waveforms", False)),
    )
    out = _rowdict(row, extras)
    out["delivery_fraction"] = row.delivery_fraction
    return out


# -- fault-injection scenarios -----------------------------------------------


@scenario("lossy_link_latency")
def _lossy_link_latency(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """F1: probe latency through the legacy switch over a lossy link."""
    from ..faults.scenarios import lossy_link_latency_point

    row, extras = lossy_link_latency_point(
        loss_rate=params.get("loss_rate", 0.01),
        burst=params.get("burst", 1.0),
        frame_size=params.get("frame_size", 256),
        load=params.get("load", 0.05),
        duration_ps=duration_ps(params.get("duration", ms(2))),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
    )
    out = _rowdict(row, extras)
    out["observed_loss"] = row.observed_loss
    return out


@scenario("gps_holdover_drift")
def _gps_holdover_drift(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """F2: clock error through a GPS holdover window."""
    from ..faults.scenarios import gps_holdover_drift_point

    rows, extras = gps_holdover_drift_point(
        holdover_start_s=params.get("holdover_start_s", 3),
        holdover_len_s=params.get("holdover_len_s", 4),
        horizon_s=params.get("horizon_s", 10),
        freq_error_ppm=params.get("freq_error_ppm", 30.0),
        walk_ppb=params.get("walk_ppb", 20.0),
        seed=_seed(params, seed),
    )
    return _rowsdict(rows, extras)


@scenario("flowmod_under_flap")
def _flowmod_under_flap(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """F3: flow_mod latency with the control channel flapping.

    Completes with ``degraded: true`` and retry counts instead of
    raising when flow mods or barriers die on a down window.
    """
    from ..faults.scenarios import flowmod_under_flap_point

    return flowmod_under_flap_point(
        n_rules=params.get("n_rules", 32),
        flap_period=duration_ps(params.get("flap_period", ms(10))),
        flap_down=duration_ps(params.get("flap_down", ms(6))),
        deadline_ps=duration_ps(params.get("deadline", ms(30))),
        barrier_retries=params.get("barrier_retries", 3),
        barrier_mode=params.get("barrier_mode", "spec"),
        seed=_seed(params, seed),
    )


# -- closed-loop flow scenarios ----------------------------------------------


@scenario("fct_vs_loss")
def _fct_vs_loss(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """L1: flow completion times over a corrupting link, with or
    without LinkGuardian-style link-local protection."""
    from ..flows.scenarios import fct_vs_loss_point

    return fct_vs_loss_point(
        corrupt_rate=params.get("corrupt_rate", 1e-3),
        protected=params.get("protected", False),
        n_flows=params.get("n_flows", 64),
        flow_bytes=params.get("flow_bytes", 60_000),
        link_rate=params.get("link_rate", "10Gbps"),
        burst=params.get("burst", 1.0),
        spacing_ps=duration_ps(params.get("spacing", us(50))),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
        direction=params.get("direction", "a_to_b"),
        impairments=params.get("impairments"),
        observe=params.get("observe", False),
    )


@scenario("effective_loss_vs_speed")
def _effective_loss_vs_speed(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """L2: transport-visible loss rate at different link speeds."""
    from ..flows.scenarios import effective_loss_vs_speed_point

    return effective_loss_vs_speed_point(
        link_rate=params.get("link_rate", "10Gbps"),
        corrupt_rate=params.get("corrupt_rate", 1e-3),
        protected=params.get("protected", True),
        n_flows=params.get("n_flows", 16),
        flow_bytes=params.get("flow_bytes", 30_000),
        spacing_ps=duration_ps(params.get("spacing", us(50))),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
        observe=params.get("observe", False),
    )


@scenario("throughput_under_bursty_corruption")
def _throughput_under_bursty_corruption(
    params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """L3: aggregate goodput under geometric corruption bursts."""
    from ..flows.scenarios import throughput_under_bursty_corruption_point

    return throughput_under_bursty_corruption_point(
        corrupt_rate=params.get("corrupt_rate", 5e-3),
        burst=params.get("burst", 4.0),
        protected=params.get("protected", True),
        n_flows=params.get("n_flows", 8),
        flow_bytes=params.get("flow_bytes", 120_000),
        link_rate=params.get("link_rate", "10Gbps"),
        spacing_ps=duration_ps(params.get("spacing", us(20))),
        seed=_seed(params, seed),
        switch_seed=params.get("switch_seed", 1),
        observe=params.get("observe", False),
    )
