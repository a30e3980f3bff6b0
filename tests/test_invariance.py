"""The determinism contract, checked for every registered scenario.

A sweep's merged report (:meth:`~repro.runner.SweepReport.merged_json`)
must not depend on how it was produced. For each scenario in the
registry this module runs one small sweep inline, under the default
burst datapath and timing-wheel event queue, as the baseline. It then
reruns the same spec along each axis below and compares the canonical
JSON byte for byte:

* ``workers2`` — a forked pool of two workers;
* ``packet_datapath`` — ``REPRO_DATAPATH=packet``;
* ``heap_queue`` — ``REPRO_EVENT_QUEUE=heap``;
* ``observed`` — spans, the sim profiler, a waveform recorder and a
  tracer armed on every simulator the shards build;
* ``resume`` — stopped after one shard, then resumed with two workers;
* ``warm_cache`` — a cold run fills a result store and a warm rerun is
  served from it entirely;
* ``spawned`` — a pool of two workers started as fresh interpreters,
  which inherit no module state and hash strings with a new seed, so a
  result that depends on either differs from the forked baseline.

Scenarios that accept ``telemetry`` run with it on, so the card's
metrics snapshot in each result is compared along every axis too.

Every scenario needs a ``SMOKE`` entry: small base params plus exactly
one sweep axis with two values, so resume has a shard to skip. A
scenario that cannot take part goes in ``EXEMPT`` with the reason.
``test_every_scenario_is_covered`` fails for a scenario in neither.
"""

from functools import lru_cache

import pytest

from repro.obs import SimProfiler, SpanRecorder, observe_simulators
from repro.runner import ExperimentSpec, SweepRunner, list_scenarios, run_spec
from repro.telemetry import Tracer, WaveformRecorder

#: The registry as it stands once the test modules are imported.
#: Scenarios that other tests register while they run stay out of it.
SCENARIOS = list_scenarios()

CBR = {"model": "cbr", "params": {"rate": "2Gbps"}}
BURST_TRAIN = {
    "model": "burst_train",
    "params": {"frames_per_burst": 16, "inter_burst_gap": "20us"},
}

#: scenario -> (base params, {axis: [two values]}).
SMOKE = {
    "echo": ({"tag": "smoke"}, {"x": [1, 2]}),
    "sleep": ({}, {"duration_s": [0.0, 0.01]}),
    # -- paper experiments
    "line_rate": ({"duration": "20us", "telemetry": True}, {"frame_size": [64, 1518]}),
    "idt_precision": (
        {"target_gap_ps": "1us", "packet_count": 50},
        {"kind": ["osnt", "software"]},
    ),
    "clock_error": ({"horizon_s": 2}, {"mode": ["free-running", "gps-disciplined"]}),
    "legacy_latency": (
        {"frame_size": 256, "duration": "50us", "telemetry": True},
        {"load": [0.2, 0.9]},
    ),
    "capture_path": ({"duration": "50us"}, {"load": [0.3, 1.0]}),
    "timestamp_placement": ({"duration": "50us"}, {"load": [0.3, 0.9]}),
    "router_latency": ({"fib_fill": 50, "duration": "50us"}, {"prefix_len": [8, 24]}),
    "imix_latency": ({"duration": "50us"}, {"load": [0.3, 0.8]}),
    "flowmod_latency": ({"n_rules": 4}, {"barrier_mode": ["spec", "eager"]}),
    "forwarding_consistency": (
        {"n_rules": 4, "probe_gap": "10us"},
        {"barrier_mode": ["spec", "eager"]},
    ),
    "rfc2544": ({"duration": "50us", "resolution": 0.1}, {"frame_size": [64, 512]}),
    "oflops": (
        {"n_rules": 4, "telemetry": True},
        {"module": ["echo_latency", "flow_mod_latency"]},
    ),
    # -- attack workloads
    "syn_flood_flowmod": (
        {
            "n_flows": 16,
            "duration": "200us",
            "deadline": "50ms",
            "waveforms": True,
            "telemetry": True,
        },
        {"n_rules": [2, 4]},
    ),
    "incast_burst": (
        {
            "senders": 2,
            "frame_size": 256,
            "duration": "100us",
            "waveforms": True,
            "telemetry": True,
        },
        {"traffic": [CBR, BURST_TRAIN]},
    ),
    # -- fault injection
    "lossy_link_latency": ({"duration": "100us"}, {"loss_rate": [0.0, 0.05]}),
    "gps_holdover_drift": (
        {"holdover_start_s": 1, "holdover_len_s": 1, "horizon_s": 3},
        {"freq_error_ppm": [10.0, 30.0]},
    ),
    "flowmod_under_flap": (
        {"n_rules": 4, "flap_period": "1ms", "flap_down": "600us", "deadline": "3ms"},
        {"barrier_mode": ["spec", "eager"]},
    ),
    # -- closed-loop flows
    "fct_vs_loss": (
        {"n_flows": 4, "flow_bytes": 10_000},
        {"protected": [False, True]},
    ),
    "effective_loss_vs_speed": (
        {"n_flows": 4, "flow_bytes": 10_000},
        {"link_rate": ["10Gbps", "100Gbps"]},
    ),
    "throughput_under_bursty_corruption": (
        {"n_flows": 2, "flow_bytes": 20_000},
        {"protected": [False, True]},
    ),
}

#: scenario -> why it is not in the matrix.
EXEMPT = {
    "flaky_marker": (
        "fails its first attempt on purpose and plants a marker file; "
        "tests/test_runner.py covers the retry path it exists for"
    ),
}


def smoke_spec(name):
    params, axes = SMOKE[name]
    return ExperimentSpec(
        name=f"invariance-{name}",
        scenario=name,
        params=params,
        axes=axes,
        # The merged report does not record attempts, so a retry keeps a
        # one-off worker death from failing the comparison.
        retries=1,
        timeout_s=120.0,
    )


@lru_cache(maxsize=None)
def baseline(name):
    """The inline run under the default datapath and event queue."""
    with pytest.MonkeyPatch.context() as env:
        env.delenv("REPRO_DATAPATH", raising=False)
        env.delenv("REPRO_EVENT_QUEUE", raising=False)
        return run_spec(smoke_spec(name)).require_ok().merged_json()


# -- the axes: each reruns the spec one other way --------------------------


def workers2(spec, tmp_path, monkeypatch):
    return run_spec(spec, workers=2)


def packet_datapath(spec, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATAPATH", "packet")
    return run_spec(spec)


def heap_queue(spec, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_EVENT_QUEUE", "heap")
    return run_spec(spec)


def observed(spec, tmp_path, monkeypatch):
    with observe_simulators(
        spans=SpanRecorder(),
        profiler=SimProfiler(),
        waves=WaveformRecorder(),
        tracer=Tracer(),
    ):
        return run_spec(spec)


def resume(spec, tmp_path, monkeypatch):
    partial = run_spec(spec, checkpoint_dir=tmp_path, max_shards=1)
    assert len(partial.pending) == spec.shard_count - 1
    resumed = run_spec(spec, workers=2, checkpoint_dir=tmp_path)
    assert sum(s.from_checkpoint for s in resumed.shards) == 1
    return resumed


def warm_cache(spec, tmp_path, monkeypatch):
    cold = run_spec(spec, cache_dir=tmp_path)
    warm = run_spec(spec, cache_dir=tmp_path)
    assert not cold.from_cache
    assert len(warm.from_cache) == spec.shard_count
    return warm


def spawned(spec, tmp_path, monkeypatch):
    return SweepRunner(spec, workers=2, start_method="spawn").run()


AXES = {
    axis.__name__: axis
    for axis in (
        workers2,
        packet_datapath,
        heap_queue,
        observed,
        resume,
        warm_cache,
        spawned,
    )
}


def test_every_scenario_is_covered():
    missing = sorted(set(SCENARIOS) - set(SMOKE) - set(EXEMPT))
    assert not missing, f"add a SMOKE entry or an EXEMPT reason for {missing}"
    stale = sorted((set(SMOKE) | set(EXEMPT)) - set(SCENARIOS))
    assert not stale, f"SMOKE/EXEMPT name unregistered scenarios {stale}"
    assert not set(SMOKE) & set(EXEMPT)
    wide = sorted(n for n in SMOKE if smoke_spec(n).shard_count != 2)
    assert not wide, f"SMOKE entries must sweep one axis of two values: {wide}"


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_merged_report_is_invariant(name, axis, tmp_path, monkeypatch):
    spec = smoke_spec(name)
    report = AXES[axis](spec, tmp_path, monkeypatch).require_ok()
    assert report.merged_json() == baseline(name)
