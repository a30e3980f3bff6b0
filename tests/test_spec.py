"""Golden fingerprints and digests for every declarative spec family.

Result-store keys, merged reports and the determinism tests all
compare these hashes across runs, so their exact
values are part of the on-disk contract: a refactor of the spec layer
must leave every pinned value below byte-identical.
"""

from repro.cluster import result_digest, shard_cache_key
from repro.faults import FaultSpec, ImpairmentSpec
from repro.flows import FlowCompletion, completions_digest
from repro.osnt.generator.trafficspec import TrafficModelSpec
from repro.runner import ExperimentSpec
from repro.runner.report import ShardResult, SweepReport
from repro.telemetry import WaveformRecorder
from repro.testbed.topology import legacy_switch_topology, openflow_topology
from repro.topology import Topology


def _experiment() -> ExperimentSpec:
    return ExperimentSpec(
        name="golden",
        scenario="legacy_latency",
        params={"duration": "1ms", "probe_load": 0.05, "switch_kwargs": None},
        axes={"frame_size": [64, 512], "load": [0.3, 0.9]},
        repeats=2,
        seed=7,
        collect=["p50_us", "p99_us"],
        imports=["repro.testbed"],
    )


def _impairments() -> ImpairmentSpec:
    return ImpairmentSpec(
        name="golden-faults",
        faults=[
            FaultSpec(
                name="loss",
                model="link_loss",
                target="link",
                params={"rate": 0.01, "burst": 2},
            ),
            FaultSpec(
                name="flap",
                model="control_flap",
                target="control",
                params={"period": "1ms", "down_time": "200us"},
                start="1ms",
                stop="5ms",
            ),
        ],
    )


def _composite() -> TrafficModelSpec:
    return TrafficModelSpec(
        "composite",
        {
            "mode": "interleave",
            "stages": [
                {
                    "model": "burst_train",
                    "params": {"frames_per_burst": 8, "inter_burst_gap": "10us"},
                    "frames": 4,
                },
                {"model": "poisson", "params": {"mean_gap": "2us"}, "rate_scale": 0.5},
            ],
        },
        name="mix",
    )


def _completions():
    return [
        FlowCompletion(
            flow_id=f"f{i}",
            src="10.0.0.1",
            dst="10.0.0.2",
            size_bytes=10_000 * (i + 1),
            start_ps=i * 1_000_000,
            end_ps=i * 1_000_000 + 50_000_000,
            completed=i != 2,
            fct_ps=50_000_000,
            segments_sent=7 + i,
            payload_bytes_sent=10_220 * (i + 1),
            bytes_acked=10_000 * (i + 1),
            retransmits=i,
            fast_retransmits=i // 2,
            timeouts=0,
            min_rtt_ps=4_000_000 if i else None,
            srtt_ps=5_125_000 if i else None,
        )
        for i in range(3)
    ]


def _waves() -> WaveformRecorder:
    waves = WaveformRecorder(capacity=8, keep_every=2)
    depth = waves.series("mac.fifo", unit="bytes")
    for t, value in enumerate([0, 64, 128, 128, 64, 0, 1518, 3036, 0, 64, 0, 0]):
        depth.record(t * 1_000, value)
    rate = waves.rate_series("link.bytes")
    for t in range(40):
        rate.record(t * 250_000, 84)
    waves.sample(5_000, "flow.cwnd", 4.0, unit="segments")
    waves.sample(9_000, "flow.cwnd", 5.5, unit="segments")
    return waves


class TestGoldenFingerprints:
    def test_experiment_spec(self):
        assert _experiment().fingerprint() == "33af98050a11ff1d"

    def test_experiment_spec_json_round_trip_keeps_fingerprint(self):
        spec = _experiment()
        assert ExperimentSpec.from_json(spec.to_json()).fingerprint() == spec.fingerprint()
        assert ExperimentSpec.from_json(spec.to_json(indent=2)) == spec

    def test_impairment_spec(self):
        assert _impairments().fingerprint() == "37ee7ca70e44ae72"

    def test_impairment_spec_json_round_trip_keeps_fingerprint(self):
        spec = _impairments()
        assert ImpairmentSpec.from_json(spec.to_json()).fingerprint() == spec.fingerprint()

    def test_composite_traffic_model(self):
        assert _composite().fingerprint() == "34476fd23cc87058"

    def test_traffic_model_json_round_trip_keeps_fingerprint(self):
        spec = _composite()
        assert TrafficModelSpec.from_json(spec.to_json()).fingerprint() == spec.fingerprint()

    def test_legacy_switch_topology(self):
        assert legacy_switch_topology(True).fingerprint() == "dc2203e1a5bd9797"

    def test_openflow_topology(self):
        assert openflow_topology().fingerprint() == "5c34b9a7e28d1a22"


class TestGoldenDigests:
    def test_shard_cache_key(self):
        spec = _experiment()
        shard = spec.expand()[5]
        assert shard_cache_key(spec, shard, code="fixed") == (
            "11324daf8112338900f7d1e5454765668dfbf479682afb300e6d313542b72b8b"
        )

    def test_completions_digest(self):
        assert completions_digest(_completions()) == "6459c5a1ba3a28de"

    def test_waveform_recorder_digest(self):
        assert _waves().digest() == (
            "03955da04b2fdd6c386ce0e0793b02db27d673e491f9fc53cfb56a6dc233b115"
        )

    def test_result_digest(self):
        assert result_digest({"p50_us": 1.25, "rows": [1, 2], "ok": True}) == (
            "458d8714ad97fd69857400a123dfc5c5a94a0bb309a969e03aa2e35980baac55"
        )

    def test_merged_waveform_digest(self):
        spec = _experiment()
        report = SweepReport(
            spec=spec,
            shards=[
                ShardResult(
                    index=shard.index,
                    params=shard.params,
                    seed=shard.seed,
                    status="ok",
                    result={"waveform_digest": f"{shard.index:02d}" * 8},
                )
                for shard in spec.expand()[:3]
            ],
        )
        assert report.merged_waveforms()["combined_digest"] == (
            "c7a50999f0debb7ad22e8ffa861b6886856f66c9ec8d10544a9f5b874bfb4ef6"
        )

    def test_topology_json_round_trip_keeps_fingerprint(self):
        topo = openflow_topology(wire_cross_ports=True)
        assert Topology.from_json(topo.to_json()).fingerprint() == topo.fingerprint()
