"""E8 — "evaluate the achievable bandwidth and latency of a network
device" (paper §2), via the RFC 2544 methodology built on OSNT.

Regenerates: zero-loss throughput + latency-at-throughput for a
non-blocking DUT and two oversubscribed-fabric DUTs, as declarative
``rfc2544`` sweeps through :mod:`repro.runner`.
"""

from conftest import emit

from repro.analysis import format_table
from repro.runner import ExperimentSpec, run_spec
from repro.units import GBPS

DUTS = [
    ("non-blocking", None),
    ("6G fabric", 6 * GBPS),
    ("2.5G fabric", 2.5 * GBPS),
]


def test_e8_achievable_bandwidth_and_latency():
    def sweep():
        spec = ExperimentSpec(
            name="e8-dut-comparison",
            scenario="rfc2544",
            params={"frame_size": 512, "seed": 0},
            axes={"fabric_rate_bps": [fabric for __, fabric in DUTS]},
            retries=0,
        )
        report = run_spec(spec, workers=0)
        report.require_ok()
        return [
            (label, shard.result) for (label, __), shard in zip(DUTS, report.ok)
        ]

    results = sweep()
    emit(
        format_table(
            ["DUT", "zero-loss load", "throughput Gbps", "latency mean us", "latency p99 us", "trials"],
            [
                [
                    label,
                    f"{r['throughput_load']:.3f}",
                    round(r["throughput_bps"] / 1e9, 2),
                    round(r["latency_mean_us"], 2),
                    round(r["latency_p99_us"], 2),
                    len(r["trials"]),
                ]
                for label, r in results
            ],
            title="E8: RFC 2544 achievable bandwidth + latency (512 B frames)",
        )
    )
    by_label = dict(results)
    # A non-blocking switch forwards full line rate with low flat latency.
    nonblocking = by_label["non-blocking"]
    assert nonblocking["throughput_load"] == 1.0
    assert nonblocking["latency_mean_us"] < 5
    # Oversubscribed fabrics cap at ~their aggregate rate (short trials
    # overshoot slightly while the fabric buffer absorbs the excess)...
    assert 5.5e9 < by_label["6G fabric"]["throughput_bps"] < 7.0e9
    assert 2.2e9 < by_label["2.5G fabric"]["throughput_bps"] < 3.3e9
    # ...and run much higher latency at their zero-loss boundary.
    assert by_label["6G fabric"]["latency_mean_us"] > 10
    assert (
        by_label["2.5G fabric"]["latency_mean_us"]
        > by_label["6G fabric"]["latency_mean_us"]
    )


def test_e8b_frame_size_sweep():
    """The canonical RFC 2544 table: throughput per frame size (6G fabric).

    The fabric forwards ~6 Gbps of frame bytes regardless of size, so the
    zero-loss *load* is roughly constant while pps scales inversely."""
    sizes = [64, 512, 1518]

    def sweep():
        spec = ExperimentSpec(
            name="e8b-frame-size",
            scenario="rfc2544",
            params={
                "fabric_rate_bps": 6 * GBPS,
                "duration": "1ms",
                "resolution": 0.05,
                "seed": 0,
            },
            axes={"frame_size": sizes},
            retries=0,
        )
        report = run_spec(spec, workers=0)
        report.require_ok()
        return [shard.result for shard in report.ok]

    results = sweep()
    emit(
        format_table(
            ["frame B", "zero-loss load", "throughput Gbps", "kpps at rate"],
            [
                [
                    r["frame_size"],
                    f"{r['throughput_load']:.2f}",
                    round(r["throughput_bps"] / 1e9, 2),
                    round(r["throughput_bps"] / (r["frame_size"] * 8) / 1e3, 1),
                ]
                for r in results
            ],
            title="E8b: RFC 2544 throughput vs frame size (6 Gbps fabric DUT)",
        )
    )
    # Fabric-byte-limited: throughput in Gbps roughly constant across
    # sizes (within search resolution + short-trial buffer slack)...
    gbps = [r["throughput_bps"] / 1e9 for r in results]
    assert max(gbps) - min(gbps) < 1.6
    # ...while packet rate falls with frame size.
    pps = [r["throughput_bps"] / (r["frame_size"] * 8) for r in results]
    assert pps[0] > pps[1] > pps[2]
