#!/usr/bin/env python3
"""Tour of repro.flows — closed-loop traffic over an impaired testbed.

The open-loop tester measures packet streams; this layer measures what
*real* traffic does when the network misbehaves, reproducing
LinkGuardian's headline result in simulation:

* a TCP-ish transport (slow start, AIMD, fast retransmit, RTO) between
  two hosts declared with the Topology builder;
* flow-completion-time distributions over a corrupting link, with and
  without link-local retransmit protection — same seed, same corrupted
  frames, very different tails;
* the effective-loss-vs-speed argument: a fixed per-frame corruption
  probability hurts more at 40G than at 10G;
* the same scenarios swept through the sharded runner, bit-identical
  at any worker count.

Run:  python examples/flows_tour.py
"""

from repro.analysis import print_table
from repro.flows import (
    FlowEndpoint,
    LinkGuardian,
    effective_loss_vs_speed_point,
    fct_vs_loss_point,
)
from repro.runner import ExperimentSpec, run_spec
from repro.sim import Simulator
from repro.topology import Topology


def one_flow() -> None:
    print("== 1. one closed-loop flow, declaratively wired ==")
    sim = Simulator()
    built = (
        Topology(name="pair")
        .host("h1", rate="10Gbps")
        .host("h2", rate="10Gbps")
        .node("s1", "legacy_switch", ports=2, rate="10Gbps", seed=1)
        .link("h1", "s1:0", rate="10Gbps")
        .link("s1:1", "h2", rate="10Gbps")
    ).build(sim)
    LinkGuardian(corrupt_rate=0.01, protected=True, seed=3).attach(
        built.link_between("s1", "h2")
    )
    src, dst = FlowEndpoint(built.node("h1")), FlowEndpoint(built.node("h2"))
    flow = src.flow_to(dst, size_bytes=200_000)
    sim.run()
    record = flow.record
    print(
        f"  200 KB over a 1% corrupting (protected) hop: "
        f"fct={record.fct_ps / 1e6:.1f} us  "
        f"goodput={record.goodput_bps / 1e9:.2f} Gbps  "
        f"retransmits={record.retransmits} (transport saw nothing)"
    )


def linkguardian_comparison() -> None:
    print("\n== 2. the LinkGuardian experiment: protected vs raw tail ==")
    rows = []
    for label, corrupt_rate, protected in [
        ("lossless baseline", 0.0, False),
        ("1e-3, protected", 1e-3, True),
        ("1e-3, unprotected", 1e-3, False),
    ]:
        row = fct_vs_loss_point(
            corrupt_rate=corrupt_rate, protected=protected, seed=6
        )
        rows.append(
            [
                label,
                row["link"]["corrupted"],
                row["retransmits"],
                row["timeouts"],
                f"{row['fct_us']['p50']:.0f}",
                f"{row['fct_us']['p99']:.0f}",
                f"{row['fct_us']['max']:.0f}",
            ]
        )
    print_table(
        ["arm", "corrupted", "rtx", "RTOs", "p50 us", "p99 us", "max us"],
        rows,
        title="same seed, same corrupted frames; only their fate differs",
    )


def loss_vs_speed() -> None:
    print("\n== 3. why corruption loss gets worse beyond 10 Gbps ==")
    rows = []
    for rate in ["10Gbps", "40Gbps", "100Gbps"]:
        raw = effective_loss_vs_speed_point(
            rate, corrupt_rate=0.01, protected=False, seed=2,
            n_flows=32, flow_bytes=60_000,
        )
        prot = effective_loss_vs_speed_point(
            rate, corrupt_rate=0.01, protected=True, seed=2,
            n_flows=32, flow_bytes=60_000,
        )
        rows.append(
            [
                rate,
                raw["link"]["corrupted"],
                f"{raw['effective_loss_rate']:.2%}",
                f"{prot['effective_loss_rate']:.2%}",
                f"{raw['fct_us']['p99']:.0f}",
                f"{prot['fct_us']['p99']:.0f}",
            ]
        )
    print_table(
        ["link", "corrupted", "raw loss", "prot loss", "raw p99 us", "prot p99 us"],
        rows,
        title="fixed per-frame corruption; faster links corrupt more frames/s",
    )


def swept() -> None:
    print("\n== 4. swept through the sharded runner ==")
    spec = ExperimentSpec.from_dict(
        {
            "name": "linkguardian-sweep",
            "scenario": "fct_vs_loss",
            "axes": {"protected": [False, True], "corrupt_rate": [0.0, 1e-3]},
            "seed": 6,
        }
    )
    serial = run_spec(spec, workers=1)
    parallel = run_spec(spec, workers=2)
    assert serial.merged_json() == parallel.merged_json()
    rows = [
        [
            row["protected"],
            f"{row['corrupt_rate']:g}",
            f"{row['fct_us']['p99']:.0f}",
            row["flow_digest"][:12],
        ]
        for row in serial.rows()
    ]
    print_table(
        ["protected", "corrupt", "p99 us", "flow digest"],
        rows,
        title="workers=1 == workers=2, byte for byte",
    )


if __name__ == "__main__":
    one_flow()
    linkguardian_comparison()
    loss_vs_speed()
    swept()
