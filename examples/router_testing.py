#!/usr/bin/env python3
"""Testing an IPv4 router DUT: RFC 2544 + microarchitecture resolution.

Two things a hardware tester does to a router that software tools
cannot do well:

1. find the *achievable bandwidth* precisely (RFC 2544 zero-loss binary
   search, here against an oversubscribed-fabric switch for contrast);
2. resolve *nanosecond-scale* DUT internals — here the router's LPM
   pipeline walks one trie level (12 ns) per matched prefix bit, a
   staircase invisible under the µs-scale noise of host timestamping
   but trivial for 6.25 ns hardware stamps.

Run:  python examples/router_testing.py
"""

from repro.analysis import print_table
from repro.testbed import rfc2544_point, router_latency_point
from repro.units import GBPS


def main() -> None:
    # Part 1: RFC 2544 achievable bandwidth of three DUT variants.
    rows = []
    for label, fabric in (
        ("non-blocking switch", None),
        ("6G-fabric switch", 6 * GBPS),
        ("2.5G-fabric switch", 2.5 * GBPS),
    ):
        result = rfc2544_point(512, fabric_rate_bps=fabric)
        rows.append(
            [
                label,
                f"{result.throughput_load:.3f}",
                f"{result.throughput_bps / 1e9:.2f} Gbps",
                f"{result.latency_mean_us:.2f} µs",
                len(result.trials),
            ]
        )
    print_table(
        ["DUT", "zero-loss load", "throughput", "latency @ rate", "trials"],
        rows,
        title="RFC 2544 achievable bandwidth (binary search, 512 B frames)",
    )

    # Part 2: the router's LPM staircase.
    router_rows = [
        router_latency_point(prefix_len, fib_fill=500)[0]
        for prefix_len in (0, 8, 16, 24, 32)
    ]
    print_table(
        ["matched prefix", "FIB size", "mean latency µs", "p99 µs"],
        [
            [f"/{row.prefix_len}", row.fib_routes, round(row.mean_us, 4), round(row.p99_us, 4)]
            for row in router_rows
        ],
        title="Router forwarding latency vs matched LPM depth (12 ns per level)",
    )
    steps = [
        (b.mean_us - a.mean_us) * 1e3
        for a, b in zip(router_rows, router_rows[1:])
    ]
    print(
        f"Each extra /8 of matched prefix adds {sum(steps) / len(steps):.0f} ns "
        "(8 trie levels x 12 ns) - resolved cleanly by the 6.25 ns hardware\n"
        "timestamps, despite being ~20x below the software-generator noise\n"
        "floor measured in experiment E2."
    )


if __name__ == "__main__":
    main()
