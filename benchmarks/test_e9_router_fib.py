"""E9 (extension) — resolving DUT microarchitecture with sub-µs stamps.

The OSNT pitch is that 6.25 ns timestamping resolves effects commodity
tools cannot. This bench demonstrates it on a router DUT whose LPM
pipeline walks one trie level (12 ns) per matched prefix bit: the
per-prefix-length latency staircase is far below software timestamping
noise (E2 measured µs-scale), yet trivially visible to the tester.
"""

from conftest import emit

from repro.analysis import format_table
from repro.testbed import router_latency_point

PREFIX_LENS = [0, 8, 16, 24, 32]


def test_e9_lpm_depth_staircase():
    rows = [
        router_latency_point(prefix_len, fib_fill=500)[0]
        for prefix_len in PREFIX_LENS
    ]
    emit(
        format_table(
            ["matched prefix", "FIB routes", "probes", "mean us", "p99 us"],
            [
                [
                    f"/{row.prefix_len}",
                    row.fib_routes,
                    row.packets,
                    round(row.mean_us, 4),
                    round(row.p99_us, 4),
                ]
                for row in rows
            ],
            title="E9: router latency vs matched LPM depth (12 ns per trie level)",
        )
    )
    assert all(row.no_route == 0 for row in rows)
    means = [row.mean_us for row in rows]
    # Strictly increasing staircase...
    assert means == sorted(means)
    # ...with ~96 ns per 8 levels (12 ns per level), resolved to within
    # the 6.25 ns timestamp quantisation.
    steps_ns = [(b - a) * 1e3 for a, b in zip(means, means[1:])]
    for step in steps_ns:
        assert 96 - 13 <= step <= 96 + 13
