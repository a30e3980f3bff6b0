"""E1 — "full line-rate traffic generation regardless of packet size
across the four card ports" (paper §1).

Regenerates: achieved throughput/pps vs frame size, one port and four
ports, against 10GbE theoretical line rate. Runs as a declarative
``line_rate`` sweep through :mod:`repro.runner` — the same campaign is
reachable from the shell via ``osnt-sweep``.
"""

from conftest import emit

from repro.analysis import format_table
from repro.runner import ExperimentSpec, run_spec
from repro.testbed import RFC2544_SIZES


def _line_rate_sweep(sizes, ports=1):
    spec = ExperimentSpec(
        name=f"e1-line-rate-{ports}p",
        scenario="line_rate",
        params={"duration": "1ms", "ports": ports, "seed": 0},
        axes={"frame_size": list(sizes)},
        retries=0,
    )
    report = run_spec(spec, workers=0)
    report.require_ok()
    return [shard.result for shard in report.ok]


def test_e1_line_rate_one_port():
    rows = _line_rate_sweep(RFC2544_SIZES)
    emit(
        format_table(
            ["frame B", "theory Mpps", "achieved Mpps", "theory Gbps", "achieved Gbps", "efficiency"],
            [
                [
                    row["frame_size"],
                    round(row["theoretical_pps"] / 1e6, 3),
                    round(row["achieved_pps"] / 1e6, 3),
                    round(row["theoretical_goodput_bps"] / 1e9, 3),
                    round(row["achieved_goodput_bps"] / 1e9, 3),
                    f"{row['achieved_pps'] / row['theoretical_pps']:.4f}",
                ]
                for row in rows
            ],
            title="E1a: line rate vs frame size, 1 port (paper: full line rate at any size)",
        )
    )
    # The paper's claim: line rate regardless of packet size.
    assert all(row["achieved_pps"] / row["theoretical_pps"] > 0.999 for row in rows)
    # 64B must hit the canonical 14.88 Mpps.
    assert abs(rows[0]["achieved_pps"] - 14_880_952) < 20_000


def test_e1_line_rate_four_ports():
    sizes = [64, 512, 1518]
    rows = _line_rate_sweep(sizes, ports=4)
    emit(
        format_table(
            ["frame B", "ports", "achieved Gbps", "theory Gbps", "efficiency"],
            [
                [
                    row["frame_size"],
                    row["ports"],
                    round(row["achieved_goodput_bps"] / 1e9, 3),
                    round(row["theoretical_goodput_bps"] / 1e9, 3),
                    f"{row['achieved_pps'] / row['theoretical_pps']:.4f}",
                ]
                for row in rows
            ],
            title="E1b: aggregate line rate across all four card ports",
        )
    )
    assert all(row["achieved_pps"] / row["theoretical_pps"] > 0.999 for row in rows)
    # Four ports of 1518B frames ≈ 4 × 9.87 Gbps goodput.
    assert rows[-1]["achieved_goodput_bps"] > 39e9
