"""E7 — "The design associates packets with a 64-bit timestamp on
receipt by the MAC module, thus minimising queueing noise" (paper §1).

Ablation: the same switch-latency measurement taken (a) from the
MAC-adjacent hardware RX timestamps and (b) from host arrival times
behind the DMA path. The hardware numbers stay clean under capture
load; the host numbers absorb the capture path's queueing.
"""

from conftest import emit

from repro.analysis import format_table
from repro.testbed import timestamp_placement_point
from repro.units import ms

LOADS = [0.2, 0.5, 0.8]


def test_e7_mac_vs_host_timestamps():
    rows = [
        timestamp_placement_point(load, duration_ps=ms(2))[0] for load in LOADS
    ]
    emit(
        format_table(
            ["load", "HW mean us", "HW std us", "host mean us", "host std us", "host noise ×"],
            [
                [
                    f"{row.load:.1f}",
                    round(row.hw_mean_us, 3),
                    round(row.hw_std_us, 4),
                    round(row.host_mean_us, 3),
                    round(row.host_std_us, 3),
                    round(row.host_error_inflation, 1),
                ]
                for row in rows
            ],
            title="E7: latency measured at the MAC vs at the host (queueing noise)",
        )
    )
    # Hardware-stamped statistics are stable across capture loads...
    hw_stds = [row.hw_std_us for row in rows]
    assert max(hw_stds) < 0.1
    # ...while host-side spread explodes as the DMA path congests.
    host_stds = [row.host_std_us for row in rows]
    assert host_stds == sorted(host_stds)
    assert rows[-1].host_error_inflation > 100
