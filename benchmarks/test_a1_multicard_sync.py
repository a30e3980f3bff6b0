"""A1 (ablation/extension) — multi-tester deployments need GPS sync.

Paper §1: "Such deployments may see the use of hundreds or thousands of
testers, offering previously unobtainable insights" — which only works
because every card's clock is disciplined to the same GPS time base.

Regenerates: one-way latency between two separate OSNT cards (30 ppm
and −25 ppm oscillators), measured across clock domains, with GPS on
and off.
"""

from conftest import emit

from repro.analysis import format_table
from repro.testbed.multicard import measure_one_way_latency

SAMPLE_TIMES_S = [1, 5, 10]


def test_a1_one_way_latency_across_cards():
    def sweep():
        rows = []
        for gps in (False, True):
            rows.extend(
                measure_one_way_latency(gps, sample_times_s=SAMPLE_TIMES_S)
            )
        return rows

    rows = sweep()
    emit(
        format_table(
            ["GPS", "after s", "true ns", "measured ns", "error ns"],
            [
                [
                    "on" if row.gps_enabled else "off",
                    row.measured_after_s,
                    round(row.true_latency_ns, 1),
                    round(row.measured_mean_ns, 1),
                    round(row.error_ns, 1),
                ]
                for row in rows
            ],
            title="A1: one-way latency between two tester cards (cross-clock)",
        )
    )
    free = [row for row in rows if not row.gps_enabled]
    disciplined = [row for row in rows if row.gps_enabled]
    # Free-running clocks make one-way latency meaningless (and the
    # error grows with elapsed time — here it even goes negative).
    assert all(abs(row.error_ns) > 10_000 for row in free)
    free_errors = [abs(row.error_ns) for row in free]
    assert free_errors == sorted(free_errors)
    # GPS-disciplined cards agree to within tens of ns — measurement is
    # dominated by the true path latency, not clock offset.
    assert all(abs(row.error_ns) < 100 for row in disciplined)
