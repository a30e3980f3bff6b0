"""E5 — demo Part II: "forwarding consistency during large flow table
updates" (paper §2).

Regenerates: packets delivered to the *old* destination during/after a
burst rewrite of the table, per firmware and burst size.
"""

from conftest import emit

from repro.analysis import format_table
from repro.testbed import measure_forwarding_consistency

RULE_COUNTS = [8, 32]


def test_e5_forwarding_consistency():
    def sweep():
        results = []
        for mode in ("spec", "eager"):
            for n_rules in RULE_COUNTS:
                results.append(
                    measure_forwarding_consistency(n_rules=n_rules, barrier_mode=mode)
                )
        return results

    results = sweep()
    emit(
        format_table(
            ["firmware", "rules", "barrier us", "stale in update", "stale after barrier", "transition us"],
            [
                [
                    result.barrier_mode,
                    result.n_rules,
                    round(result.barrier_latency_ps / 1e6, 1),
                    result.stale_during_update,
                    result.stale_after_barrier,
                    round(result.transition_span_ps / 1e6, 1),
                ]
                for result in results
            ],
            title="E5: forwarding consistency during table update bursts (demo Part II)",
        )
    )
    spec = [r for r in results if r.barrier_mode == "spec"]
    eager = [r for r in results if r.barrier_mode == "eager"]
    # A spec-honest switch is consistent once the barrier returns.
    assert all(r.stale_after_barrier == 0 for r in spec)
    # The eager switch forwards stale traffic after claiming completion,
    # and more of it for larger bursts.
    staleness = [r.stale_after_barrier for r in eager]
    assert all(count > 0 for count in staleness)
    assert staleness == sorted(staleness)
    # The transition itself (update applied rule-by-rule) always spans
    # real time; updates are never atomic on either firmware.
    assert all(r.transition_span_ps > 0 for r in results)
