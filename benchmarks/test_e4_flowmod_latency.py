"""E4 — demo Part II: "a test which measures the latency to modify the
entries of the switch flow table through control and data plane
measurements" (paper §2).

Regenerates: barrier-reported vs data-plane-observed install latency,
per burst size, for a spec-honest and an eager (lying) switch firmware.
"""

from conftest import emit

from repro.analysis import format_table
from repro.testbed import measure_flowmod_latency

RULE_COUNTS = [8, 32, 64]


def test_e4_control_vs_data_plane():
    def sweep():
        results = []
        for mode in ("spec", "eager"):
            for n_rules in RULE_COUNTS:
                results.append(measure_flowmod_latency(n_rules=n_rules, barrier_mode=mode))
        return results

    results = sweep()
    emit(
        format_table(
            ["firmware", "rules", "barrier us", "first rule us", "all rules us", "barrier error us"],
            [
                [
                    result.barrier_mode,
                    result.n_rules,
                    round(result.control_latency_ps / 1e6, 1),
                    round(min(result.rule_activation_ps) / 1e6, 1),
                    round(result.data_plane_complete_ps / 1e6, 1),
                    round(result.control_says_done_before_data_ps / 1e6, 1),
                ]
                for result in results
            ],
            title="E4: flow-table update latency, control vs data plane (demo Part II)",
        )
    )
    spec = [r for r in results if r.barrier_mode == "spec"]
    eager = [r for r in results if r.barrier_mode == "eager"]
    # Data-plane completion scales with burst size on both firmwares.
    for series in (spec, eager):
        done = [r.data_plane_complete_ps for r in series]
        assert done == sorted(done)
        assert done[-1] > 3 * done[0]
    # The honest barrier tracks the data plane to within measurement
    # resolution (one probe cycle: n_rules × 2 µs between probes of the
    # same rule); the eager one underestimates by far more than that,
    # and its error grows with the burst size.
    from repro.units import us

    for result in spec:
        probe_cycle_ps = result.n_rules * us(2)
        assert result.control_says_done_before_data_ps < probe_cycle_ps
    eager_errors = [r.control_says_done_before_data_ps for r in eager]
    assert all(err > us(300) for err in eager_errors)
    assert eager_errors == sorted(eager_errors)


def test_e4_per_rule_activation_series():
    result = measure_flowmod_latency(n_rules=16, barrier_mode="spec")
    activations_us = [a / 1e6 for a in result.rule_activation_ps]
    steps = [b - a for a, b in zip(activations_us, activations_us[1:])]
    emit(
        format_table(
            ["rule #", "activation us"],
            [[index, round(value, 1)] for index, value in enumerate(activations_us)],
            title="E4b: per-rule data-plane activation (serial TCAM writes)",
        )
    )
    # Rules come alive one by one, spaced by roughly the table-write cost.
    assert activations_us == sorted(activations_us)
    assert min(steps) > 0.03  # strictly serial
