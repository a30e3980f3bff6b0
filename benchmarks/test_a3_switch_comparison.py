"""A3 (ablation) — comparing switch classes, OFLOPS-turbo style.

The demo runs "multiple measurement tests against a production OpenFlow
switch"; the underlying OFLOPS-turbo work compared several vendors and
found order-of-magnitude spreads. This bench runs the flow_mod-latency
module against the four modelled switch classes and prints the
comparison table the framework exists to produce.
"""

from conftest import emit

from repro.analysis import format_table
from repro.devices import PROFILES
from repro.oflops import FlowModLatencyModule, ModuleRunner, OflopsContext

N_RULES = 16


def test_a3_switch_class_comparison():
    def sweep():
        results = {}
        for name in sorted(PROFILES):
            runner = ModuleRunner(OflopsContext(profile=PROFILES[name]))
            results[name] = runner.run(FlowModLatencyModule(n_rules=N_RULES))
        return results

    results = sweep()
    emit(
        format_table(
            ["DUT class", "barrier us", "all rules live us", "us/rule", "barrier honest?"],
            [
                [
                    name,
                    round(result["control_done_us"], 1),
                    round(result["data_done_us"], 1),
                    round(result["data_done_us"] / N_RULES, 1),
                    "no" if result["barrier_understates_by_us"] > 100 else "yes",
                ]
                for name, result in results.items()
            ],
            title=f"A3: {N_RULES}-rule install across switch classes (flow_mod_latency)",
        )
    )
    # The software switch installs rules orders of magnitude faster than
    # hardware TCAM writers...
    assert results["soft-switch"]["data_done_us"] * 10 < results["hw-fast-cpu"]["data_done_us"]
    # ...a slow management CPU hurts even with a faster table...
    assert results["hw-slow-cpu"]["data_done_us"] > results["hw-fast-cpu"]["data_done_us"] / 2
    # ...and only the eager DUT's barrier is dishonest.
    for name, result in results.items():
        if name == "hw-eager":
            assert result["barrier_understates_by_us"] > 300
        else:
            assert result["barrier_understates_by_us"] < 100
