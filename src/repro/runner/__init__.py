"""Sharded, fault-tolerant sweep execution for declarative experiments.

The campaign layer of the reproduction: a serializable
:class:`ExperimentSpec` describes *what* to measure (scenario, params,
sweep axes, repeats, seed, collection plan) and the
:class:`SweepRunner` decides *how* — expanding the axes into shards,
executing them across a worker-process pool with deterministic
per-shard seed derivation (bit-identical merged results at any worker
count), per-shard timeouts with bounded retry, resume from a
content-addressed result store, and a merged :class:`SweepReport` of
result tables and telemetry snapshots.

    from repro.runner import ExperimentSpec, SweepRunner

    spec = ExperimentSpec(
        name="latency-vs-load",
        scenario="legacy_latency",
        params={"frame_size": 512, "duration": "2ms"},
        axes={"load": [0.2, 0.4, 0.6, 0.8, 1.0]},
        repeats=3,
    )
    report = SweepRunner(spec, workers=4, cache_dir="runs/store").run()
    report.require_ok()        # rerun after an interruption to resume

The same campaign runs from the shell via ``osnt-sweep run spec.json``.
"""

from .execution import SweepRunner, run_shard, run_spec
from .registry import get_scenario, list_scenarios, register_scenario, scenario
from .report import ShardResult, SweepReport
from ..spec import canonical_json
from .spec import ExperimentSpec, Shard, shard_seed

__all__ = [
    "ExperimentSpec",
    "Shard",
    "ShardResult",
    "SweepReport",
    "SweepRunner",
    "canonical_json",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_shard",
    "run_spec",
    "scenario",
    "shard_seed",
]
