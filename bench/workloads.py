"""The benchmark's four workloads: what each runs and what must hold.

Every workload is a fixed list of *ops*. An op is one call into the
simulator — a registered scenario, a sweep through the runner, or a
small testbed built from the public OSNT API — made with the workload's
``--seed`` as its ``seed`` argument. Load is a closed loop: each op
starts when the previous one returns.

Why these four (each stresses layers the others leave idle):

* ``linerate_burst`` — the paper's headline, full line rate on all four
  card ports. Nearly all time is in burst windows (``hw.burst``), almost
  none in kernel dispatch.
* ``legacy_switch`` — demo Part I. Capture and embedded TX stamps force
  every lane onto the per-packet path: kernel dispatch, MAC/link, the
  legacy switch, capture/DMA and the latency reducers.
* ``openflow_control`` — demo Part II. OpenFlow message handling, the
  switch firmware queue, flow-table lookups and the control channel.
* ``sweep_cached`` — the sweep workloads through the runner's fork pool
  and the content-addressed result store: a cold sweep writes the
  store, an overlapping extension half hits it, warm reruns only read.

``check`` holds the invariants the repository's closed-form maths fix;
``measure.py`` counts an op as failed when it raises, when its result
digest changes between passes, or when it breaks one of them.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro import OSNT, Simulator, connect
from repro.osnt.generator.trafficspec import TrafficModelSpec
from repro.runner import ExperimentSpec, Shard, canonical_json, get_scenario, run_shard, run_spec
from repro.testbed.workloads import udp_template

#: A 64 B frame occupies 67.2 ns of 10G wire; twice that is load 0.5.
_HALF_LOAD_GAP_PS = 134_400

Failure = Tuple[str, str]


@dataclass
class Op:
    """One call into the simulator."""

    name: str
    run: Callable[[Dict[str, Any]], Any]
    #: Layer billed for the op's own code in a traced run.
    layer: str = "testbed"
    #: Counted in ``wall_ref``; untimed ops are still run and checked.
    timed: bool = True
    #: Runs shards in forked workers (traced with parent-side spans only).
    forks: bool = False


class Workload:
    """Base class: a named op list plus its invariants."""

    name = ""
    #: Scenarios and lazily imported modules the ops need: what
    #: ``setup`` resolves, so ``setup_s`` covers them.
    scenarios: Tuple[str, ...] = ()
    modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, small: bool = False, workdir: Optional[str] = None) -> None:
        self.seed = seed
        self.small = small
        self.workdir = workdir

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def census_ops(self) -> List[Op]:
        """Untimed ops run in the warm-up and traced passes only."""
        return []

    def begin_pass(self) -> Dict[str, Any]:
        return {}

    def end_pass(self, ctx: Dict[str, Any]) -> None:
        pass

    def check(self, results: Dict[str, Any], ctx: Dict[str, Any]) -> List[Failure]:
        return []

    def layer_counts(self, ctx: Dict[str, Any]) -> Dict[str, float]:
        """Per-layer counts only this workload's results carry."""
        return {}

    def probe(self) -> Dict[str, float]:
        """Extra per-layer measurements taken once in a traced run."""
        return {}

    def scenario_op(self, name: str, scenario: str, params: Dict[str, Any]) -> Op:
        spec = ExperimentSpec(name=name, scenario=scenario, params=params)
        shard = Shard(index=0, params=params, seed=self.seed)
        return Op(name, lambda ctx: run_shard(spec, shard))


# -- linerate_burst -----------------------------------------------------------


def loopback_lanes(seed: int, traffic: TrafficModelSpec, duration: str) -> Dict[str, Any]:
    """Four 64 B lanes over the card's two loopback cables."""
    sim = Simulator()
    tester = OSNT(sim, root_seed=seed)
    connect(tester.port(0), tester.port(1))
    connect(tester.port(2), tester.port(3))
    generators = [
        tester.generator(port)
        .load_template(udp_template(64))
        .use_model(traffic)
        .for_duration(duration)
        .start()
        for port in range(4)
    ]
    sim.run()
    return {
        "sent": [generator.packets_sent for generator in generators],
        "received": [tester.monitor(port).rx_packets for port in range(4)],
        "sim_ps": sim.now,
    }


class LineRateBurst(Workload):
    name = "linerate_burst"
    scenarios = ("line_rate",)
    modules = ("repro.testbed.scenarios", "repro.osnt.generator.trafficmodels")
    FRAME_SIZES = (64, 256, 1518)
    LANES = {
        # Stochastic gaps: the serial (per-frame) burst lane.
        "lanes_poisson": TrafficModelSpec("poisson", {"mean_gap": _HALF_LOAD_GAP_PS}),
        # Exactly periodic trains: the closed-form train lane.
        "lanes_burst_train": TrafficModelSpec(
            "burst_train", {"frames_per_burst": 32, "inter_burst_gap": "2us"}
        ),
    }

    def ops(self) -> List[Op]:
        # Telemetry rate ticks cut the burst windows every simulated
        # millisecond, so the work grows with the duration.
        duration = "2ms" if self.small else "20ms"
        lane_duration = "1ms" if self.small else "5ms"
        ops = [
            self.scenario_op(
                f"e1_{size}B",
                "line_rate",
                {"frame_size": size, "ports": 4, "duration": duration, "telemetry": True},
            )
            for size in self.FRAME_SIZES
        ]
        for name, traffic in self.LANES.items():
            ops.append(
                Op(name, lambda ctx, t=traffic: loopback_lanes(self.seed, t, lane_duration))
            )
        return ops

    def check(self, results, ctx):
        failures = []
        for size in self.FRAME_SIZES:
            name = f"e1_{size}B"
            row = results.get(name)
            if row is None:
                continue
            if row["achieved_pps"] != row["theoretical_pps"]:
                failures.append((name, "efficiency != 1.0"))
            snapshot = row["telemetry"]
            sent = sum(snapshot[f"osnt.p{p}.gen.sent"] for p in range(4))
            received = sum(snapshot[f"osnt.p{p}.mon.rx_packets"] for p in range(4))
            if received != sent:
                failures.append((name, f"rx {received} != sent {sent}"))
        for name in self.LANES:
            lanes = results.get(name)
            if lanes is None:
                continue
            # Port p sends to its loopback peer p ^ 1.
            if [lanes["received"][p ^ 1] for p in range(4)] != lanes["sent"]:
                failures.append((name, "rx != sent on a loopback lane"))
        return failures


# -- legacy_switch ------------------------------------------------------------


class LegacySwitchWorkload(Workload):
    name = "legacy_switch"
    scenarios = ("legacy_latency", "rfc2544")
    modules = ("repro.testbed.scenarios", "repro.testbed.rfc2544")
    FRAME_SIZES = (64, 512)
    LOADS = (0.3, 0.6, 0.9)

    def ops(self) -> List[Op]:
        duration = "0.2ms" if self.small else "0.5ms"
        ops = [
            self.scenario_op(
                f"e3_{size}B_load{load}",
                "legacy_latency",
                {"frame_size": size, "load": load, "duration": duration},
            )
            for size in self.FRAME_SIZES
            for load in self.LOADS
        ]
        # A fabric well below line rate overflows the switch's buffer
        # within one trial, so the binary search really iterates.
        ops.append(
            self.scenario_op(
                "rfc2544_256B",
                "rfc2544",
                {
                    "frame_size": 256,
                    "fabric_rate_bps": "2Gbps" if self.small else "5Gbps",
                    "duration": duration,
                },
            )
        )
        return ops

    def check(self, results, ctx):
        failures = []
        for size in self.FRAME_SIZES:
            previous_p50 = None
            for load in self.LOADS:
                name = f"e3_{size}B_load{load}"
                row = results.get(name)
                if row is None:
                    continue
                if row["packets"] <= 0:
                    failures.append((name, "no probe packets"))
                if previous_p50 is not None and row["p50_us"] < previous_p50:
                    failures.append((name, "p50 fell as load rose"))
                previous_p50 = row["p50_us"]
        rfc = results.get("rfc2544_256B")
        if rfc is not None:
            best = rfc["throughput_load"]
            if not best < 1.0:
                failures.append(("rfc2544_256B", "throughput not below line rate"))
            for trial in rfc["trials"]:
                lossless = trial["received"] == trial["sent"]
                if lossless != (trial["load"] <= best):
                    reason = f"trial at {trial['load']} contradicts throughput {best}"
                    failures.append(("rfc2544_256B", reason))
        return failures


# -- openflow_control ---------------------------------------------------------


class OpenFlowControl(Workload):
    name = "openflow_control"
    scenarios = ("flowmod_latency", "forwarding_consistency", "syn_flood_flowmod", "oflops")
    modules = (
        "repro.testbed.scenarios",
        "repro.testbed.attacks",
        "repro.oflops.context",
        "repro.oflops.module",
        "repro.oflops.modules",
    )
    BARRIER_MODES = ("spec", "eager")

    def ops(self) -> List[Op]:
        rules = 8 if self.small else 64
        ops = [
            self.scenario_op(
                f"e4_{mode}", "flowmod_latency", {"n_rules": rules, "barrier_mode": mode}
            )
            for mode in self.BARRIER_MODES
        ]
        ops.append(self.scenario_op("e5", "forwarding_consistency", {"n_rules": rules}))
        flood = {"n_flows": 64, "duration": "1ms"} if self.small else {"n_flows": 1024}
        ops.append(self.scenario_op("syn_flood", "syn_flood_flowmod", flood))
        ops.append(
            self.scenario_op(
                "oflops_flow_mod",
                "oflops",
                {"module": "flow_mod_latency", "n_rules": rules // 2},
            )
        )
        return ops

    def check(self, results, ctx):
        failures = []
        for mode in self.BARRIER_MODES:
            name = f"e4_{mode}"
            row = results.get(name)
            if row is None:
                continue
            if row.get("degraded") or len(row["rule_activation_ps"]) != row["n_rules"]:
                failures.append((name, "not every rule reached the data plane"))
            # An eager barrier is answered before the table writes, so the
            # data plane can only finish after the control plane's report.
            # (A spec barrier's reply crosses the channel after the last
            # write, so the data plane may legitimately finish first.)
            if mode == "eager" and row["data_plane_complete_ps"] < row["control_latency_ps"]:
                failures.append((name, "data plane done before the control plane said so"))
        flood = results.get("syn_flood")
        if flood is not None and flood["degraded"]:
            failures.append(("syn_flood", "degraded"))
        return failures


# -- sweep_cached -------------------------------------------------------------


class SweepCached(Workload):
    name = "sweep_cached"
    scenarios = ("fct_vs_loss", "incast_burst")
    modules = (
        "repro.flows.scenarios",
        "repro.testbed.attacks",
        "repro.cluster.store",
        "repro.cluster.scheduler",
    )
    WORKERS = 2
    #: Minimum length of the warm phase that measures store hits/s.
    WARM_PROBE_S = 1.0

    def specs(self) -> Dict[str, ExperimentSpec]:
        """Cold specs and their overlapping extensions.

        The extensions append values to each spec's first axis, so the
        cold shards keep their index and seed (and cache key), and half
        of each extension's shards are new.
        """
        # Flows start 200 us apart, so a retransmission timeout (1 ms or
        # more) rarely sets a shard's end: simulated time then depends
        # little on which seed's corruption pattern is drawn.
        fct = (
            {"n_flows": 4, "flow_bytes": 20_000}
            if self.small
            else {"n_flows": 12, "spacing": "200us"}
        )
        incast = {"duration": "0.2ms" if self.small else "1ms"}
        rates = [1e-4, 1e-3, 1e-2]
        phases = [0, "200ns"]

        def spec(name, scenario, params, axes, repeats=1):
            return ExperimentSpec(
                name=name,
                scenario=scenario,
                params=params,
                axes=axes,
                repeats=repeats,
                seed=self.seed,
            )

        return {
            "fct_cold": spec(
                "fct-cold", "fct_vs_loss", fct,
                {"corrupt_rate": rates, "protected": [False, True]}, repeats=2,
            ),
            "incast_cold": spec(
                "incast-cold", "incast_burst", incast,
                {"phase_step": phases, "senders": [1, 2, 3]},
            ),
            "fct_ext": spec(
                "fct-ext", "fct_vs_loss", fct,
                {"corrupt_rate": rates + [3e-4, 3e-3, 3e-2], "protected": [False, True]},
                repeats=2,
            ),
            "incast_ext": spec(
                "incast-ext", "incast_burst", incast,
                {"phase_step": phases + ["400ns", "600ns"], "senders": [1, 2, 3]},
            ),
        }

    def _sweep(self, op_name: str, spec: ExperimentSpec, store: str, workers: int):
        def run(ctx):
            report = run_spec(spec, workers=workers, cache_dir=ctx[store])
            report.require_ok()
            ctx["reports"][op_name] = report
            return report.merged_dict()

        return run

    def ops(self) -> List[Op]:
        specs = self.specs()
        ops = [
            Op(key, self._sweep(key, spec, "store", self.WORKERS), layer="runner", forks=True)
            for key, spec in specs.items()
        ]
        ops += [
            Op(f"warm_{key}", self._sweep(f"warm_{key}", spec, "store", self.WORKERS),
               layer="runner", timed=False, forks=True)
            for key, spec in specs.items()
        ]
        return ops

    def census_ops(self) -> List[Op]:
        # The same sweeps inline, so their simulated work happens (and is
        # counted and traced) in this process.
        return [
            Op(f"inline_{key}", self._sweep(f"inline_{key}", spec, "inline_store", 0),
               layer="runner", timed=False)
            for key, spec in self.specs().items()
        ]

    def begin_pass(self) -> Dict[str, Any]:
        root = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        return {
            "root": root,
            "store": f"{root}/store",
            "inline_store": f"{root}/inline",
            "reports": {},
        }

    def end_pass(self, ctx) -> None:
        shutil.rmtree(ctx["root"], ignore_errors=True)

    def check(self, results, ctx):
        failures = []
        reports = ctx["reports"]
        for key, spec in self.specs().items():
            base = results.get(key)
            if base is None:
                continue
            for prefix in ("warm_", "inline_"):
                other = results.get(prefix + key)
                if other is not None and canonical_json(other) != canonical_json(base):
                    failures.append((prefix + key, "merged_json differs from " + key))
            warm = reports.get("warm_" + key)
            if warm is not None and len(warm.from_cache) != spec.shard_count:
                failures.append(("warm_" + key, "warm rerun executed shards"))
        for kind in ("fct", "incast"):
            cold, ext = results.get(f"{kind}_cold"), results.get(f"{kind}_ext")
            if cold is None or ext is None:
                continue
            overlap = ext["shards"][: len(cold["shards"])]
            if canonical_json(overlap) != canonical_json(cold["shards"]):
                failures.append((f"{kind}_ext", "overlapping shards differ from the cold sweep"))
            report = reports.get(f"{kind}_ext")
            if report is not None and len(report.from_cache) != len(cold["shards"]):
                failures.append((f"{kind}_ext", "overlap not served from the store"))
        return failures

    def layer_counts(self, ctx):
        reports = ctx["reports"]
        parent = [report for name, report in reports.items() if not name.startswith("inline_")]
        shards = [shard for report in parent for shard in report.shards]
        hits = sum(len(report.from_cache) for report in parent)
        executed = [
            shard.result
            for name, report in reports.items()
            if name.startswith("inline_fct")
            for shard in report.shards
            if not shard.cached
        ]
        return {
            "runner.shards": len(shards),
            "runner.retries": sum(max(0, shard.attempts - 1) for shard in shards),
            "cluster.store.hits": hits,
            "flows.segments": sum(result["segments_sent"] for result in executed),
            "flows.retransmits": sum(result["retransmits"] for result in executed),
        }

    def probe(self) -> Dict[str, float]:
        """Store hits per second of warm reruns, after one cold fill."""
        ctx = self.begin_pass()
        try:
            specs = list(self.specs().values())
            for spec in specs:
                run_spec(spec, workers=self.WORKERS, cache_dir=ctx["store"]).require_ok()
            hits = 0
            start = time.perf_counter()
            while True:
                for spec in specs:
                    report = run_spec(spec, workers=self.WORKERS, cache_dir=ctx["store"])
                    hits += len(report.from_cache)
                elapsed = time.perf_counter() - start
                if elapsed >= self.WARM_PROBE_S:
                    return {"cluster.store.hits_per_s": hits / elapsed}
        finally:
            self.end_pass(ctx)


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (LineRateBurst, LegacySwitchWorkload, OpenFlowControl, SweepCached)
}


def build(name: str, seed: int, small: bool = False, workdir: Optional[str] = None) -> Workload:
    return WORKLOADS[name](seed, small=small, workdir=workdir)


def setup(name: str) -> None:
    """Resolve a workload's scenarios and import the modules they load lazily."""
    import importlib

    cls = WORKLOADS[name]
    for scenario in cls.scenarios:
        get_scenario(scenario)
    for module in cls.modules:
        importlib.import_module(module)
