"""Measure one workload in this interpreter and print its record.

``run.py`` starts this script in a fresh interpreter per workload, with
a fixed ``PYTHONHASHSEED``; run it directly only to debug a workload::

    PYTHONPATH=src python bench/measure.py --workload legacy_switch --seed 1 --seconds 15 --trace 0

The protocol, in order:

1. one untimed warm-up pass with the census armed: it counts the
   simulated work, checks every op's invariants and records each op's
   result digest (SHA-256 of its canonical JSON);
2. without ``--trace``: timed passes, repeated until ``--seconds`` have
   passed (at least :data:`MIN_PASSES`), with ``gc.collect()`` and one
   run of :func:`reference_work` before every timed op. Each pass's
   results must match the warm-up digests. ``wall_ref`` is the median over
   passes of the pass's wall time divided by the mean time of its
   reference runs (see :func:`reference_work` for why);
3. with ``--trace``: bare passes for half of ``--seconds`` (the base of
   ``trace.overhead``), then one traced pass, which must reproduce the
   warm-up digests and burst fallback fraction, then the workload's
   probe.

The last line of standard output is the JSON record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import workloads
from repro.runner import canonical_json

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}
MIN_PASSES = 3
#: Failure reasons kept in the record (the count is always exact).
MAX_REASONS = 20


def reference_work(steps: int = 60_000) -> int:
    """A fixed amount of plain interpreter work: a small heap-driven loop.

    It shares no code with the simulator, so its wall time measures only
    how fast this machine runs Python at that moment. On shared hosts
    that speed drifts by 10-20% over seconds to minutes, which moves
    every wall time with it; a pass's time divided by the reference
    runs interleaved with its timed ops cancels the drift (it halved the
    run-to-run spread where this was measured), while a change to the
    simulator still moves the ratio in full. About 40 ms per call.
    """
    queue = [(i * 7919 % 10007, i) for i in range(64)]
    heapq.heapify(queue)
    counts: Dict[int, int] = {}
    total = 0
    for step in range(steps):
        due, item = heapq.heappop(queue)
        counts[item & 15] = counts.get(item & 15, 0) + 1
        total += due % 13
        heapq.heappush(queue, (due + (item * 31 + step) % 97 + 1, item))
    return total


def digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


class Gate:
    """Counts attempted and failed ops, and keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{op}: {reason}")


def run_pass(
    workload: workloads.Workload,
    ops: List[workloads.Op],
    gate: Gate,
    expected: Optional[Dict[str, str]] = None,
    census: Optional[layers.Census] = None,
    tracer: Optional[layers.Tracer] = None,
    reference_s: Optional[List[float]] = None,
) -> Tuple[Dict[str, Any], Dict[str, float], Dict[str, Any]]:
    """Run every op once; returns (results, seconds per op, pass context).

    With ``reference_s`` given, :func:`reference_work` runs before each
    timed op and its wall time is appended there.
    """
    results: Dict[str, Any] = {}
    elapsed: Dict[str, float] = {}
    ctx = workload.begin_pass()
    try:
        for op in ops:
            gc.collect()
            if reference_s is not None and op.timed:
                start = time.perf_counter()
                reference_work()
                reference_s.append(time.perf_counter() - start)
            traced = tracer.op(op.layer, op.forks) if tracer is not None else nullcontext()
            gate.attempted += 1
            with traced:
                start = time.perf_counter()
                try:
                    result = op.run(ctx)
                except Exception as exc:  # noqa: BLE001 - a failed op is recorded, the run goes on
                    result, error = None, type(exc).__name__
                else:
                    error = None
                elapsed[op.name] = time.perf_counter() - start
            if census is not None:
                census.fold()
            if error is not None:
                gate.fail(op.name, f"raised {error}")
                continue
            results[op.name] = result
            if expected is not None and digest(result) != expected.get(op.name):
                gate.fail(op.name, "result digest differs from the warm-up pass")
    finally:
        workload.end_pass(ctx)
    return results, elapsed, ctx


def timed_passes(
    workload: workloads.Workload,
    gate: Gate,
    expected: Dict[str, str],
    seconds: float,
) -> Tuple[List[float], List[float]]:
    """Per pass, for at least ``seconds``: the wall time of its timed ops
    and that time in units of its mean reference run."""
    ops = workload.ops()
    walls: List[float] = []
    ratios: List[float] = []
    end = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < end:
        reference_s: List[float] = []
        _, elapsed, _ = run_pass(workload, ops, gate, expected, reference_s=reference_s)
        wall = sum(elapsed.get(op.name, 0.0) for op in ops if op.timed)
        walls.append(wall)
        ratios.append(wall / statistics.mean(reference_s))
    return walls, ratios


def quartiles(samples: List[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric(name: str, value: float) -> Dict[str, Any]:
    return {"value": value, "unit": UNITS[name]}


def end_to_end(ratios: List[float], census: Dict[str, int]) -> Tuple[Dict, Dict]:
    """The bare run's metrics (all but ``setup_s``) and their quartiles."""
    wall = statistics.median(ratios)
    q1, _, q3 = quartiles(ratios)
    spread = {
        "wall_ref": quartiles(ratios),
        "pkts_per_ref": [census["frames"] / q for q in (q3, wall, q1)],
        "sim_ps_per_ref": [census["sim_ps"] / q for q in (q3, wall, q1)],
    }
    metrics = {
        "wall_ref": metric("wall_ref", wall),
        "pkts_per_ref": metric("pkts_per_ref", census["frames"] / wall),
        "sim_ps_per_ref": metric("sim_ps_per_ref", census["sim_ps"] / wall),
        "peak_rss_mb": metric("peak_rss_mb", peak_rss_mb()),
    }
    return metrics, spread


def per_layer(
    tracer: layers.Tracer,
    store_counts: Dict[str, int],
    census: Dict[str, int],
    fallback_frac: float,
    extra: Dict[str, float],
    traced_wall: float,
    overhead: float,
) -> Dict[str, Dict[str, Any]]:
    """The traced run's metrics, one per name in ``per_layer``.

    ``store_counts`` are the tracer's call counts over the workload's
    own ops (not the census ops, which repeat its sweeps inline with a
    store of their own); ``census`` is the warm-up pass's census.
    """
    values: Dict[str, float] = {
        f"{layer}.self_frac": self_s / traced_wall
        for layer, self_s in tracer.self_s().items()
    }
    events, frames, counts = census["events"], census["frames"], tracer.counts
    by_layer = tracer.events_by_layer
    hits = extra.get("cluster.store.hits", 0)
    gets = store_counts.get("cluster.store.gets", 0)
    values.update(
        {
            "sim.events": events,
            "sim.events_per_pkt": events / frames if frames else 0.0,
            "hw.burst.windows": by_layer.get("hw.burst", 0),
            "hw.burst.lanes": census["lanes"],
            "hw.burst.fallback_frac": fallback_frac,
            "hw.burst.pkts_closed_form": counts.get("hw.burst.pkts_closed_form", 0),
            "hw.burst.pkts_serial": counts.get("hw.burst.pkts_serial", 0),
            "hw.mac.pkts": frames,
            "hw.mac.drops": census["mac_drops"],
            "hw.port.deliveries": census["deliveries"],
            "hw.dma.transfers": census["dma_transfers"],
            "hw.dma.drops": census["dma_drops"],
            "osnt.monitor.pkts": census["monitor_pkts"],
            "osnt.generator.sent": census["generator_sent"],
            "osnt.generator.wakeups": by_layer.get("osnt.generator", 0),
            "devices.legacy_switch.forwards": census["legacy_forwards"],
            "devices.legacy_switch.drops": census["legacy_drops"],
            "devices.openflow_switch.datapath_pkts": census["of_datapath_pkts"],
            "devices.openflow_switch.packet_in_drops": census["of_packet_in_drops"],
            "devices.openflow_switch.firmware_msgs": counts.get(
                "devices.openflow_switch.firmware_msgs", 0
            ),
            "devices.flow_table.lookups": counts.get("devices.flow_table.lookups", 0),
            "openflow.msgs": counts.get("openflow.msgs", 0),
            "telemetry.ticks": by_layer.get("telemetry", 0),
            "testbed.build_frac": tracer.build_s / traced_wall,
            "flows.segments": extra.get("flows.segments", 0),
            "flows.retransmits": extra.get("flows.retransmits", 0),
            "runner.shards": extra.get("runner.shards", 0),
            "runner.retries": extra.get("runner.retries", 0),
            "cluster.store.gets": gets,
            "cluster.store.puts": store_counts.get("cluster.store.puts", 0),
            "cluster.store.hit_frac": hits / gets if gets else 0.0,
            "cluster.store.hits_per_s": extra.get("cluster.store.hits_per_s", 0.0),
            "trace.wall_s": traced_wall,
            "trace.overhead": overhead,
            "trace.coverage": sum(tracer.self_s().values()) / traced_wall,
        }
    )
    return {name: metric(name, value) for name, value in values.items()}


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    small: bool = False,
    workdir: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the protocol in the module docstring; returns the record."""
    workload = workloads.build(name, seed, small=small, workdir=workdir)
    gate = Gate()
    ops = workload.ops()
    census_ops = workload.census_ops()

    with layers.Census() as census:
        results, _, ctx = run_pass(workload, ops + census_ops, gate, census=census)
    for op_name, reason in workload.check(results, ctx):
        gate.fail(op_name, reason)
    counts = census.totals
    fallback_frac = census.fallback_frac
    extra = workload.layer_counts(ctx)
    expected = {op_name: digest(result) for op_name, result in results.items()}

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "small": small,
        "digests": expected,
        "digest": digest(expected),
    }
    if not trace:
        walls, ratios = timed_passes(workload, gate, expected, seconds)
        metrics, spread = end_to_end(ratios, counts)
        record["wall_s"] = statistics.median(walls)
        record["samples"] = {"wall_s": walls, "wall_ref": ratios}
        record["quartiles"] = spread
    else:
        bare, _ = timed_passes(workload, gate, expected, seconds / 2)
        tracer = layers.Tracer()
        with layers.Census() as traced_census:
            _, elapsed, _ = run_pass(workload, ops, gate, expected, traced_census, tracer)
            # Store calls of the workload's own ops, before the census
            # ops repeat its sweeps inline.
            store_counts = dict(tracer.counts)
            _, census_elapsed, _ = run_pass(
                workload, census_ops, gate, expected, traced_census, tracer
            )
        if traced_census.fallback_frac != fallback_frac:
            gate.fail("trace", "traced run changed the burst fallback fraction")
        extra.update(workload.probe())
        traced_wall = sum(elapsed.values()) + sum(census_elapsed.values())
        timed_traced = sum(elapsed.get(op.name, 0.0) for op in ops if op.timed)
        overhead = timed_traced / statistics.median(bare)
        metrics = per_layer(
            tracer, store_counts, counts, fallback_frac, extra, traced_wall, overhead
        )
        record["samples"] = {
            "bare_wall_s": bare,
            "traced_op_s": {**elapsed, **census_elapsed},
        }
        if trace_out:
            tracer.write_chrome(trace_out, {k: v["value"] for k, v in metrics.items()})
            record["chrome_trace"] = trace_out
    record.update(
        correct=gate.failed == 0,
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.reasons,
        metrics=metrics,
    )
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced scale (tests)")
    parser.add_argument("--workdir", help="scratch directory for sweep stores")
    parser.add_argument("--trace-out", help="Chrome trace JSON path (with --trace 1)")
    args = parser.parse_args(argv)
    record = measure(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        small=args.small,
        workdir=args.workdir,
        trace_out=args.trace_out,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
