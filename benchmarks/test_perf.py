"""Performance budgets: one table, timed one way.

Not a paper experiment — the regression guards for the simulator's own
speed. Each row of ``BUDGETS`` is ``(name, fast, slow, budget, reps)``.
:func:`min_times` times the two sides, and the row reads slow/fast cost
per unit of work. A speedup row's budget is a floor on that reading and
an overhead row's budget is a ceiling. A row with no fast side reads the
slow side's wall seconds against an absolute ceiling.

A side is a generator function in three steps: the code before its
first ``yield`` sets up one run, the code up to its second ``yield`` is
the timed run and yields the units of work it did, and the code after
it checks the run. Set-up and checks are not timed. A side may return a
result, and both sides of a row must return the same one: a faster way
to do the same work must compute the same thing.

Run with:  PYTHONPATH=src python -m pytest benchmarks/test_perf.py -q -s
"""

import gc
import operator
import os
import time
from collections import deque
from functools import partial

import pytest

from repro.hw import connect
from repro.obs import SimProfiler, SpanRecorder, observe_simulators
from repro.osnt import OSNT
from repro.runner import ExperimentSpec, run_spec
from repro.sim import Simulator
from repro.telemetry import Tracer, WaveformRecorder
from repro.testbed.scenarios import legacy_latency_point
from repro.testbed.workloads import udp_template
from repro.units import ms


def min_times(fast, slow, reps):
    """The one timing primitive: min seconds per unit of work, per side.

    Each rep runs the slow side and then the fast one, so machine drift
    hits both. ``gc.collect()`` runs before every timed run, so one run's
    collection debt is not billed to the next. GC stays on: turning it
    off would hide the allocation cost the armed recorder rows exist to
    catch. For a deterministic workload the min estimates the noise
    floor rather than averaging the noise in. Returns ``(fast, slow)``;
    ``fast`` is None for a row without a fast side.
    """
    best, results = {}, set()
    for _ in range(reps):
        for side in (slow, fast):
            if side is None:
                continue
            steps = side()
            next(steps)
            gc.collect()
            start = time.perf_counter()
            work = next(steps)
            seconds = (time.perf_counter() - start) / work
            best[side] = min(best.get(side, seconds), seconds)
            try:
                next(steps)
            except StopIteration as done:
                results.add(done.value)
    assert len(results) == 1, f"the sides computed different results: {results}"
    return best.get(fast), best[slow]


# -- kernel ------------------------------------------------------------------

#: Near-future deltas (ps) shaped like the MAC/DMA/generator common
#: case: wire times and inter-frame gaps from tens of ns to ~1 µs.
MIX_DELTAS = (100, 800, 1024, 4096, 51_200, 123_456, 409_600, 819_200)

#: Events per run of the dispatch loop: enough to resolve a 1–5% delta,
#: where a scenario's wall time cannot.
EVENTS = 50_000


def _noop():
    return None


def mix(queue, iterations=5_000, preload=4_000):
    """Side: the schedule-cancel-fire mix at a realistic queue depth.

    Per iteration (one simulated burst): eight schedules at
    ``now + small_delta``, four cancellations of older pending events,
    four fired events. The queue depth stays ~``preload``, the regime
    every line-rate experiment runs in. Work: schedules, cancels, fires.
    """
    sim = Simulator(event_queue=queue)
    pool = deque(sim.call_after(800 * (i + 1), _noop) for i in range(preload))
    deltas = MIX_DELTAS
    call_after = sim.call_after
    append = pool.append
    popleft = pool.popleft
    yield
    for i in range(iterations):
        base = deltas[i & 7]
        append(call_after(base, _noop))
        append(call_after(base + 160, _noop))
        append(call_after(base + 320, _noop))
        append(call_after(base + 480, _noop))
        append(call_after(base + 640, _noop))
        append(call_after(base + 800, _noop))
        append(call_after(base + 960, _noop))
        append(call_after(base + 1120, _noop))
        for __ in range(4):
            victim = popleft()
            if not victim.fired:
                victim.cancel()
        sim.run(max_events=4)
    yield iterations * 16


def chained(sim=None):
    """The kernel dispatch loop: EVENTS chained events. Work: events."""
    sim = sim or Simulator()
    remaining = [EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.call_after(100, tick)

    sim.call_after(100, tick)
    sim.run()
    assert sim.events_processed == EVENTS
    return EVENTS


# -- datapath ----------------------------------------------------------------


def loopback(datapath, train=False, poisson=False):
    """Side: 1 ms of 64 B frames from tester port 0 to port 1.

    At line rate this is E1's worst case, the hot loop the burst
    datapath batches. With ``train``, 256-frame trains 1 µs apart (~94%
    load) add one closed-form window boundary per train, not per-frame
    work. With ``poisson``, exponential gaps of mean two wire slots
    (50% load) take the serial lane, which draws every gap and queues
    the frames that arrive early; the side returns the frame count and
    end time.
    Work: frames sent, every one of them received.
    """
    sim = Simulator()
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    monitor = tester.monitor(1)
    generator = tester.generator(0)
    tester.device.generator(0).datapath_impl = datapath
    generator.load_template(udp_template(64))
    if train:
        generator.burst_train(256, "1us")
    if poisson:
        generator.poisson("134400ps")
    generator.for_duration(ms(1))
    yield
    generator.start()
    sim.run()
    yield generator.stats.sent
    sent = generator.stats.sent
    floor = 7_000 if poisson else 10_000 if train else 14_000
    assert sent > floor, f"the run only sent {sent} frames"
    assert monitor.rx_packets == sent
    if poisson:
        return sent, sim.now


# -- observability -----------------------------------------------------------

#: Fresh recorders by ``observe_simulators`` keyword. The tracer's rings
#: are bounded (4096 slots) so the trace heap reaches steady state
#: instead of growing for the whole run.
RECORDERS = {
    "tracer": lambda: Tracer(capacity=4096),
    "profiler": SimProfiler,
    "spans": SpanRecorder,
    "waves": WaveformRecorder,
}

#: What each recorder must have seen after one armed run.
SEEN = {
    "tracer": lambda tracer: tracer.kernel_fired_recorded == EVENTS,
    "profiler": lambda profiler: profiler.events == EVENTS,
    "spans": lambda spans: spans.started > 0,
    "waves": lambda waves: waves.counts()["recorded"] > 0,
}


def e3():
    """One E3 latency point (256 B at load 0.5 for 0.5 ms): the datapath
    that spans and waveforms instrument. Work: probe packets."""
    row, _ = legacy_latency_point(frame_size=256, load=0.5, duration_ps=500_000_000)
    assert row.packets > 0
    return row.packets


def bare(workload):
    """Side: ``workload`` with nothing armed."""
    yield
    yield workload()


def armed(name, workload):
    """Side: ``workload`` with the ``name`` recorder armed on every
    simulator it builds, through ``observe_simulators``."""
    recorder = RECORDERS[name]()
    yield
    with observe_simulators(**{name: recorder}):
        work = workload()
    yield work
    assert SEEN[name](recorder), f"the armed {name} recorder missed part of the run"


def disarmed(name=None):
    """Side: the dispatch loop on a simulator the ``name`` recorder was
    armed on and then disarmed, the state of every simulator while
    observability is off; with no name, on a never-armed simulator.
    Each hook site then costs one attribute load and ``None`` check."""
    if name is None:
        sim = Simulator()
    else:
        recorder = RECORDERS[name]()
        with observe_simulators(**{name: recorder}):
            sim = Simulator()
            assert getattr(sim, name) is recorder, f"the {name} recorder was never armed"
        assert getattr(sim, name) is None, f"the {name} recorder stayed armed"
    yield
    yield chained(sim)


# -- sweeps ------------------------------------------------------------------


def shards(name, scenario, repeats, timeout_s, **params):
    """A spec of ``repeats`` identical shards, each allowed one retry."""
    return ExperimentSpec(
        name=name,
        scenario=scenario,
        params=params,
        repeats=repeats,
        retries=1,
        timeout_s=timeout_s,
    )


#: The LinkGuardian comparison grid: 4 cells x 250 flows of 20 kB.
FCT_SPEC = ExperimentSpec.from_dict(
    {
        "name": "perf-fct",
        "scenario": "fct_vs_loss",
        "params": {"n_flows": 250, "flow_bytes": 20_000},
        "axes": {"protected": [False, True], "corrupt_rate": [0.0, 1e-3]},
        "seed": 6,
        "timeout_s": 120.0,
    }
)
#: Wall-clock-bound shards: pool overlap must not depend on core count.
SLEEP_SPEC = shards("perf-sleep", "sleep", 16, 30.0, duration_s=0.2)
#: CPU-bound shards: real simulation work, which needs real cores.
LINE_RATE_SPEC = shards(
    "perf-line-rate", "line_rate", 16, 120.0, frame_size=64, duration="1ms", seed=0
)
CACHE_SPEC = shards("perf-cache", "sleep", 8, 30.0, duration_s=0.25)

CORES = os.cpu_count() or 1
#: One core cannot overlap CPU-bound shards, so there the row only reports.
PARALLEL_FLOOR = 1.5 if CORES >= 4 else 1.2 if CORES >= 2 else 0.0


def sweep(spec, cache_hits=0, **options):
    """Side: one ``run_spec(spec, **options)``. The merged document is
    the result, so no option may change it."""
    yield
    report = run_spec(spec, **options)
    yield 1
    report.require_ok()
    assert len(report.from_cache) == cache_hits
    return report.merged_json()


def fct_sweep():
    """Side: the 1k-flow sweep on two workers; every flow completes."""
    yield
    report = run_spec(FCT_SPEC, workers=2)
    yield 1
    report.require_ok()
    rows = report.rows()
    assert sum(row["flows"] for row in rows) == 1_000
    assert sum(row["flows_completed"] for row in rows) == 1_000


# -- the table ---------------------------------------------------------------

#: ``(name, fast, slow, budget, reps)``. A budget is ``(op, limit)`` on
#: slow/fast cost per unit of work, or on seconds with no fast side.
BUDGETS = [
    ("wheel-vs-heap/mix", partial(mix, "wheel"), partial(mix, "heap"), (">=", 1.5), 3),
    # Measured headroom is two orders of magnitude; 10x still catches any
    # fallback to per-packet work.
    ("burst-vs-packet/e1-64B", partial(loopback, "burst"), partial(loopback, "packet"),
     (">=", 10.0), 3),
    # Both sides draw every Poisson gap; the serial lane's FIFO is a
    # Lindley recursion with O(1) work per frame besides the draw.
    ("burst-vs-packet/poisson-64B", partial(loopback, "burst", poisson=True),
     partial(loopback, "packet", poisson=True), (">=", 8.0), 3),
    # Falling off the burst lane to per-packet speed is a 10-100x collapse.
    ("train-vs-line-rate/64B", partial(loopback, "burst"),
     partial(loopback, "burst", train=True), ("<=", 2.0), 3),
    # The tracer's kernel hooks are raw ``deque.append`` bound methods, so
    # no Python frame runs per record: a trip means Python is back on the
    # hot path.
    ("tracer/chained", partial(bare, chained), partial(armed, "tracer", chained),
     ("<", 1.15), 7),
    # Two clock reads per event: a diagnostic tool, but a runaway
    # per-event cost would make it useless on big sweeps.
    ("profiler/chained", partial(bare, chained), partial(armed, "profiler", chained),
     ("<", 2.0), 5),
    ("spans/e3", partial(bare, e3), partial(armed, "spans", e3), ("<", 1.15), 5),
    # The armed delta sits close to per-rep noise, so the min needs more
    # draws to converge on the floor for both sides.
    ("waves/e3", partial(bare, e3), partial(armed, "waves", e3), ("<", 1.15), 8),
    ("tracer-disarmed/chained", disarmed, partial(disarmed, "tracer"), ("<", 1.05), 7),
    ("profiler-disarmed/chained", disarmed, partial(disarmed, "profiler"), ("<", 1.05), 7),
    ("spans-disarmed/chained", disarmed, partial(disarmed, "spans"), ("<", 1.05), 7),
    ("waves-disarmed/chained", disarmed, partial(disarmed, "waves"), ("<", 1.05), 10),
    # About ten times a development machine's wall time: only a real
    # regression (per-segment allocation, timer churn, O(n^2) reassembly)
    # trips it.
    ("fct-sweep-seconds/1k-flows", None, fct_sweep, ("<", 20.0), 1),
    ("pool-overlap/16-sleeps", partial(sweep, SLEEP_SPEC, workers=4),
     partial(sweep, SLEEP_SPEC, workers=1), (">=", 1.5), 1),
    # One rep per side read 1.10-2.03 on a 2-vCPU VM; the min of three
    # keeps the pool's overlap, not one run's scheduling luck.
    ("parallel/16-line-rate", partial(sweep, LINE_RATE_SPEC, workers=4),
     partial(sweep, LINE_RATE_SPEC, workers=1), (">=", PARALLEL_FLOOR), 3),
    # One rep: the cold sweep fills the store that the warm sweep reads.
    ("warm-cache/8-sleeps",
     partial(sweep, CACHE_SPEC, cache_hits=8, workers=2, cache_dir="store"),
     partial(sweep, CACHE_SPEC, workers=2, cache_dir="store"), (">=", 5.0), 1),
]

OPS = {">=": operator.ge, "<": operator.lt, "<=": operator.le}


@pytest.mark.parametrize(
    "name, fast, slow, budget, reps", BUDGETS, ids=[row[0] for row in BUDGETS]
)
def test_budget(name, fast, slow, budget, reps, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the warm-cache row's result store
    fast_s, slow_s = min_times(fast, slow, reps)
    reading = slow_s / fast_s if fast else slow_s
    op, limit = budget
    sides = f"fast {fast_s:.3g} s, slow {slow_s:.3g} s per unit" if fast else "seconds"
    print(f"\n{name}: {reading:.3f} (budget {op} {limit}; {sides})")
    assert OPS[op](reading, limit), f"{name} read {reading:.3f}, budget {op} {limit}"


def spin(n, per_unit):
    """Side: a pure-Python loop of ``n`` iterations; work ``n`` or one run."""
    yield
    for _ in range(n):
        pass
    yield n if per_unit else 1


@pytest.mark.parametrize("per_unit, low, high", [(False, 1.6, 2.5), (True, 0.8, 1.25)])
def test_primitive_reads_double_work_as_double_time(per_unit, low, high):
    fast_s, slow_s = min_times(
        partial(spin, 500_000, per_unit), partial(spin, 1_000_000, per_unit), reps=5
    )
    assert low < slow_s / fast_s < high
