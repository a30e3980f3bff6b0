"""Observability overhead: every recorder must stay cheap.

Not a paper experiment — the regression guard for the four recorders
(:class:`~repro.telemetry.Tracer`, :class:`~repro.obs.SimProfiler`,
:class:`~repro.obs.SpanRecorder` and
:class:`~repro.telemetry.WaveformRecorder`). One table gives each
guarded cost a ``(recorder, workload, budget, reps)`` row:

* an *armed* row times the workload with the recorder armed through
  ``observe_simulators`` against the same workload bare;
* a *disarmed* row times the chained loop on a simulator the recorder
  was armed on and then disarmed — the state every simulator is in when
  observability is off — against a never-armed one. Each hook site is
  then one attribute load + ``None`` check, so the bar is within noise
  of free.

Workloads: ``chained`` is the test_perf_kernel dispatch loop, 50k
chained events, which resolves a 1–5% delta where a scenario's wall
time cannot; ``e3`` is one 0.5 ms E3 legacy-latency point, the datapath
that spans and waveforms instrument.

Methodology: bare and observed reps are *interleaved* so machine drift
hits both sides, ``gc.collect()`` runs before every rep so one rep's
collection debt is not billed to the next, and the ratio is of the
``min`` of the reps, which for a deterministic workload estimates the
noise floor rather than averaging the noise in.
"""

import gc
import time

import pytest

from repro.obs import SimProfiler, SpanRecorder, observe_simulators
from repro.sim import Simulator
from repro.telemetry import Tracer, Waveform, WaveformRecorder
from repro.testbed.scenarios import legacy_latency_point

EVENTS = 50_000

#: Fresh recorders by ``observe_simulators`` keyword. The tracer's rings
#: are bounded (4096 slots) so the trace heap reaches steady state
#: instead of growing for the whole run.
RECORDERS = {
    "tracer": lambda: Tracer(capacity=4096),
    "profiler": SimProfiler,
    "spans": SpanRecorder,
    "waves": WaveformRecorder,
}


def chained(sim=None):
    """The test_perf_kernel dispatch workload: EVENTS chained events."""
    sim = sim or Simulator()
    remaining = [EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.call_after(100, tick)

    sim.call_after(100, tick)
    sim.run()
    assert sim.events_processed == EVENTS


def e3():
    """One E3 latency point (256 B at load 0.5 for 0.5 ms)."""
    row, _ = legacy_latency_point(frame_size=256, load=0.5, duration_ps=500_000_000)
    assert row.packets > 0


WORKLOADS = {"chained": chained, "e3": e3}

#: Armed cost over a bare run.
ARMED = [
    # The kernel hooks are raw ``deque.append`` bound methods, so no
    # Python frame runs per record (3-8% measured when the budget was
    # set); a trip means someone put Python back on the hot path.
    ("tracer", "chained", 1.15, 7),
    # Two ``perf_counter`` calls per event: a diagnostic tool, but a
    # runaway per-event cost would make it useless on big sweeps.
    ("profiler", "chained", 2.0, 5),
    ("spans", "e3", 1.15, 5),
    # The armed delta (~7%) sits close to per-rep noise, so min-of-reps
    # needs more draws to converge on the floor for both sides.
    ("waves", "e3", 1.15, 8),
]

#: Armed-then-disarmed cost over a never-armed simulator.
DISARMED = [
    ("tracer", "chained", 1.05, 7),
    ("profiler", "chained", 1.05, 7),
    ("spans", "chained", 1.05, 7),
    ("waves", "chained", 1.05, 10),
]

#: What each recorder must have seen after ``reps`` armed runs.
SANITY = {
    "tracer": lambda tracer, reps: tracer.kernel_fired_recorded == reps * EVENTS,
    "profiler": lambda profiler, reps: profiler.events == reps * EVENTS,
    "spans": lambda spans, reps: spans.started > 0,
    "waves": lambda waves, reps: waves.counts()["recorded"] > 0,
}


def _min_times(bare, observed, reps):
    """Interleaved, gc-collected reps; the min wall time of each side."""
    bare_times, observed_times = [], []
    for _ in range(reps):
        for run, times in ((bare, bare_times), (observed, observed_times)):
            gc.collect()
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
    return min(bare_times), min(observed_times)


@pytest.mark.parametrize("recorder, workload, budget, reps", ARMED)
def test_armed_cost_within_budget(recorder, workload, budget, reps):
    instance = RECORDERS[recorder]()
    run = WORKLOADS[workload]

    def armed():
        with observe_simulators(**{recorder: instance}):
            run()

    bare, observed = _min_times(run, armed, reps)
    ratio = observed / bare
    print(
        f"\n{recorder} armed on {workload}: bare {bare * 1e3:.1f} ms, "
        f"armed {observed * 1e3:.1f} ms, ratio {ratio:.3f} (budget {budget})"
    )
    assert SANITY[recorder](instance, reps)
    assert ratio < budget, (
        f"an armed {recorder} costs {(ratio - 1) * 100:.1f}% over a bare "
        f"{workload} run; the agreed budget is {(budget - 1) * 100:.0f}%"
    )


@pytest.mark.parametrize("recorder, workload, budget, reps", DISARMED)
def test_disarmed_cost_within_budget(recorder, workload, budget, reps):
    run = WORKLOADS[workload]

    def disarmed():
        with observe_simulators(**{recorder: RECORDERS[recorder]()}):
            sim = Simulator()
        run(sim)

    bare, observed = _min_times(run, disarmed, reps)
    ratio = observed / bare
    print(f"\n{recorder} disarmed on {workload}: ratio {ratio:.3f} vs never armed")
    assert ratio < budget


def test_closed_form_run_recording_beats_per_sample_loop():
    """``record_run`` exists so burst lanes stay O(1) per window: a
    10k-frame constant-value run (the wire-rate shape — every sample
    suppressed after the first) folds in constant time, where the
    per-sample path pays 10k calls. The toggle closed form is O(points)
    by necessity; it must still land on the identical stream without
    being slower."""
    N = 10_000
    loop = Waveform("loop")
    closed = Waveform("closed")

    gc.collect()
    start = time.perf_counter()
    for i in range(N):
        loop.record(i * 100, 512)
    loop_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    closed.record(0, 512)
    closed.record_run(100, N - 1, 100, 512, 0)
    closed_s = time.perf_counter() - start

    assert closed.points() == loop.points()
    assert closed.recorded == loop.recorded
    speedup = loop_s / closed_s if closed_s else float("inf")
    print(f"\nclosed-form constant run: {speedup:.0f}x vs per-sample loop")
    assert speedup > 10

    toggle_loop = Waveform("tl", keep_every=4)
    toggle_closed = Waveform("tc", keep_every=4)
    for i in range(N):
        toggle_loop.record(i * 100, 512)
        toggle_loop.record(i * 100, 0)
    toggle_closed.record_toggle_run(0, N, 100, 512, 0)
    assert toggle_closed.points() == toggle_loop.points()
