"""Differential determinism harness: heap vs timing-wheel event queues.

The timing wheel (`repro.sim.wheel`) must be a *bit-identical* drop-in
for the binary heap: same ``(time, priority, seq)`` fire order on every
workload, including same-timestamp priority/seq ties, cancellations
(and double cancellations), daemon accounting, and far-future events
that cross the wheel's level/overflow boundaries. These tests run the
same workload through two simulators — one per implementation — and
assert the recorded fire sequences match exactly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.sim import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Simulator
from repro.telemetry import Tracer

IMPLS = ("heap", "wheel")

#: Deltas chosen to straddle the wheel's internal boundaries: within a
#: level-0 slot (2**10 ps), across level-0 slots, across the level-0
#: span (2**21 ps), across the level-1 span (2**32 ps), and far out.
BOUNDARY_DELTAS = [
    0,
    1,
    7,
    100,
    800,
    1023,
    1024,
    1025,
    4096,
    123_456,
    (1 << 21) - 1,
    1 << 21,
    (1 << 21) + 1,
    10**9,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    10**13,
]

PRIORITIES = [PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_NORMAL, PRIORITY_LOW]


def _churn(impl, seed, total_events):
    """Self-scheduling churn workload; returns the fire log.

    Every decision comes from a seeded RNG consumed inside callbacks,
    so two implementations that fire in the same order see the same
    stream — and any divergence shows up as differing logs.
    """
    sim = Simulator(event_queue=impl)
    rng = random.Random(seed)
    log = []
    pending = []
    created = [0]

    def fire(label):
        log.append((sim.now, label))
        while created[0] < total_events and rng.random() < 0.75:
            delta = rng.choice(BOUNDARY_DELTAS)
            priority = rng.choice(PRIORITIES)
            daemon = rng.random() < 0.05
            created[0] += 1
            pending.append(
                sim.call_after(
                    delta, fire, created[0], priority=priority, daemon=daemon
                )
            )
        if pending and rng.random() < 0.35:
            victim = pending.pop(rng.randrange(len(pending)))
            if not victim.fired:
                victim.cancel()
                if rng.random() < 0.5:
                    victim.cancel()  # double cancel must stay a no-op

    for i in range(64):
        created[0] += 1
        pending.append(sim.call_after(i * 37, fire, created[0]))
    sim.run()
    return log, sim.now, sim.events_processed


class TestRandomizedChurn:
    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_fire_sequences_identical(self, seed):
        heap = _churn("heap", seed, 30_000)
        wheel = _churn("wheel", seed, 30_000)
        assert heap == wheel
        # The workload must be big enough to cross every wheel boundary.
        assert heap[2] > 10_000

    def test_hundred_thousand_events(self):
        heap_log, heap_now, heap_fired = _churn("heap", 42, 130_000)
        wheel_log, wheel_now, wheel_fired = _churn("wheel", 42, 130_000)
        assert heap_fired == wheel_fired
        assert heap_now == wheel_now
        assert heap_log == wheel_log
        assert heap_fired >= 100_000


class TestScriptedTies:
    def _run(self, impl, ops):
        """Replay a pre-generated op script and return the fire log."""
        sim = Simulator(event_queue=impl)
        log = []
        events = []
        for op in ops:
            if op[0] == "sched":
                __, time, priority, daemon, label = op
                events.append(
                    sim.call_after(
                        time, lambda l: log.append((sim.now, l)), label,
                        priority=priority, daemon=daemon,
                    )
                )
            else:  # ("cancel", index)
                victim = events[op[1] % len(events)]
                if not victim.fired:
                    victim.cancel()
        sim.run()
        return log

    def test_same_timestamp_priority_and_seq_ties(self):
        rng = random.Random(99)
        ops = []
        label = 0
        # 30k events over only 100 distinct timestamps: heavy ties.
        for __ in range(30_000):
            label += 1
            ops.append(
                (
                    "sched",
                    rng.randrange(100) * 1000,
                    rng.choice(PRIORITIES),
                    rng.random() < 0.1,
                    label,
                )
            )
            if rng.random() < 0.25:
                ops.append(("cancel", rng.randrange(label)))
        logs = [self._run(impl, ops) for impl in IMPLS]
        assert logs[0] == logs[1]
        assert len(logs[0]) > 15_000


class TestReplayedKernelTrace:
    def test_traced_fire_sequence_identical(self):
        """The telemetry fire ring sees the same events either way."""

        def workload(impl):
            sim = Simulator(event_queue=impl)
            tracer = Tracer(capacity=1 << 15)
            tracer.arm(sim)
            rng = random.Random(5)

            def tick(depth):
                if depth < 400:
                    sim.call_after(rng.choice(BOUNDARY_DELTAS), tick, depth + 1)
                    if rng.random() < 0.5:
                        event = sim.call_after(rng.randrange(10**6), tick, 401)
                        if rng.random() < 0.5:
                            event.cancel()

            for i in range(8):
                sim.call_after(i, tick, 0)
            sim.run()
            fired = [
                (e.time, e.priority, e.seq) for e in tracer._fire_ring
            ]
            return fired, sim.events_processed

        heap = workload("heap")
        wheel = workload("wheel")
        assert heap == wheel
        assert heap[1] > 1000


class TestHypothesisEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("sched"),
                    st.sampled_from(BOUNDARY_DELTAS),
                    st.sampled_from(PRIORITIES),
                    st.booleans(),
                ),
                st.tuples(st.just("cancel"), st.integers(0, 200)),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_arbitrary_op_scripts(self, ops):
        def run(impl):
            sim = Simulator(event_queue=impl)
            log = []
            events = []
            for op in ops:
                if op[0] == "sched":
                    __, delta, priority, daemon = op
                    label = len(events)
                    events.append(
                        sim.call_after(
                            delta, lambda l: log.append((sim.now, l)), label,
                            priority=priority, daemon=daemon,
                        )
                    )
                elif events:
                    victim = events[op[1] % len(events)]
                    if not victim.fired:
                        victim.cancel()
            sim.run()
            return log, sim.now, sim.pending_events()

        assert run("heap") == run("wheel")


class TestEscapeHatch:
    def test_env_variable_selects_impl(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_QUEUE", "heap")
        assert Simulator().queue_impl == "heap"
        monkeypatch.setenv("REPRO_EVENT_QUEUE", "wheel")
        assert Simulator().queue_impl == "wheel"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENT_QUEUE", "heap")
        assert Simulator(event_queue="wheel").queue_impl == "wheel"

    def test_default_is_wheel(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVENT_QUEUE", raising=False)
        assert Simulator().queue_impl == "wheel"

    def test_unknown_impl_rejected(self):
        with pytest.raises(ConfigError):
            Simulator(event_queue="fibheap")
