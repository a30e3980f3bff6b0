"""Tests for repro.obs: spans, profiler, flight recorder, OpenMetrics.

Covers the observability pillars end to end: packet-lifecycle span
recording through the Figure-2 legacy-switch topology (including the
raw-TX-stamp correlation fallback and fault actions), the determinism
guard (scenario results bit-identical with observability armed or not),
Chrome trace export validity (B/E events pair and nest per track), the
sim-time profiler, the sweep flight recorder (heartbeats, tailer, stall
detection, SweepRunner integration) and the OpenMetrics exporter with
its strict parser.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.hw import connect
from repro.hw.burst import BurstLane
from repro.net.builder import build_udp
from repro.obs import (
    FlightTailer,
    HeartbeatWriter,
    PacketSpan,
    SimProfiler,
    SpanRecorder,
    heartbeat_path,
    observe_simulators,
    read_heartbeats,
    render_progress,
)
from repro.osnt import OSNT
from repro.runner import ExperimentSpec, SweepRunner
from repro.runner.execution import run_shard
from repro.sim import Simulator, add_creation_hook, current_simulator, remove_creation_hook
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    WaveformRecorder,
    chrome_trace,
    chrome_trace_json,
    metric_name,
    parse_openmetrics,
    snapshot_to_openmetrics,
    write_openmetrics,
)
from repro.testbed.topology import legacy_testbed
from repro.testbed.workloads import udp_template
from repro.units import ms, us


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True)


class TestSpanRecorderUnit:
    def test_validation(self):
        # ConfigError, like the other recorders; it is also a ValueError.
        for kwargs in ({"capacity": 0}, {"sample_one_in": 0}, {"stamp_offset": -8}):
            with pytest.raises(ConfigError):
                SpanRecorder(**kwargs)

    def test_arm_disarm(self):
        sim = Simulator()
        spans = SpanRecorder()
        assert not spans.armed
        spans.arm(sim)
        assert sim.spans is spans and spans.armed
        spans.disarm()
        assert sim.spans is None and not spans.armed

    def test_rearm_moves_recorder(self):
        sim1, sim2 = Simulator(), Simulator()
        spans = SpanRecorder().arm(sim1)
        spans.arm(sim2)
        assert sim1.spans is None
        assert sim2.spans is spans

    def test_begin_hop_close_lifecycle(self):
        spans = SpanRecorder()
        packet = build_udp(frame_size=128)
        span = spans.begin(100, packet, "gen0")
        assert span is not None and spans.started == 1
        spans.hop(200, packet, "mac_tx", {"mac": "p0.tx"})
        spans.close(300, packet, "delivered", name="host")
        assert span.closed and span.outcome == "delivered"
        assert [name for _, name, _ in span.hops] == ["generator", "mac_tx", "host"]
        assert span.end_ps == 300
        # Hops after close are ignored; a second close is a no-op.
        spans.hop(400, packet, "late")
        spans.close(500, packet, "other")
        assert len(span.hops) == 3 and span.outcome == "delivered"

    def test_unknown_packet_is_noop(self):
        spans = SpanRecorder()
        packet = build_udp(frame_size=128)
        assert spans.lookup(packet) is None
        assert spans.hop(1, packet, "x") is None
        assert spans.close(1, packet, "y") is None
        assert len(spans) == 0

    def test_sampling_is_deterministic_modulo(self):
        spans = SpanRecorder(sample_one_in=3)
        opened = 0
        for _ in range(9):
            if spans.begin(0, build_udp(frame_size=64), "g") is not None:
                opened += 1
        assert opened == 3
        assert spans.started == 3

    def test_capacity_eviction_cleans_indexes(self):
        spans = SpanRecorder(capacity=2)
        packets = [build_udp(frame_size=64) for _ in range(3)]
        first = spans.begin(0, packets[0], "g")
        spans.note_tx_stamp(1, packets[0], 12345)
        spans.begin(0, packets[1], "g")
        spans.begin(0, packets[2], "g")
        assert len(spans) == 2 and spans.evicted == 1
        assert spans.lookup(packets[0]) is None
        assert spans.find_by_stamp(12345) is None
        assert first.span_id not in [s.span_id for s in spans.spans()]

    def test_stamp_fallback_aliases_fresh_packet(self):
        spans = SpanRecorder(stamp_offset=42)
        packet = build_udp(frame_size=128)
        spans.begin(0, packet, "g")
        raw = 0xDEADBEEFCAFE
        data = bytearray(packet.data)
        data[42:50] = raw.to_bytes(8, "big")
        packet.data = bytes(data)
        spans.note_tx_stamp(5, packet, raw)
        # A DUT re-emits the same bytes as a *fresh* Packet object.
        from repro.net.packet import Packet

        clone = Packet(packet.data)
        span = spans.lookup(clone)
        assert span is not None
        assert spans.stamp_matches == 1
        assert clone.packet_id in span.packet_ids
        # Second lookup takes the packet_id fast path.
        assert spans.lookup(clone) is span
        assert spans.stamp_matches == 1
        assert spans.find_by_stamp(raw) is span

    def test_transfer_aliases_clone(self):
        from repro.net.packet import Packet

        spans = SpanRecorder()
        packet = build_udp(frame_size=64)
        spans.begin(0, packet, "g")
        clone = Packet(packet.data)
        spans.transfer(10, packet, clone, "switch_emit", {"out_port": 1})
        span = spans.lookup(clone)
        assert span is not None and clone.packet_id in span.packet_ids
        assert span.hops[-1][1] == "switch_emit"

    def test_fault_terminal_and_nonterminal(self):
        spans = SpanRecorder()
        delayed = build_udp(frame_size=64)
        spans.begin(0, delayed, "g")
        spans.fault(5, delayed, "jitter", "delay", {"extra_ps": 100})
        span = spans.lookup(delayed)
        assert not span.closed and span.faults == [(5, "jitter", "delay")]
        assert span.hops[-1][1] == "fault:jitter.delay"
        dropped = build_udp(frame_size=64)
        spans.begin(0, dropped, "g")
        spans.fault(7, dropped, "loss", "drop")
        span = spans.lookup(dropped)
        assert span.closed and span.outcome == "fault_drop"


class TestStoriesExport:
    def _recorded(self):
        spans = SpanRecorder()
        packet = build_udp(frame_size=64)
        spans.begin(100, packet, "gen0")
        spans.hop(200, packet, "mac_tx", {"mac": "p0"})
        spans.close(300, packet, "delivered", name="host")
        other = build_udp(frame_size=64)
        spans.begin(150, other, "gen0")
        return spans

    def test_story_shape(self):
        spans = self._recorded()
        stories = spans.stories()
        assert len(stories) == 2
        done, open_story = stories
        assert done["outcome"] == "delivered"
        assert done["born_ps"] == 100 and done["end_ps"] == 300
        assert [h["hop"] for h in done["hops"]] == ["generator", "mac_tx", "host"]
        assert open_story["outcome"] == "open"

    def test_jsonl_round_trip(self):
        spans = self._recorded()
        lines = spans.stories_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed == spans.stories()

    def test_write_stories(self, tmp_path):
        spans = self._recorded()
        path = tmp_path / "stories.jsonl"
        assert spans.write_stories(path) == 2
        assert len(path.read_text().splitlines()) == 2

    def test_empty_recorder_exports_empty(self):
        spans = SpanRecorder()
        assert spans.stories_jsonl() == ""
        assert spans.chrome_events() == []


class TestChromeExport:
    def _check_be_stack_validity(self, events):
        """B/E events must pair and nest per (pid, tid) track."""
        stacks = {}
        for event in events:
            key = (event["pid"], event["tid"])
            stack = stacks.setdefault(key, [])
            if event["ph"] == "B":
                stack.append(event)
            elif event["ph"] == "E":
                assert stack, f"E without B on track {key}: {event['name']}"
                begin = stack.pop()
                assert event["ts"] >= begin["ts"]
        for key, stack in stacks.items():
            assert stack == [], f"unclosed B events on track {key}"

    def test_span_events_pair_and_nest(self):
        spans = SpanRecorder()
        packet = build_udp(frame_size=64)
        spans.begin(1_000_000, packet, "gen0")
        spans.hop(2_000_000, packet, "mac_tx")
        spans.hop(3_000_000, packet, "mac_rx")
        spans.close(4_000_000, packet, "delivered", name="host")
        events = spans.chrome_events()
        self._check_be_stack_validity(events)
        names = [e["name"] for e in events if e["ph"] == "B"]
        assert "generator->mac_tx" in names and "mac_rx->host" in names
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 4  # one per hop
        # Timestamps are microseconds (ps / 1e6).
        outer = [e for e in events if e["cat"] == "span"][0]
        assert outer["ts"] == 1.0

    def test_nested_in_tracer_document(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.arm(sim)
        spans = SpanRecorder().arm(sim)
        packet = build_udp(frame_size=64)
        spans.begin(0, packet, "g")
        spans.close(10, packet, "delivered")
        sim.call_at(us(1), lambda: None)
        sim.run()
        text = chrome_trace_json(tracer, span_recorder=spans)
        document = json.loads(text)  # must be valid JSON
        assert document["otherData"]["spans"]["started"] == 1
        cats = {e.get("cat") for e in document["traceEvents"]}
        assert "span" in cats
        self._check_be_stack_validity(
            [e for e in document["traceEvents"] if e.get("ph") in ("B", "E")]
        )

    def test_document_without_spans_unchanged_shape(self):
        tracer = Tracer()
        document = chrome_trace(tracer)
        assert "spans" not in document["otherData"]


class TestSpansEndToEnd:
    def test_single_packet_through_figure2_topology(self):
        sim = Simulator()
        bed = legacy_testbed(sim)
        spans = SpanRecorder().arm(sim)
        bed.monitor.start_capture()
        bed.generator.load_template(udp_template(256), count=1)
        bed.generator.set_load(0.1).embed_timestamps()
        bed.generator.start()
        sim.run()
        assert len(spans) == 1
        span = spans.spans()[0]
        assert span.outcome == "delivered"
        assert span.tx_stamp_raw is not None
        hops = [name for _, name, _ in span.hops]
        assert hops == [
            "generator",
            "tx_stamp",
            "mac_tx",       # OSNT p0 TX
            "mac_rx",       # switch ingress
            "switch_lookup",
            "switch_emit",
            "mac_tx",       # switch egress
            "mac_rx",       # OSNT p1 RX
            "rx_capture",
            "host",         # DMA delivery
        ]
        # Hop times are monotonic along the journey.
        times = [t for t, _, _ in span.hops]
        assert times == sorted(times)
        lookup = next(d for _, n, d in span.hops if n == "switch_lookup")
        assert lookup["out_port"] == 1

    def test_fault_actions_reach_spans(self):
        spec = ExperimentSpec(
            name="obs-faults",
            scenario="lossy_link_latency",
            params={
                "frame_size": 256,
                "duration": "0.5ms",
                "loss_rate": 0.08,
                "burst": 1.0,
            },
            seed=1,
        )
        shard = spec.expand()[0]
        spans = SpanRecorder()
        with observe_simulators(spans=spans):
            run_shard(spec, shard)
        outcomes = {}
        for span in spans.spans():
            outcomes[span.outcome] = outcomes.get(span.outcome, 0) + 1
        assert outcomes.get("fault_drop", 0) > 0
        assert outcomes.get("delivered", 0) > 0
        dropped = next(s for s in spans.spans() if s.outcome == "fault_drop")
        assert dropped.faults and dropped.faults[0][1] == "loss"
        assert any(name.startswith("fault:loss.") for _, name, _ in dropped.hops)


class TestDeterminismGuard:
    SPEC = dict(
        name="obs-det",
        scenario="legacy_latency",
        params={"frame_size": 256, "duration": "0.5ms"},
        axes={"load": [0.4]},
        seed=3,
    )

    def test_results_bit_identical_with_observability(self):
        spec = ExperimentSpec(**self.SPEC)
        shard = spec.expand()[0]
        plain = run_shard(spec, shard)
        spans, profiler = SpanRecorder(), SimProfiler()
        with observe_simulators(spans=spans, profiler=profiler):
            observed = run_shard(spec, shard)
        assert canonical(plain) == canonical(observed)
        assert len(spans) > 0 and profiler.events > 0

    def test_fault_timeline_digest_unchanged(self):
        spec = ExperimentSpec(
            name="obs-digest",
            scenario="lossy_link_latency",
            params={
                "frame_size": 256,
                "duration": "0.5ms",
                "loss_rate": 0.05,
                "burst": 1.0,
            },
            seed=2,
        )
        shard = spec.expand()[0]
        plain = run_shard(spec, shard)
        with observe_simulators(spans=SpanRecorder()):
            observed = run_shard(spec, shard)
        assert canonical(plain) == canonical(observed)


class TestSimProfiler:
    def test_attribution_and_speedometer(self):
        sim = Simulator()
        profiler = SimProfiler().arm(sim)
        fired = []
        for i in range(5):
            sim.call_at(us(i + 1), fired.append, i)
        sim.run()
        profiler.disarm()
        assert fired == list(range(5))
        assert profiler.events == 5
        assert profiler.sim_ps_advanced() == sim.now
        assert profiler.wall_elapsed_s() > 0
        assert profiler.sim_ps_per_wall_s() > 0
        hottest = profiler.hottest()
        assert hottest and hottest[0]["calls"] == 5
        report = profiler.report()
        assert report["events"] == 5 and report["hottest"]

    def test_detach_stops_counting(self):
        sim = Simulator()
        profiler = SimProfiler().arm(sim)
        sim.call_at(us(1), lambda: None)
        sim.run()
        profiler.disarm()
        assert sim.profiler is None
        sim.call_at(us(2), lambda: None)
        sim.run()
        assert profiler.events == 1

    def test_accumulates_across_simulators(self):
        profiler = SimProfiler()
        for _ in range(2):
            sim = Simulator()
            profiler.arm(sim)
            sim.call_at(us(1), lambda: None)
            sim.run()
            profiler.disarm()
        assert profiler.events == 2
        assert profiler.sim_ps_advanced() == 2 * us(1)

    def test_format_report(self):
        sim = Simulator()
        profiler = SimProfiler().arm(sim)
        sim.call_at(us(1), lambda: None)
        sim.run()
        profiler.disarm()
        text = profiler.format_report()
        assert "sim speedometer" in text and "handler" in text

    def test_profiler_exception_still_billed(self):
        sim = Simulator()
        profiler = SimProfiler().arm(sim)

        def boom():
            raise RuntimeError("kaput")

        sim.call_at(us(1), boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert profiler.events == 1


class TestCreationHooks:
    def test_current_simulator_tracks_latest(self):
        sim = Simulator()
        assert current_simulator() is sim
        newer = Simulator()
        assert current_simulator() is newer

    def test_hooks_fire_and_remove(self):
        seen = []
        add_creation_hook(seen.append)
        try:
            sim = Simulator()
            assert seen == [sim]
        finally:
            remove_creation_hook(seen.append)
        Simulator()
        assert len(seen) == 1
        # Removing twice is harmless.
        remove_creation_hook(seen.append)

    def test_observe_simulators_arms_inner_sims(self):
        spans, profiler = SpanRecorder(), SimProfiler()
        with observe_simulators(spans=spans, profiler=profiler):
            sim = Simulator()
            assert sim.spans is spans
            assert sim.profiler is profiler
        assert not spans.armed and not profiler.armed
        outside = Simulator()
        assert outside.spans is None and outside.profiler is None

    def test_observe_simulators_tracer(self):
        tracer = Tracer()
        with observe_simulators(tracer=tracer):
            sim = Simulator()
            sim.call_at(us(1), lambda: None)
            sim.run()
        assert tracer.recorded > 0

    def test_hook_removed_on_exception(self):
        spans = SpanRecorder()
        with pytest.raises(RuntimeError):
            with observe_simulators(spans=spans):
                raise RuntimeError("boom")
        assert Simulator().spans is None


def _loopback(sim, frames):
    """A port 0 -> port 1 generator on ``sim``, loaded but not started."""
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    generator = tester.generator(0)
    generator.load_template(udp_template(64), count=frames)
    return generator


def _send(sim, frames):
    _loopback(sim, frames).start()
    sim.run()


def _chain(sim, events):
    remaining = [events]

    def tick():
        remaining[0] -= 1
        if remaining[0]:
            sim.call_after(100, tick)

    sim.call_after(100, tick)
    sim.run()


#: Every recorder under one arming protocol: its class, the simulator
#: slot it owns, and the deterministic totals it has counted so far.
RECORDERS = {
    "tracer": (
        Tracer,
        lambda sim: sim.tracer,
        lambda t: (t.kernel_scheduled_recorded, t.kernel_fired_recorded, t.recorded),
    ),
    "spans": (SpanRecorder, lambda sim: sim.spans, lambda s: (s.started,)),
    "profiler": (
        SimProfiler,
        lambda sim: sim.profiler,
        lambda p: (p.events, p.sim_ps_advanced()),
    ),
    "waves": (
        WaveformRecorder,
        lambda sim: sim.waves,
        lambda w: (w.counts()["recorded"],),
    ),
}


def _slots(sim):
    return (sim.tracer, sim.spans, sim.profiler, sim.waves)


def _add(*totals):
    return tuple(map(sum, zip(*totals)))


class TestArmingProtocol:
    @pytest.mark.parametrize("name", sorted(RECORDERS))
    def test_contract(self, name):
        make, slot, totals = RECORDERS[name]

        def reference(*frame_counts):
            """Totals of a fresh recorder armed once on one simulator."""
            recorder, sim = make(), Simulator()
            recorder.arm(sim)
            for frames in frame_counts:
                _send(sim, frames)
            return totals(recorder)

        def counted(recorder):
            """The recorder's totals; a tracer's must also add up."""
            if name == "tracer":
                assert recorder.recorded == len(recorder) + recorder.evicted
                assert recorder.evicted >= 0
            return totals(recorder)

        one_sim, other_sim = reference(3, 2), reference(4)
        assert all(one_sim) and all(other_sim)

        first, second = Simulator(), Simulator()
        recorder = make()
        assert not recorder.armed
        assert recorder.arm(first) is recorder
        assert slot(first) is recorder and recorder.armed
        _send(first, 3)
        assert recorder.arm(first) is recorder
        assert slot(first) is recorder
        _send(first, 2)
        assert counted(recorder) == one_sim  # re-arming lost nothing

        recorder.arm(second)
        assert slot(first) is None and slot(second) is recorder
        assert counted(recorder) == one_sim
        _send(second, 4)
        assert counted(recorder) == _add(one_sim, other_sim)

        assert recorder.disarm() is recorder
        assert slot(second) is None and not recorder.armed
        _send(second, 1)
        assert counted(recorder) == _add(one_sim, other_sim)

        recorder = make()
        with observe_simulators(**{name: recorder}):
            inside = [Simulator()]
            _send(inside[0], 3)
            _send(inside[0], 2)
            inside.append(Simulator())
            _send(inside[1], 4)
        assert not recorder.armed
        for sim in inside:
            assert _slots(sim) == (None, None, None, None)
        assert counted(recorder) == _add(one_sim, other_sim)

    def test_arming_displaces_the_slot_occupant(self):
        sim = Simulator()
        old = SpanRecorder().arm(sim)
        new = SpanRecorder().arm(sim)
        assert sim.spans is new and not old.armed
        old.disarm()
        assert sim.spans is new

    def test_slots_are_read_only(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            sim.tracer = Tracer()
        with pytest.raises(AttributeError):
            sim.profiler = SimProfiler()

    @pytest.mark.parametrize("name", ["spans", "tracer", "waves"])
    def test_generator_built_inside_observe_runs_burst_after_exit(
        self, name, monkeypatch
    ):
        """Recorders armed in the block must not outlive it: a generator
        built inside and started after exit runs burst."""
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        audits = []
        audit = BurstLane._audit

        def recorded_audit(lane):
            audits.append(audit(lane))
            return audits[-1]

        monkeypatch.setattr(BurstLane, "_audit", recorded_audit)
        with observe_simulators(**{name: RECORDERS[name][0]()}):
            sim = Simulator()
            generator = _loopback(sim, 8)
        generator.start()
        sim.run()
        assert audits == [True]
        assert generator.stats.sent == 8

    def test_tracer_moved_between_simulators_counts_both(self):
        tracer = Tracer()
        with observe_simulators(tracer=tracer):
            _chain(Simulator(), 100)
            _chain(Simulator(), 50)
        other = chrome_trace(tracer)["otherData"]
        assert other["recorded"] == 2 * (100 + 50)
        assert other["evicted"] == 0


class TestHeartbeatWriter:
    def test_beats_and_lifecycle(self, tmp_path):
        path = heartbeat_path(tmp_path, 3, 1)
        writer = HeartbeatWriter(path, 3, attempt=1, interval_s=0.02)
        writer.start()
        import time

        time.sleep(0.08)
        writer.stop("done")
        beats = read_heartbeats(path)
        assert beats[0]["kind"] == "start" and beats[-1]["kind"] == "done"
        assert len(beats) >= 3  # start + >=1 tick + done
        assert [b["seq"] for b in beats] == list(range(1, len(beats) + 1))
        assert all(b["shard"] == 3 and b["attempt"] == 1 for b in beats)

    def test_context_manager_failure_kind(self, tmp_path):
        path = heartbeat_path(tmp_path, 0, 1)
        with pytest.raises(ValueError):
            with HeartbeatWriter(path, 0, interval_s=5.0):
                raise ValueError("scenario died")
        beats = read_heartbeats(path)
        assert beats[-1]["kind"] == "failed"

    def test_beat_samples_current_simulator(self, tmp_path):
        path = heartbeat_path(tmp_path, 0, 1)
        writer = HeartbeatWriter(path, 0, interval_s=60.0)
        sim = Simulator()
        sim.call_at(us(5), lambda: None)
        sim.run()
        line = writer.beat("tick")
        assert line["sim_ps"] == sim.now
        assert line["events"] == sim.events_processed

    def test_read_tolerates_torn_tail(self, tmp_path):
        path = heartbeat_path(tmp_path, 0, 1)
        writer = HeartbeatWriter(path, 0, interval_s=60.0)
        writer.beat("start")
        with open(path, "a") as handle:
            handle.write('{"kind": "tick", "trunc')
        beats = read_heartbeats(path)
        assert len(beats) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_heartbeats(tmp_path / "nope.hb.jsonl") == []


class TestFlightTailer:
    def test_stall_detection_with_fake_clock(self, tmp_path):
        now = [0.0]
        tailer = FlightTailer(tmp_path, stall_after_s=1.0, clock=lambda: now[0])
        writer = HeartbeatWriter(heartbeat_path(tmp_path, 0, 1), 0, interval_s=60.0)
        writer.beat("start")
        tailer.track(0, 1)
        status = tailer.poll()[0]
        assert status["beats"] == 1 and not status["stalled"]
        now[0] = 1.5  # no fresh beat within stall_after_s
        status = tailer.poll()[0]
        assert status["stalled"]
        assert tailer.stalled_shards == {0}
        # A fresh beat recovers liveness, but the ever-set remembers.
        writer.beat("tick")
        status = tailer.poll()[0]
        assert not status["stalled"] and status["beats"] == 2
        assert tailer.stalled_shards == {0}

    def test_incremental_drain_and_untrack(self, tmp_path):
        now = [0.0]
        tailer = FlightTailer(tmp_path, stall_after_s=10.0, clock=lambda: now[0])
        writer = HeartbeatWriter(heartbeat_path(tmp_path, 1, 1), 1, interval_s=60.0)
        tailer.track(1, 1)
        writer.beat("start")
        writer.beat("tick")
        assert tailer.poll()[1]["beats"] == 2
        writer.beat("tick")
        assert tailer.poll()[1]["beats"] == 3
        tailer.untrack(1)
        assert tailer.poll() == {}

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FlightTailer(tmp_path, stall_after_s=0)
        with pytest.raises(ValueError):
            FlightTailer(tmp_path, stall_after_s=float("nan"))

    def test_render_progress(self):
        statuses = {
            0: {"shard": 0, "stalled": False, "sim_ps": 2_000_000, "attempt": 1,
                "beats": 3, "last_age_s": 0.1, "events": 10, "d_sim_ps": None,
                "d_events": None},
            1: {"shard": 1, "stalled": True, "sim_ps": None, "attempt": 1,
                "beats": 1, "last_age_s": 5.0, "events": None, "d_sim_ps": None,
                "d_events": None},
        }
        line = render_progress(2, 1, 8, statuses, 10.0)
        assert "3/8 done" in line and "(1 failed)" in line
        assert "STALLED: [1]" in line
        assert "s0@2.0µs" in line
        assert "eta" in line
        assert "cached" not in line

    def test_render_progress_excludes_cached_from_eta(self):
        # 4 finished in 10s, but 3 came from the result cache in ~0s:
        # the rate must come from the single fresh shard (10s each),
        # not 2.5s — the warm-cache ETA-collapse bug.
        line = render_progress(4, 0, 8, {}, 10.0, cached=3)
        assert ", 3 cached" in line
        assert "eta 40s" in line

    def test_render_progress_all_cached_no_eta(self):
        # Every finished shard was a cache hit: no fresh rate exists,
        # so no ETA is shown rather than a bogus one.
        line = render_progress(4, 0, 8, {}, 10.0, cached=4)
        assert ", 4 cached" in line
        assert "eta" not in line


class TestSweepRunnerFlight:
    def _spec(self, durations):
        return ExperimentSpec(
            name="flight",
            scenario="sleep",
            params={},
            axes={"duration_s": durations},
            timeout_s=30.0,
            retries=0,
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_writes_heartbeats_and_progress(self, tmp_path, workers):
        flight = tmp_path / "flight"
        lines = []
        runner = SweepRunner(
            self._spec([0.3, 0.3]),
            workers=workers,
            flight_dir=flight,
            heartbeat_s=0.05,
            on_progress=lines.append,
        )
        report = runner.run()
        assert len(report.ok) == 2 and not report.stalled
        files = sorted(flight.glob("*.hb.jsonl"))
        assert len(files) == 2
        beats = read_heartbeats(files[0])
        assert beats[0]["kind"] == "start" and beats[-1]["kind"] == "done"
        assert len(beats) >= 3  # periodic beats between start and done
        assert lines and "done" in lines[0]

    def test_stall_flagged_but_advisory(self, tmp_path):
        # A heartbeat interval far above the stall threshold guarantees
        # the gap after the "start" beat is flagged, while the shard
        # still completes ok: stalls are advisory, not fatal.
        runner = SweepRunner(
            self._spec([0.5, 0.5]),
            workers=2,
            flight_dir=tmp_path / "flight",
            heartbeat_s=30.0,
            stall_after_s=0.15,
        )
        report = runner.run()
        assert len(report.ok) == 2
        assert sorted(s.index for s in report.stalled) == [0, 1]
        assert "[stalled]" in report.summary()

    def test_merged_json_identical_with_flight(self, tmp_path):
        spec = ExperimentSpec(
            name="flight-det",
            scenario="echo",
            params={"x": 1},
            axes={"y": [1, 2]},
            timeout_s=30.0,
        )
        plain = SweepRunner(spec, workers=2).run().merged_json()
        with_flight = SweepRunner(
            spec, workers=2, flight_dir=tmp_path / "flight", heartbeat_s=0.05
        ).run().merged_json()
        assert plain == with_flight

    def test_heartbeat_validation(self):
        with pytest.raises(Exception):
            SweepRunner(self._spec([0.1]), heartbeat_s=0)

    def test_report_json_carries_stalled_flag(self, tmp_path):
        runner = SweepRunner(
            self._spec([0.4]),
            workers=1,
            flight_dir=tmp_path / "flight",
            heartbeat_s=30.0,
            stall_after_s=0.15,
        )
        report = runner.run()
        out = tmp_path / "report.json"
        report.save_json(out)
        document = json.loads(out.read_text())
        operational = {row["index"]: row for row in document["operational"]}
        assert operational[0]["stalled"] is True
        # The merged (deterministic) half never mentions stalls.
        assert "stalled" not in json.dumps(document["merged"])


class TestSweepCliFlight:
    def test_run_with_flight_flags(self, tmp_path, capsys):
        from repro.runner.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "cli-flight",
                    "scenario": "echo",
                    "params": {"x": 1},
                    "axes": {"y": [1, 2]},
                    "timeout_s": 30.0,
                }
            )
        )
        flight = tmp_path / "flight"
        code = main(
            [
                "run",
                str(spec_path),
                "--workers",
                "0",
                "--flight",
                str(flight),
                "--heartbeat-s",
                "0.02",
            ]
        )
        assert code == 0
        assert list(flight.glob("*.hb.jsonl"))


class TestOpenMetrics:
    def test_metric_name_sanitization(self):
        assert metric_name("p0.rx.packets", "osnt") == "osnt_p0_rx_packets"
        assert metric_name("9lives").startswith("_")
        assert metric_name("ok_name") == "ok_name"

    def test_gauges_and_counters_export(self):
        text = snapshot_to_openmetrics({"a.b": 3, "c": 1.5, "flag": True})
        families = parse_openmetrics(text)
        assert families["a_b"]["type"] == "gauge"
        assert families["a_b"]["samples"] == [("a_b", {}, 3.0)]
        assert families["flag"]["samples"][0][2] == 1.0
        assert text.endswith("# EOF\n")

    def test_summary_export(self):
        snapshot = {
            "lat": {"count": 10, "mean": 2.0, "p50": 1.0, "p90": 3.0, "p99": 4.0,
                    "p999": 5.0, "min": 0, "max": 6},
        }
        families = parse_openmetrics(snapshot_to_openmetrics(snapshot, prefix="x"))
        family = families["x_lat"]
        assert family["type"] == "summary"
        quantiles = {
            labels["quantile"]: value
            for name, labels, value in family["samples"]
            if labels
        }
        assert quantiles == {"0.5": 1.0, "0.9": 3.0, "0.99": 4.0, "0.999": 5.0}
        plain = {name: value for name, labels, value in family["samples"] if not labels}
        assert plain == {"x_lat_count": 10.0, "x_lat_sum": 20.0}

    def test_non_numeric_skipped_with_comment(self):
        text = snapshot_to_openmetrics({"good": 1, "dead": "<error: boom>"})
        assert "# skipped 1 non-numeric metric(s)" in text
        families = parse_openmetrics(text)
        assert "dead" not in families and "good" in families

    def test_name_collision_raises(self):
        with pytest.raises(ValueError):
            snapshot_to_openmetrics({"a.b": 1, "a_b": 2})

    def test_registry_round_trip(self):
        registry = MetricsRegistry("card")
        registry.counter("rx.packets").inc(7)
        registry.gauge("occupancy").set(3)
        histogram = registry.histogram("lat", unit="ps")
        for value in range(100):
            histogram.record(value)
        families = parse_openmetrics(
            snapshot_to_openmetrics(registry.snapshot(), prefix="osnt")
        )
        assert families["osnt_card_rx_packets"]["samples"][0][2] == 7.0
        assert families["osnt_card_lat"]["type"] == "summary"

    def test_write_openmetrics(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_openmetrics(path, {"a": 1})
        parse_openmetrics(path.read_text())

    def test_parser_rejects_missing_eof(self):
        with pytest.raises(ValueError):
            parse_openmetrics("# TYPE a gauge\na 1\n")

    def test_parser_rejects_interleaving(self):
        bad = "# TYPE a gauge\n# TYPE b gauge\nb 1\na 1\n# EOF\n"
        with pytest.raises(ValueError, match="interleaves"):
            parse_openmetrics(bad)

    def test_parser_rejects_double_type(self):
        bad = "# TYPE a gauge\na 1\n# TYPE a gauge\na 2\n# EOF\n"
        with pytest.raises(ValueError, match="twice"):
            parse_openmetrics(bad)

    def test_parser_rejects_undeclared_sample(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_openmetrics("a 1\n# EOF\n")

    def test_parser_rejects_bad_value(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_openmetrics("# TYPE a gauge\na nope\n# EOF\n")


class TestSnapshotHardening:
    def test_dead_gauge_recorded_not_fatal(self):
        registry = MetricsRegistry()
        registry.counter("alive").inc(2)

        def dead_source():
            raise RuntimeError("component torn down")

        registry.gauge("dead", source=dead_source)
        snapshot = registry.snapshot()
        assert snapshot["alive"] == 2
        assert snapshot["dead"] == "<error: RuntimeError: component torn down>"
        # The OpenMetrics exporter skips it instead of crashing.
        families = parse_openmetrics(snapshot_to_openmetrics(snapshot))
        assert "alive" in families and "dead" not in families


class TestDashboardDropSplit:
    def test_injected_vs_overflow_columns(self):
        from repro.osnt import OSNT, render_status

        sim = Simulator()
        tester = OSNT(sim)
        tester.device.ports[0].rx.stats.drops_injected = 37
        tester.device.ports[0].rx.stats.drops_overflow = 53
        panel = render_status(tester)
        assert "inj" in panel and "ovf" in panel
        row = next(line for line in panel.splitlines() if line.startswith("p0"))
        assert "37" in row and "53" in row


class TestTelemetryCliOpenMetrics:
    def test_format_openmetrics(self, tmp_path):
        from repro.osnt.cli import telemetry_main

        out = tmp_path / "card.om"
        code = telemetry_main(
            [
                "--duration-ms",
                "0.2",
                "--format",
                "openmetrics",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        families = parse_openmetrics(out.read_text())
        assert any(name.startswith("osnt_") for name in families)
        assert any(f["type"] == "summary" for f in families.values())


class TestOflopsObservability:
    def test_arm_and_snapshot_openmetrics(self):
        from repro.oflops import OflopsContext

        context = OflopsContext()
        spans, profiler = SpanRecorder(), SimProfiler()
        spans.arm(context.sim)
        profiler.arm(context.sim)
        assert context.sim.spans is spans
        assert context.sim.profiler is profiler
        families = parse_openmetrics(context.snapshot_openmetrics())
        assert any(name.startswith("oflops_") for name in families)
