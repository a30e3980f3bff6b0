"""Differential determinism harness: packet vs burst datapaths.

The burst datapath (`repro.hw.burst`) must be a *bit-identical* drop-in
for the per-packet generator process: same counters, same histograms,
same telemetry snapshots, same final simulated time on every workload —
including mid-run counter reads, `stop()` drains, FIFO-saturating
schedules and latency measurement. Workloads that arm an observation
point (spans, waveforms, capture, latency histograms, faults on the
loopback link) must transparently fall back to the per-packet path and
still agree; an armed tracer reads no packets and keeps the burst path.
`TestObservationPointFallback` also trips every code in
`repro.hw.burst.FALLBACK_CODES`, at start() and, where it can, mid-run.
These tests run the same workload under both `REPRO_DATAPATH` settings
and assert the full observable state matches exactly — the same pattern
tests/test_sim_queue_equivalence.py applies to the event queues.
`TestSerialLane` drives the serial lane with scripted gaps that queue,
drop and tie with the MAC's chain events.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.faults import FaultInjector
from repro.hw import TimestampUnit, connect
from repro.flows import FlowEndpoint
from repro.hw.burst import FALLBACK_CODES, BurstLane
from repro.hw.timestamp import ps_to_raw
from repro.net import Packet
from repro.obs import SpanRecorder
from repro.osnt import OSNT
from repro.osnt.generator import (
    ConstantGap,
    PacketListSource,
    PortGenerator,
    SequenceNumber,
    TemplateSource,
)
from repro.osnt.generator.schedule import PoissonGaps, Schedule
from repro.sim import Simulator
from repro.telemetry import Tracer, WaveformRecorder
from repro.testbed.rfc2544 import rfc2544_point
from repro.testbed.scenarios import legacy_latency_point, line_rate_point
from repro.testbed.workloads import udp_template
from repro.topology import Topology
from repro.units import ms, us

IMPLS = ("packet", "burst")


# -- observable-state extraction ----------------------------------------


def _mac_state(stats):
    return (
        stats.packets,
        stats.bytes,
        stats.wire_bytes,
        stats.errors,
        stats.drops_overflow,
        stats.drops_injected,
        stats.busy_ps,
        stats.first_activity_ps,
        stats.last_activity_ps,
    )


def _osnt_state(sim, tester, gen_ports=(0,), mon_ports=(1,)):
    """Every observable counter of a loopback run, as one plain dict."""
    state = {"now": sim.now}
    for index in set(gen_ports) | set(mon_ports):
        port = tester.port(index)
        fifo = port.tx.fifo
        state[f"p{index}.tx"] = _mac_state(port.tx.stats)
        state[f"p{index}.rx"] = _mac_state(port.rx.stats)
        state[f"p{index}.fifo"] = (
            fifo.enqueued,
            fifo.dropped,
            fifo.occupancy_bytes,
            fifo.peak_occupancy_bytes,
        )
    for index in gen_ports:
        generator = tester.generator(index)
        state[f"g{index}.stats"] = dataclasses.astuple(generator.stats)
        state[f"g{index}.sizes"] = generator._engine.tx_sizes.to_dict()
        state[f"g{index}.running"] = generator.running
    for index in mon_ports:
        monitor = tester.monitor(index)
        state[f"m{index}.rx"] = (monitor.rx_packets, monitor.rx_bytes)
        state[f"m{index}.latency"] = monitor.latency_histogram.to_dict()
        state[f"m{index}.lat_skipped"] = monitor._pipeline.latency_skipped
    return state


def _run(impl, workload, monkeypatch):
    monkeypatch.setenv("REPRO_DATAPATH", impl)
    return workload()


def _assert_equivalent(workload, monkeypatch):
    packet = _run("packet", workload, monkeypatch)
    burst = _run("burst", workload, monkeypatch)
    assert packet == burst
    return packet


@pytest.fixture
def audits(monkeypatch):
    """Every burst lane's eligibility verdict, in audit order."""
    verdicts = []
    audit = BurstLane._audit

    def recorded_audit(lane):
        verdicts.append(audit(lane))
        return verdicts[-1]

    monkeypatch.setattr(BurstLane, "_audit", recorded_audit)
    return verdicts


# -- loopback workloads (the lanes the burst path accelerates) ----------


class TestLoopbackWorkloads:
    def _loopback(self, configure, steps=None):
        """Build a 2-port loopback tester, run, return observable state."""
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        configure(sim, tester)
        if steps is None:
            sim.run()
            return _osnt_state(sim, tester)
        snapshots = []
        for until in steps:
            sim.run(until=until)
            snapshots.append(_osnt_state(sim, tester))
        sim.run()
        snapshots.append(_osnt_state(sim, tester))
        return snapshots

    def test_line_rate_duration_run(self, monkeypatch):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(64))
                generator.at_line_rate().for_duration(ms(1))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        assert state["g0.stats"][0] > 14_000  # ~14.88 Mpps for 1 ms

    def test_mid_run_counter_snapshots(self, monkeypatch):
        """run(until=) twice mid-run: burst windows must stop at the
        bound and leave every counter exactly as the per-packet path."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(512))
                generator.at_line_rate().for_duration(ms(1))
                generator.start()

            return self._loopback(configure, steps=(us(300), us(777)))

        snapshots = _assert_equivalent(workload, monkeypatch)
        assert snapshots[0]["g0.stats"][0] < snapshots[1]["g0.stats"][0]

    def test_stop_mid_run_drains(self, monkeypatch):
        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            generator = tester.generator(0)
            generator.load_template(udp_template(256))
            generator.at_line_rate().for_duration(ms(2))
            generator.start()
            sim.run(until=us(100))
            generator.stop()
            sim.run()
            return _osnt_state(sim, tester)

        state = _assert_equivalent(workload, monkeypatch)
        assert not state["g0.running"]
        assert state["p1.rx"][0] == state["g0.stats"][0]

    @pytest.mark.parametrize("mean_gap", ["2us", "50ns"])
    def test_poisson_schedules_use_per_frame_path(self, mean_gap, monkeypatch):
        """Random gaps force the serial path, which must consume the
        schedule RNG identically (hot 50ns gaps also queue the FIFO)."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(128))
                generator.poisson(mean_gap).for_duration(us(200))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        assert state["g0.stats"][0] > 50

    def test_count_limited_and_restart(self, monkeypatch):
        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            generator = tester.generator(0)
            generator.load_template(udp_template(64), count=500)
            generator.start()
            sim.run()
            first = _osnt_state(sim, tester)
            generator.start()  # second run reuses the same lane machinery
            sim.run()
            return first, _osnt_state(sim, tester)

        first, second = _assert_equivalent(workload, monkeypatch)
        assert first["g0.stats"][0] == 500
        assert second["p0.tx"][0] == 1000

    def test_sub_minimum_frames_pad_identically(self, monkeypatch):
        """A runt template: both datapaths must count the padded frame
        bytes and the padded wire bytes the same way, frame for frame."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(Packet(bytes(56)))  # 60B runt
                generator.at_line_rate().for_duration(us(100))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        packets, frame_bytes, wire_bytes = state["p0.tx"][:3]
        assert frame_bytes == packets * 64
        assert wire_bytes == packets * 84

    def test_latency_measurement_armed(self, monkeypatch, audits):
        """Embedded TX stamps + RX latency: stamping needs real packets,
        so the lane falls back and the per-packet path measures both."""

        def workload():
            def configure(sim, tester):
                tester.monitor(1).enable_latency()
                generator = tester.generator(0)
                generator.load_template(udp_template(512))
                generator.set_load(0.6).embed_timestamps()
                generator.for_duration(us(500))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        assert audits == [False]
        assert state["m1.latency"]["count"] == state["g0.stats"][0]

    def _static_stamp_run(self, stamp_ps=0, offset=42, events=()):
        """1 ms of 64 B line rate whose template carries a fixed TX stamp
        of ``stamp_ps``, into a latency-armed monitor; ``events`` are
        ``(time, callback(tester))`` pairs scheduled mid-run."""
        data = bytearray(udp_template(64).data)
        data[42:50] = ps_to_raw(stamp_ps).to_bytes(8, "big")

        def configure(sim, tester):
            tester.monitor(1).enable_latency(offset=offset)
            for time_ps, callback in events:
                sim.call_at(time_ps, callback, tester)
            generator = tester.generator(0)
            generator.load_template(Packet(bytes(data)))
            generator.at_line_rate().for_duration(ms(1))
            generator.start()

        return self._loopback(configure)

    #: A frequency steer and a backward phase step mid-run.
    CLOCK_STEPS = (
        (us(200), lambda tester: tester.device.oscillator.adjust_rate(4e-4)),
        (us(450), lambda tester: tester.device.oscillator.step_phase(-12_345)),
        (us(700), lambda tester: tester.device.oscillator.adjust_rate(-9e-4)),
    )
    FROZEN_COUNTER = (
        (us(300), lambda tester: tester.device.timestamp_unit.freeze()),
        (us(600), lambda tester: tester.device.timestamp_unit.unfreeze()),
    )

    @pytest.mark.parametrize(
        "run, expect",
        [
            # Deliveries before the stamp read negative deltas and are
            # skipped; the rest bin.
            pytest.param({"stamp_ps": us(300)}, "some_skipped", id="static_stamp"),
            # 60 data bytes: an 8-byte stamp at offset 56 runs past the end.
            pytest.param({"offset": 56}, "all_skipped", id="past_end"),
            pytest.param({"events": CLOCK_STEPS}, "all_binned", id="clock_steps"),
            pytest.param({"events": FROZEN_COUNTER}, "all_binned", id="frozen_clock"),
        ],
    )
    def test_latency_armed_falls_back(self, run, expect, monkeypatch, audits):
        """An armed latency histogram reads every frame's TX stamp: the
        lane falls back and the capture path bins frame by frame."""
        state = _assert_equivalent(
            lambda: self._static_stamp_run(**run), monkeypatch
        )
        assert audits == [False]
        sent = state["g0.stats"][0]
        binned = state["m1.latency"]["count"]
        skipped = state["m1.lat_skipped"]
        if expect == "some_skipped":
            assert skipped > 0
            assert binned > 0
        elif expect == "all_skipped":
            assert skipped == sent
            assert binned == 0
        else:
            assert binned == sent

    def test_fifo_overflow_accounting(self, monkeypatch, audits):
        """A tiny TX FIFO fed faster than line rate drops frames; drop
        counters and peak occupancy must match exactly, and the lane
        stays on the burst path."""

        def workload():
            def configure(sim, tester):
                tester.port(0).tx.fifo.capacity_bytes = 2048
                generator = tester.generator(0)
                generator.load_template(udp_template(200))
                # Mean gap far below the ~172 ns wire time: the offered
                # load exceeds line rate, so the 2 KiB FIFO must tail-drop.
                generator.use_model(PoissonGaps(20_000, stream=random.Random(11)))
                generator.for_duration(us(100))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        assert audits == [True]
        assert state["g0.stats"][2] > 0  # tx_fifo_drops
        assert state["p0.fifo"][3] > 1024  # peak occupancy


# -- the serial lane against the per-packet oracle ----------------------


class _Scripted(Schedule):
    """Replays ``gaps`` in a cycle: only the serial lane can advance it."""

    def __init__(self, gaps):
        self.gaps = list(gaps)
        self.index = 0

    def gap_after(self, frame_len):
        gap = self.gaps[self.index % len(self.gaps)]
        self.index += 1
        return gap

    def reset(self):
        self.index = 0


def _scripted_run(impl, size, gaps, count, fifo_bytes, steps, stop):
    """Counters at each ``run(until=)`` step and at the end."""
    sim = Simulator()
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    if fifo_bytes is not None:
        tester.port(0).tx.fifo.capacity_bytes = fifo_bytes
    tester.device.generator(0).datapath_impl = impl
    generator = tester.generator(0)
    generator.load_template(udp_template(size), count=count)
    generator.use_model(_Scripted(gaps)).start()
    snapshots = []
    for until in steps + [None]:
        if until is None and stop:
            generator.stop()
        sim.run(until=until)
        snapshots.append(_osnt_state(sim, tester))
    return snapshots


@st.composite
def _scripted_workloads(draw):
    size = draw(st.sampled_from([64, 128, 256]))
    slot = (size + 20) * 800  # wire slot of a frame at 10 Gb/s
    edges = [0, 1, slot - 1, slot, slot + 1, 2 * slot - 2, 2 * slot, 3 * slot]
    count = draw(st.integers(min_value=5, max_value=80))
    # Mostly edge gaps: a tie needs two of them in a row, e.g. [0, 2 * slot].
    gap = st.sampled_from(edges + [None]).flatmap(
        lambda g: st.integers(min_value=0, max_value=4 * slot - 1)
        if g is None
        else st.just(g)
    )
    # A short cycle repeats whatever tie its gaps make across the run.
    gaps = draw(st.lists(gap, min_size=1, max_size=6))
    span = count * 2 * slot
    times = st.integers(min_value=0, max_value=span)
    steps = sorted(draw(st.lists(times, max_size=2)))
    frames = draw(st.sampled_from([None, 2, 3, 4]))
    return {
        "size": size,
        "gaps": gaps,
        "count": count,
        "fifo_bytes": None if frames is None else frames * size + 7,
        "steps": steps,
        "stop": bool(steps) and draw(st.booleans()),
    }


def _serial_case(**case):
    """A 64 B scripted workload without snapshots."""
    base = dict(size=64, count=12, fifo_bytes=None, steps=[], stop=False)
    return dict(base, **case)


class TestSerialLane:
    """The serial lane advances any schedule frame by frame: queueing,
    tail drops, zero gaps and gaps that end exactly on a wire slot, where
    the generator's wake and the MAC's chain event share a time."""

    @seed(2015)
    @settings(max_examples=200, deadline=None)
    @given(workload=_scripted_workloads())
    # 64 B frames, 67,200 ps slots; in both, a wake is scheduled before
    # the same-time chain event. In the first, a frame starts just after
    # a step, and the wake one slot later was scheduled by that step; in
    # the second, the wake at 134,400 ps was scheduled at 2 ps, before the
    # start at 67,200 ps. The pushes see the head frame still queued:
    # drops in the 256 B FIFO, two frames waiting at 134,400 ps.
    @example(workload=_serial_case(gaps=[134_400, 0, 67_200, 0], count=33,
                                   fifo_bytes=256))
    @example(workload=_serial_case(gaps=[1, 1, 134_398, 672_000]))
    # The second tie leaves every counter as the other order would; two
    # zero gaps after it make the step push three frames behind the
    # waiting one, a FIFO peak of 256 B where the other order gives 192 B.
    @example(workload=_serial_case(gaps=[1, 1, 134_398, 0, 0, 672_000]))
    # Stopped at 50 µs, the run ends at the killed generator's next wake.
    @example(workload=_serial_case(size=128, gaps=[2_000_000], count=80,
                                   steps=[us(50)], stop=True))
    def test_matches_the_packet_path(self, workload):
        lanes = []
        audit = BurstLane._audit

        def recorded_audit(lane):
            eligible = audit(lane)
            lanes.append(eligible and lane.bulk_gap is None and lane.train is None)
            return eligible

        packet = _scripted_run("packet", **workload)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BurstLane, "_audit", recorded_audit)
            burst = _scripted_run("burst", **workload)
        assert lanes == [True]
        assert burst == packet


# -- observation points force the per-packet fallback -------------------


def _fallback_lane(trip=None, wired=True):
    """A 20 µs, 64 B line-rate lane out of port 0 of a loopback tester,
    with ``trip(lane)`` applied before start()."""
    sim = Simulator()
    tester = OSNT(sim)
    if wired:
        connect(tester.port(0), tester.port(1))
    engine = tester.device.generator(0)
    engine.configure(TemplateSource(udp_template(64)), duration_ps=us(20))
    lane = SimpleNamespace(sim=sim, tester=tester, engine=engine)
    if trip is not None:
        trip(lane)
    engine.start()
    return lane


def _attach_transport(lane):
    hosts = Topology(name="pair").host("h1").host("h2").link("h1", "h2").build(lane.sim)
    FlowEndpoint(hosts.node("h1"))


def _swap_schedule(lane):
    lane.engine.schedule = ConstantGap(us(1))


def _swap_source(lane):
    lane.engine.source = TemplateSource(udp_template(64))


def _swap_template(lane):
    lane.engine.source.template = udp_template(64)


def _change_limit(lane):
    lane.engine.limit_count = 5


def _stamp_frames(lane):
    lane.engine.timestamper.enabled = True


#: Per code, the smallest change that breaks its condition.
_FALLBACK_TRIPS = {
    "spans": lambda lane: SpanRecorder().arm(lane.sim),
    "waves": lambda lane: WaveformRecorder().arm(lane.sim),
    "closed_loop": _attach_transport,
    "schedule_swapped": _swap_schedule,
    "source_swapped": _swap_source,
    "source_kind": lambda lane: lane.engine.configure(
        PacketListSource([udp_template(64)]), duration_ps=us(20)
    ),
    "template_swapped": _swap_template,
    "modifiers": lambda lane: lane.engine.source.modifiers.append(SequenceNumber(42)),
    "limit_changed": _change_limit,
    "no_limit": lambda lane: lane.engine.configure(TemplateSource(udp_template(64))),
    "timestamper": _stamp_frames,
    "unconnected": None,  # the lane's port is left unwired
    # An idle MAC starts serializing a frame the moment it is sent.
    "mac_busy": lambda lane: lane.tester.port(0).send(udp_template(64)),
    "impairment": lambda lane: lane.tester.port(0).link.add_impairment(
        lambda packet, port: None
    ),
    "peer_not_capture": lambda lane: lane.tester.port(1).add_rx_sink(
        lambda packet: None
    ),
    "capture_enabled": lambda lane: lane.tester.monitor(1).start_capture(),
    "latency": lambda lane: lane.tester.monitor(1).enable_latency(),
}
#: Conditions only the audit checks, and those only an engaged lane has.
_AT_START_ONLY = {"source_kind", "no_limit", "unconnected", "mac_busy"}
_MID_RUN_ONLY = {
    "schedule_swapped", "source_swapped", "template_swapped", "limit_changed"
}


class TestObservationPointFallback:
    def test_spans_armed(self, monkeypatch):
        """Span recording needs real Packet objects: the lane must fall
        back and produce identical counters and span stories."""

        def workload():
            sim = Simulator()
            recorder = SpanRecorder()
            recorder.arm(sim)
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            generator = tester.generator(0)
            generator.load_template(udp_template(256))
            generator.set_load(0.5).for_duration(us(100))
            generator.start()
            sim.run()
            # packet_id is a process-global counter, so normalise it out
            # of the stories; everything else must match bit-for-bit.
            stories = [
                {key: value for key, value in story.items() if key != "packet_ids"}
                for story in recorder.stories()
            ]
            return _osnt_state(sim, tester), stories

        state, stories = _assert_equivalent(workload, monkeypatch)
        assert len(stories) == state["g0.stats"][0]

    def test_capture_armed(self, monkeypatch):
        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            monitor = tester.monitor(1)
            monitor.start_capture(snaplen=64)
            generator = tester.generator(0)
            generator.load_template(udp_template(512))
            generator.set_load(0.5).embed_timestamps()
            generator.for_duration(us(200))
            generator.start()
            sim.run()
            digest = [
                (packet.rx_timestamp, packet.capture_length, bytes(packet.data[:16]))
                for packet in monitor.packets
            ]
            return _osnt_state(sim, tester), digest

        state, digest = _assert_equivalent(workload, monkeypatch)
        assert len(digest) == state["g0.stats"][0]

    def test_faults_armed_on_link(self, monkeypatch):
        """Link impairments must disqualify the lane; drop accounting
        and the fault RNG stream must then match exactly."""

        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            link = connect(tester.port(0), tester.port(1))
            injector = FaultInjector(
                sim,
                [{"name": "loss", "model": "link_loss",
                  "params": {"rate": 0.05, "burst": 2.0}}],
                seed=3,
            )
            injector.bind(link=link).arm()
            generator = tester.generator(0)
            generator.load_template(udp_template(128))
            generator.set_load(0.8).for_duration(us(300))
            generator.start()
            sim.run()
            return _osnt_state(sim, tester), injector.timeline_digest()

        state, __ = _assert_equivalent(workload, monkeypatch)
        assert state["p1.rx"][0] < state["g0.stats"][0]  # losses happened

    def test_latency_armed_mid_run_raises(self, monkeypatch):
        """The lane's frames were never stamped: latency armed on the far
        monitor while the lane is active must raise, not bin them."""
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        generator = tester.generator(0)
        generator.load_template(udp_template(64))
        generator.at_line_rate().for_duration(ms(1))
        generator.start()
        sim.run(until=us(10))  # lane audited clean and engaged
        tester.monitor(1).enable_latency()
        with pytest.raises(SimulationError, match="latency"):
            sim.run()

    def test_waves_armed_mid_run_raises(self, monkeypatch):
        """The lane samples no waveforms: a recorder armed while it is
        active must raise, not leave the MACs' series empty."""
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        generator = tester.generator(0)
        generator.load_template(udp_template(64))
        generator.at_line_rate().for_duration(ms(1))
        generator.start()
        sim.run(until=us(10))  # lane audited clean and engaged
        WaveformRecorder().arm(sim)
        with pytest.raises(SimulationError, match="waveforms"):
            sim.run()

    def test_tracer_armed_keeps_the_burst_lane(self, monkeypatch, audits):
        """The tracer reads no packets: an armed one leaves the lane on
        the burst path, every counter still matches the per-packet path,
        and the tracer records the fewer kernel events the lane ran."""

        def workload():
            sim = Simulator()
            tracer = Tracer().arm(sim)
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            generator = tester.generator(0)
            generator.load_template(udp_template(256))
            generator.set_load(0.5).for_duration(us(100))
            generator.start()
            sim.run()
            return _osnt_state(sim, tester), tracer.kernel_fired_recorded

        packet_state, packet_fired = _run("packet", workload, monkeypatch)
        assert audits == []
        burst_state, burst_fired = _run("burst", workload, monkeypatch)
        assert audits == [True]
        assert burst_state == packet_state
        assert burst_state["g0.stats"][0] > 0
        assert 0 < burst_fired < packet_fired

    @pytest.mark.parametrize("code", FALLBACK_CODES)
    def test_each_fallback_code_names_its_condition(self, code, monkeypatch):
        """The smallest lane that breaks each condition keeps its code on
        ``lane.fallback``; one broken after start() raises a
        SimulationError naming the code at the lane's next window."""
        assert set(_FALLBACK_TRIPS) == set(FALLBACK_CODES)
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        audited = []
        audit = BurstLane._audit

        def recorded_audit(lane):
            audited.append(lane)
            return audit(lane)

        monkeypatch.setattr(BurstLane, "_audit", recorded_audit)
        trip = _FALLBACK_TRIPS[code]
        if code not in _MID_RUN_ONLY:
            lane = _fallback_lane(trip, wired=code != "unconnected")
            lane.sim.run(until=us(5))
            assert [burst.fallback for burst in audited] == [code]
        if code not in _AT_START_ONLY:
            audited.clear()
            lane = _fallback_lane()
            lane.sim.run(until=us(5))  # lane audited clean and engaged
            assert [burst.fallback for burst in audited] == [None]
            trip(lane)
            with pytest.raises(SimulationError, match=f"'{code}'"):
                lane.sim.run()


# -- full scenarios across seeds ----------------------------------------


class TestScenarioEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_e1_line_rate(self, seed, telemetry, monkeypatch):
        """E1: merged rows and (when armed) full telemetry snapshots."""

        def workload():
            return line_rate_point(
                frame_size=64, duration_ps=ms(1), ports=1,
                seed=seed, telemetry=telemetry,
            )

        row, extras = _assert_equivalent(workload, monkeypatch)
        assert row.achieved_pps > 1e6
        if telemetry:
            snapshot = extras["telemetry"]
            assert "osnt.time_ps" in snapshot
            # Unstamped frames: no latency histogram is armed.
            for port in range(4):
                assert snapshot[f"osnt.p{port}.mon.latency_ps"]["count"] == 0
                assert snapshot[f"osnt.p{port}.mon.latency_skipped"] == 0

    def test_e1_multi_port(self, monkeypatch):
        # 3 ms spans three telemetry windows, so each lane's delivery
        # runs are cut at the rate ticks.
        for frame_size, duration_ps in ((512, ms(1)), (1518, ms(3))):

            def workload():
                return line_rate_point(
                    frame_size=frame_size, duration_ps=duration_ps, ports=4,
                    seed=0, telemetry=True,
                )

            _assert_equivalent(workload, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_e3_legacy_latency(self, seed, monkeypatch):
        """E3 runs through the legacy switch — a capture-armed topology
        that falls back per-packet, and must stay byte-identical."""

        def workload():
            return legacy_latency_point(load=0.8, frame_size=512, seed=seed)

        row, __ = _assert_equivalent(workload, monkeypatch)
        assert row.packets > 0

    @pytest.mark.parametrize("switch_seed", [1, 2, 3])
    def test_rfc2544_search(self, switch_seed, monkeypatch):
        def workload():
            return rfc2544_point(
                frame_size=128, duration_ps=ms(1),
                resolution=0.05, switch_seed=switch_seed,
            )

        result = _assert_equivalent(workload, monkeypatch)
        assert result.throughput_load > 0


# -- the escape hatch ---------------------------------------------------


class TestEscapeHatch:
    def _generator(self, **kwargs):
        sim = Simulator()
        tester = OSNT(sim)
        return PortGenerator(sim, tester.port(0), TimestampUnit(sim), **kwargs)

    def test_env_variable_selects_impl(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATAPATH", "packet")
        assert self._generator().datapath_impl == "packet"
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        assert self._generator().datapath_impl == "burst"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        assert self._generator(datapath="packet").datapath_impl == "packet"

    def test_default_is_burst(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATAPATH", raising=False)
        assert self._generator().datapath_impl == "burst"

    def test_unknown_impl_rejected(self):
        with pytest.raises(ConfigError):
            self._generator(datapath="simd")


# -- waveform recording equivalence -------------------------------------


class TestWaveformEquivalence:
    """An armed WaveformRecorder makes every burst lane fall back, like
    spans, capture and faults: the per-packet probes are the one
    producer of waveforms. Each lane case checks that its lane fell back
    and that both datapaths record the same points, decimation envelopes
    and digest; recording must not perturb the run itself."""

    def _loopback_with_waves(self, configure, keep_every=1, capacity=1 << 14):
        sim = Simulator()
        recorder = WaveformRecorder(capacity=capacity, keep_every=keep_every)
        recorder.arm(sim)
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        configure(sim, tester)
        sim.run()
        return (
            _osnt_state(sim, tester),
            recorder.to_dict(),
            recorder.digest(),
        )

    @pytest.mark.parametrize("keep_every", [1, 4])
    def test_line_rate_bulk_lane(self, keep_every, monkeypatch, audits):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(64))
                generator.at_line_rate().for_duration(us(500))
                generator.start()

            return self._loopback_with_waves(configure, keep_every=keep_every)

        state, series, digest = _assert_equivalent(workload, monkeypatch)
        assert audits == [False]
        assert len(digest) == 64
        fifo = series["series"]["osnt.p0.tx.fifo_bytes"]
        assert fifo["points"]

    @pytest.mark.parametrize("keep_every", [1, 4])
    def test_burst_train_lane(self, keep_every, monkeypatch, audits):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(256))
                generator.burst_train(8, "2us").for_duration(us(400))
                generator.start()

            return self._loopback_with_waves(configure, keep_every=keep_every)

        _assert_equivalent(workload, monkeypatch)
        assert audits == [False]

    @pytest.mark.parametrize("mean_gap", ["2us", "50ns"])
    def test_poisson_serial_lane(self, mean_gap, monkeypatch, audits):
        """Random gaps would take the serial lane; hot 50ns gaps also
        fill the TX FIFO."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(128))
                generator.poisson(mean_gap).for_duration(us(200))
                generator.start()

            return self._loopback_with_waves(configure)

        _assert_equivalent(workload, monkeypatch)
        assert audits == [False]

    def test_small_capacity_eviction(self, monkeypatch, audits):
        """Ring eviction lands on the same retained window on both
        datapaths."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(64))
                generator.at_line_rate().for_duration(us(300))
                generator.start()

            return self._loopback_with_waves(configure, capacity=61, keep_every=3)

        _assert_equivalent(workload, monkeypatch)
        assert audits == [False]

    def test_fifo_waveform_peak_matches_hardware_counter(self, monkeypatch, audits):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(512))
                generator.burst_train(16, "5us").for_duration(us(400))
                generator.start()

            return self._loopback_with_waves(configure)

        state, series, __ = _assert_equivalent(workload, monkeypatch)
        assert audits == [False]
        fifo_points = series["series"]["osnt.p0.tx.fifo_bytes"]["points"]
        assert max(v for __t, v in fifo_points) == state["p0.fifo"][3]

    @pytest.mark.parametrize("impl", IMPLS)
    def test_recording_does_not_perturb(self, impl, monkeypatch):
        """Counters with the recorder armed == counters without, on the
        same datapath — waveforms are pure observation."""

        def configure(sim, tester):
            generator = tester.generator(0)
            generator.load_template(udp_template(256))
            generator.set_load(0.7).for_duration(us(300))
            generator.start()

        def bare():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            configure(sim, tester)
            sim.run()
            return _osnt_state(sim, tester)

        def observed():
            return self._loopback_with_waves(configure)[0]

        assert _run(impl, bare, monkeypatch) == _run(impl, observed, monkeypatch)

    def test_digest_stable_across_runs(self, monkeypatch):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(128))
                generator.set_load(0.5).for_duration(us(250))
                generator.start()

            return self._loopback_with_waves(configure, keep_every=2)[2]

        first = _run("burst", workload, monkeypatch)
        second = _run("burst", workload, monkeypatch)
        assert first == second
