"""Tests for the repro.telemetry subsystem.

Covers the four pillars: log-linear histograms (bucket geometry, merge,
percentile error bound), the trace ring buffer (overflow) and Chrome
JSON round-trip, the metrics registry (snapshot determinism across two
identical sim runs), and the export/CLI surface.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.hw import connect
from repro.net import build_udp
from repro.osnt import OSNT, render_status
from repro.osnt.cli import telemetry_main
from repro.sim import Simulator
from repro.telemetry import (
    Counter,
    Gauge,
    LogLinearHistogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    flatten_snapshot,
    snapshot_to_csv,
    snapshot_to_json,
    write_chrome_trace,
)
from repro.units import ms


class TestLogLinearHistogram:
    def test_linear_region_is_exact(self):
        h = LogLinearHistogram(subbucket_bits=5)
        for value in [0, 1, 17, 63]:
            h.record(value)
        rows = {low: count for low, high, count in h.bucket_rows()}
        assert rows == {0: 1, 1: 1, 17: 1, 63: 1}
        # width-1 buckets: every bound pair is (v, v+1)
        assert all(high == low + 1 for low, high, _ in h.bucket_rows())

    def test_bucket_boundaries_at_powers_of_two(self):
        h = LogLinearHistogram(subbucket_bits=2)  # base 4, exact below 8
        # First log bucket starts at 2*base = 8 with width 2.
        for value in (8, 9):
            h.record(value)
        h.record(10)
        rows = h.bucket_rows()
        assert rows[0] == (8, 10, 2)
        assert rows[1] == (10, 12, 1)

    def test_bounds_cover_value(self):
        h = LogLinearHistogram(subbucket_bits=5)
        for value in [1, 2, 3, 31, 32, 33, 63, 64, 65, 1023, 1024, 10**6, 2**40, 2**63]:
            index = h._index_of(value)
            low, high = h.bucket_bounds(index)
            assert low <= value < high, (value, low, high)

    def test_indices_are_monotone(self):
        h = LogLinearHistogram(subbucket_bits=4)
        values = list(range(0, 5000)) + [2**k for k in range(13, 60)]
        indices = [h._index_of(v) for v in values]
        assert indices == sorted(indices)

    def test_percentile_error_bound(self):
        h = LogLinearHistogram(subbucket_bits=5)
        values = [int(1.01**k * 1000) for k in range(600)]
        h.record_many(values)
        exact = sorted(values)
        for pct in (50, 90, 99, 99.9):
            estimate = h.percentile(pct)
            true = exact[min(len(exact) - 1, int(pct / 100 * len(exact)))]
            assert estimate == pytest.approx(true, rel=2**-5 + 0.02)

    def test_min_max_sum_exact(self):
        h = LogLinearHistogram()
        h.record_many([5, 1000, 123456, 3])
        assert h.minimum == 3
        assert h.maximum == 123456
        assert h.total == 5 + 1000 + 123456 + 3
        assert h.mean == h.total / 4

    def test_negative_rejected(self):
        h = LogLinearHistogram()
        h.record(-1)
        assert h.count == 0
        assert h.rejected == 1

    def test_empty_summary_is_degenerate(self):
        summary = LogLinearHistogram().summary()
        assert summary.count == 0
        assert summary.minimum is None
        assert summary.p50 is None
        assert summary.p999 is None

    def test_merge_equals_combined(self):
        a, b, combined = (LogLinearHistogram() for _ in range(3))
        first = [1, 5, 900, 2**20, 7]
        second = [2, 5, 10**6]
        a.record_many(first)
        b.record_many(second)
        combined.record_many(first + second)
        a.merge(b)
        assert a.count == combined.count
        assert a.total == combined.total
        assert a.minimum == combined.minimum
        assert a.maximum == combined.maximum
        assert a.bucket_rows() == combined.bucket_rows()
        assert a.percentile(50) == combined.percentile(50)

    def test_merge_mismatched_resolution_rejected(self):
        with pytest.raises(ConfigError):
            LogLinearHistogram(subbucket_bits=5).merge(LogLinearHistogram(subbucket_bits=6))

    def test_dict_round_trip(self):
        h = LogLinearHistogram(unit="ps")
        h.record_many([3, 3, 70000, 2**33])
        h.record(-4)
        clone = LogLinearHistogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert clone.bucket_rows() == h.bucket_rows()
        assert clone.summary() == h.summary()
        assert clone.rejected == 1
        assert clone.unit == "ps"


class TestTraceBuffer:
    """The tracer's bounded rings."""

    def test_overflow_keeps_newest(self):
        tracer = Tracer(capacity=8)
        for index in range(20):
            tracer.instant(index, "fault", "loss.drop")
        assert len(tracer) == 8
        assert tracer.recorded == 20
        assert tracer.evicted == 12
        assert [record[0] for record in tracer.records()] == list(range(12, 20))

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            Tracer(capacity=0)

    def test_kernel_hooks_record_schedule_and_fire(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.arm(sim)
        sim.call_after(100, lambda: None)
        sim.run()
        names = [record[2] for record in tracer.records()]
        assert names == ["schedule", "fire"]
        assert tracer.recorded == 2
        assert tracer.evicted == 0

    def test_kernel_rings_are_bounded(self):
        sim = Simulator()
        tracer = Tracer(capacity=8)
        tracer.arm(sim)

        def chain(remaining):
            if remaining:
                sim.call_after(50, chain, remaining - 1)

        sim.call_after(50, chain, 19)
        sim.run()
        assert tracer.kernel_scheduled_recorded == 20
        assert tracer.kernel_fired_recorded == 20
        assert len(tracer) == 16  # 8 retained per kernel ring
        assert tracer.evicted == 24

    def test_no_tracer_records_nothing(self):
        sim = Simulator()
        sim.call_after(100, lambda: None)
        sim.run()
        assert sim.tracer is None  # and nothing to record into

    def test_chrome_json_round_trip(self, tmp_path):
        sim = Simulator()
        tracer = Tracer()
        tracer.arm(sim)

        def chain(remaining):
            if remaining:
                sim.call_after(50, chain, remaining - 1)

        sim.call_after(50, chain, 5)
        sim.run()

        document = json.loads(chrome_trace_json(tracer))
        events = document["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert set(event) >= {"name", "cat", "ph", "ts", "pid", "tid", "args"}
            assert event["ph"] == "i"
        # kernel details resolve to callback names, never repr noise
        fired = [e for e in events if e["name"] == "fire"]
        assert any("chain" in e["args"]["callback"] for e in fired)
        # timestamps are non-decreasing µs
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)

        path = tmp_path / "trace.json"
        written = write_chrome_trace(path, tracer)
        reloaded = json.loads(path.read_text())
        assert len(reloaded["traceEvents"]) == written == len(events)
        assert reloaded["otherData"]["evicted"] == 0


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry("card")
        counter = registry.counter("runs")
        counter.inc()
        counter.inc(2)
        state = {"value": 7}
        registry.gauge("depth", lambda: state["value"])
        manual = registry.gauge("mode")
        manual.set("fast")
        snapshot = registry.snapshot()
        assert snapshot == {"card.runs": 3, "card.depth": 7, "card.mode": "fast"}
        state["value"] = 9
        assert registry.snapshot()["card.depth"] == 9

    def test_re_registration_returns_existing(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(ConfigError):
            registry.gauge("a")

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigError):
            Counter("x").inc(-1)

    def test_source_gauge_rejects_set(self):
        with pytest.raises(ConfigError):
            Gauge("x", lambda: 1).set(2)

    def test_histogram_in_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("lat", unit="ps").record_many([10, 20, 30])
        snapshot = registry.snapshot()
        assert snapshot["lat"]["count"] == 3
        assert snapshot["lat"]["min"] == 10
        assert snapshot["lat"]["p50"] == 20

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        assert list(registry.snapshot()) == ["aa", "zz"]


def _run_loopback(seed=7, duration=ms(0.5)):
    sim = Simulator()
    tester = OSNT(sim, root_seed=seed)
    connect(tester.port(0), tester.port(1))
    tester.start_telemetry()
    tester.monitor(1).start_capture()
    generator = tester.generator(0)
    generator.load_template(build_udp(frame_size=256))
    generator.set_rate("3Gbps").embed_timestamps().for_duration(duration)
    generator.start()
    sim.run()  # drain the traffic
    sim.run(until=sim.now + ms(2))  # let the daemon rate ticks fire
    return tester


class TestDeviceTelemetry:
    def test_snapshot_covers_whole_card(self):
        tester = _run_loopback()
        snapshot = tester.snapshot()
        # per-port counters
        assert snapshot["osnt.p0.gen.sent"] > 0
        assert snapshot["osnt.p1.mon.rx_packets"] == snapshot["osnt.p0.gen.sent"]
        assert snapshot["osnt.dma.delivered"] > 0
        # rates (from the RateMonitor gauges, no second sampling path)
        assert snapshot["osnt.p1.rx_rate.peak_bps"] > 1e9
        assert snapshot["osnt.p1.rx_rate.mean_bps"] > 0
        assert snapshot["osnt.p1.rx_rate.busy_intervals"] >= 1
        # in-band latency percentiles
        latency = snapshot["osnt.p1.mon.latency_ps"]
        assert latency["count"] == snapshot["osnt.p0.gen.sent"]
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
        # TX size histogram fed by the generator's path
        assert snapshot["osnt.p0.gen.tx_size_bytes"]["p50"] == 256

    def test_snapshot_deterministic_across_identical_runs(self):
        first = _run_loopback(seed=3).snapshot()
        second = _run_loopback(seed=3).snapshot()
        assert first == second
        assert snapshot_to_json(first) == snapshot_to_json(second)

    def test_latency_disabled_by_default(self):
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        generator = tester.generator(0)
        generator.load_template(build_udp(frame_size=128), count=10)
        generator.embed_timestamps()
        generator.start()
        sim.run()
        assert tester.monitor(1).latency_histogram.count == 0

    def test_unstamped_frames_counted_as_skipped(self):
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        tester.device.monitors[1].enable_latency()
        generator = tester.generator(0)
        generator.load_template(build_udp(frame_size=128), count=5)  # no stamps
        generator.start()
        sim.run()
        pipeline = tester.device.monitors[1]
        assert pipeline.latency.count + pipeline.latency_skipped == 5
        # payload garbage must never produce a bogus multi-second sample
        if pipeline.latency.count:
            assert pipeline.latency.maximum <= 10**13

    def test_negative_offset_bins_nothing(self):
        """An offset before the frame's start holds no stamp: every frame
        is skipped, none binned from bytes read off the frame's tail."""
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        tester.device.monitors[1].enable_latency(offset=-20)
        generator = tester.generator(0)
        generator.load_template(build_udp(frame_size=128), count=5)
        generator.embed_timestamps()
        generator.start()
        sim.run()
        pipeline = tester.device.monitors[1]
        assert (pipeline.latency.count, pipeline.latency_skipped) == (0, 5)

    def test_dashboard_shows_percentiles(self):
        tester = _run_loopback()
        panel = render_status(tester)
        assert "p50 µs" in panel and "p99 µs" in panel
        # port 1 received stamped traffic: a numeric percentile renders
        port_row = [line for line in panel.splitlines() if line.startswith("p1")][0]
        assert "-" not in port_row.split("|")[0] or "." in port_row


class TestExport:
    def test_flatten_and_csv(self):
        snapshot = {"a": 1, "lat": {"count": 2, "p50": 5.0, "max": None}}
        flat = flatten_snapshot(snapshot)
        assert flat == {"a": 1, "lat.count": 2, "lat.p50": 5.0, "lat.max": None}
        csv_text = snapshot_to_csv(snapshot)
        lines = csv_text.splitlines()
        assert lines[0] == "metric,value"
        assert "lat.max," in csv_text  # None renders empty, row still present
        assert len(lines) == 1 + len(flat)

    def test_chrome_trace_reports_eviction(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            tracer.instant(index, "packet", "tx", {"bytes": 64})
        document = chrome_trace(tracer)
        assert len(document["traceEvents"]) == 4
        assert document["otherData"]["recorded"] == 10
        assert document["otherData"]["evicted"] == 6


class TestTelemetryCli:
    def test_json_snapshot_to_stdout(self, capsys):
        assert telemetry_main(["--duration-ms", "0.1"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["osnt.p0.gen.sent"] > 0
        assert snapshot["osnt.p1.mon.latency_ps"]["count"] > 0

    def test_files_written(self, tmp_path, capsys):
        json_path = tmp_path / "snap.json"
        csv_path = tmp_path / "snap.csv"
        trace_path = tmp_path / "trace.json"
        assert (
            telemetry_main(
                [
                    "--duration-ms", "0.1",
                    "--json", str(json_path),
                    "--csv", str(csv_path),
                    "--trace", str(trace_path),
                    "--histograms",
                ]
            )
            == 0
        )
        snapshot = json.loads(json_path.read_text())
        assert "histograms" in snapshot
        assert any(name.endswith("latency_ps") for name in snapshot["histograms"])
        assert csv_path.read_text().startswith("metric,value")
        trace = json.loads(trace_path.read_text())
        assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
        events = trace["traceEvents"]
        assert any(event["cat"] == "span" for event in events)
        hops = {event["name"] for event in events if event["cat"] == "span.hop"}
        assert hops >= {"mac_tx", "mac_rx", "rx_capture", "host"}
        assert trace["otherData"]["spans"]["started"] > 0


class TestOflopsTelemetry:
    def test_context_registers_control_gauges(self):
        from repro.oflops.context import OflopsContext

        ctx = OflopsContext()
        snapshot = ctx.metrics.snapshot()
        assert "oflops.control.received" in snapshot
        assert "oflops.control.sent" in snapshot

    def test_module_run_records_duration_histogram(self):
        from repro.oflops.module import ModuleRunner
        from repro.oflops.modules.echo_latency import EchoLatencyModule

        runner = ModuleRunner()
        Tracer().arm(runner.ctx.sim)
        runner.run(EchoLatencyModule(count=3))
        snapshot = runner.ctx.metrics.snapshot()
        assert snapshot["oflops.module.runs"] == 1
        assert snapshot["oflops.module.duration_ps"]["count"] == 1
        names = {record[2] for record in runner.ctx.sim.tracer.records()}
        assert {"setup", "start", "finish"} <= names
