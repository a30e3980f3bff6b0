"""Tests for repro.telemetry.timeseries — the sim-time waveform recorder.

Covers the Waveform/RateWaveform primitives (state-change suppression,
min/max/last decimation envelopes, bounded eviction, closed-form run
recording vs the per-sample loop), the WaveformRecorder exports (CSV,
JSONL, Chrome counter tracks, OpenMetrics gauges, SHA-256 digests), the
arming protocol (``arm``/``disarm`` and ``observe_simulators``), the
incast acceptance path (egress-queue waveform peak == the scenario's
hardware queue-peak counter), sweep-wide digest folding, and the
interaction between decimated waveform export and HistogramBank
``(overflow)`` folding.
"""

import json
import random

import pytest

from repro.errors import ConfigError
from repro.obs import observe_simulators
from repro.telemetry import (
    DEFAULT_UTIL_WINDOW_PS,
    HistogramBank,
    RateWaveform,
    Waveform,
    WaveformRecorder,
    chrome_trace,
    parse_openmetrics,
    snapshot_to_openmetrics,
)
from repro.testbed.attacks import incast_burst_point
from repro.units import ms, us


def replay(points, capacity=1 << 14, keep_every=1):
    """A Waveform fed one record() per sample — the reference path."""
    wf = Waveform("ref", capacity=capacity, keep_every=keep_every)
    for t, v in points:
        wf.record(t, v)
    return wf


class TestWaveform:
    def test_records_on_state_change_only(self):
        wf = Waveform("q")
        wf.record(10, 0)
        wf.record(20, 0)  # suppressed
        wf.record(30, 5)
        wf.record(30, 5)  # suppressed
        wf.record(40, 0)
        assert wf.points() == [(10, 0), (30, 5), (40, 0)]
        assert wf.recorded == 5
        assert wf.committed == 3

    def test_same_timestamp_transient_kept(self):
        # The push-then-pop sawtooth at one instant must survive: the
        # transient peak is exactly what queue forensics looks for.
        wf = Waveform("q")
        wf.record(100, 512)
        wf.record(100, 0)
        assert wf.points() == [(100, 512), (100, 0)]

    def test_last_and_evicted(self):
        wf = Waveform("q", capacity=4)
        for i in range(10):
            wf.record(i, i)
        assert wf.last == 9
        assert len(wf.points()) == 4
        assert wf.evicted == 6
        assert wf.points() == [(6, 6), (7, 7), (8, 8), (9, 9)]

    def test_decimation_envelope_keeps_burst_peak(self):
        # 8 committed points, keep_every=8: the bucket must surface the
        # min and the max even though only ~3 points survive.
        wf = Waveform("q", keep_every=8)
        values = [5, 3, 9, 1, 7, 2, 8, 4]
        for i, v in enumerate(values):
            wf.record(i * 10, v)
        pts = wf.points()
        kept = [v for __, v in pts]
        assert 1 in kept  # bucket min
        assert 9 in kept  # bucket max
        assert pts[-1] == (70, 4)  # bucket last
        assert len(pts) <= 3

    def test_decimation_open_bucket_visible(self):
        wf = Waveform("q", keep_every=4)
        wf.record(0, 1)
        wf.record(10, 2)
        # Open (unclosed) bucket still exports its envelope.
        assert wf.points() == [(0, 1), (10, 2)]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            Waveform("q", capacity=0)
        with pytest.raises(ConfigError):
            Waveform("q", keep_every=0)

    def test_record_run_matches_loop(self):
        rng = random.Random(7)
        for __ in range(200):
            cap = rng.choice([4, 16, 1 << 14])
            k = rng.choice([1, 2, 3, 5])
            n = rng.randint(1, 40)
            t0 = rng.randint(0, 10**9)
            stride = rng.randint(1, 10**6)
            v0 = rng.randint(0, 100)
            dv = rng.choice([-3, -1, 0, 1, 2, 64])
            pre = [(t0 - 5, rng.randint(0, 100))] if rng.random() < 0.5 else []
            a = replay(pre, capacity=cap, keep_every=k)
            b = replay(pre, capacity=cap, keep_every=k)
            a.record_run(t0, n, stride, v0, dv)
            for i in range(n):
                b.record(t0 + i * stride, v0 + i * dv)
            assert a.points() == b.points(), (cap, k, n, t0, stride, v0, dv)
            assert a.recorded == b.recorded
            assert a.committed == b.committed
            assert a.last == b.last

    def test_record_toggle_run_matches_loop(self):
        rng = random.Random(11)
        for __ in range(200):
            cap = rng.choice([3, 8, 1 << 14])
            k = rng.choice([1, 2, 4, 7])
            n = rng.randint(1, 40)
            t0 = rng.randint(0, 10**9)
            stride = rng.randint(1, 10**6)
            hi, lo = rng.randint(1, 2000), 0
            pre = [(t0 - 5, rng.choice([0, hi]))] if rng.random() < 0.5 else []
            a = replay(pre, capacity=cap, keep_every=k)
            b = replay(pre, capacity=cap, keep_every=k)
            a.record_toggle_run(t0, n, stride, hi, lo)
            for i in range(n):
                b.record(t0 + i * stride, hi)
                b.record(t0 + i * stride, lo)
            assert a.points() == b.points(), (cap, k, n, t0, stride, hi)
            assert a.recorded == b.recorded
            assert a.last == b.last
        # The wire-rate shape at length: 10k toggles, every 4th point kept.
        a, b = Waveform("a", keep_every=4), Waveform("b", keep_every=4)
        a.record_toggle_run(0, 10_000, 100, 512, 0)
        for i in range(10_000):
            b.record(i * 100, 512)
            b.record(i * 100, 0)
        assert a.points() == b.points()

    def test_toggle_run_rejects_equal_levels(self):
        with pytest.raises(ConfigError):
            Waveform("q").record_toggle_run(0, 3, 10, 5, 5)

    def test_to_dict_schema(self):
        wf = Waveform("q", unit="bytes")
        wf.record(5, 1)
        payload = wf.to_dict()
        assert payload["kind"] == "state"
        assert payload["unit"] == "bytes"
        assert payload["points"] == [[5, 1]]


class TestRateWaveform:
    def test_window_accumulation(self):
        wf = RateWaveform("w", window_ps=100)
        wf.record(10, 64)
        wf.record(90, 64)
        wf.record(250, 64)  # skips window 1 entirely (zero windows elided)
        assert wf.points() == [(100, 128), (300, 64)]
        assert wf.last == 64

    def test_record_run_matches_loop(self):
        rng = random.Random(3)
        for __ in range(200):
            window = rng.choice([1, 7, 100, 10_000])
            a = RateWaveform("w", window_ps=window)
            b = RateWaveform("w", window_ps=window)
            t0 = rng.randint(0, 10**6)
            n = rng.randint(1, 60)
            stride = rng.choice([0, 1, 3, 97, 12_345]) if n > 1 else 0
            delta = rng.randint(1, 1518)
            a.record_run(t0, n, stride, delta)
            for i in range(n):
                b.record(t0 + i * stride, delta)
            assert a.points() == b.points(), (window, t0, n, stride, delta)
            assert a.last == b.last

    def test_run_rejects_negative_stride(self):
        with pytest.raises(ConfigError):
            RateWaveform("w").record_run(0, 4, -10, 64)

    def test_eviction(self):
        wf = RateWaveform("w", capacity=2, window_ps=10)
        for i in range(5):
            wf.record(i * 10, 1)
        # Ring keeps 2 closed windows; points() adds the open one.
        assert wf.points() == [(30, 1), (40, 1), (50, 1)]
        assert wf.evicted == 2


class TestWaveformRecorder:
    def build(self, **kwargs):
        rec = WaveformRecorder(**kwargs)
        q = rec.series("sw.q", unit="bytes")
        q.record(0, 0)
        q.record(100, 512)
        q.record(250, 0)
        rec.rate_series("link.bytes").record(50, 64)
        return rec

    def test_series_create_or_get(self):
        rec = WaveformRecorder()
        assert rec.series("a") is rec.series("a")
        assert rec.rate_series("b") is rec.rate_series("b")
        with pytest.raises(ConfigError):
            rec.rate_series("a")  # name already bound to a state series

    def test_digest_deterministic(self):
        assert self.build().digest() == self.build().digest()
        other = self.build()
        other.series("sw.q").record(300, 9)
        assert other.digest() != self.build().digest()

    def test_csv_golden_schema(self):
        rec = self.build()
        text = rec.csv()
        lines = text.split("\r\n")
        assert lines[0] == "series,time_ps,value"
        assert lines[1] == "link.bytes,10000000,64"
        assert lines[2] == "sw.q,0,0"
        assert lines[3] == "sw.q,100,512"
        assert lines[4] == "sw.q,250,0"
        assert lines[5] == ""

    def test_jsonl_golden_schema(self):
        rec = self.build()
        rows = [json.loads(line) for line in rec.jsonl().splitlines()]
        assert rows[0] == {
            "series": "link.bytes",
            "t_ps": DEFAULT_UTIL_WINDOW_PS,
            "value": 64,
        }
        assert rows[1] == {"series": "sw.q", "t_ps": 0, "value": 0}
        assert all(set(r) == {"series", "t_ps", "value"} for r in rows)

    def test_write_csv_jsonl_roundtrip(self, tmp_path):
        rec = self.build()
        n_csv = rec.write_csv(tmp_path / "t.csv")
        n_jsonl = rec.write_jsonl(tmp_path / "t.jsonl")
        assert n_csv == n_jsonl == 4
        # read_bytes: read_text()'s universal newlines would fold the CRLF.
        assert (tmp_path / "t.csv").read_bytes().decode() == rec.csv()
        assert (tmp_path / "t.jsonl").read_bytes().decode() == rec.jsonl()

    def test_chrome_events_shape(self):
        events = self.build().chrome_events()
        assert all(e["ph"] == "C" for e in events)
        assert all(e["cat"] == "waveform" for e in events)
        peak = [e for e in events if e["args"]["value"] == 512]
        assert peak and peak[0]["name"] == "sw.q"
        assert peak[0]["ts"] == pytest.approx(100 / 1e6)

    def test_chrome_trace_merges_waveforms(self):
        document = chrome_trace(None, waves=self.build())
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 4
        assert document["otherData"]["waveforms"]["series"] == 2

    def test_gauges_and_openmetrics_roundtrip(self):
        rec = self.build()
        gauges = rec.gauges()
        assert gauges["wave.sw.q.last"] == 0
        assert gauges["wave.link.bytes.last"] == 64
        families = parse_openmetrics(snapshot_to_openmetrics(gauges, prefix="t"))
        assert families["t_wave_sw_q_last"]["type"] == "gauge"

    def test_register_metrics_pull_gauges(self):
        from repro.telemetry import MetricsRegistry

        rec = self.build()
        registry = MetricsRegistry("t")
        rec.register_metrics(registry)
        snap = registry.snapshot()
        assert snap["t.wave.sw.q.last"] == 0
        rec.series("sw.q").record(400, 7)
        assert registry.snapshot()["t.wave.sw.q.last"] == 7

    def test_summary_counts(self):
        summary = self.build().summary()
        assert summary["series"]["sw.q"] == {
            "points": 3,
            "recorded": 3,
            "evicted": 0,
            "min": 0,
            "max": 512,
            "last": 0,
        }
        assert len(summary["digest"]) == 64

    def test_invalid_config(self):
        for bad in (
            dict(capacity=0),
            dict(keep_every=0),
            dict(window_ps=0),
        ):
            with pytest.raises(ConfigError):
                WaveformRecorder(**bad)


class TestArming:
    def test_observe_simulators_arms_and_disarms(self):
        from repro.sim import Simulator

        rec = WaveformRecorder()
        with observe_simulators(waves=rec):
            sim = Simulator()
            assert sim.waves is rec
            assert rec.armed
        assert sim.waves is None
        assert not rec.armed

    def test_oflops_context_sim_arms(self):
        from repro.oflops import OflopsContext

        ctx = OflopsContext()
        rec = WaveformRecorder()
        rec.arm(ctx.sim)
        assert ctx.sim.waves is rec

    def test_rearm_moves_recorder(self):
        from repro.sim import Simulator

        rec = WaveformRecorder()
        a, b = Simulator(), Simulator()
        rec.arm(a)
        rec.arm(b)
        assert a.waves is None
        assert b.waves is rec


class TestIncastAcceptance:
    """The ISSUE acceptance bar: the egress-queue counter track must
    show the same queue peak the scenario's hardware counters report."""

    def run_incast(self, **kwargs):
        rec = WaveformRecorder()
        with observe_simulators(waves=rec):
            row, extras = incast_burst_point(duration_ps=int(ms(1)), **kwargs)
        return rec, row, extras

    def test_egress_waveform_peak_matches_queue_counter(self):
        rec, row, __ = self.run_incast()
        egress = rec.get("sw.p1.tx.fifo_bytes")
        assert egress is not None
        peak = max(v for __, v in egress.points())
        assert row.queue_peak_bytes > 0
        assert peak == row.queue_peak_bytes

    def test_chrome_counter_track_carries_the_peak(self):
        rec, row, __ = self.run_incast()
        document = chrome_trace(None, waves=rec)
        values = [
            e["args"]["value"]
            for e in document["traceEvents"]
            if e["name"] == "sw.p1.tx.fifo_bytes"
        ]
        assert max(values) == row.queue_peak_bytes

    def test_csv_exports_same_series(self):
        rec, row, __ = self.run_incast()
        rows = [
            line.split(",")
            for line in rec.csv().split("\r\n")[1:]
            if line.startswith("sw.p1.tx.fifo_bytes,")
        ]
        egress = rec.get("sw.p1.tx.fifo_bytes").points()
        assert [(int(t), int(v)) for __, t, v in rows] == egress

    def test_waveforms_param_reports_digest_in_extras(self):
        __, row, extras = self.run_incast()
        row2, extras2 = incast_burst_point(duration_ps=int(ms(1)), waveforms=True)
        assert row2 == row  # recording must not perturb the experiment
        assert "waveform_digest" in extras2
        assert extras2["waveforms"]["sw.p1.tx.fifo_bytes"]["max"] == (
            row.queue_peak_bytes
        )

    def test_armed_recorder_does_not_perturb(self):
        bare, __ = incast_burst_point(duration_ps=int(ms(1)))
        observed, extras = incast_burst_point(
            duration_ps=int(ms(1)), waveforms=True
        )
        assert observed == bare
        assert len(extras["waveform_digest"]) == 64

    def test_fault_timeline_digest_unperturbed_by_recording(self):
        """Armed waveforms must not shift the fault injector's RNG or
        action timeline — the PR-4 digest stays byte-identical."""
        from repro.faults.scenarios import lossy_link_latency_point

        kwargs = dict(loss_rate=0.02, duration_ps=int(ms(1)), seed=3)
        bare_row, bare_extras = lossy_link_latency_point(**kwargs)
        rec = WaveformRecorder()
        with observe_simulators(waves=rec):
            obs_row, obs_extras = lossy_link_latency_point(**kwargs)
        assert obs_row == bare_row
        assert (
            obs_extras["fault_timeline_digest"]
            == bare_extras["fault_timeline_digest"]
        )
        assert len(rec) > 0  # the recorder really did sample the run


class TestSweepFold:
    def spec(self, waveforms=True):
        from repro.runner import ExperimentSpec

        return ExperimentSpec(
            name="incast-waves",
            scenario="incast_burst",
            params={"duration": "1ms", "waveforms": waveforms},
            axes={"senders": [2, 3]},
        )

    def run_sweep(self, workers, waveforms=True):
        from repro.runner import SweepRunner

        return SweepRunner(self.spec(waveforms=waveforms), workers=workers).run()

    def test_fold_is_worker_count_invariant(self):
        one = self.run_sweep(1)
        four = self.run_sweep(4)
        fold1 = one.merged_waveforms()
        fold4 = four.merged_waveforms()
        assert fold1["combined_digest"] is not None
        assert fold1 == fold4
        assert len(fold1["shards"]) == 2

    def test_fold_absent_without_waveforms(self):
        report = self.run_sweep(1, waveforms=False)
        assert report.merged_waveforms()["combined_digest"] is None


class TestOverflowFoldWithDecimatedExport:
    """HistogramBank ``(overflow)`` folding and decimated waveform
    export must compose: one shard's telemetry can carry both, and both
    survive a merge/serialize round-trip untouched by each other."""

    def test_bank_overflow_folds_alongside_decimated_waveforms(self):
        bank_a = HistogramBank(max_keys=2)
        bank_b = HistogramBank(max_keys=2)
        for i in range(6):
            bank_a.record(f"flow{i}", 100 * (i + 1))
            bank_b.record(f"flow{i + 4}", 50 * (i + 1))
        rec = WaveformRecorder(keep_every=4)
        wf = rec.series("sw.q", unit="bytes")
        for i in range(32):
            wf.record(i * 1000, (i * 37) % 11)
        digest_before = rec.digest()

        overflow_before = bank_a.overflowed
        bank_a.merge(bank_b)
        payload = bank_a.to_dict()
        assert HistogramBank.OVERFLOW_KEY in payload["histograms"]
        assert bank_a.overflowed > overflow_before
        restored = HistogramBank.from_dict(payload)
        assert restored.to_dict() == payload

        # The waveform side is untouched by the histogram fold, and its
        # decimated export round-trips through JSON byte-identically.
        assert rec.digest() == digest_before
        round_trip = json.loads(json.dumps(rec.to_dict()))
        assert round_trip == rec.to_dict()
        assert wf.evicted == 0
        assert max(v for __, v in wf.points()) == 10  # envelope kept the max


class TestTimelineCli:
    def test_loopback_exports(self, tmp_path, capsys):
        from repro.osnt.cli import telemetry_main, timeline_main

        csv_path = tmp_path / "t.csv"
        rc = telemetry_main(
            [
                "timeline",
                "--duration-ms",
                "0.2",
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "waveform digest:" in out
        lines = csv_path.read_bytes().decode().split("\r\n")
        assert lines[0] == "series,time_ps,value"
        assert any(line.startswith("osnt.p0.tx.fifo_bytes,") for line in lines)

    def test_digest_only_deterministic(self, capsys):
        from repro.osnt.cli import timeline_main

        args = ["--scenario", "incast", "--duration-ms", "0.5", "--digest-only"]
        assert timeline_main(args) == 0
        first = capsys.readouterr().out.strip()
        assert timeline_main(args) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first) == 64


class TestDashboardP999:
    def test_status_panel_has_p999_column(self):
        from repro.hw import connect
        from repro.net import build_udp
        from repro.osnt import OSNT, render_status
        from repro.sim import Simulator

        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        tester.monitor(1)
        generator = tester.generator(0)
        generator.load_template(build_udp(frame_size=128), count=200)
        generator.embed_timestamps()
        generator.start()
        sim.run()
        panel = render_status(tester)
        assert "p999 µs" in panel

    def test_openmetrics_summary_has_0999_quantile(self):
        from repro.telemetry import LogLinearHistogram

        h = LogLinearHistogram()
        for value in range(1, 2001):
            h.record(value)
        text = snapshot_to_openmetrics({"lat": h.summary().as_dict()}, prefix="t")
        assert 'quantile="0.999"' in text
        families = parse_openmetrics(text)
        quantiles = {
            labels["quantile"]
            for __, labels, __v in families["t_lat"]["samples"]
            if "quantile" in labels
        }
        assert "0.999" in quantiles
