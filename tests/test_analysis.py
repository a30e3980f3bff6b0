"""Tests for statistics, latency extraction and report formatting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    SummaryStats,
    format_table,
    gap_jitter_std,
    latency_from_capture,
    loss_from_sequence_numbers,
    percentile,
    rfc3550_jitter,
)
from repro.errors import ConfigError, ReproError
from repro.hw.timestamp import ps_to_raw
from repro.net import Packet, build_udp
from repro.osnt.generator import SequenceNumber, embed_raw


class TestSummaryStats:
    def test_basic(self):
        summary = SummaryStats.of([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.p50 == 3

    def test_std(self):
        summary = SummaryStats.of([2, 4, 4, 4, 5, 5, 7, 9])
        assert summary.std == pytest.approx(2.0)

    def test_empty_returns_none(self):
        assert SummaryStats.of([]) is None
        assert SummaryStats.of(()) is None

    def test_single_sample(self):
        summary = SummaryStats.of([42])
        assert summary.p99 == 42
        assert summary.std == 0
        assert summary.minimum == summary.maximum == summary.p50 == 42
        assert summary.count == 1

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
    def test_bounds_invariant(self, samples):
        summary = SummaryStats.of(samples)
        assert summary.minimum <= summary.p50 <= summary.p99 <= summary.maximum
        # The mean may exceed the bounds by float summation rounding only.
        ulp = 1e-6 * max(1.0, abs(summary.minimum), abs(summary.maximum))
        assert summary.minimum - ulp <= summary.mean <= summary.maximum + ulp


class TestPercentile:
    def test_interpolation(self):
        assert percentile([10, 20], 50) == 15
        assert percentile([0, 100], 25) == 25

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100

    def test_empty_returns_none(self):
        assert percentile([], 50) is None
        assert percentile([], 0) is None

    def test_single_sample_every_percentile(self):
        assert percentile([7], 0) == 7
        assert percentile([7], 50) == 7
        assert percentile([7], 100) == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            percentile([1], 101)
        with pytest.raises(ConfigError):
            percentile([], -1)  # range check wins even on empty input

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_within_range(self, samples, pct):
        value = percentile(samples, pct)
        assert min(samples) <= value <= max(samples)


class TestJitter:
    def test_constant_transit_is_zero_jitter(self):
        assert rfc3550_jitter([100] * 50) == 0

    def test_alternating_transit(self):
        # |D| is always 10; J converges towards 10.
        transits = [100, 110] * 200
        assert rfc3550_jitter(transits) == pytest.approx(10, rel=0.05)

    def test_gap_jitter_of_perfect_pacing(self):
        assert gap_jitter_std(list(range(0, 1000, 100))) == 0

    def test_gap_jitter_positive_for_noise(self):
        assert gap_jitter_std([0, 100, 180, 310, 390]) > 0

    def test_gap_jitter_too_few(self):
        assert gap_jitter_std([1, 2]) == 0.0


def stamped_packet(tx_ps, rx_ps, frame_size=128, offset=42):
    packet = build_udp(frame_size=frame_size)
    packet.data = embed_raw(packet.data, offset, ps_to_raw(tx_ps))
    packet.rx_timestamp = rx_ps
    return packet


class TestLatencyExtraction:
    def test_latency_samples(self):
        packets = [stamped_packet(1_000_000 * i, 1_000_000 * i + 2_000_000) for i in range(1, 6)]
        result = latency_from_capture(packets)
        assert result.skipped == 0
        assert len(result.samples) == 5
        # ps_to_raw floors by <= 1 LSB; latency is 2 µs within ~234 ps.
        for sample in result.samples:
            assert 2_000_000 <= sample <= 2_000_300

    def test_skips_unstamped(self):
        packet = build_udp(frame_size=128)
        packet.rx_timestamp = 500
        result = latency_from_capture([packet])
        assert result.skipped == 1
        assert not result.samples

    def test_skips_cut_before_stamp(self):
        packet = stamped_packet(10**9, 2 * 10**9)
        packet.capture_length = 40  # cut mid-stamp
        result = latency_from_capture([packet])
        assert result.skipped == 1

    def test_skips_missing_rx_timestamp(self):
        packet = stamped_packet(10**9, 0)
        packet.rx_timestamp = None
        assert latency_from_capture([packet]).skipped == 1


class TestLossAnalysis:
    def seq_packets(self, sequence_numbers, offset=50):
        writer = SequenceNumber(offset)
        template = build_udp(frame_size=128)
        return [Packet(writer.apply(template.data, n)) for n in sequence_numbers]

    def test_no_loss(self):
        result = loss_from_sequence_numbers(self.seq_packets(range(10)), offset=50)
        assert result.lost == 0
        assert result.received == 10
        assert result.loss_fraction == 0

    def test_gap_detected(self):
        result = loss_from_sequence_numbers(self.seq_packets([0, 1, 3, 4]), offset=50)
        assert result.lost == 1
        assert result.loss_fraction == pytest.approx(1 / 5)

    def test_trailing_loss_with_expected_count(self):
        result = loss_from_sequence_numbers(
            self.seq_packets([0, 1, 2]), offset=50, expected_count=10
        )
        assert result.lost == 7

    def test_reorder_and_duplicate(self):
        result = loss_from_sequence_numbers(self.seq_packets([0, 2, 1, 2]), offset=50)
        assert result.reordered == 1
        assert result.duplicates == 1
        assert result.lost == 0

    def test_cut_before_sequence_number_is_an_error(self):
        """The host holds only the cut: a sequence number past it was
        never captured, so reading one is an error, not a sample."""
        packets = self.seq_packets(range(3))
        packets[1].capture_length = 52  # cut mid-sequence-number
        with pytest.raises(ReproError, match="beyond 52-byte capture"):
            loss_from_sequence_numbers(packets, offset=50)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 22222.0]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_numbers_right_aligned(self):
        text = format_table(["v"], [[1.0], [100000.0]])
        rows = text.splitlines()[2:]
        assert rows[0].endswith("1.000")
        assert rows[1].endswith("100,000.0")


class TestFlowAccounting:
    def flow_packets(self, flows=3, per_flow=4):
        from repro.analysis import FlowAccounting  # noqa: F401 - import check

        packets = []
        stamp = 0
        for flow in range(flows):
            for index in range(per_flow):
                packet = build_udp(
                    frame_size=100 + flow * 100,
                    dst_port=6000 + flow,
                )
                packet.rx_timestamp = stamp
                stamp += 1_000_000  # 1 µs apart
                packets.append(packet)
        return packets

    def test_aggregation_counts(self):
        from repro.analysis import flows_from_capture

        accounting = flows_from_capture(self.flow_packets(flows=3, per_flow=4))
        assert len(accounting) == 3
        assert accounting.total_packets() == 12
        for record in accounting.flows.values():
            assert record.packets == 4

    def test_top_talkers_order(self):
        from repro.analysis import flows_from_capture

        accounting = flows_from_capture(self.flow_packets(flows=3))
        talkers = accounting.top_talkers(2)
        assert len(talkers) == 2
        assert talkers[0].bytes >= talkers[1].bytes
        assert talkers[0].key.dst_port == 6002  # the 300-byte flow

    def test_duration_and_rate(self):
        from repro.analysis import flows_from_capture

        packets = self.flow_packets(flows=1, per_flow=5)
        record = next(iter(flows_from_capture(packets).flows.values()))
        assert record.duration_ps == 4_000_000
        assert record.mean_bps == pytest.approx(100 * 8 * 5 / 4e-6, rel=1e-6)

    def test_non_ip_counted_separately(self):
        from repro.analysis import FlowAccounting
        from repro.net import build_arp_request

        accounting = FlowAccounting()
        accounting.add(build_arp_request())
        assert len(accounting) == 0
        assert accounting.non_ip_packets == 1

    def test_bidirectional_folding(self):
        from repro.analysis import FlowAccounting

        forward = build_udp(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=100, dst_port=200, frame_size=100)
        reverse = build_udp(src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=200, dst_port=100, frame_size=100)
        one_way = FlowAccounting(bidirectional=False)
        one_way.add(forward)
        one_way.add(reverse)
        assert len(one_way) == 2
        folded = FlowAccounting(bidirectional=True)
        folded.add(forward)
        folded.add(reverse)
        assert len(folded) == 1
        assert folded.total_packets() == 2

    def test_table_rows_shape(self):
        from repro.analysis import flows_from_capture

        rows = flows_from_capture(self.flow_packets()).table_rows(5)
        assert all(len(row) == 5 for row in rows)


class TestMergeCaptures:
    def test_merge_orders_by_rx_timestamp(self):
        from repro.analysis import merge_captures

        def stamped(ts):
            packet = build_udp(frame_size=100)
            packet.rx_timestamp = ts
            return packet

        first = [stamped(10), stamped(30)]
        second = [stamped(20), stamped(40)]
        merged = merge_captures(first, second)
        assert [p.rx_timestamp for p in merged] == [10, 20, 30, 40]

    def test_unstamped_sort_last(self):
        from repro.analysis import merge_captures

        plain = build_udp(frame_size=100)
        stamped = build_udp(frame_size=100)
        stamped.rx_timestamp = 5
        merged = merge_captures([plain], [stamped])
        assert merged[0] is stamped
        assert merged[1] is plain

    def test_custom_key(self):
        from repro.analysis import merge_captures

        packets = [build_udp(frame_size=s) for s in (300, 100, 200)]
        merged = merge_captures(packets, key=lambda p: len(p.data))
        assert [len(p.data) for p in merged] == [96, 196, 296]
