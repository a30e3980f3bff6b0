"""Tests for FIFOs, MACs, links and the DMA engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, LinkError
from repro.hw import ByteFifo, DmaEngine, EthernetPort, connect
from repro.net import Packet, build_udp
from repro.sim import Simulator
from repro.units import GBPS, TEN_GBPS, frame_wire_bytes, ns, us, wire_time_ps


class TestByteFifo:
    def test_fifo_order(self):
        fifo = ByteFifo(10_000)
        first, second = Packet(b"\x00" * 60), Packet(b"\x01" * 60)
        fifo.push(first)
        fifo.push(second)
        assert fifo.pop() is first
        assert fifo.pop() is second
        assert fifo.pop() is None

    def test_overflow_tail_drops(self):
        fifo = ByteFifo(150)  # fits two 64-byte frames, not three
        packets = [Packet(b"\x00" * 60) for __ in range(3)]
        results = [fifo.push(p) for p in packets]
        assert results == [True, True, False]
        assert fifo.dropped == 1
        assert fifo.enqueued == 2

    def test_occupancy_tracks_frame_bytes(self):
        fifo = ByteFifo(10_000)
        fifo.push(Packet(b"\x00" * 96))  # frame_length = 100
        assert fifo.occupancy_bytes == 100
        fifo.pop()
        assert fifo.occupancy_bytes == 0

    def test_peak_occupancy(self):
        fifo = ByteFifo(10_000)
        for __ in range(3):
            fifo.push(Packet(b"\x00" * 60))
        fifo.pop()
        assert fifo.peak_occupancy_bytes == 192

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            ByteFifo(0)

    def test_clear(self):
        fifo = ByteFifo(1000)
        fifo.push(Packet(b"\x00" * 60))
        fifo.clear()
        assert fifo.is_empty
        assert fifo.occupancy_bytes == 0

    @given(st.lists(st.integers(min_value=60, max_value=1514), max_size=30))
    def test_occupancy_never_exceeds_capacity(self, sizes):
        fifo = ByteFifo(4096)
        for size in sizes:
            fifo.push(Packet(b"\x00" * size))
            assert fifo.occupancy_bytes <= 4096


def linked_pair(sim, propagation_ps=ns(5)):
    a = EthernetPort(sim, "a")
    b = EthernetPort(sim, "b")
    connect(a, b, propagation_ps)
    return a, b


class TestLinkWiring:
    def test_double_connect_rejected(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        c = EthernetPort(sim, "c")
        with pytest.raises(LinkError):
            connect(a, c)

    def test_self_loop_rejected(self):
        sim = Simulator()
        a = EthernetPort(sim, "a")
        with pytest.raises(LinkError):
            connect(a, a)

    def test_peer_of(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        assert a.link.peer_of(a) is b
        assert b.link.peer_of(b) is a
        c = EthernetPort(sim, "c")
        with pytest.raises(LinkError):
            a.link.peer_of(c)

    def test_send_on_unconnected_port_stays_queued(self):
        sim = Simulator()
        a = EthernetPort(sim, "a")
        assert a.send(build_udp()) is True  # serialized into the void
        sim.run()


class TestMacTiming:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        a, b = linked_pair(sim, propagation_ps=ns(5))
        arrivals = []
        b.add_rx_sink(lambda p: arrivals.append(sim.now))
        a.send(build_udp(frame_size=64))
        sim.run()
        # preamble(8) + frame(64) = 72 bytes at 10G = 57.6 ns, + 5 ns.
        assert arrivals == [ns(57.6) + ns(5)]

    def test_back_to_back_frames_spaced_by_wire_slot(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        arrivals = []
        b.add_rx_sink(lambda p: arrivals.append(sim.now))
        for __ in range(3):
            a.send(build_udp(frame_size=64))
        sim.run()
        # Successive 64B frames are exactly 84 wire bytes = 67.2 ns apart.
        slot = wire_time_ps(frame_wire_bytes(64), TEN_GBPS)
        assert arrivals[1] - arrivals[0] == slot
        assert arrivals[2] - arrivals[1] == slot
        assert slot == ns(67.2)

    def test_runt_frames_padded_to_minimum_slot(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        arrivals = []
        b.add_rx_sink(lambda p: arrivals.append(sim.now))
        a.send(Packet(b"\x00" * 20))  # 24-byte frame: padded to 64
        a.send(Packet(b"\x00" * 20))
        sim.run()
        assert arrivals[1] - arrivals[0] == wire_time_ps(84, TEN_GBPS)

    def test_full_duplex_is_independent(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        a_got, b_got = [], []
        a.add_rx_sink(lambda p: a_got.append(sim.now))
        b.add_rx_sink(lambda p: b_got.append(sim.now))
        a.send(build_udp(frame_size=1518))
        b.send(build_udp(frame_size=1518))
        sim.run()
        assert a_got == b_got  # same timing each way, no contention

    def test_start_of_frame_hook_fires_at_serialization_start(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        sof_times = []
        a.tx.on_start_of_frame = lambda p: sof_times.append(sim.now)
        a.send(build_udp())
        a.send(build_udp())
        sim.run()
        assert sof_times[0] == 0
        assert sof_times[1] == wire_time_ps(frame_wire_bytes(64), TEN_GBPS)

    def test_tx_stats_and_utilisation(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        for __ in range(10):
            a.send(build_udp(frame_size=512))
        sim.run()
        assert a.tx.stats.packets == 10
        assert a.tx.stats.bytes == 5120
        assert b.rx.stats.packets == 10
        assert a.tx.stats.busy_ps == 10 * wire_time_ps(frame_wire_bytes(512), TEN_GBPS)

    def test_tx_fifo_overflow_drops(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        a.tx.fifo.capacity_bytes = 2000
        results = [a.send(build_udp(frame_size=1518)) for __ in range(3)]
        # First starts serializing immediately (leaves FIFO), next fits,
        # third overflows the 2000-byte staging FIFO.
        assert results.count(False) >= 1
        sim.run()

    def test_one_gig_port_is_ten_times_slower(self):
        sim = Simulator()
        a = EthernetPort(sim, "a", rate_bps=GBPS)
        b = EthernetPort(sim, "b", rate_bps=GBPS)
        connect(a, b, propagation_ps=0)
        arrivals = []
        b.add_rx_sink(lambda p: arrivals.append(sim.now))
        a.send(build_udp(frame_size=64))
        sim.run()
        assert arrivals == [ns(576)]

    def test_rate_assigned_after_build_retimes_later_frames(self):
        """A topology link sets ``tx.rate_bps`` on MACs that already
        exist: frames sent afterwards serialize, occupy the serializer
        and count wire bytes at the new rate, not a remembered one."""
        sim = Simulator()
        a, b = linked_pair(sim, propagation_ps=0)
        arrivals = []
        b.add_rx_sink(lambda p: arrivals.append(sim.now))
        a.send(build_udp(frame_size=64))
        sim.run()
        for port in (a, b):  # as Topology._build_link assigns a link rate
            port.rate_bps = GBPS
            port.tx.rate_bps = GBPS
        start = sim.now
        a.send(build_udp(frame_size=64))
        a.send(build_udp(frame_size=1518))
        sim.run()
        # 10G: preamble + 64 B frame = 57.6 ns. 1G: ten times that, and
        # the 1518 B frame starts one 84-byte slot (672 ns) later.
        assert arrivals[0] == ns(57.6)
        assert arrivals[1] - start == ns(576)
        assert arrivals[2] - start == ns(672) + wire_time_ps(8 + 1518, GBPS)
        assert a.tx.stats.busy_ps == (
            wire_time_ps(84, TEN_GBPS) + wire_time_ps(84, GBPS) + wire_time_ps(1538, GBPS)
        )
        assert a.tx.stats.wire_bytes == b.rx.stats.wire_bytes == 84 + 84 + 1538


class TestWireByteAccounting:
    """``MacStats.wire_bytes`` tracks padded wire bytes (frame + padding
    + preamble + IFG) alongside the raw frame-byte counter; utilisation
    maths must use it, because sub-minimum frames disagree."""

    def test_full_size_frame_wire_bytes(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        a.send(build_udp(frame_size=512))
        sim.run()
        assert a.tx.stats.bytes == 512
        assert a.tx.stats.wire_bytes == frame_wire_bytes(512) == 532
        assert b.rx.stats.wire_bytes == frame_wire_bytes(512)

    def test_sub_minimum_frame_exact_accounting(self):
        """A 60-byte runt pads to the 64-byte minimum: frame bytes count
        the padded frame, wire bytes add preamble and IFG on top, and
        busy time follows the wire bytes exactly."""
        sim = Simulator()
        a, b = linked_pair(sim)
        runt = Packet(bytes(56))  # 60B incl. FCS — below the 64B minimum
        assert runt.frame_length == 64  # MAC minimum padding
        a.send(runt)
        sim.run()
        assert a.tx.stats.bytes == 64
        assert a.tx.stats.wire_bytes == frame_wire_bytes(64) == 84
        assert a.tx.stats.wire_bytes > a.tx.stats.bytes
        assert a.tx.stats.busy_ps == wire_time_ps(84, TEN_GBPS)
        assert b.rx.stats.bytes == 64
        assert b.rx.stats.wire_bytes == 84

    def test_mixed_sizes_sum_exactly(self):
        sim = Simulator()
        a, b = linked_pair(sim)
        a.send(Packet(bytes(56)))
        a.send(build_udp(frame_size=1518))
        sim.run()
        assert a.tx.stats.bytes == 64 + 1518
        assert a.tx.stats.wire_bytes == frame_wire_bytes(64) + frame_wire_bytes(1518)
        assert a.tx.stats.busy_ps == wire_time_ps(
            a.tx.stats.wire_bytes, TEN_GBPS
        )


class TestDma:
    def test_delivers_in_order_with_bandwidth_delay(self):
        sim = Simulator()
        dma = DmaEngine(sim, bandwidth_bps=8 * GBPS, per_packet_overhead=64)
        delivered = []
        dma.on_host_deliver = lambda p: delivered.append((p, sim.now))
        packet = build_udp(frame_size=564)  # 560 data bytes
        dma.enqueue(packet)
        sim.run()
        expected = wire_time_ps(560 + 64, 8 * GBPS)
        assert delivered[0][1] == expected

    def test_ring_overflow_drops(self):
        sim = Simulator()
        dma = DmaEngine(sim, ring_slots=4)
        results = [dma.enqueue(build_udp()) for __ in range(6)]
        assert results == [True] * 4 + [False] * 2
        assert dma.stats.dropped == 2
        sim.run()
        assert dma.stats.delivered == 4

    def test_drop_accounting_in_bytes(self):
        """Capture loss (E6) is measurable in bytes, not just packets,
        on the same transfer-byte scale as delivered_bytes."""
        sim = Simulator()
        dma = DmaEngine(sim, ring_slots=2, per_packet_overhead=64)
        packets = [build_udp(frame_size=500) for __ in range(5)]
        packets[4].capture_length = 100  # snapped capture still counted
        for packet in packets:
            dma.enqueue(packet)
        per_full = len(packets[0].data) + 64
        assert dma.stats.dropped == 3
        assert dma.stats.dropped_bytes == 2 * per_full + (100 + 64)
        sim.run()
        assert dma.stats.delivered_bytes == 2 * per_full
        assert (
            dma.stats.delivered_bytes + dma.stats.dropped_bytes
            == 4 * per_full + 100 + 64
        )

    def test_ring_drains_and_accepts_again(self):
        sim = Simulator()
        dma = DmaEngine(sim, ring_slots=1)
        assert dma.enqueue(build_udp())
        assert not dma.enqueue(build_udp())
        sim.run()
        assert dma.enqueue(build_udp())
        sim.run()
        assert dma.stats.delivered == 2

    def test_capture_length_reduces_transfer_cost(self):
        sim = Simulator()
        fast_times = []
        dma = DmaEngine(sim, bandwidth_bps=8 * GBPS, per_packet_overhead=0)
        dma.on_host_deliver = lambda p: fast_times.append(sim.now)
        packet = build_udp(frame_size=1518)
        packet.capture_length = 64
        dma.enqueue(packet)
        sim.run()
        assert fast_times == [wire_time_ps(64, 8 * GBPS)]

    def test_config_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            DmaEngine(sim, bandwidth_bps=0)
        with pytest.raises(ConfigError):
            DmaEngine(sim, ring_slots=0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=100))
    def test_conservation(self, ring_slots, offered):
        sim = Simulator()
        dma = DmaEngine(sim, ring_slots=ring_slots)
        delivered = []
        dma.on_host_deliver = delivered.append
        for __ in range(offered):
            dma.enqueue(build_udp())
        sim.run()
        assert len(delivered) + dma.stats.dropped == offered


class TestLinkImpairment:
    def test_clean_link_never_corrupts(self):
        sim = Simulator()
        a = EthernetPort(sim, "a")
        b = EthernetPort(sim, "b")
        link = connect(a, b)
        received = []
        b.add_rx_sink(received.append)
        for __ in range(100):
            a.send(build_udp())
        sim.run()
        assert len(received) == 100
        assert link.frames_corrupted == 0

    def test_ber_drops_frames_at_rx(self):
        from repro.sim import RandomStreams

        sim = Simulator()
        a = EthernetPort(sim, "a")
        b = EthernetPort(sim, "b")
        # 1518B frame = 12144 bits; BER 1e-4 → P(corrupt) ≈ 0.70.
        link = connect(a, b, bit_error_rate=1e-4, rng=RandomStreams(4).stream("ber"))
        received = []
        b.add_rx_sink(received.append)
        # Burst-enqueueing 1518B frames can tail-drop at the TX FIFO;
        # conservation holds over the frames that reached the wire.
        accepted = sum(a.send(build_udp(frame_size=1518)) for __ in range(400))
        sim.run()
        corrupted = link.frames_corrupted
        assert corrupted + len(received) == accepted
        assert 0.6 * accepted < corrupted < 0.8 * accepted
        assert b.rx.stats.errors == corrupted

    def test_small_frames_survive_more_often(self):
        from repro.sim import RandomStreams

        def corruption_rate(frame_size):
            sim = Simulator()
            a = EthernetPort(sim, "a")
            b = EthernetPort(sim, "b")
            link = connect(
                a, b, bit_error_rate=5e-5, rng=RandomStreams(5).stream("ber")
            )
            for __ in range(300):
                a.send(build_udp(frame_size=frame_size))
            sim.run()
            return link.frames_corrupted / 300

        assert corruption_rate(64) < corruption_rate(1518)

    def test_invalid_ber_rejected(self):
        from repro.errors import LinkError

        sim = Simulator()
        a = EthernetPort(sim, "a")
        b = EthernetPort(sim, "b")
        with pytest.raises(LinkError):
            connect(a, b, bit_error_rate=1.0)

    def test_ber_reproducible(self):
        from repro.sim import RandomStreams

        def run():
            sim = Simulator()
            a = EthernetPort(sim, "a")
            b = EthernetPort(sim, "b")
            link = connect(
                a, b, bit_error_rate=1e-4, rng=RandomStreams(6).stream("ber")
            )
            for __ in range(100):
                a.send(build_udp(frame_size=1024))
            sim.run()
            return link.frames_corrupted

        assert run() == run()
