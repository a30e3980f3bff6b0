"""Tests for the generation engine, TX timestamping and PCAP replay."""

import pytest

from repro.errors import GeneratorError
from repro.hw import EthernetPort, TICK_PS, TimestampUnit, connect
from repro.net import Packet, PcapRecord, build_udp, decode
from repro.net.pcap import PcapWriter
from repro.osnt.generator import (
    ConstantBitRate,
    ExplicitGaps,
    LineRate,
    PacketListSource,
    PcapReplaySource,
    PortGenerator,
    TemplateSource,
    extract_ps,
    extract_raw,
    embed_raw,
)
from repro.osnt import OSNT
from repro.osnt.software_baseline import SoftwareGenerator, SoftwareGeneratorProfile
from repro.sim import RandomStreams, Simulator
from repro.units import (
    GBPS,
    TEN_GBPS,
    frame_wire_bytes,
    line_rate_pps,
    ms,
    ns,
    us,
    wire_time_ps,
)


def gen_rig(sim):
    """A generator port linked to a plain receiving port."""
    a = EthernetPort(sim, "gen")
    b = EthernetPort(sim, "sink")
    connect(a, b, propagation_ps=0)
    generator = PortGenerator(sim, a, TimestampUnit(sim))
    received = []
    b.add_rx_sink(received.append)
    return generator, received


class TestPortGenerator:
    def test_sends_requested_count(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp(), count=100))
        generator.start()
        sim.run()
        assert generator.stats.sent == 100
        assert len(received) == 100

    def test_line_rate_spacing(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        arrivals = []
        generator.port.link.peer_of(generator.port).add_rx_sink(
            lambda p: arrivals.append(sim.now)
        )
        generator.configure(TemplateSource(build_udp(frame_size=64), count=50))
        generator.start()
        sim.run()
        gaps = {b - a for a, b in zip(arrivals, arrivals[1:])}
        assert gaps == {wire_time_ps(frame_wire_bytes(64), TEN_GBPS)}

    def test_achieved_line_rate_pps_for_64b(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(
            TemplateSource(build_udp(frame_size=64)), duration_ps=ms(1)
        )
        generator.start()
        sim.run()
        assert generator.stats.achieved_pps() == pytest.approx(
            line_rate_pps(64), rel=1e-3
        )

    def test_cbr_rate_accuracy(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(
            TemplateSource(build_udp(frame_size=512)),
            schedule=ConstantBitRate(4 * GBPS),
            duration_ps=ms(1),
        )
        generator.start()
        sim.run()
        # achieved_bps counts frame bytes; wire rate adds 20B per frame.
        wire_bps = generator.stats.achieved_bps() * frame_wire_bytes(512) / 512
        assert wire_bps == pytest.approx(4 * GBPS, rel=1e-3)

    def test_duration_limit(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp()), duration_ps=us(10))
        generator.start()
        sim.run()
        assert generator.stats.finished_at_ps <= us(10) + ns(100)
        assert generator.stats.sent > 0

    def test_stop_mid_run(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp()))
        generator.start()
        sim.run(until=us(5))
        generator.stop()
        sent = generator.stats.sent
        sim.run(until=us(50))
        assert generator.stats.sent == sent
        assert not generator.running

    def test_done_signal_fires_with_stats(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        results = []

        def waiter():
            stats = yield generator.done
            results.append(stats)

        from repro.sim import spawn

        spawn(sim, waiter())
        generator.configure(TemplateSource(build_udp(), count=10))
        generator.start()
        sim.run()
        assert len(results) == 1
        assert results[0].sent == 10

    def test_start_without_configure_raises(self):
        sim = Simulator()
        generator, __ = gen_rig(sim)
        with pytest.raises(GeneratorError):
            generator.start()

    def test_reconfigure_while_running_raises(self):
        sim = Simulator()
        generator, __ = gen_rig(sim)
        generator.configure(TemplateSource(build_udp()))
        generator.start()
        with pytest.raises(GeneratorError):
            generator.configure(TemplateSource(build_udp()))

    def test_double_start_raises(self):
        sim = Simulator()
        generator, __ = gen_rig(sim)
        generator.configure(TemplateSource(build_udp()))
        generator.start()
        with pytest.raises(GeneratorError):
            generator.start()

    def test_restart_after_completion(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp(), count=5))
        generator.start()
        sim.run()
        generator.start()
        sim.run()
        assert len(received) == 10


class TestTxTimestamping:
    def test_embedded_stamp_matches_metadata(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp(frame_size=128), count=5))
        generator.timestamper.enabled = True
        generator.start()
        sim.run()
        for packet in received:
            embedded = extract_ps(packet.data)
            assert packet.tx_timestamp is not None
            # The embedded 32.32 value floors by <= 1 LSB (~233 ps).
            assert 0 <= packet.tx_timestamp - embedded <= 234

    def test_stamps_quantised_to_tick(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp(frame_size=128), count=8))
        generator.timestamper.enabled = True
        generator.start()
        sim.run()
        for packet in received:
            assert packet.tx_timestamp % TICK_PS == 0

    def test_stamp_clears_udp_checksum(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp(frame_size=128), count=1))
        generator.timestamper.enabled = True
        generator.start()
        sim.run()
        assert decode(received[0].data).udp.checksum == 0

    def test_stamp_skips_too_short_frames(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        # 46-byte frame data: offset 42 + 8 bytes does not fit.
        short = Packet(build_udp(frame_size=64).data[:46])
        generator.configure(TemplateSource(short, count=3))
        generator.timestamper.enabled = True
        generator.start()
        sim.run()
        assert generator.timestamper.skipped_short == 3

    def test_custom_offset(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        generator.configure(TemplateSource(build_udp(frame_size=256), count=1))
        generator.timestamper.enabled = True
        generator.timestamper.offset = 100
        generator.start()
        sim.run()
        assert extract_ps(received[0].data, offset=100) >= 0
        assert extract_raw(received[0].data, offset=100) == extract_raw(
            received[0].data, 100
        )

    def test_embed_raw_roundtrip(self):
        data = bytes(64)
        stamped = embed_raw(data, 10, 0xDEADBEEFCAFEF00D)
        assert extract_raw(stamped, 10) == 0xDEADBEEFCAFEF00D
        with pytest.raises(GeneratorError):
            embed_raw(data, 60, 1)


class TestPcapReplay:
    def make_capture(self, gaps_us=(0, 10, 25)):
        records = []
        timestamp = 0
        for index, gap in enumerate(gaps_us):
            timestamp += us(gap)
            records.append(
                PcapRecord(timestamp_ps=timestamp, data=build_udp(frame_size=128).data)
            )
        return records

    def test_replay_preserves_gaps(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        source = PcapReplaySource(self.make_capture())
        generator.configure(source, schedule=ExplicitGaps(source.gaps()))
        arrivals = []
        generator.port.link.peer_of(generator.port).add_rx_sink(
            lambda p: arrivals.append(sim.now)
        )
        generator.start()
        sim.run()
        assert len(arrivals) == 3
        assert arrivals[1] - arrivals[0] == us(10)
        assert arrivals[2] - arrivals[1] == us(25)

    def test_replay_speedup(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        source = PcapReplaySource(self.make_capture(), speed=2.0)
        generator.configure(source, schedule=ExplicitGaps(source.gaps()))
        arrivals = []
        generator.port.link.peer_of(generator.port).add_rx_sink(
            lambda p: arrivals.append(sim.now)
        )
        generator.start()
        sim.run()
        assert arrivals[1] - arrivals[0] == us(5)

    def test_replay_loop(self):
        sim = Simulator()
        generator, received = gen_rig(sim)
        source = PcapReplaySource(self.make_capture(), loop=3)
        generator.configure(source, schedule=ExplicitGaps(source.gaps()))
        generator.start()
        sim.run()
        assert generator.stats.sent == 9

    def test_backwards_timestamps_rejected(self):
        records = self.make_capture()
        records.reverse()
        source = PcapReplaySource(records)
        with pytest.raises(GeneratorError):
            ExplicitGaps(source.gaps())

    def test_empty_capture_rejected(self):
        with pytest.raises(GeneratorError):
            PcapReplaySource([])

    def test_gap_floor_at_line_rate(self):
        # Recorded gaps shorter than wire time are stretched to wire time.
        records = [
            PcapRecord(timestamp_ps=0, data=build_udp(frame_size=1518).data),
            PcapRecord(timestamp_ps=100, data=build_udp(frame_size=1518).data),
        ]
        sim = Simulator()
        generator, received = gen_rig(sim)
        source = PcapReplaySource(records)
        generator.configure(source, schedule=ExplicitGaps(source.gaps()))
        arrivals = []
        generator.port.link.peer_of(generator.port).add_rx_sink(
            lambda p: arrivals.append(sim.now)
        )
        generator.start()
        sim.run()
        assert arrivals[1] - arrivals[0] == wire_time_ps(frame_wire_bytes(1518), TEN_GBPS)

    def test_load_pcap_paces_at_the_port_rate(self):
        # 1518 B records 1 ns apart replayed on a 1 Gbps port: each gap
        # is raised to that port's wire time, so the TX FIFO never
        # holds more than the frame on the wire.
        sim = Simulator()
        tester = OSNT(sim, port_rate_bps=GBPS)
        connect(tester.port(0), tester.port(1))
        frame = build_udp(frame_size=1518).data
        records = [PcapRecord(timestamp_ps=ns(index), data=frame) for index in range(64)]
        generator = tester.generator(0)
        generator.load_pcap(records).start()
        sim.run()
        slot = wire_time_ps(frame_wire_bytes(1518), GBPS)
        assert slot == 12_304_000
        assert generator.stats.finished_at_ps == 64 * slot
        assert tester.port(0).tx.fifo.peak_occupancy_bytes <= 1518


class TestSoftwareBaseline:
    def test_software_generator_sends_count(self):
        sim = Simulator()
        a, b = EthernetPort(sim, "a"), EthernetPort(sim, "b")
        connect(a, b)
        received = []
        b.add_rx_sink(received.append)
        swgen = SoftwareGenerator(sim, a, rng=RandomStreams(5).stream("sw"))
        swgen.configure(
            TemplateSource(build_udp(frame_size=128)),
            schedule=ConstantBitRate(1 * GBPS),
            count=200,
        )
        swgen.start()
        sim.run()
        assert swgen.sent == 200
        assert len(received) == 200

    def test_software_gaps_noisier_than_hardware(self):
        sim = Simulator()
        a, b = EthernetPort(sim, "a"), EthernetPort(sim, "b")
        connect(a, b)
        swgen = SoftwareGenerator(sim, a, rng=RandomStreams(5).stream("sw"))
        target_gap = us(20)
        from repro.osnt.generator import ConstantGap

        swgen.configure(
            TemplateSource(build_udp(frame_size=128)),
            schedule=ConstantGap(target_gap),
            count=500,
        )
        swgen.start()
        sim.run()
        gaps = swgen.achieved_gaps()
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        stddev = variance ** 0.5
        # Hardware pacing is ps-exact; the software model must show
        # microsecond-scale spread around the target.
        assert stddev > ns(200)
        assert mean > target_gap  # jitter only ever delays

    def test_batching_collapses_small_gaps(self):
        sim = Simulator()
        a, b = EthernetPort(sim, "a"), EthernetPort(sim, "b")
        connect(a, b)
        profile = SoftwareGeneratorProfile(batch_size=4, batch_threshold_ps=us(10))
        swgen = SoftwareGenerator(
            sim, a, rng=RandomStreams(6).stream("sw"), profile=profile
        )
        swgen.configure(
            TemplateSource(build_udp(frame_size=64)),
            schedule=ConstantBitRate(8 * GBPS),  # gap ≈ 84 ns, far below 10 µs
            count=64,
        )
        swgen.start()
        sim.run()
        gaps = swgen.achieved_gaps()
        wire = wire_time_ps(frame_wire_bytes(64), TEN_GBPS)
        back_to_back = sum(1 for g in gaps if g == wire)
        # Most packets leave back-to-back inside batches.
        assert back_to_back > len(gaps) / 2


class TestCompositeSource:
    def test_weighted_round_robin_order(self):
        from repro.osnt.generator import CompositeSource

        a = TemplateSource(build_udp(frame_size=64), count=100)
        b = TemplateSource(build_udp(frame_size=1518), count=100)
        composite = CompositeSource([(a, 3), (b, 1)])
        sizes = [composite.next_packet(i).frame_length for i in range(8)]
        # Smooth WRR at 3:1 spreads the minority stream evenly.
        assert sizes.count(64) == 6
        assert sizes.count(1518) == 2
        assert sizes[0] == 64 and 1518 in sizes[:4]

    def test_exhausted_stream_drops_out(self):
        from repro.osnt.generator import CompositeSource

        a = TemplateSource(build_udp(frame_size=64), count=2)
        b = TemplateSource(build_udp(frame_size=512), count=6)
        composite = CompositeSource([(a, 1), (b, 1)])
        sizes = []
        index = 0
        while True:
            packet = composite.next_packet(index)
            if packet is None:
                break
            sizes.append(packet.frame_length)
            index += 1
        assert sizes.count(64) == 2
        assert sizes.count(512) == 6

    def test_reset_replays_identically(self):
        from repro.osnt.generator import CompositeSource

        def build():
            return CompositeSource(
                [
                    (TemplateSource(build_udp(frame_size=64), count=5), 2),
                    (TemplateSource(build_udp(frame_size=256), count=5), 3),
                ]
            )

        composite = build()
        first = [composite.next_packet(i).frame_length for i in range(10)]
        composite.reset()
        second = [composite.next_packet(i).frame_length for i in range(10)]
        assert first == second

    def test_validation(self):
        from repro.osnt.generator import CompositeSource

        with pytest.raises(GeneratorError):
            CompositeSource([])
        with pytest.raises(GeneratorError):
            CompositeSource([(TemplateSource(build_udp()), 0)])

    def test_drives_generator(self):
        from repro.osnt.generator import CompositeSource

        sim = Simulator()
        generator, received = gen_rig(sim)
        composite = CompositeSource(
            [
                (TemplateSource(build_udp(frame_size=64), count=30), 1),
                (TemplateSource(build_udp(frame_size=1518), count=10), 1),
            ]
        )
        generator.configure(composite)
        generator.start()
        sim.run()
        assert generator.stats.sent == 40
        sizes = {p.frame_length for p in received}
        assert sizes == {64, 1518}


class TestRandomSizeSource:
    def test_distribution_roughly_respected(self):
        from repro.osnt.generator import RandomSizeSource
        from repro.sim import RandomStreams

        source = RandomSizeSource(
            size_weights=[(64, 80), (1518, 20)],
            count=2000,
            rng=RandomStreams(3).stream("sz"),
        )
        sizes = [source.next_packet(i).frame_length for i in range(2000)]
        small = sizes.count(64)
        assert 0.75 * 2000 < small < 0.85 * 2000
        assert set(sizes) == {64, 1518}

    def test_count_limit(self):
        from repro.osnt.generator import RandomSizeSource

        source = RandomSizeSource(count=3)
        assert source.next_packet(2) is not None
        assert source.next_packet(3) is None

    def test_validation(self):
        from repro.osnt.generator import RandomSizeSource

        with pytest.raises(GeneratorError):
            RandomSizeSource(size_weights=[])
        with pytest.raises(GeneratorError):
            RandomSizeSource(size_weights=[(64, 0)])

    def test_reproducible(self):
        from repro.osnt.generator import RandomSizeSource
        from repro.sim import RandomStreams

        def run():
            source = RandomSizeSource(
                count=50, rng=RandomStreams(7).stream("sz")
            )
            return [source.next_packet(i).frame_length for i in range(50)]

        assert run() == run()
