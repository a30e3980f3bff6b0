"""End-to-end system tests: full workflows across every subsystem."""

import pytest

from repro.analysis import latency_from_capture, loss_from_sequence_numbers
from repro.devices import LegacySwitch, SimpleHost
from repro.hw import connect
from repro.net import PcapRecord, build_icmp_echo, build_udp, decode, read_pcap, write_pcap
from repro.osnt import OSNT
from repro.osnt.generator import SequenceNumber
from repro.sim import RandomStreams, Simulator
from repro.units import GBPS, ms, us


class TestCaptureReplayRoundtrip:
    def test_capture_to_pcap_and_replay_back(self, tmp_path):
        """Generate → capture → save pcap → reload → replay → recapture.

        The second capture must reproduce the first run's inter-arrival
        structure: the whole acquisition/replay chain is timing-faithful.
        """
        # Run 1: bursty traffic onto a loopback, saved to disk.
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        monitor = tester.monitor(1)
        monitor.start_capture()
        generator = tester.generator(0)
        generator.load_template(build_udp(frame_size=300), count=30)
        generator.burst_train(10, us(500))
        generator.start()
        sim.run()
        path = tmp_path / "run1.pcap"
        assert monitor.save_pcap(path) == 30
        stamps_first = [p.rx_timestamp for p in monitor.packets]

        # Run 2: replay the file through a fresh tester.
        sim2 = Simulator()
        tester2 = OSNT(sim2)
        connect(tester2.port(0), tester2.port(1))
        monitor2 = tester2.monitor(1)
        monitor2.start_capture()
        generator2 = tester2.generator(0)
        generator2.load_pcap(path)
        generator2.start()
        sim2.run()
        stamps_second = [p.rx_timestamp for p in monitor2.packets]

        assert len(stamps_second) == 30
        gaps_first = [b - a for a, b in zip(stamps_first, stamps_first[1:])]
        gaps_second = [b - a for a, b in zip(stamps_second, stamps_second[1:])]
        for gap1, gap2 in zip(gaps_first, gaps_second):
            # RX stamps quantise to the 6.25 ns tick and the PCAP stores
            # ns resolution, so gaps may differ by up to ~2 ticks.
            assert abs(gap1 - gap2) <= 13_000

    def test_sequence_numbered_loss_measurement_through_switch(self):
        """Loss accounting across an overloaded switch, end to end."""
        sim = Simulator()
        switch = LegacySwitch(
            sim,
            buffer_bytes_per_port=16 * 1024,
            rng=RandomStreams(3).stream("sw"),
        )
        tester = OSNT(sim)
        connect(tester.port(0), switch.port(0))
        connect(tester.port(1), switch.port(1))
        connect(tester.port(2), switch.port(2))
        # Teach the MAC table so traffic goes to port 1.
        tester.port(1).send(build_udp(src_mac="02:00:00:00:00:02", dst_mac="02:00:00:00:00:99"))
        sim.run(until=us(10))
        monitor = tester.monitor(1)
        monitor.start_capture()
        # Capture only the sequence-numbered probe flow: the cross
        # traffic shares the egress but must not pollute the analysis.
        monitor.add_filter(protocol=17, dst_port=5001)
        count = 400
        probe = tester.generator(0)
        probe.load_template(
            build_udp(frame_size=1518, dst_port=5001),
            count=count,
            modifiers=[SequenceNumber(offset=60)],
        )
        probe.at_line_rate()
        # Cross traffic overloads the same egress.
        cross = tester.generator(2)
        cross.load_template(
            build_udp(frame_size=1518, src_mac="02:00:00:00:00:03", dst_port=9999)
        )
        cross.at_line_rate().for_duration(ms(1))
        cross.start()
        probe.start()
        sim.run()
        result = loss_from_sequence_numbers(
            monitor.packets, offset=60, expected_count=count
        )
        assert result.lost > 0  # the overload really dropped probes
        assert result.received + result.lost == count
        assert result.duplicates == 0
        assert switch.egress_drops > 0

    def test_hosts_behind_switch_answer_ping(self):
        """SimpleHosts + legacy switch: ARP then ICMP echo end to end."""
        sim = Simulator()
        switch = LegacySwitch(sim, rng=RandomStreams(5).stream("sw"))
        alice = SimpleHost(sim, "alice", mac="02:00:00:00:00:0a", ip="10.0.0.10")
        bob = SimpleHost(sim, "bob", mac="02:00:00:00:00:0b", ip="10.0.0.11")
        connect(alice.port, switch.port(0))
        connect(bob.port, switch.port(1))
        # Alice ARPs for Bob (flooded), Bob replies (unicast back).
        from repro.net import build_arp_request

        alice.send(
            build_arp_request(
                sender_mac="02:00:00:00:00:0a",
                sender_ip="10.0.0.10",
                target_ip="10.0.0.11",
            )
        )
        sim.run()
        assert bob.arp_replies == 1
        # Now Alice pings Bob directly.
        alice.send(
            build_icmp_echo(
                frame_size=96,
                src_mac="02:00:00:00:00:0a",
                dst_mac="02:00:00:00:00:0b",
                src_ip="10.0.0.10",
                dst_ip="10.0.0.11",
                sequence=7,
            )
        )
        sim.run()
        assert bob.echo_replies == 1
        # The reply made it back to Alice's buffer? Echo replies from
        # Bob terminate at Alice's host logic (not request/reply match,
        # so they are buffered as 'other traffic').
        assert any(decode(p.data).icmp is not None for p in alice.received)

    def test_monitor_filter_registers_survive_heavy_traffic(self):
        """Register-driven filters behave identically under load."""
        sim = Simulator()
        tester = OSNT(sim, dma_bandwidth_bps=20 * GBPS)
        connect(tester.port(0), tester.port(1))
        monitor = tester.monitor(1)
        monitor.start_capture()
        monitor.add_filter(protocol=17, dst_port=5001)
        from repro.osnt.generator import UdpPortSweep

        generator = tester.generator(0)
        generator.load_template(
            build_udp(frame_size=128),
            count=1000,
            modifiers=[UdpPortSweep("dst", 5000, 4)],  # 5000..5003
        )
        generator.at_line_rate()
        generator.start()
        sim.run()
        assert monitor.rx_packets == 1000
        assert monitor.captured_count == 250
        assert all(decode(p.data).udp.dst_port == 5001 for p in monitor.packets)


class TestDeterminism:
    def run_fingerprint(self, seed):
        """A full mixed run reduced to a comparable fingerprint."""
        sim = Simulator()
        switch = LegacySwitch(sim, rng=RandomStreams(seed).stream("sw"))
        tester = OSNT(sim, root_seed=seed)
        connect(tester.port(0), switch.port(0))
        connect(tester.port(1), switch.port(1))
        tester.port(1).send(build_udp(src_mac="02:00:00:00:00:02", dst_mac="02:00:00:00:00:99"))
        sim.run(until=us(10))
        monitor = tester.monitor(1)
        monitor.start_capture()
        generator = tester.generator(0)
        generator.load_template(build_udp(frame_size=200))
        generator.poisson(us(3))
        generator.for_duration(ms(1))
        generator.embed_timestamps()
        generator.start()
        sim.run()
        return tuple(
            (p.rx_timestamp, len(p.data)) for p in monitor.packets
        ), generator.packets_sent

    def test_identical_seeds_identical_runs(self):
        assert self.run_fingerprint(11) == self.run_fingerprint(11)

    def test_different_seeds_differ(self):
        first, __ = self.run_fingerprint(11)
        second, __ = self.run_fingerprint(12)
        assert first != second

    def test_latency_pipeline_deterministic(self):
        def measure():
            fingerprint, __ = self.run_fingerprint(42)
            return fingerprint

        assert measure() == measure()


class TestImpairedLink:
    def test_tester_quantifies_link_loss(self):
        """OSNT + sequence numbers measure a dirty fibre's frame loss."""
        from repro.analysis import loss_from_sequence_numbers
        from repro.hw.port import Link

        sim = Simulator()
        tester = OSNT(sim)
        # Impaired cable between ports 0 and 1: BER 2e-5 on 1024B frames
        # -> P(frame corrupt) ~ 15%.
        link = Link(
            tester.port(0),
            tester.port(1),
            bit_error_rate=2e-5,
            rng=RandomStreams(9).stream("ber"),
        )
        monitor = tester.monitor(1)
        monitor.start_capture()
        count = 1000
        generator = tester.generator(0)
        generator.load_template(
            build_udp(frame_size=1024),
            count=count,
            modifiers=[SequenceNumber(offset=60)],
        )
        generator.set_load(0.5)
        generator.start()
        sim.run()
        result = loss_from_sequence_numbers(
            monitor.packets, offset=60, expected_count=count
        )
        # The tester's loss measurement equals the link's corruption count.
        assert result.lost == link.frames_corrupted
        assert 0.10 < result.loss_fraction < 0.22
        assert tester.port(1).rx.stats.errors == link.frames_corrupted
