"""Integration tests over the testbed scenarios (experiments E1-E7).

These assert the *shape* of each result — who wins and by what kind of
factor — which is exactly what the benchmark harness prints.
"""

import pytest

from repro.errors import ConfigError
from repro.oflops.modules.forwarding_consistency import ConsistencyResult
from repro.faults.scenarios import lossy_link_latency_point
from repro.testbed import (
    CAPTURE_VARIANTS,
    capture_path_point,
    clock_error_point,
    idt_precision_point,
    imix_latency_point,
    imix_source,
    incast_burst_point,
    legacy_latency_point,
    legacy_testbed,
    line_rate_point,
    load_points,
    measure_flowmod_latency,
    measure_forwarding_consistency,
    multi_flow_source,
    openflow_testbed,
    router_latency_point,
    syn_flood_flowmod_point,
    timestamp_placement_point,
)
from repro.sim import Simulator
from repro.units import line_rate_pps, ms, us


def _capture(load, name):
    """One E6 row for the named reducer variant."""
    variant = next(v for v in CAPTURE_VARIANTS if v["name"] == name)
    row, _ = capture_path_point(load, variant=variant, duration_ps=ms(1))
    return row


class TestWorkloads:
    def test_load_points(self):
        assert load_points(4) == [0.25, 0.5, 0.75, 1.0]
        assert load_points(2, maximum=0.5) == [0.25, 0.5]

    def test_imix_source_pattern(self):
        source = imix_source(loops=2)
        sizes = []
        index = 0
        while True:
            packet = source.next_packet(index)
            if packet is None:
                break
            sizes.append(packet.frame_length)
            index += 1
        assert len(sizes) == 24
        assert sizes[:12].count(64) == 7
        assert sizes[:12].count(576) == 4
        assert sizes[:12].count(1518) == 1

    def test_multi_flow_source_distinct_flows(self):
        from repro.net import extract_five_tuple

        source = multi_flow_source(128, flow_count=5, count=10)
        tuples = {
            extract_five_tuple(source.next_packet(i).data) for i in range(10)
        }
        assert len(tuples) == 5


class TestE1LineRate:
    def test_full_line_rate_at_64_and_1518(self):
        for frame_size in (64, 1518):
            row, _ = line_rate_point(frame_size, duration_ps=ms(1))
            # "full line-rate traffic generation regardless of packet size"
            assert row.efficiency > 0.999

    def test_four_ports_aggregate(self):
        row, _ = line_rate_point(512, duration_ps=ms(1), ports=4)
        assert row.ports == 4
        assert row.achieved_pps == pytest.approx(4 * line_rate_pps(512), rel=1e-3)


class TestE2Precision:
    def test_hardware_pacing_beats_software(self):
        osnt, _ = idt_precision_point("osnt", us(20), packet_count=300)
        software, _ = idt_precision_point("software", us(20), packet_count=300)
        assert osnt.gap_std_ns == 0  # ps-exact pacing
        assert software.gap_std_ns > 100  # µs-scale OS noise
        assert software.mean_gap_ns > osnt.mean_gap_ns

    @pytest.mark.parametrize("packet_count", [0, 1])
    def test_too_few_packets_is_a_config_error(self, packet_count):
        with pytest.raises(ConfigError, match="packet_count"):
            idt_precision_point("osnt", us(20), packet_count=packet_count)

    def test_gps_keeps_clock_sub_microsecond(self):
        free, _ = clock_error_point("free-running", horizon_s=8)
        disciplined, _ = clock_error_point("gps-disciplined", horizon_s=8)
        assert free[-1].abs_error_ns > 100_000  # hundreds of µs adrift
        assert disciplined[-1].abs_error_ns < 1_000  # sub-µs, per the paper
        # Free-running error grows monotonically with 30 ppm drift.
        errors = [r.abs_error_ns for r in free]
        assert errors == sorted(errors)


class TestE3LegacyLatency:
    def test_latency_rises_with_load(self):
        low, high, overload = (
            legacy_latency_point(512, load, duration_ps=ms(2))[0]
            for load in (0.2, 0.95, 1.2)
        )
        assert low.mean_us < high.mean_us < overload.mean_us
        assert overload.mean_us > 5 * low.mean_us  # saturated queue

    def test_baseline_latency_scales_with_frame_size(self):
        small, large = (
            legacy_latency_point(size, 0.1, duration_ps=ms(2))[0]
            for size in (64, 1518)
        )
        # Store-and-forward: two serializations more for big frames.
        assert large.mean_us > small.mean_us + 2.0

    def test_probes_survive_light_load(self):
        row, _ = legacy_latency_point(256, 0.3, duration_ps=ms(1))
        assert row.switch_drops == 0
        assert row.packets > 0


class TestE4FlowMod:
    @pytest.mark.parametrize("mode", ["spec", "eager"])
    def test_rules_activate_serially(self, mode):
        result = measure_flowmod_latency(n_rules=8, barrier_mode=mode)
        assert len(result.rule_activation_ps) == 8
        assert result.rule_activation_ps == sorted(result.rule_activation_ps)

    def test_spec_barrier_is_honest(self):
        result = measure_flowmod_latency(n_rules=8, barrier_mode="spec")
        assert result.control_latency_ps >= result.data_plane_complete_ps - us(100)

    def test_eager_barrier_lies(self):
        result = measure_flowmod_latency(n_rules=8, barrier_mode="eager")
        # The control plane claims completion long before the data plane.
        assert result.control_says_done_before_data_ps > us(300)

    def test_more_rules_take_longer(self):
        small = measure_flowmod_latency(n_rules=4, barrier_mode="spec")
        large = measure_flowmod_latency(n_rules=16, barrier_mode="spec")
        assert large.data_plane_complete_ps > small.data_plane_complete_ps


class TestE5Consistency:
    def test_spec_switch_consistent_after_barrier(self):
        result = measure_forwarding_consistency(n_rules=8, barrier_mode="spec")
        assert result.stale_after_barrier == 0
        assert result.stale_during_update > 0  # transition is never free

    def test_eager_switch_stale_after_barrier(self):
        result = measure_forwarding_consistency(n_rules=8, barrier_mode="eager")
        # Stale packets past the barrier = the inconsistency window; it
        # is a strict subset of the whole transition.
        assert result.stale_after_barrier > 0
        assert result.stale_after_barrier < result.stale_during_update

    def test_setup_waits_for_a_slow_table(self):
        # 32 setup rules at 500 us per table write take 16 ms, longer
        # than the setup barrier's first 10 ms slice.
        result = measure_forwarding_consistency(
            n_rules=32, barrier_mode="spec", table_write_ps=us(500)
        )
        assert isinstance(result, ConsistencyResult)
        assert result.n_rules == 32
        assert result.stale_after_barrier == 0


class TestE6CapturePath:
    def test_full_capture_loses_at_high_load(self):
        full = _capture(0.9, "full")
        assert full.dropped > 0
        assert full.capture_fraction < 1.0

    def test_cutting_restores_lossless_capture(self):
        cut = _capture(0.9, "cut-64")
        assert cut.dropped == 0
        assert cut.capture_fraction == 1.0

    def test_thinning_restores_lossless_capture(self):
        thin = _capture(0.9, "thin-1in8")
        assert thin.dropped == 0

    def test_low_load_lossless_everywhere(self):
        assert all(_capture(0.1, v["name"]).dropped == 0 for v in CAPTURE_VARIANTS)

    def test_unknown_variant_key_is_a_config_error(self):
        with pytest.raises(ConfigError, match="snap_bytes"):
            capture_path_point(
                0.1, variant={"name": "cut", "snap_bytes": 64}, duration_ps=us(50)
            )


class TestE7TimestampPlacement:
    def test_host_timestamps_noisier_under_load(self):
        row, _ = timestamp_placement_point(0.8, duration_ps=ms(1))
        assert row.host_std_us > 10 * row.hw_std_us
        assert row.host_mean_us > row.hw_mean_us

    def test_hw_measurement_unaffected_by_capture_load(self):
        low, high = (
            timestamp_placement_point(load, duration_ps=ms(1))[0]
            for load in (0.2, 0.8)
        )
        # Hardware-stamped latency statistics stay stable while host-side
        # statistics blow up with DMA/host queueing.
        assert high.hw_std_us < 0.1
        assert high.host_std_us > low.host_std_us


class TestLatencyPointDurations:
    @pytest.mark.parametrize("duration_ps", [0, -5])
    @pytest.mark.parametrize(
        "point, args",
        [
            (legacy_latency_point, (64, 0.5)),
            (timestamp_placement_point, (0.5,)),
            (router_latency_point, (8,)),
        ],
        ids=["e3", "e7", "e9"],
    )
    def test_non_positive_duration_rejected(self, monkeypatch, point, args, duration_ps):
        """A run that sends no probe has no latency to report: E3, E7 and
        E9 refuse it before building a testbed, so a stubbed simulator
        fails the test instead of an AttributeError deep in a summary."""
        import repro.testbed.scenarios as scenarios

        def no_build(*args, **kwargs):
            raise AssertionError("the point built a simulator")

        monkeypatch.setattr(scenarios, "Simulator", no_build)
        with pytest.raises(ConfigError, match="duration must be positive"):
            point(*args, duration_ps=duration_ps)


_ZERO = "duration must be positive"
_NEGATIVE = "duration must be non-negative, got -5"


class TestGeneratorDuration:
    @pytest.mark.parametrize(
        "point, kwargs, message",
        [
            (line_rate_point, {"frame_size": 64, "duration_ps": 0}, _ZERO),
            (imix_latency_point, {"duration_ps": 0}, _ZERO),
            (imix_latency_point, {"duration_ps": -5}, _NEGATIVE),
            (capture_path_point, {"load": 0.5, "duration_ps": 0}, _ZERO),
            (lossy_link_latency_point, {"duration_ps": 0}, _ZERO),
            (incast_burst_point, {"duration_ps": 0}, _ZERO),
            (
                syn_flood_flowmod_point,
                {"n_flows": 16, "n_rules": 4, "duration_ps": 0},
                _ZERO,
            ),
        ],
        ids=["e1", "e3b", "e3b-negative", "e6", "lossy_link", "incast", "syn_flood"],
    )
    def test_non_positive_duration_fails_at_the_generator(self, point, kwargs, message):
        """A run that sends nothing used to return an empty row (E1's
        0 pps, SYN flood's flow_mod numbers with no attack at all); every
        generator's duration lands in ``PortGenerator.configure``, which
        refuses it. A negative one stops earlier, in
        ``TrafficGenerator.for_duration``."""
        with pytest.raises(ConfigError, match=message):
            point(**kwargs)


class TestTopologies:
    def test_legacy_testbed_wiring(self):
        sim = Simulator()
        bed = legacy_testbed(sim)
        # The testbed teaches the switch udp_template's destination.
        assert bed.switch.mac_table.lookup("02:00:00:00:00:02", sim.now) == 1
        assert bed.tester.port(0).connected
        assert bed.tester.port(1).connected
        assert not bed.tester.port(2).connected

    def test_openflow_testbed_has_channels(self):
        sim = Simulator()
        bed = openflow_testbed(sim, wire_cross_ports=True)
        assert bed.tester.port(2).connected
        assert bed.snmp.ports is not None
        assert bed.controller is bed.channel.controller


class TestMultiCardSync:
    def test_gps_bounds_one_way_error(self):
        from repro.testbed import measure_one_way_latency

        rows = measure_one_way_latency(True, sample_times_s=[2, 6])
        assert all(abs(row.error_ns) < 100 for row in rows)

    def test_free_running_cards_disagree(self):
        from repro.testbed import measure_one_way_latency

        rows = measure_one_way_latency(False, sample_times_s=[2, 6])
        assert all(abs(row.error_ns) > 10_000 for row in rows)
        # Error grows with elapsed time (55 ppm relative drift).
        assert abs(rows[1].error_ns) > abs(rows[0].error_ns)


class TestRfc2544:
    def test_nonblocking_switch_full_line_rate(self):
        from repro.testbed import rfc2544_point

        result = rfc2544_point(512, duration_ps=ms(1))
        assert result.throughput_load == 1.0
        assert result.latency_mean_us < 5
        assert len(result.trials) == 1  # line rate passed first try

    def test_oversubscribed_fabric_found(self):
        from repro.testbed import rfc2544_point
        from repro.units import GBPS

        result = rfc2544_point(512, fabric_rate_bps=5 * GBPS, duration_ps=ms(2))
        # The binary search converges near the 5G fabric limit (short
        # trials overshoot slightly while buffers absorb the excess).
        assert 0.45 < result.throughput_load < 0.62
        assert all(
            trial.lossless == (trial.load <= result.throughput_load)
            for trial in result.trials
        )

    def test_lower_fabric_lower_throughput(self):
        from repro.testbed import rfc2544_point
        from repro.units import GBPS

        fast = rfc2544_point(
            512, fabric_rate_bps=6 * GBPS, duration_ps=ms(1), resolution=0.05
        )
        slow = rfc2544_point(
            512, fabric_rate_bps=3 * GBPS, duration_ps=ms(1), resolution=0.05
        )
        assert slow.throughput_load < fast.throughput_load

    def test_only_latency_trial_captures(self, monkeypatch):
        """Search trials count frames at the monitor's RX counter; host
        capture is armed once, for the final latency trial."""
        from repro.osnt.api import TrafficMonitor
        from repro.testbed import rfc2544_point
        from repro.units import GBPS

        snaplens = []
        start_capture = TrafficMonitor.start_capture

        def counting(monitor, snaplen=None, **kwargs):
            snaplens.append(snaplen)
            return start_capture(monitor, snaplen, **kwargs)

        monkeypatch.setattr(TrafficMonitor, "start_capture", counting)
        result = rfc2544_point(256, fabric_rate_bps=5 * GBPS, duration_ps=us(500))
        assert snaplens == [64]
        assert len(result.trials) == 8
        assert any(not trial.lossless for trial in result.trials)
        assert all(0 < trial.received <= trial.sent for trial in result.trials)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 0},
            {"resolution": -0.1},
            {"resolution": 1.0},
            {"resolution": float("nan")},
            {"duration_ps": 0, "resolution": 0.25},
            {"duration_ps": -5},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_degenerate_inputs_rejected(self, monkeypatch, kwargs):
        """A non-positive resolution never ends a lossy search, and an
        empty trial has no latency: both are rejected before the first
        trial, so a stubbed trial fails the test instead of hanging it."""
        import repro.testbed.rfc2544 as rfc2544

        def no_trial(*args, **kw):
            raise AssertionError("rfc2544_point ran a trial")

        monkeypatch.setattr(rfc2544, "_run_trial", no_trial)
        with pytest.raises(ConfigError):
            rfc2544.rfc2544_point(64, **kwargs)


class TestFabricModel:
    def test_fabric_drops_counted(self):
        from repro.devices import LegacySwitch
        from repro.hw import EthernetPort, connect
        from repro.net import build_udp
        from repro.units import GBPS

        sim = Simulator()
        switch = LegacySwitch(sim, fabric_rate_bps=1 * GBPS, latency_jitter_ps=0)
        a = EthernetPort(sim, "a")
        b = EthernetPort(sim, "b")
        connect(a, switch.port(0))
        connect(b, switch.port(1))
        # Teach, then blast at 10G into a 1G fabric.
        b.send(build_udp(src_mac="02:00:00:00:00:02", dst_mac="02:00:00:00:00:01"))
        sim.run(until=us(10))
        received = []
        b.add_rx_sink(received.append)
        for __ in range(2000):
            a.send(build_udp(frame_size=512, src_mac="02:00:00:00:00:01",
                             dst_mac="02:00:00:00:00:02"))
        sim.run()
        assert switch.dropped_fabric > 0
        assert len(received) + switch.dropped_fabric + a.tx.fifo.dropped == 2000

    def test_fabric_validation(self):
        from repro.devices import LegacySwitch
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LegacySwitch(Simulator(), fabric_rate_bps=0)
