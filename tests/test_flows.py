"""Tests for repro.flows: the closed-loop transport, LinkGuardian-style
loss protection, FCT analysis, scenario determinism, and the burst
datapath's closed-loop eligibility audit.

The acceptance experiment (LinkGuardian qualitative result) is pinned
to seed 6: at a 1e-3 corruption rate the protected link's FCT
distribution stays at the lossless baseline while the unprotected
link's tail collapses into RTO territory — with the *identical*
corruption pattern on both sides of the comparison.
"""

import dataclasses
import json

import pytest

from repro.analysis import fct_report
from repro.errors import FaultError, FlowError, SimulationError
from repro.faults import FaultInjector
from repro.faults.spec import ImpairmentSpec
from repro.flows import (
    FlowConfig,
    FlowEndpoint,
    LinkGuardian,
    completions_digest,
    effective_loss_vs_speed_point,
    fct_vs_loss_point,
    throughput_under_bursty_corruption_point,
)
from repro.hw import connect
from repro.obs import SpanRecorder, observe_simulators
from repro.osnt import OSNT
from repro.sim import Simulator
from repro.topology import Topology
from repro.testbed.workloads import udp_template
from repro.units import ms, us


def flow_pair(link_rate="10Gbps", switch_seed=1, sim=None):
    """h1 — s1 — h2 with FlowEndpoints on both hosts."""
    sim = sim or Simulator()
    built = (
        Topology(name="pair")
        .host("h1", rate=link_rate)
        .host("h2", rate=link_rate)
        .node("s1", "legacy_switch", ports=2, rate=link_rate, seed=switch_seed)
        .link("h1", "s1:0", rate=link_rate)
        .link("s1:1", "h2", rate=link_rate)
        .build(sim)
    )
    return sim, built, FlowEndpoint(built.node("h1")), FlowEndpoint(built.node("h2"))


# -- clean-path transport -----------------------------------------------------


class TestTransportCleanPath:
    def test_single_flow_completes(self):
        sim, built, src, dst = flow_pair()
        flow = src.flow_to(dst, size_bytes=30_000)
        sim.run()
        record = flow.record
        assert record is not None and record.completed
        assert record.bytes_acked == 30_000
        assert record.retransmits == 0 and record.timeouts == 0
        assert us(20) < record.fct_ps < us(100)
        assert record.goodput_bps > 1e9

    @pytest.mark.parametrize("link_rate", ["10Gbps", "40Gbps", "100Gbps"])
    def test_no_spurious_retransmits_at_speed(self, link_rate):
        """Regression: back-to-back arrivals within the ACK turnaround
        delay must not manufacture duplicate ACKs (each ACK carries the
        rcv_nxt snapshotted at segment receipt, not at send time). At
        40G+ the old behaviour produced ~30% spurious retransmits on a
        perfectly clean link."""
        sim, built, src, dst = flow_pair(link_rate=link_rate)
        flow = src.flow_to(dst, size_bytes=120_000)
        sim.run()
        record = flow.record
        assert record.completed
        assert record.retransmits == 0
        assert record.fast_retransmits == 0
        assert flow.receiver.duplicate_bytes == 0

    def test_receiver_byte_conservation(self):
        sim, built, src, dst = flow_pair()
        flows = [src.flow_to(dst, size_bytes=15_000, start_ps=i * us(10)) for i in range(4)]
        sim.run()
        delivered = sum(f.receiver.delivered_bytes for f in flows)
        acked = sum(f.record.bytes_acked for f in flows)
        assert delivered == acked == 4 * 15_000

    def test_rtt_estimation(self):
        sim, built, src, dst = flow_pair()
        flow = src.flow_to(dst, size_bytes=30_000)
        sim.run()
        record = flow.record
        assert record.min_rtt_ps is not None and record.min_rtt_ps > 0
        assert record.srtt_ps is not None and record.srtt_ps >= record.min_rtt_ps
        # RTT through one store-and-forward switch hop is µs-class.
        assert record.min_rtt_ps < us(100)

    def test_completion_recorded_exactly_once(self):
        sim, built, src, dst = flow_pair()
        flows = [src.flow_to(dst, size_bytes=10_000, start_ps=i * us(20)) for i in range(6)]
        sim.run()
        assert len(src.completions) == 6
        assert len({r.flow_id for r in src.completions}) == 6
        assert all(f.completed for f in flows)

    def test_flow_config_validation(self):
        with pytest.raises(FlowError):
            FlowConfig(mss=0)
        with pytest.raises(FlowError):
            FlowConfig(initial_cwnd=0.5)
        with pytest.raises(FlowError):
            FlowConfig(rto_min_ps=ms(2), rto_max_ps=ms(1))
        with pytest.raises(FlowError):
            FlowConfig(max_consecutive_timeouts=0)

    def test_flow_to_validation(self):
        sim, built, src, dst = flow_pair()
        with pytest.raises(FlowError):
            src.flow_to(src, size_bytes=1000)
        with pytest.raises(FlowError):
            src.flow_to(dst, size_bytes=0)
        dst.detach()
        with pytest.raises(FlowError):
            src.flow_to(dst, size_bytes=1000)

    def test_host_transport_exclusive(self):
        sim, built, src, dst = flow_pair()
        with pytest.raises(FlowError):
            FlowEndpoint(built.node("h1"))  # already occupied
        src.detach()
        src.detach()  # idempotent
        replacement = FlowEndpoint(built.node("h1"))
        assert replacement.host is built.node("h1")

    def test_closed_loop_source_counter(self):
        sim, built, src, dst = flow_pair()
        assert sim._closed_loop_sources == 2
        src.detach()
        assert sim._closed_loop_sources == 1
        dst.detach()
        assert sim._closed_loop_sources == 0


# -- loss recovery ------------------------------------------------------------


def _injected_loss_run(rate, seed, n_flows=8, flow_bytes=60_000, direction="a_to_b"):
    sim, built, src, dst = flow_pair()
    injector = FaultInjector(
        sim,
        ImpairmentSpec.from_any(
            [
                {
                    "name": "drop",
                    "model": "link_loss",
                    "params": {"rate": rate, "direction": direction},
                }
            ]
        ),
        seed=seed,
    )
    injector.bind(link=built.link_between("s1", "h2")).arm()
    flows = [
        src.flow_to(dst, size_bytes=flow_bytes, start_ps=i * us(50))
        for i in range(n_flows)
    ]
    sim.run()
    return built, flows


class TestLossRecovery:
    def test_retransmits_match_injected_drops(self):
        """With only the data direction dropping (ACKs spared) and no
        RTO firing, every injected drop costs exactly one retransmitted
        segment — fast retransmit repairs precisely the holes."""
        built, flows = _injected_loss_run(rate=0.02, seed=2)
        drops = built.node("h2").port.rx.stats.drops_injected
        assert drops > 0
        assert sum(f.record.timeouts for f in flows) == 0
        assert sum(f.record.retransmits for f in flows) == drops
        assert all(f.record.completed for f in flows)
        assert all(f.record.bytes_acked == 60_000 for f in flows)

    def test_rto_resends_are_counted(self):
        """Go-back-N resends after an RTO count as retransmits even
        though they flow through the normal window-fill path — the
        retransmit tally can never undercount the injected drops."""
        built, flows = _injected_loss_run(rate=0.02, seed=11)
        drops = built.node("h2").port.rx.stats.drops_injected
        assert sum(f.record.timeouts for f in flows) >= 1
        assert sum(f.record.retransmits for f in flows) >= drops > 0

    def test_fast_retransmit_repairs_isolated_loss(self):
        built, flows = _injected_loss_run(rate=0.01, seed=3)
        records = [f.record for f in flows]
        assert sum(r.retransmits for r in records) > 0
        assert sum(r.fast_retransmits for r in records) > 0
        # Isolated mid-window losses repair without waiting out an RTO.
        assert all(r.fct_ps < ms(1) for r in records if r.timeouts == 0)

    def test_heavy_loss_falls_back_to_timeouts(self):
        built, flows = _injected_loss_run(rate=0.3, seed=1, n_flows=2, flow_bytes=20_000)
        records = [f.record for f in flows]
        assert sum(r.timeouts for r in records) > 0
        assert all(r.completed for r in records)

    def test_direction_validation(self):
        sim, built, src, dst = flow_pair()
        with pytest.raises(FaultError):
            FaultInjector(
                sim,
                ImpairmentSpec.from_any(
                    [
                        {
                            "name": "drop",
                            "model": "link_loss",
                            "params": {"rate": 0.1, "direction": "sideways"},
                        }
                    ]
                ),
                seed=0,
            ).bind(link=built.link_between("s1", "h2")).arm()


# -- LinkGuardian -------------------------------------------------------------


class TestLinkGuardian:
    def test_validation(self):
        with pytest.raises(FlowError):
            LinkGuardian(corrupt_rate=1.5)
        with pytest.raises(FlowError):
            LinkGuardian(corrupt_rate=0.1, burst=0.5)
        with pytest.raises(FlowError):
            LinkGuardian(corrupt_rate=0.1, max_retx=0)
        with pytest.raises(FlowError):
            LinkGuardian(corrupt_rate=0.1, direction="up")

    def test_attach_once(self):
        sim, built, src, dst = flow_pair()
        guardian = LinkGuardian(corrupt_rate=0.01).attach(built.link_between("s1", "h2"))
        with pytest.raises(FlowError):
            guardian.attach(built.link_between("h1", "s1"))

    def test_unprotected_corruption_booked_as_link_corrupt(self):
        """Without protection a corrupted frame fails its FCS check at the
        far MAC, booked as the ``link_corrupt`` fault books it: one
        corrupted frame on the link, one RX error, one injected drop."""

        def booking(impair):
            sim = Simulator()
            tester = OSNT(sim)
            link = connect(tester.port(0), tester.port(1))
            model = impair(sim, link)
            for index in range(40):
                sim.call_at(index * us(1), tester.port(0).send, udp_template(128))
            sim.run()
            rx = tester.port(1).rx.stats
            return model.corrupted, (
                link.frames_corrupted, rx.errors, rx.drops_injected, 40 - rx.packets
            )

        def guardian(sim, link):
            return LinkGuardian(0.5, protected=False, seed=3).attach(link)

        def link_corrupt(sim, link):
            spec = {"name": "dirt", "model": "link_corrupt", "params": {"rate": 0.5}}
            return FaultInjector(sim, [spec], seed=3).bind(link=link).arm().model("dirt")

        for impair in (guardian, link_corrupt):
            corrupted, booked = booking(impair)
            assert 0 < corrupted < 40
            assert booked == (corrupted,) * 4

    def test_counters_consistent(self):
        result = fct_vs_loss_point(corrupt_rate=5e-3, protected=True, seed=2, n_flows=16)
        link = result["link"]
        assert link["corrupted"] == link["recovered"] + link["lost"]
        assert link["retx_attempts"] >= link["recovered"]

    def test_same_seed_corrupts_same_frames(self):
        """The corruption pattern must be identical protected vs raw at
        the same seed — only the fate of corrupted frames may differ."""
        protected = fct_vs_loss_point(corrupt_rate=1e-3, protected=True, seed=6)
        raw = fct_vs_loss_point(corrupt_rate=1e-3, protected=False, seed=6)
        assert protected["link"]["corrupted"] == raw["link"]["corrupted"] > 0
        assert protected["link"]["lost"] == 0
        assert raw["link"]["lost"] == raw["link"]["corrupted"]

    def test_linkguardian_qualitative_result(self):
        """The acceptance experiment: protection recovers near-lossless
        FCT at 1e-3 corruption while the unprotected tail collapses."""
        base = fct_vs_loss_point(corrupt_rate=0.0, protected=False, seed=6)
        prot = fct_vs_loss_point(corrupt_rate=1e-3, protected=True, seed=6)
        raw = fct_vs_loss_point(corrupt_rate=1e-3, protected=False, seed=6)

        # Lossless baseline: no retransmits at all.
        assert base["retransmits"] == 0 and base["timeouts"] == 0

        # Protected: the transport never sees the corruption.
        assert prot["link"]["corrupted"] > 0
        assert prot["retransmits"] == 0 and prot["timeouts"] == 0
        assert prot["effective_loss_rate"] == 0.0
        assert prot["link_effective_loss_rate"] == 0.0
        # Near-lossless FCT: local recovery costs µs, not RTOs.
        assert prot["fct_us"]["p99"] <= base["fct_us"]["p99"] * 1.1

        # Unprotected: same corruption pattern, tail collapses into RTO.
        assert raw["retransmits"] > 0
        assert raw["timeouts"] >= 1
        assert raw["fct_us"]["p99"] >= 3 * prot["fct_us"]["p99"]
        assert raw["fct_us"]["max"] >= 5 * prot["fct_us"]["max"]

    def test_fifo_preserved_under_recovery(self):
        """Local recovery delays frames; the holdback gate must keep
        the link FIFO so later frames never overtake a recovery."""
        sim, built, src, dst = flow_pair()
        LinkGuardian(
            corrupt_rate=0.05, protected=True, seed=4, retx_delay_ps=us(5)
        ).attach(built.link_between("s1", "h2"))
        flow = src.flow_to(dst, size_bytes=60_000)
        sim.run()
        # In-order delivery end to end: nothing lost, nothing reordered,
        # so the receiver never buffered an out-of-order byte.
        assert flow.record.completed
        assert flow.record.retransmits == 0
        assert flow.receiver.duplicate_bytes == 0


# -- FCT analysis -------------------------------------------------------------


class TestFctReport:
    def test_empty(self):
        report = fct_report([])
        assert report["flows"] == 0
        assert report["flows_completed"] == 0
        assert report["effective_loss_rate"] == 0.0

    def test_distributions_exclude_incomplete(self):
        sim, built, src, dst = flow_pair()
        flows = [src.flow_to(dst, size_bytes=20_000, start_ps=i * us(30)) for i in range(3)]
        sim.run()
        records = [f.record for f in flows]
        broken = dataclasses.replace(
            records[0], completed=False, fct_ps=0, flow_id="broken"
        )
        report = fct_report(records + [broken])
        assert report["flows"] == 4
        assert report["flows_completed"] == 3
        assert report["fct_us"]["count"] == 3

    def test_digest_is_order_sensitive(self):
        sim, built, src, dst = flow_pair()
        flows = [src.flow_to(dst, size_bytes=10_000, start_ps=i * us(30)) for i in range(2)]
        sim.run()
        records = [f.record for f in flows]
        assert completions_digest(records) != completions_digest(records[::-1])


# -- scenario points ----------------------------------------------------------


class TestScenarioPoints:
    def test_fct_vs_loss_repeatable(self):
        a = fct_vs_loss_point(corrupt_rate=1e-3, protected=False, seed=6, n_flows=16)
        b = fct_vs_loss_point(corrupt_rate=1e-3, protected=False, seed=6, n_flows=16)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_observe_is_byte_identical(self):
        """Arming repro.obs spans must not perturb a single timestamp."""
        plain = fct_vs_loss_point(corrupt_rate=1e-3, protected=True, seed=6, n_flows=16)
        with observe_simulators(spans=SpanRecorder()):
            observed = fct_vs_loss_point(
                corrupt_rate=1e-3, protected=True, seed=6, n_flows=16
            )
        assert json.dumps(plain, sort_keys=True) == json.dumps(observed, sort_keys=True)

    def test_effective_loss_vs_speed(self):
        slow = effective_loss_vs_speed_point("10Gbps", corrupt_rate=2e-3, seed=2)
        fast = effective_loss_vs_speed_point("40Gbps", corrupt_rate=2e-3, seed=2)
        for row in (slow, fast):
            assert row["flows_completed"] == row["flows"]
            assert row["link"]["frames_seen"] > 0
        assert fast["link_rate_bps"] == 4 * slow["link_rate_bps"]

    def test_throughput_under_bursty_corruption(self):
        row = throughput_under_bursty_corruption_point(
            corrupt_rate=5e-3, burst=4.0, seed=3, n_flows=4, flow_bytes=60_000
        )
        assert row["aggregate_goodput_gbps"] > 0
        assert row["link"]["corrupted"] >= 0
        assert row["flow_digest"]

    def test_composes_with_fault_impairments(self):
        row = fct_vs_loss_point(
            corrupt_rate=0.0,
            protected=False,
            seed=5,
            n_flows=8,
            flow_bytes=20_000,
            impairments=[
                {
                    "name": "clean-side-drop",
                    "model": "link_loss",
                    "params": {"rate": 0.01, "direction": "a_to_b"},
                }
            ],
        )
        assert "fault_timeline_digest" in row
        assert row["flows_completed"] == row["flows"]


# -- burst datapath: closed-loop eligibility audit ----------------------------


class TestBurstDatapathAudit:
    """A flow transport anywhere in the simulation makes batched window
    advancement unsafe: the burst lane must fall back to the per-packet
    path (and both paths must agree bit-for-bit)."""

    def _mixed_workload(self, monkeypatch, impl):
        """Open-loop OSNT loopback + a closed-loop flow, one simulator."""
        monkeypatch.setenv("REPRO_DATAPATH", impl)
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        _, built, src, dst = flow_pair(sim=sim)
        flow = src.flow_to(dst, size_bytes=30_000)
        generator = tester.generator(0)
        generator.load_template(udp_template(64))
        generator.at_line_rate().for_duration(us(100))
        generator.start()
        sim.run()
        state = {
            "now": sim.now,
            "gen": dataclasses.astuple(generator.stats),
            "mon": (tester.monitor(1).rx_packets, tester.monitor(1).rx_bytes),
            "flow": dataclasses.asdict(flow.record),
        }
        return state, generator

    def test_flows_force_packet_fallback(self, monkeypatch):
        state, generator = self._mixed_workload(monkeypatch, "burst")
        # The lane audited, refused, and spawned the per-packet process.
        assert generator._engine._process is not None
        assert state["flow"]["completed"]

    def test_fallback_is_bit_identical(self, monkeypatch):
        packet, _ = self._mixed_workload(monkeypatch, "packet")
        burst, _ = self._mixed_workload(monkeypatch, "burst")
        assert packet == burst

    def test_burst_lane_engages_without_flows(self, monkeypatch):
        """Control: same workload minus the transport keeps the lane."""
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        generator = tester.generator(0)
        generator.load_template(udp_template(64))
        generator.at_line_rate().for_duration(us(100))
        generator.start()
        sim.run()
        assert generator._engine._process is None
        assert generator.stats.sent > 0

    def test_mid_run_attach_fails_loudly(self, monkeypatch):
        """Arming a transport while a burst lane is active must raise,
        not silently corrupt the lane's batched schedule."""
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        built = (
            Topology(name="pair")
            .host("h1")
            .host("h2")
            .link("h1", "h2")
            .build(sim)
        )
        generator = tester.generator(0)
        generator.load_template(udp_template(64))
        generator.at_line_rate().for_duration(ms(1))
        generator.start()
        sim.run(until=us(10))  # lane audited clean and engaged
        FlowEndpoint(built.node("h1"))  # closed-loop source appears mid-run
        with pytest.raises(SimulationError):
            sim.run()
