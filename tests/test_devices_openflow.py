"""Tests for the flow table and the OpenFlow switch model."""

import pytest

from repro.devices import FlowEntry, FlowTable, OpenFlowSwitch, SwitchProfile, TableFullError
from repro.devices.flow_table import OverlapError
from repro.hw import EthernetPort, connect
from repro.net import build_udp
from repro.openflow import (
    BarrierReply,
    BarrierRequest,
    ControlChannel,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    Hello,
    Match,
    OutputAction,
    PacketIn,
    PacketOut,
    SetNwAction,
    StatsReply,
    StatsRequest,
    constants as ofp,
)
from repro.sim import Simulator
from repro.units import ms, us


def entry(match, priority=0x8000, out_port=2, **kwargs):
    return FlowEntry(match=match, priority=priority, actions=[OutputAction(out_port)], **kwargs)


class TestFlowTable:
    def key_for(self, dst_port=5001, dst_ip="10.0.0.2"):
        frame = build_udp(frame_size=100, dst_port=dst_port, dst_ip=dst_ip)
        return Match.from_packet(frame.data, in_port=1)

    def test_lookup_highest_priority_wins(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=5001), priority=10, out_port=2))
        table.add(entry(Match(), priority=5, out_port=3))  # catch-all
        hit = table.lookup(self.key_for(), now_ps=0)
        assert hit.actions[0].port == 2
        miss_to_catchall = table.lookup(self.key_for(dst_port=80), now_ps=0)
        assert miss_to_catchall.actions[0].port == 3

    def test_miss_returns_none(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=9999)))
        assert table.lookup(self.key_for(dst_port=80), now_ps=0) is None
        assert table.misses == 1

    def test_hit_updates_counters(self):
        table = FlowTable()
        added = table.add(entry(Match()))
        table.lookup(self.key_for(), now_ps=123, nbytes=100)
        assert added.packet_count == 1
        assert added.byte_count == 100
        assert added.last_used_ps == 123

    def test_add_identical_replaces(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=80), out_port=1))
        table.add(entry(Match.exact(tp_dst=80), out_port=9))
        assert len(table) == 1
        assert table.entries[0].actions[0].port == 9

    def test_capacity(self):
        table = FlowTable(capacity=2)
        table.add(entry(Match.exact(tp_dst=1)))
        table.add(entry(Match.exact(tp_dst=2)))
        with pytest.raises(TableFullError):
            table.add(entry(Match.exact(tp_dst=3)))

    def test_check_overlap(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=80), priority=5))
        with pytest.raises(OverlapError):
            table.add(entry(Match.exact(nw_proto=17), priority=5), check_overlap=True)
        # Different priority never overlaps.
        table.add(entry(Match.exact(nw_proto=17), priority=6), check_overlap=True)

    def test_disjoint_rules_do_not_overlap(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=80), priority=5))
        table.add(entry(Match.exact(tp_dst=81), priority=5), check_overlap=True)
        assert len(table) == 2

    def test_modify_strict_requires_same_priority(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=80), priority=5, out_port=1))
        changed = table.modify(Match.exact(tp_dst=80), 6, [OutputAction(7)], strict=True)
        assert changed == 0
        changed = table.modify(Match.exact(tp_dst=80), 5, [OutputAction(7)], strict=True)
        assert changed == 1
        assert table.entries[0].actions[0].port == 7

    def test_strict_flow_mod_builds_the_command_key_once(self, monkeypatch):
        # One normalised tuple per entry, plus one for the command.
        n = 16
        table = FlowTable()
        for port in range(n):
            table.add(entry(Match.exact(tp_dst=port), priority=5))
        builds = []
        normalised_tuple = Match.normalised_tuple

        def counted(match):
            builds.append(match)
            return normalised_tuple(match)

        monkeypatch.setattr(Match, "normalised_tuple", counted)
        assert table.modify(Match.exact(tp_dst=3), 5, [OutputAction(7)], strict=True) == 1
        assert len(builds) == n + 1
        builds.clear()
        assert len(table.delete(Match.exact(tp_dst=3), priority=5, strict=True)) == 1
        assert len(builds) == n + 1

    def test_modify_loose_rewrites_all_within_filter(self):
        table = FlowTable()
        table.add(entry(Match.exact(nw_proto=17, tp_dst=80), priority=1))
        table.add(entry(Match.exact(nw_proto=17, tp_dst=81), priority=2))
        table.add(entry(Match.exact(nw_proto=6, tp_dst=80), priority=3))
        changed = table.modify(Match.exact(nw_proto=17), 0, [OutputAction(5)], strict=False)
        assert changed == 2

    def test_delete_strict(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=80), priority=5))
        removed = table.delete(Match.exact(tp_dst=80), priority=5, strict=True)
        assert len(removed) == 1
        assert len(table) == 0

    def test_delete_all_with_wildcard_filter(self):
        table = FlowTable()
        for port in range(5):
            table.add(entry(Match.exact(tp_dst=port)))
        removed = table.delete(Match())  # all-wildcard filter selects all
        assert len(removed) == 5
        assert len(table) == 0

    def test_delete_by_out_port(self):
        table = FlowTable()
        table.add(entry(Match.exact(tp_dst=1), out_port=2))
        table.add(entry(Match.exact(tp_dst=2), out_port=3))
        removed = table.delete(Match(), out_port=3)
        assert len(removed) == 1
        assert table.entries[0].actions[0].port == 2

    def test_expire_hard_timeout(self):
        table = FlowTable()
        added = table.add(entry(Match(), hard_timeout=2, installed_at_ps=0))
        assert table.expire(now_ps=10**12) == []
        expired = table.expire(now_ps=3 * 10**12)
        assert expired == [(added, ofp.OFPRR_HARD_TIMEOUT)]

    def test_expire_idle_timeout_reset_by_traffic(self):
        table = FlowTable()
        table.add(entry(Match(), idle_timeout=2, installed_at_ps=0))
        table.lookup(self.key_for(), now_ps=int(1.5 * 10**12))
        assert table.expire(now_ps=3 * 10**12) == []  # used at 1.5s, idle < 2s
        expired = table.expire(now_ps=4 * 10**12)
        assert len(expired) == 1
        assert expired[0][1] == ofp.OFPRR_IDLE_TIMEOUT

    def test_full_table_lookup_calls_no_match(self, monkeypatch):
        """A lookup probes one hash bucket per rule shape: at capacity
        (4,095 rules of one shape plus a catch-all) it returns the right
        entry without calling ``Match.matches`` on any rule."""
        table = FlowTable()
        for port in range(table.capacity - 1):
            table.add(
                FlowEntry(
                    match=Match.exact(dl_type=0x0800, nw_proto=17, tp_dst=port),
                    priority=100 + port,
                    actions=[OutputAction(2)],
                )
            )
        catch_all = table.add(FlowEntry(match=Match(), priority=1))
        assert len(table) == table.capacity
        calls = []
        original = Match.matches
        monkeypatch.setattr(
            Match, "matches", lambda rule, key: calls.append(rule) or original(rule, key)
        )
        udp = Match(wildcards=0, dl_type=0x0800, nw_proto=17, tp_dst=1234)
        tcp = Match(wildcards=0, dl_type=0x0800, nw_proto=6, tp_dst=1234)
        assert table.lookup(udp, now_ps=0) is table.entries[1234]
        assert table.lookup(tcp, now_ps=0) is catch_all
        assert calls == []
        assert (table.lookups, table.hits, table.misses) == (2, 2, 0)


class SwitchRig:
    """An OF switch with a recording controller and endpoint ports."""

    def __init__(self, sim, num_ports=4, profile=None, control_latency=us(50)):
        self.sim = sim
        self.channel = ControlChannel(sim, latency_ps=control_latency)
        self.received = []
        self.channel.controller.on_message = self._on_message
        self.switch = OpenFlowSwitch(
            sim, self.channel.switch, num_ports=num_ports, profile=profile
        )
        self.endpoints = []
        for index in range(num_ports):
            endpoint = EthernetPort(sim, f"h{index}")
            connect(endpoint, self.switch.port(index), propagation_ps=0)
            self.endpoints.append(endpoint)

    def _on_message(self, message):
        self.received.append((self.sim.now, message))

    def send(self, message):
        self.channel.controller.send(message)

    def messages_of(self, cls):
        return [m for __, m in self.received if isinstance(m, cls)]


class TestOpenFlowSwitch:
    def test_hello_on_connect(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        sim.run()
        assert len(rig.messages_of(Hello)) == 1

    def test_echo(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(EchoRequest(xid=9, payload=b"abc"))
        sim.run()
        replies = rig.messages_of(EchoReply)
        assert replies[0].xid == 9
        assert replies[0].payload == b"abc"

    def test_features(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(FeaturesRequest(xid=2))
        sim.run()
        reply = rig.messages_of(FeaturesReply)[0]
        assert reply.datapath_id == rig.switch.datapath_id
        assert len(reply.ports) == 4
        assert reply.ports[0].port_no == 1

    def test_flow_mod_then_forwarding(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(
            FlowMod(
                match=Match.exact(dl_type=0x0800, nw_dst="10.0.0.2"),
                actions=[OutputAction(port=2)],
            )
        )
        rig.send(BarrierRequest(xid=5))
        sim.run()
        assert len(rig.messages_of(BarrierReply)) == 1
        out = []
        rig.endpoints[1].add_rx_sink(out.append)
        rig.endpoints[0].send(build_udp(frame_size=100, dst_ip="10.0.0.2"))
        sim.run()
        assert len(out) == 1
        assert rig.switch.datapath_hits == 1

    def test_miss_generates_packet_in(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        frame = build_udp(frame_size=300, dst_ip="10.9.9.9")
        rig.endpoints[0].send(frame)
        sim.run()
        packet_ins = rig.messages_of(PacketIn)
        assert len(packet_ins) == 1
        assert packet_ins[0].in_port == 1
        assert packet_ins[0].total_len == len(frame.data)
        assert len(packet_ins[0].data) == 128  # miss_send_len truncation

    def test_packet_out_emits(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        out = []
        rig.endpoints[2].add_rx_sink(out.append)
        frame = build_udp(frame_size=100)
        rig.send(PacketOut(actions=[OutputAction(port=3)], data=frame.data))
        sim.run()
        assert len(out) == 1
        assert out[0].data == frame.data

    def test_flood_action(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(FlowMod(match=Match(), actions=[OutputAction(ofp.OFPP_FLOOD)]))
        rig.send(BarrierRequest())
        sim.run()
        seen = {i: [] for i in range(4)}
        for i, endpoint in enumerate(rig.endpoints):
            endpoint.add_rx_sink(lambda p, i=i: seen[i].append(p))
        rig.endpoints[0].send(build_udp(frame_size=100))
        sim.run()
        assert len(seen[0]) == 0
        assert all(len(seen[i]) == 1 for i in (1, 2, 3))

    def test_rewrite_action_applied(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(
            FlowMod(
                match=Match(),
                actions=[SetNwAction("dst", "172.16.0.1"), OutputAction(port=2)],
            )
        )
        rig.send(BarrierRequest())
        sim.run()
        out = []
        rig.endpoints[1].add_rx_sink(out.append)
        rig.endpoints[0].send(build_udp(frame_size=100, dst_ip="10.0.0.2"))
        sim.run()
        from repro.net import decode

        assert decode(out[0].data).ipv4.dst == "172.16.0.1"

    def test_table_full_error(self):
        sim = Simulator()
        profile = SwitchProfile(table_capacity=2)
        rig = SwitchRig(sim, profile=profile)
        for port in range(3):
            rig.send(
                FlowMod(match=Match.exact(tp_dst=port), actions=[OutputAction(2)])
            )
        sim.run()
        errors = rig.messages_of(ErrorMsg)
        assert len(errors) == 1
        assert errors[0].err_type == ofp.OFPET_FLOW_MOD_FAILED

    def test_delete_sends_flow_removed_when_flagged(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(
            FlowMod(
                match=Match.exact(tp_dst=80),
                actions=[OutputAction(2)],
                flags=ofp.OFPFF_SEND_FLOW_REM,
            )
        )
        rig.send(FlowMod(match=Match(), command=ofp.OFPFC_DELETE))
        sim.run()
        removed = rig.messages_of(FlowRemoved)
        assert len(removed) == 1
        assert removed[0].reason == ofp.OFPRR_DELETE

    def test_idle_timeout_expiry_notifies(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(
            FlowMod(
                match=Match.exact(tp_dst=80),
                actions=[OutputAction(2)],
                idle_timeout=1,
                flags=ofp.OFPFF_SEND_FLOW_REM,
            )
        )
        sim.run()
        sim.run(until=3 * 10**12)  # let the expiry scan fire
        sim.run()
        removed = rig.messages_of(FlowRemoved)
        assert len(removed) == 1
        assert removed[0].reason == ofp.OFPRR_IDLE_TIMEOUT

    def test_stats_flow_and_aggregate(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.send(FlowMod(match=Match.exact(tp_dst=5001), actions=[OutputAction(2)]))
        rig.send(BarrierRequest())
        sim.run()
        rig.endpoints[0].send(build_udp(frame_size=100, dst_port=5001))
        sim.run()
        rig.send(StatsRequest(stats_type=ofp.OFPST_FLOW))
        rig.send(StatsRequest(stats_type=ofp.OFPST_AGGREGATE))
        sim.run()
        replies = rig.messages_of(StatsReply)
        flow_reply = next(r for r in replies if r.stats_type == ofp.OFPST_FLOW)
        assert len(flow_reply.reply_body) >= 88
        aggregate = next(r for r in replies if r.stats_type == ofp.OFPST_AGGREGATE)
        import struct

        packets, nbytes, flows = struct.unpack_from("!QQI", aggregate.reply_body)
        assert packets == 1
        assert flows == 1

    def test_stats_port(self):
        sim = Simulator()
        rig = SwitchRig(sim)
        rig.endpoints[0].send(build_udp(frame_size=100))
        sim.run()
        rig.send(StatsRequest(stats_type=ofp.OFPST_PORT))
        sim.run()
        reply = rig.messages_of(StatsReply)[0]
        assert len(reply.reply_body) == 4 * 104


class TestBarrierSemantics:
    def run_barrier_experiment(self, barrier_mode, n_rules=20):
        """Install a burst of rules + barrier; returns (barrier_time,
        last_write_commit_time)."""
        sim = Simulator()
        profile = SwitchProfile(
            barrier_mode=barrier_mode,
            firmware_delay_ps=us(10),
            table_write_ps=us(100),
        )
        rig = SwitchRig(sim, profile=profile)
        for index in range(n_rules):
            rig.send(
                FlowMod(match=Match.exact(tp_dst=index), actions=[OutputAction(2)])
            )
        rig.send(BarrierRequest(xid=999))
        sim.run()
        barrier_at = next(t for t, m in rig.received if isinstance(m, BarrierReply))
        table_done = rig.switch._write_clear_time
        return barrier_at, table_done, rig

    def test_spec_barrier_waits_for_writes(self):
        barrier_at, table_done, __ = self.run_barrier_experiment("spec")
        # Reply left the switch after the last write committed.
        assert barrier_at > table_done

    def test_eager_barrier_races_ahead_of_writes(self):
        barrier_at, table_done, __ = self.run_barrier_experiment("eager")
        # The dishonest switch confirms before the table is ready.
        assert barrier_at < table_done

    def test_rules_install_serially(self):
        __, __, rig = self.run_barrier_experiment("spec", n_rules=10)
        assert len(rig.switch.table) == 10

    def test_bad_profile(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SwitchProfile(barrier_mode="sometimes")
        with pytest.raises(ConfigError):
            SwitchProfile(firmware_delay_ps=-1)


class TestLearningController:
    def rig_with_hosts(self, sim):
        from repro.devices import SimpleHost
        from repro.openflow.controller import LearningSwitchController

        channel = ControlChannel(sim, latency_ps=us(50))
        switch = OpenFlowSwitch(sim, channel.switch, num_ports=3)
        controller = LearningSwitchController(channel.controller)
        hosts = []
        for index in range(3):
            host = SimpleHost(
                sim,
                f"h{index}",
                mac=f"02:00:00:00:00:{index + 1:02x}",
                ip=f"10.0.0.{index + 1}",
            )
            connect(host.port, switch.port(index))
            hosts.append(host)
        return channel, switch, controller, hosts

    def test_handshake_learns_datapath_id(self):
        sim = Simulator()
        __, switch, controller, __ = self.rig_with_hosts(sim)
        sim.run(until=ms(2))
        assert controller.datapath_id == switch.datapath_id

    def test_first_packet_floods_then_rules_install(self):
        sim = Simulator()
        __, switch, controller, hosts = self.rig_with_hosts(sim)
        sim.run(until=ms(2))

        # h0 -> h1: unknown destination, flooded via the controller.
        hosts[0].send(build_udp(
            frame_size=100,
            src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02",
            dst_ip="10.0.0.2",
        ))
        sim.run(until=ms(4))
        assert controller.floods == 1
        assert len(hosts[1].received) == 1
        assert len(hosts[2].received) == 1  # flood reaches everyone

        # h1 -> h0: destination now known, rule installed + packet_out.
        hosts[1].send(build_udp(
            frame_size=100,
            src_mac="02:00:00:00:00:02",
            dst_mac="02:00:00:00:00:01",
            dst_ip="10.0.0.1",
        ))
        sim.run(until=ms(8))
        assert controller.flows_installed == 1
        assert len(switch.table) == 1
        assert len(hosts[0].received) == 1
        assert len(hosts[2].received) == 1  # not flooded this time

    def test_established_flow_bypasses_controller(self):
        sim = Simulator()
        __, switch, controller, hosts = self.rig_with_hosts(sim)
        sim.run(until=ms(2))
        # Prime both directions.
        hosts[0].send(build_udp(
            frame_size=100, src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02", dst_ip="10.0.0.2"))
        sim.run(until=ms(4))
        hosts[1].send(build_udp(
            frame_size=100, src_mac="02:00:00:00:00:02",
            dst_mac="02:00:00:00:00:01", dst_ip="10.0.0.1"))
        sim.run(until=ms(8))
        hosts[0].send(build_udp(
            frame_size=100, src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02", dst_ip="10.0.0.2"))
        sim.run(until=ms(12))
        packet_ins_before = controller.packet_ins_handled
        # A burst along the established path: hardware-forwarded only.
        for __ in range(20):
            hosts[1].send(build_udp(
                frame_size=100, src_mac="02:00:00:00:00:02",
                dst_mac="02:00:00:00:00:01", dst_ip="10.0.0.1"))
        sim.run(until=ms(16))
        assert controller.packet_ins_handled == packet_ins_before
        assert len(hosts[0].received) >= 21
        assert switch.datapath_hits >= 20
