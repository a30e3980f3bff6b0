"""Property-based tests on core invariants (hypothesis).

These cover the data structures whose subtle semantics the rest of the
system leans on: the flow table's lookup/modify rules, the ofp_match
wire format, schedule arithmetic, and FIFO conservation.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.devices import FlowEntry, FlowTable
from repro.net import Packet, build_udp
from repro.openflow import Match, OutputAction, constants as ofp
from repro.osnt.generator import ConstantBitRate
from repro.units import GBPS, frame_wire_bytes

ports = st.integers(min_value=0, max_value=65535)
priorities = st.integers(min_value=0, max_value=0xFFFF)
ipv4s = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda v: ".".join(str((v >> s) & 0xFF) for s in (24, 16, 8, 0))
)


@st.composite
def matches(draw):
    """Random matches with a random subset of constrained fields."""
    fields = {}
    if draw(st.booleans()):
        fields["tp_dst"] = draw(ports)
    if draw(st.booleans()):
        fields["tp_src"] = draw(ports)
    if draw(st.booleans()):
        fields["nw_proto"] = draw(st.sampled_from([6, 17]))
    if draw(st.booleans()):
        fields["nw_dst"] = draw(ipv4s)
    if draw(st.booleans()):
        fields["dl_type"] = 0x0800
    match = Match.exact(**fields) if fields else Match()
    if "nw_dst" in fields:
        match.set_nw_dst_prefix(draw(st.integers(min_value=1, max_value=32)))
    return match


@st.composite
def packets(draw):
    return build_udp(
        frame_size=draw(st.integers(min_value=64, max_value=1518)),
        dst_ip=draw(ipv4s),
        src_port=draw(ports),
        dst_port=draw(ports),
    )


class TestMatchProperties:
    @settings(max_examples=100)
    @given(matches())
    def test_wire_roundtrip_preserves_semantics(self, match):
        parsed = Match.unpack(match.pack())
        assert parsed.is_strict_equal(match)
        assert parsed.wildcards == match.wildcards

    @settings(max_examples=100)
    @given(packets())
    def test_exact_key_matches_itself(self, packet):
        key = Match.from_packet(packet.data, in_port=3)
        assert key.matches(key)

    @settings(max_examples=100)
    @given(matches(), packets())
    def test_wildcard_all_dominates(self, rule, packet):
        key = Match.from_packet(packet.data, in_port=1)
        if rule.matches(key):
            # Loosening every field keeps it matching.
            assert Match().matches(key)

    @settings(max_examples=100)
    @given(packets(), st.integers(min_value=0, max_value=32))
    def test_shorter_prefix_matches_superset(self, packet, prefix_len):
        key = Match.from_packet(packet.data, in_port=1)
        rule = Match.exact(dl_type=0x0800, nw_dst=key.nw_dst)
        rule.set_nw_dst_prefix(prefix_len)
        assert rule.matches(key)  # its own address always within prefix

    @settings(max_examples=50)
    @given(matches())
    def test_strict_equal_is_reflexive(self, match):
        assert match.is_strict_equal(match)


class TestFlowTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(matches(), priorities, st.integers(min_value=1, max_value=4)),
            min_size=1,
            max_size=12,
        ),
        packets(),
    )
    def test_lookup_returns_max_priority_match(self, rules, packet):
        table = FlowTable(capacity=64)
        for match, priority, out_port in rules:
            table.add(
                FlowEntry(match=match, priority=priority, actions=[OutputAction(out_port)])
            )
        key = Match.from_packet(packet.data, in_port=1)
        hit = table.lookup(key, now_ps=0)
        matching = [e for e in table.entries if e.match.matches(key)]
        if hit is None:
            assert not matching
        else:
            assert hit.priority == max(e.priority for e in matching)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(matches(), priorities), min_size=1, max_size=10)
    )
    def test_wildcard_delete_empties_table(self, rules):
        table = FlowTable(capacity=64)
        for match, priority in rules:
            table.add(FlowEntry(match=match, priority=priority))
        removed = table.delete(Match())
        assert len(table) == 0
        # Every distinct (match, priority) pair removed exactly once.
        assert len(removed) + len(table) <= len(rules)

    @settings(max_examples=60, deadline=None)
    @given(matches(), priorities)
    def test_add_then_strict_delete_roundtrip(self, match, priority):
        table = FlowTable()
        table.add(FlowEntry(match=match, priority=priority))
        removed = table.delete(match, priority=priority, strict=True)
        assert len(removed) == 1
        assert len(table) == 0

    @settings(max_examples=60, deadline=None)
    @given(matches(), priorities, st.integers(min_value=1, max_value=4))
    def test_add_is_idempotent_for_identical_rules(self, match, priority, out_port):
        table = FlowTable()
        table.add(FlowEntry(match=match, priority=priority, actions=[OutputAction(out_port)]))
        table.add(FlowEntry(match=match, priority=priority, actions=[OutputAction(out_port)]))
        assert len(table) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(matches(), priorities), max_size=20))
    def test_capacity_never_exceeded(self, rules):
        from repro.devices import TableFullError

        table = FlowTable(capacity=5)
        for match, priority in rules:
            try:
                table.add(FlowEntry(match=match, priority=priority))
            except TableFullError:
                pass
            assert len(table) <= 5


#: Few values per field, so rules share shapes, collide and overlap,
#: and random keys hit them.
few_ips = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.1.1", "10.1.0.1", "192.168.0.1"])
few_priorities = st.sampled_from([1, 2, 0x8000])
timeouts_s = st.integers(min_value=0, max_value=2)


@st.composite
def table_rules(draw):
    """Matches of mixed shapes over few values, with nw prefixes.

    A /0 prefix wildcards the address under another wildcard encoding
    than an omitted one: the two rules match alike but are not strict
    duplicates, so equal-priority ties inside one shape occur."""
    fields = {}
    for name, values in (
        ("in_port", st.integers(min_value=1, max_value=2)),
        ("dl_type", st.just(0x0800)),
        ("nw_proto", st.sampled_from([6, 17])),
        ("tp_dst", st.integers(min_value=5000, max_value=5001)),
    ):
        if draw(st.booleans()):
            fields[name] = draw(values)
    prefixes = {}
    for name in ("nw_src", "nw_dst"):
        prefix_len = draw(st.sampled_from([None, 0, 8, 16, 24, 32]))
        if prefix_len is not None:
            fields[name] = draw(few_ips)
            prefixes[name] = prefix_len
    match = Match.exact(**fields)
    if "nw_src" in prefixes:
        match.set_nw_src_prefix(prefixes["nw_src"])
    if "nw_dst" in prefixes:
        match.set_nw_dst_prefix(prefixes["nw_dst"])
    return match


@st.composite
def table_keys(draw):
    """Exact keys over the same few values."""
    return Match(
        wildcards=0,
        in_port=draw(st.integers(min_value=1, max_value=2)),
        dl_type=draw(st.sampled_from([0x0800, 0x0806])),
        nw_proto=draw(st.sampled_from([6, 17])),
        tp_dst=draw(st.integers(min_value=5000, max_value=5001)),
        nw_src=draw(few_ips),
        nw_dst=draw(few_ips),
    )


table_adds = st.tuples(st.just("add"), table_rules(), few_priorities, timeouts_s, timeouts_s)
table_ops = st.one_of(
    table_adds,
    st.tuples(st.just("replace"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("modify"), table_rules(), few_priorities, st.booleans()),
    st.tuples(st.just("delete"), table_rules(), few_priorities, st.booleans()),
    st.tuples(st.just("expire")),
)


class TestFlowTableClassifier:
    """The tuple-space index against the scan it replaced."""

    @staticmethod
    def scan(table, key):
        """The first highest-priority matching entry in table order."""
        best = None
        for entry in table.entries:
            if entry.match.matches(key) and (best is None or entry.priority > best.priority):
                best = entry
        return best

    @settings(max_examples=200, deadline=None)
    # A tie across shapes: the first in table order wins, even when its
    # shape's first rule comes after the other shape's.
    @example(
        adds=[
            ("add", Match.exact(tp_dst=5000), 2, 0, 0),
            ("add", Match.exact(dl_type=0x0800), 2, 0, 0),
            ("add", Match.exact(tp_dst=5001), 2, 0, 0),
        ],
        ops=[],
        keys=[Match(wildcards=0, dl_type=0x0800, tp_dst=5001)],
    )
    @given(
        st.lists(table_adds, min_size=4, max_size=12),
        st.lists(table_ops, max_size=16),
        st.lists(table_keys(), min_size=4, max_size=8),
    )
    def test_lookup_agrees_with_scan_after_every_mutation(self, adds, ops, keys):
        from repro.devices import TableFullError

        table = FlowTable(capacity=16)
        now = 0
        counts = [0, 0, 0]  # lookups, hits, misses
        for op in adds + ops:
            if op[0] == "add":
                __, match, priority, hard_s, idle_s = op
                try:
                    table.add(
                        FlowEntry(
                            match=match,
                            priority=priority,
                            actions=[OutputAction(1)],
                            hard_timeout=hard_s,
                            idle_timeout=idle_s,
                            installed_at_ps=now,
                            last_used_ps=now,
                        )
                    )
                except TableFullError:
                    pass
            elif op[0] == "replace" and table.entries:
                # ADD over an identical rule: a fresh entry takes its slot.
                old = table.entries[op[1] % len(table.entries)]
                copy = Match.unpack(old.match.pack())
                table.add(FlowEntry(match=copy, priority=old.priority, actions=[OutputAction(2)]))
            elif op[0] == "modify":
                __, match, priority, strict = op
                table.modify(match, priority, [OutputAction(3)], strict)
            elif op[0] == "delete":
                __, match, priority, strict = op
                table.delete(match, priority, strict=strict)
            elif op[0] == "expire":
                now += 10**12
                table.expire(now)
            for key in keys:
                want = self.scan(table, key)
                assert table.lookup(key, now) is want
                counts[0] += 1
                counts[1 if want is not None else 2] += 1
            assert [table.lookups, table.hits, table.misses] == counts


class TestScheduleProperties:
    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=64, max_value=1518),
        st.integers(min_value=100, max_value=2000),
    )
    def test_cbr_long_run_rate_within_one_ps_per_packet(self, load, size, count):
        schedule = ConstantBitRate(load * 10 * GBPS)
        total = sum(schedule.gap_after(size) for __ in range(count))
        exact = count * frame_wire_bytes(size) * 8 * 1e12 / (load * 10 * GBPS)
        assert abs(total - exact) <= 1.0  # residue accumulator bound


class TestFifoProperties:
    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=60, max_value=1514), max_size=40))
    def test_conservation_push_pop(self, sizes):
        from repro.hw import ByteFifo

        fifo = ByteFifo(16_384)
        accepted = 0
        for size in sizes:
            if fifo.push(Packet(b"\x00" * size)):
                accepted += 1
        popped = 0
        while fifo.pop() is not None:
            popped += 1
        assert popped == accepted
        assert fifo.dropped == len(sizes) - accepted
        assert fifo.occupancy_bytes == 0


class TestLpmAgainstReference:
    """The trie FIB must agree with a brute-force mask-based reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=32),
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_trie_matches_linear_scan(self, routes, address):
        from repro.devices import Fib, Route
        from repro.net.fields import ipv4_to_str

        fib = Fib()
        reference = {}  # (masked net, length) -> out_port; replicates trie replace
        for index, (net, length) in enumerate(routes):
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            prefix = net & mask
            fib.add(
                Route(
                    prefix=ipv4_to_str(net),
                    prefix_len=length,
                    out_port=index,
                    next_hop_mac="02:aa:00:00:00:01",
                )
            )
            reference[(prefix, length)] = index

        best_reference = None
        for (prefix, length), out_port in reference.items():
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            if (address & mask) == prefix:
                if best_reference is None or length > best_reference[0]:
                    best_reference = (length, out_port)

        hit, __ = fib.lookup(ipv4_to_str(address))
        if best_reference is None:
            assert hit is None
        else:
            assert hit is not None
            assert hit.out_port == best_reference[1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=32),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_remove_is_inverse_of_add(self, routes):
        from repro.devices import Fib, Route
        from repro.net.fields import ipv4_to_str

        fib = Fib()
        seen = set()
        for net, length in routes:
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            seen.add((net & mask, length))
            fib.add(
                Route(
                    prefix=ipv4_to_str(net),
                    prefix_len=length,
                    out_port=1,
                    next_hop_mac="02:aa:00:00:00:01",
                )
            )
        assert fib.size == len(seen)
        for prefix, length in seen:
            assert fib.remove(ipv4_to_str(prefix), length)
        assert fib.size == 0


class TestFlowTransportProperties:
    """Closed-loop transport invariants (repro.flows) under randomized
    flow mixes and directional link loss.

    The loss is injected with ``direction="a_to_b"`` so ACKs are never
    dropped — which makes the loss accounting *exact*: as long as no
    RTO fires, every injected drop costs exactly one retransmitted
    segment (fast retransmit repairs precisely the holes).
    """

    @staticmethod
    def _run(seed, rate, sizes):
        from repro.faults import FaultInjector
        from repro.faults.spec import ImpairmentSpec
        from repro.flows import FlowEndpoint
        from repro.sim import Simulator
        from repro.topology import Topology
        from repro.units import us

        sim = Simulator()
        built = (
            Topology(name="prop")
            .host("h1", rate="10Gbps")
            .host("h2", rate="10Gbps")
            .node("s1", "legacy_switch", ports=2, rate="10Gbps", seed=1)
            .link("h1", "s1:0", rate="10Gbps")
            .link("s1:1", "h2", rate="10Gbps")
            .build(sim)
        )
        if rate > 0.0:
            injector = FaultInjector(
                sim,
                ImpairmentSpec.from_any(
                    [
                        {
                            "name": "drop",
                            "model": "link_loss",
                            "params": {"rate": rate, "direction": "a_to_b"},
                        }
                    ]
                ),
                seed=seed,
            )
            injector.bind(link=built.link_between("s1", "h2")).arm()
        src, dst = FlowEndpoint(built.node("h1")), FlowEndpoint(built.node("h2"))
        flows = [
            src.flow_to(dst, size_bytes=size, start_ps=i * us(40))
            for i, size in enumerate(sizes)
        ]
        sim.run()
        return built, src, flows

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.0, max_value=0.03),
        sizes=st.lists(
            st.integers(min_value=1, max_value=40_000), min_size=1, max_size=4
        ),
    )
    def test_byte_conservation(self, seed, rate, sizes):
        """Every payload byte the application asked for is delivered
        in order exactly once, regardless of what the link dropped."""
        built, src, flows = self._run(seed, rate, sizes)
        for flow, size in zip(flows, sizes):
            record = flow.record
            assert record is not None and record.completed
            assert record.bytes_acked == size
            assert flow.receiver.delivered_bytes == size
            # Wire-level conservation: sent payload covers the transfer
            # plus retransmitted bytes, never less.
            assert record.payload_bytes_sent >= size

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.0, max_value=0.03),
        sizes=st.lists(
            st.integers(min_value=1, max_value=40_000), min_size=1, max_size=4
        ),
    )
    def test_completion_recorded_exactly_once(self, seed, rate, sizes):
        built, src, flows = self._run(seed, rate, sizes)
        assert len(src.completions) == len(flows)
        assert len({r.flow_id for r in src.completions}) == len(flows)
        by_id = {r.flow_id: r for r in src.completions}
        for flow in flows:
            assert by_id[flow.record.flow_id] is flow.record

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.floats(min_value=0.001, max_value=0.03),
        sizes=st.lists(
            st.integers(min_value=5_000, max_value=40_000), min_size=1, max_size=4
        ),
    )
    def test_retransmits_match_injected_losses(self, seed, rate, sizes):
        """Data-direction drops are repaid one retransmission each —
        exactly, unless an RTO forced go-back-N (which may resend
        segments the receiver already had)."""
        built, src, flows = self._run(seed, rate, sizes)
        records = [f.record for f in flows]
        drops = built.node("h2").port.rx.stats.drops_injected
        retransmits = sum(r.retransmits for r in records)
        if sum(r.timeouts for r in records) == 0:
            assert retransmits == drops
        else:
            assert retransmits >= drops
