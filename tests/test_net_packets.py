"""Tests for Packet, builders, the layer parser and flow extraction."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.errors import PacketError
from repro.net import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    FiveTuple,
    Packet,
    build_arp_request,
    build_icmp_echo,
    build_tcp,
    build_udp,
    decode,
    extract_five_tuple,
)
from repro.net.checksum import internet_checksum, pseudo_header_checksum
from repro.net.fields import ipv4_to_bytes


class TestPacket:
    def test_rejects_sub_ethernet_frames(self):
        with pytest.raises(PacketError):
            Packet(b"\x00" * 13)

    def test_frame_length_includes_fcs(self):
        packet = Packet(b"\x00" * 96)
        assert packet.frame_length == 100

    def test_frame_length_pads_runts(self):
        packet = Packet(b"\x00" * 20)
        assert packet.frame_length == 64

    def test_ids_are_unique(self):
        first, second = Packet(b"\x00" * 60), Packet(b"\x00" * 60)
        assert first.packet_id != second.packet_id

    def test_copy_carries_metadata_fresh_id(self):
        packet = Packet(b"\x00" * 60)
        packet.rx_timestamp = 123
        packet.ingress_port = 2
        clone = packet.copy()
        assert clone.rx_timestamp == 123
        assert clone.ingress_port == 2
        assert clone.packet_id != packet.packet_id

    def test_with_data_replaces_bytes(self):
        packet = Packet(b"\x00" * 60)
        packet.tx_timestamp = 5
        clone = packet.with_data(b"\xff" * 72)
        assert clone.data == b"\xff" * 72
        assert clone.tx_timestamp == 5
        assert packet.data == b"\x00" * 60


class TestBuilders:
    @pytest.mark.parametrize("size", [64, 65, 128, 512, 1024, 1518])
    def test_udp_frame_exact_wire_size(self, size):
        packet = build_udp(frame_size=size)
        assert packet.frame_length == size

    def test_udp_below_minimum_headers_rejected(self):
        with pytest.raises(PacketError):
            build_udp(frame_size=63)
        with pytest.raises(PacketError):
            build_udp(frame_size=2000)

    def test_udp_decodes_with_valid_checksums(self):
        packet = build_udp(frame_size=256, src_ip="10.1.1.1", dst_ip="10.2.2.2")
        decoded = decode(packet.data)
        assert decoded.ipv4 is not None
        assert decoded.udp is not None
        assert decoded.ipv4.verify_checksum(packet.data, 14)
        src, dst = ipv4_to_bytes("10.1.1.1"), ipv4_to_bytes("10.2.2.2")
        assert pseudo_header_checksum(src, dst, 17, packet.data[34:]) == 0

    def test_udp_vlan_tagged(self):
        packet = build_udp(frame_size=128, vlan=42)
        decoded = decode(packet.data)
        assert len(decoded.vlan_tags) == 1
        assert decoded.vlan_tags[0].vid == 42
        assert decoded.udp is not None
        assert packet.frame_length == 128

    def test_udp_custom_payload_wins_over_size(self):
        packet = build_udp(payload=b"PAYLOAD")
        decoded = decode(packet.data)
        assert decoded.payload == b"PAYLOAD"

    def test_udp_fill_pattern(self):
        packet = build_udp(frame_size=100, fill=b"\xa5")
        decoded = decode(packet.data)
        assert set(decoded.payload) == {0xA5}

    def test_tcp_frame_exact_wire_size(self):
        packet = build_tcp(frame_size=200, dst_port=8080, seq=99)
        assert packet.frame_length == 200
        decoded = decode(packet.data)
        assert decoded.tcp is not None
        assert decoded.tcp.dst_port == 8080
        assert decoded.tcp.seq == 99

    def test_icmp_echo(self):
        packet = build_icmp_echo(frame_size=96, identifier=3, sequence=17)
        decoded = decode(packet.data)
        assert decoded.icmp is not None
        assert decoded.icmp.identifier == 3
        assert decoded.icmp.sequence == 17
        assert internet_checksum(packet.data[34:]) == 0

    def test_arp_request_is_broadcast(self):
        packet = build_arp_request(sender_ip="10.0.0.9", target_ip="10.0.0.1")
        decoded = decode(packet.data)
        assert decoded.ethernet.dst == "ff:ff:ff:ff:ff:ff"
        assert decoded.arp is not None
        assert decoded.arp.target_ip == "10.0.0.1"

    @given(st.integers(min_value=64, max_value=1518))
    def test_any_size_udp_builds_and_decodes(self, size):
        packet = build_udp(frame_size=size)
        assert packet.frame_length == size
        assert decode(packet.data).udp is not None


class TestParser:
    def test_unknown_ethertype_leaves_l3_empty(self):
        packet = build_udp(frame_size=128)
        mangled = bytearray(packet.data)
        mangled[12:14] = b"\x88\xb5"  # local experimental ethertype
        decoded = decode(bytes(mangled))
        assert decoded.l3 is None
        assert decoded.payload == bytes(mangled[14:])

    def test_truncated_l4_keeps_l3(self):
        packet = build_udp(frame_size=128)
        truncated = packet.data[:38]  # mid-UDP header
        decoded = decode(truncated)
        assert decoded.ipv4 is not None
        assert decoded.udp is None

    def test_payload_offset_consistent(self):
        packet = build_udp(frame_size=256)
        decoded = decode(packet.data)
        assert packet.data[decoded.payload_offset :] == decoded.payload
        assert decoded.payload_offset == 42  # 14 + 20 + 8

    def test_l3_l4_shortcuts(self):
        decoded = decode(build_tcp(frame_size=128).data)
        assert decoded.l3 is decoded.ipv4
        assert decoded.l4 is decoded.tcp

    def test_header_offsets_agree_with_decode(self):
        from repro.net.parser import header_offsets

        from .test_frame_golden import _corpus

        for frame in _corpus():
            try:
                decoded = decode(frame)
            except PacketError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    header_offsets(frame)
                continue
            at = header_offsets(frame)
            assert (at.vlan_tags, at.l3_offset) == (
                len(decoded.vlan_tags),
                14 + 4 * len(decoded.vlan_tags),
            )
            if decoded.ipv4 is not None:
                ip = (ETHERTYPE_IPV4, decoded.ipv4.header_length, decoded.ipv4.protocol)
            elif decoded.ipv6 is not None:
                ip = (ETHERTYPE_IPV6, 40, decoded.ipv6.next_header)
            else:
                ip = (None, 0, None)
            assert (at.l3, at.ip_header_len, at.protocol) == ip
            if decoded.tcp is not None:
                l4_offset = decoded.payload_offset - decoded.tcp.header_length
            elif decoded.udp is not None:
                l4_offset = decoded.payload_offset - 8
            else:
                l4_offset = None
            assert at.l4_offset == l4_offset


class TestFiveTuples:
    def test_udp_tuple(self):
        packet = build_udp(
            frame_size=90,
            src_ip="10.0.0.1",
            dst_ip="10.0.0.2",
            src_port=1111,
            dst_port=2222,
        )
        tup = extract_five_tuple(packet.data)
        assert tup == FiveTuple("10.0.0.1", "10.0.0.2", 17, 1111, 2222)

    def test_icmp_tuple_has_zero_ports(self):
        tup = extract_five_tuple(build_icmp_echo().data)
        assert tup is not None
        assert (tup.src_port, tup.dst_port) == (0, 0)
        assert tup.protocol == 1

    def test_arp_has_no_tuple(self):
        assert extract_five_tuple(build_arp_request().data) is None

    def test_reversed(self):
        tup = FiveTuple("1.1.1.1", "2.2.2.2", 6, 80, 443)
        rev = tup.reversed()
        assert rev == FiveTuple("2.2.2.2", "1.1.1.1", 6, 443, 80)
        assert rev.reversed() == tup

    def test_usable_as_dict_key(self):
        counts = {}
        packet = build_udp()
        for __ in range(3):
            tup = extract_five_tuple(packet.data)
            counts[tup] = counts.get(tup, 0) + 1
        assert list(counts.values()) == [3]

    def test_accepts_predecoded(self):
        packet = build_udp()
        decoded = decode(packet.data)
        assert extract_five_tuple(decoded) == extract_five_tuple(packet.data)


class TestIpv6Builder:
    def test_exact_wire_size(self):
        from repro.net import build_udp6

        for size in (66, 128, 1518):
            assert build_udp6(frame_size=size).frame_length == size

    def test_decodes_with_ipv6_layer(self):
        from repro.net import build_udp6

        decoded = decode(build_udp6(frame_size=100, dst_port=443).data)
        assert decoded.ipv6 is not None
        assert decoded.ipv4 is None
        assert decoded.udp.dst_port == 443

    def test_udp_checksum_valid_over_v6_pseudo_header(self):
        from repro.net import build_udp6
        from repro.net.checksum import pseudo_header_checksum
        from repro.net.fields import ipv6_to_bytes

        packet = build_udp6(frame_size=100, src_ip="fd00::1", dst_ip="fd00::2")
        src, dst = ipv6_to_bytes("fd00::1"), ipv6_to_bytes("fd00::2")
        assert pseudo_header_checksum(src, dst, 17, packet.data[54:]) == 0

    def test_five_tuple_extraction(self):
        from repro.net import build_udp6

        tup = extract_five_tuple(build_udp6(src_port=7, dst_port=8).data)
        assert tup.protocol == 17
        assert (tup.src_port, tup.dst_port) == (7, 8)

    def test_too_small_rejected(self):
        from repro.errors import PacketError
        from repro.net import build_udp6

        with pytest.raises(PacketError):
            build_udp6(frame_size=65)
