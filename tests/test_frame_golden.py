"""Golden digests for frame parsing and every in-place header rewrite.

The parser, the generator's field modifiers, the TX stamper's checksum
clear and the OpenFlow set-field actions all locate headers in raw
frame bytes, and simulated results depend on each of them byte for
byte. The corpus below holds whole frames of every kind the builder
makes, each frame cut at every length, and seeded corruptions of the
header bytes; a change to how frames are read must leave every pinned
digest identical.
"""

import hashlib
import random
import struct

import pytest

from repro.errors import ReproError
from repro.net import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_VLAN,
    PROTO_TCP,
    EthernetHeader,
    Ipv4Header,
    Ipv6Header,
    TcpHeader,
    build_arp_request,
    build_icmp_echo,
    build_tcp,
    build_udp,
    build_udp6,
    decode,
)
from repro.net.fields import ipv4_to_bytes, ipv6_to_bytes
from repro.openflow import fieldrewrite
from repro.osnt.generator import tx_timestamp
from repro.osnt.generator.field_modifiers import (
    Ipv4AddressSweep,
    SequenceNumber,
    UdpPortSweep,
    VlanIdRewrite,
    fix_ipv4_checksum,
    zero_l4_checksum,
)


def _tagged(data: bytes, vid: int) -> bytes:
    """``data`` with one more 802.1Q tag pushed after the MAC addresses."""
    return data[:12] + struct.pack("!HH", ETHERTYPE_VLAN, vid) + data[12:]


def _frame(ethertype: int, network: bytes) -> bytes:
    eth = EthernetHeader(dst="02:00:00:00:00:02", src="02:00:00:00:00:01", ethertype=ethertype)
    return eth.pack() + network


def _tcp_with_options() -> bytes:
    """TCP/IPv4 carrying 4 bytes of IP options and 8 of TCP options."""
    src, dst = "10.1.0.1", "10.1.0.2"
    mss_nop_nop_eol = b"\x02\x04\x05\xb4\x01\x01\x01\x00"
    tcp = TcpHeader(src_port=1234, dst_port=80, seq=7, options=mss_nop_nop_eol)
    segment = tcp.pack(b"payload!" * 3, ipv4_to_bytes(src), ipv4_to_bytes(dst))
    ip = Ipv4Header(src=src, dst=dst, protocol=PROTO_TCP, options=b"\x01\x01\x01\x00")
    return _frame(ETHERTYPE_IPV4, ip.pack(len(segment)) + segment)


def _tcp6() -> bytes:
    """TCP/IPv6, which the builder does not make."""
    src, dst = "2001:db8::1", "2001:db8::2"
    tcp = TcpHeader(src_port=443, dst_port=50000, flags=0x12)
    segment = tcp.pack(b"x" * 10, ipv6_to_bytes(src), ipv6_to_bytes(dst))
    ip6 = Ipv6Header(src=src, dst=dst, next_header=PROTO_TCP)
    return _frame(ETHERTYPE_IPV6, ip6.pack(len(segment)) + segment)


def _frames():
    frames = []
    for size in (64, 150):
        frames += [
            build_udp(size).data,
            build_udp(size, vlan=100).data,
            build_tcp(size).data,
            build_tcp(size, vlan=7).data,
            build_icmp_echo(size).data,
            build_udp6(size + 14).data,
        ]
    frames += [
        build_arp_request().data,
        _tagged(build_arp_request().data, 5),
        _tagged(build_icmp_echo(64).data, 9),
        _tagged(build_udp6(78).data, 11),
        _tagged(build_udp(64, vlan=3).data, 4),  # two tags
        _tcp_with_options(),
        _tagged(_tcp_with_options(), 12),
        _tcp6(),
    ]
    return frames


def _corpus():
    """Every frame, every prefix of it, and 48 seeded corruptions of each."""
    rng = random.Random(1402)
    corpus = []
    for frame in _frames():
        corpus += [frame[:cut] for cut in range(len(frame) + 1)]
        for _ in range(48):
            corrupt = bytearray(frame)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(min(len(frame), 80))
                if rng.random() < 0.5:
                    corrupt[at] = rng.randrange(256)
                else:
                    corrupt[at] ^= 1 << rng.randrange(8)
            corpus.append(bytes(corrupt))
    return corpus


_SWEEP_SRC = Ipv4AddressSweep("src", "192.168.1.1", count=5, stride=3)
_SWEEP_DST = Ipv4AddressSweep("dst", "172.16.0.9", count=3)
_PORT_SRC = UdpPortSweep("src", 40000, count=7)
_PORT_DST = UdpPortSweep("dst", 65534, count=4)
_SEQUENCE = SequenceNumber(46)
_VLAN = VlanIdRewrite(0xABC)

#: name -> (frame, corpus index) -> result; what each digest covers.
CALLS = {
    "decode": lambda f, i: decode(f),
    "Ipv4AddressSweep.src": lambda f, i: _SWEEP_SRC.apply(f, i),
    "Ipv4AddressSweep.dst": lambda f, i: _SWEEP_DST.apply(f, i),
    "UdpPortSweep.src": lambda f, i: _PORT_SRC.apply(f, i),
    "UdpPortSweep.dst": lambda f, i: _PORT_DST.apply(f, i),
    "SequenceNumber": lambda f, i: _SEQUENCE.apply(f, i),
    "VlanIdRewrite": lambda f, i: _VLAN.apply(f, i),
    "zero_l4_checksum": lambda f, i: zero_l4_checksum(f),
    "fix_ipv4_checksum": lambda f, i: fix_ipv4_checksum(f),
    "tx_timestamp._clear_udp_checksum": lambda f, i: [
        tx_timestamp._clear_udp_checksum(f, offset) for offset in (0, 41, 42, 45, 46, 50)
    ],
    "set_mac_address": lambda f, i: [
        fieldrewrite.set_mac_address(f, which, "0a:0b:0c:0d:0e:0f") for which in ("src", "dst")
    ],
    "set_ipv4_address": lambda f, i: [
        fieldrewrite.set_ipv4_address(f, which, "8.8.4.4") for which in ("src", "dst")
    ],
    "set_tp_port": lambda f, i: [
        fieldrewrite.set_tp_port(f, which, 4242 + i % 3) for which in ("src", "dst")
    ],
    "set_vlan_vid": lambda f, i: fieldrewrite.set_vlan_vid(f, i % 4096),
    "strip_vlan": lambda f, i: fieldrewrite.strip_vlan(f),
    "set_vlan_pcp": lambda f, i: fieldrewrite.set_vlan_pcp(f, i % 8),
    "set_nw_tos": lambda f, i: fieldrewrite.set_nw_tos(f, i % 256),
}

GOLDEN = {
    "decode": (
        "6f5f884f933c0c352111b0edb7518320e1ef6407f49b69a1ace6140f135f6724"
    ),
    "Ipv4AddressSweep.src": (
        "1579df0f74be8bff124040e21b98a84300ca7b37b80047201f3ee8d31a0fd250"
    ),
    "Ipv4AddressSweep.dst": (
        "0523d54ca9140938d8bd0d0ac67f632e248fc541d100e435424f44994fcf57c5"
    ),
    "UdpPortSweep.src": (
        "cbac7f1af7d0363d32df2e25858981c49c4c97bc413a92d336466edcdd5b6f94"
    ),
    "UdpPortSweep.dst": (
        "8f5e38bc7e3dc1e5dbbc7b25869d4cd2e5ea1976d8882e076b63f639b3cd50ab"
    ),
    "SequenceNumber": (
        "0989932151d15abf96c6c398650163d5a2df3b12d2c1f454cf3c86772e5a833b"
    ),
    "VlanIdRewrite": (
        "ad8de48b06005d41895638ecf2603cf2e1f58df9aa24e0a1866db2b9e7440fad"
    ),
    "zero_l4_checksum": (
        "770442417b801ee62ac932f543739884259f5a61cac83d25d8fa75b4fd472560"
    ),
    "fix_ipv4_checksum": (
        "84f3777eeddf4ed0aacdc8873c3d4acb8ba5aa3717ea92d8f2ba571710a5df8b"
    ),
    "tx_timestamp._clear_udp_checksum": (
        "f7071c71d754258e9cf357a2e363b790cb03c571eb594ae3bd9f8e767a3e5652"
    ),
    "set_mac_address": (
        "7d70b1e50d105fee3429998fd495b21a7fa19bf13dc4a8183faa99f55d23f056"
    ),
    "set_ipv4_address": (
        "0f357fedf86b0bd264806a04f80f70080b0c7dfba83cd377f5f273312f3b0e86"
    ),
    "set_tp_port": (
        "bf2b5488e46cf4967a22bfd0963dc6ed4bcd7cc2775d46cde6df558601d5c8fd"
    ),
    "set_vlan_vid": (
        "e5e141c6c6f902cdd718ee020a4e038c00a4051608e0ebb1c9877ca69c56108d"
    ),
    "strip_vlan": (
        "17249ebda450ff008b0feb0cc6c61f249ff72b7dc9f55bd0ba325eea04674014"
    ),
    "set_vlan_pcp": (
        "1e47ae3796435251a99832a24a0fdca08ff9d7221d0f954a7866d604dbf35c66"
    ),
    "set_nw_tos": (
        "acbe0b45e7a4631e176d05b16c2295bae1de85ab57efc29028d60a93c25a2bb1"
    ),
}


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _digest(call, corpus) -> str:
    digest = hashlib.sha256()
    for index, frame in enumerate(corpus):
        try:
            outcome = repr(call(frame, index))
        except ReproError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digest.update(outcome.encode() + b"\x00")
    return digest.hexdigest()


def test_corpus_covers_every_outcome(corpus):
    decoded = []
    for frame in corpus:
        try:
            decoded.append(decode(frame))
        except ReproError:
            continue
    assert len(decoded) < len(corpus)  # runts raise
    assert any(d.ipv4 and d.tcp and d.ipv4.options and d.tcp.options for d in decoded)
    assert any(d.ipv6 and d.udp for d in decoded)
    assert any(d.ipv6 and d.tcp for d in decoded)
    assert any(len(d.vlan_tags) == 2 and d.udp for d in decoded)
    assert any(d.ipv4 and not d.l4 and d.ipv4.protocol == 6 for d in decoded)
    assert any(d.arp for d in decoded)
    assert any(d.ethernet.ethertype == ETHERTYPE_IPV4 and not d.ipv4 for d in decoded)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_digest(name, corpus):
    assert _digest(CALLS[name], corpus) == GOLDEN[name]
