"""Frame-byte rewriting used by OpenFlow set-field actions."""

from __future__ import annotations

from ..errors import OpenFlowError
from ..net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_VLAN
from ..net.fields import ipv4_to_bytes, mac_to_bytes, u16
from ..net.parser import header_offsets
from ..osnt.generator.field_modifiers import fix_ipv4_checksum, zero_l4_checksum


def set_mac_address(data: bytes, which: str, address: str) -> bytes:
    offset = 6 if which == "src" else 0
    return data[:offset] + mac_to_bytes(address) + data[offset + 6 :]


def set_ipv4_address(data: bytes, which: str, address: str) -> bytes:
    at = header_offsets(data)
    if at.l3 != ETHERTYPE_IPV4:
        return data
    field_offset = at.l3_offset + (12 if which == "src" else 16)
    data = data[:field_offset] + ipv4_to_bytes(address) + data[field_offset + 4 :]
    return zero_l4_checksum(fix_ipv4_checksum(data))


def set_tp_port(data: bytes, which: str, port: int) -> bytes:
    l4_offset = header_offsets(data).l4_offset  # set for TCP and UDP only
    if l4_offset is None:
        return data
    field_offset = l4_offset + (0 if which == "src" else 2)
    data = data[:field_offset] + u16(port) + data[field_offset + 2 :]
    return zero_l4_checksum(data)


def set_vlan_vid(data: bytes, vid: int) -> bytes:
    """Rewrite the VID of a tagged frame, or push a tag onto an untagged one."""
    if not 0 <= vid <= 4095:
        raise OpenFlowError(f"VLAN id {vid} out of range")
    if header_offsets(data).vlan_tags:
        old_tci = int.from_bytes(data[14:16], "big")
        return data[:14] + u16((old_tci & 0xF000) | vid) + data[16:]
    ethertype = data[12:14]
    return data[:12] + u16(ETHERTYPE_VLAN) + u16(vid) + ethertype + data[14:]


def strip_vlan(data: bytes) -> bytes:
    if not header_offsets(data).vlan_tags:
        return data
    return data[:12] + data[16:]  # the tag's inner EtherType takes the outer's place


def set_vlan_pcp(data: bytes, pcp: int) -> bytes:
    """Rewrite the priority bits of a tagged frame (no-op if untagged)."""
    if not 0 <= pcp <= 7:
        raise OpenFlowError(f"VLAN PCP {pcp} out of range")
    if not header_offsets(data).vlan_tags:
        return data
    old_tci = int.from_bytes(data[14:16], "big")
    new_tci = (old_tci & 0x1FFF) | (pcp << 13)
    return data[:14] + u16(new_tci) + data[16:]


def set_nw_tos(data: bytes, tos: int) -> bytes:
    """Rewrite the IPv4 DSCP field (the 1.0 spec masks the ECN bits)."""
    if not 0 <= tos <= 0xFF:
        raise OpenFlowError(f"ToS {tos} out of range")
    at = header_offsets(data)
    if at.l3 != ETHERTYPE_IPV4:
        return data
    tos_at = at.l3_offset + 1
    new = (tos & 0xFC) | (data[tos_at] & 0x03)  # keep ECN
    data = data[:tos_at] + bytes([new]) + data[tos_at + 1 :]
    return fix_ipv4_checksum(data)
