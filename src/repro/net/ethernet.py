"""Ethernet II and 802.1Q VLAN headers."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from ..errors import TruncatedPacketError
from .fields import mac_to_bytes, mac_to_str, read_u16, u16

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV6 = 0x86DD

ETH_HEADER_LEN = 14
VLAN_TAG_LEN = 4

_ETHERNET = struct.Struct("!6s6sH")


@dataclass
class EthernetHeader:
    """Ethernet II header: destination, source, EtherType."""

    dst: str
    src: str
    ethertype: int

    def pack(self) -> bytes:
        return mac_to_bytes(self.dst) + mac_to_bytes(self.src) + u16(self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> Tuple["EthernetHeader", int]:
        """Parse from the start of ``data``; returns (header, next offset)."""
        if len(data) < ETH_HEADER_LEN:
            raise TruncatedPacketError(
                f"Ethernet header needs {ETH_HEADER_LEN} bytes, got {len(data)}"
            )
        dst, src, ethertype = _ETHERNET.unpack_from(data)
        return cls(dst=mac_to_str(dst), src=mac_to_str(src), ethertype=ethertype), ETH_HEADER_LEN


@dataclass
class VlanTag:
    """802.1Q tag (follows the MAC addresses when EtherType is 0x8100)."""

    pcp: int = 0
    dei: int = 0
    vid: int = 0
    inner_ethertype: int = ETHERTYPE_IPV4

    def pack(self) -> bytes:
        tci = ((self.pcp & 0x7) << 13) | ((self.dei & 0x1) << 12) | (self.vid & 0xFFF)
        return u16(tci) + u16(self.inner_ethertype)

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> Tuple["VlanTag", int]:
        tci = read_u16(data, offset)
        inner = read_u16(data, offset + 2)
        tag = cls(
            pcp=(tci >> 13) & 0x7,
            dei=(tci >> 12) & 0x1,
            vid=tci & 0xFFF,
            inner_ethertype=inner,
        )
        return tag, offset + VLAN_TAG_LEN
