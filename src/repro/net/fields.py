"""Low-level field encode/decode helpers shared by the protocol modules.

All multi-byte integers on the wire are big-endian (network order).
Addresses have both a packed-bytes form (used in headers) and a human
string form (used in APIs and reports).
"""

from __future__ import annotations

import re

from ..errors import PacketError, TruncatedPacketError

# -- integers ----------------------------------------------------------------


def u8(value: int) -> bytes:
    return _pack(value, 1)


def u16(value: int) -> bytes:
    return _pack(value, 2)


def u32(value: int) -> bytes:
    return _pack(value, 4)


def u64(value: int) -> bytes:
    return _pack(value, 8)


def _pack(value: int, size: int) -> bytes:
    if not 0 <= value < (1 << (8 * size)):
        raise PacketError(f"value {value} does not fit in {size} byte(s)")
    return value.to_bytes(size, "big")


def read_u8(data: bytes, offset: int) -> int:
    return _read(data, offset, 1)


def read_u16(data: bytes, offset: int) -> int:
    return _read(data, offset, 2)


def read_u32(data: bytes, offset: int) -> int:
    return _read(data, offset, 4)


def read_u64(data: bytes, offset: int) -> int:
    return _read(data, offset, 8)


def _read(data: bytes, offset: int, size: int) -> int:
    if offset < 0 or offset + size > len(data):
        raise TruncatedPacketError(
            f"need {size} byte(s) at offset {offset}, packet is {len(data)} bytes"
        )
    return int.from_bytes(data[offset : offset + size], "big")


# -- MAC addresses -----------------------------------------------------------

_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$", re.IGNORECASE)


def mac_to_bytes(mac: str) -> bytes:
    """``"00:11:22:aa:bb:cc"`` → 6 packed bytes."""
    if not _MAC_RE.match(mac):
        raise PacketError(f"bad MAC address: {mac!r}")
    return bytes(int(part, 16) for part in mac.split(":"))


def mac_to_str(data: bytes) -> str:
    """6 packed bytes → ``"00:11:22:aa:bb:cc"``."""
    if len(data) != 6:
        raise PacketError(f"MAC address must be 6 bytes, got {len(data)}")
    return data.hex(":")


BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"


def is_broadcast_mac(mac: str) -> bool:
    return mac.lower() == BROADCAST_MAC


def is_multicast_mac(mac: str) -> bool:
    """True for group-addressed MACs (low bit of the first octet set)."""
    return bool(int(mac.split(":", 1)[0], 16) & 1)


# -- IPv4 addresses -----------------------------------------------------------


def ipv4_to_int(address: str) -> int:
    """``"10.0.0.1"`` → 32-bit integer."""
    parts = address.split(".")
    if len(parts) != 4:
        raise PacketError(f"bad IPv4 address: {address!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or not 0 <= int(part) <= 255:
            raise PacketError(f"bad IPv4 address: {address!r}")
        value = (value << 8) | int(part)
    return value


def ipv4_to_str(value: int) -> str:
    """32-bit integer → dotted quad."""
    if not 0 <= value < (1 << 32):
        raise PacketError(f"bad IPv4 integer: {value}")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def ipv4_to_bytes(address: str) -> bytes:
    return u32(ipv4_to_int(address))


# -- IPv6 addresses -----------------------------------------------------------


def ipv6_to_bytes(address: str) -> bytes:
    """Parse an IPv6 address (supports ``::`` compression) to 16 bytes."""
    if address.count("::") > 1:
        raise PacketError(f"bad IPv6 address: {address!r}")
    if "::" in address:
        head, tail = address.split("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise PacketError(f"bad IPv6 address: {address!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = address.split(":")
    if len(groups) != 8:
        raise PacketError(f"bad IPv6 address: {address!r}")
    try:
        values = [int(group, 16) for group in groups]
    except ValueError as exc:
        raise PacketError(f"bad IPv6 address: {address!r}") from exc
    if any(not 0 <= value <= 0xFFFF for value in values):
        raise PacketError(f"bad IPv6 address: {address!r}")
    return b"".join(u16(value) for value in values)


def ipv6_to_str(data: bytes) -> str:
    """16 packed bytes → canonical-ish IPv6 string (no ``::`` compression)."""
    if len(data) != 16:
        raise PacketError(f"IPv6 address must be 16 bytes, got {len(data)}")
    return ":".join(f"{read_u16(data, offset):x}" for offset in range(0, 16, 2))
