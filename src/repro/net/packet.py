"""The :class:`Packet` object that moves through the simulated hardware.

``data`` holds the Ethernet frame from the destination MAC through the
payload, **excluding** preamble and FCS — the same view software gets
from a NIC. The MAC model accounts for FCS/preamble/IFG when computing
wire occupancy (see :func:`repro.units.frame_wire_bytes`).

Simulation-side annotations (ingress port, MAC timestamps) live in named
attributes, not in the bytes; OSNT's *embedded* TX timestamp is real
bytes written into the payload by the generator (see
:mod:`repro.osnt.generator.tx_timestamp`).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import PacketError
from ..units import ETH_FCS_BYTES, ETH_MIN_FRAME

_packet_ids = itertools.count(1)


class Packet:
    """A frame plus simulation metadata."""

    __slots__ = (
        "data",
        "packet_id",
        "ingress_port",
        "egress_port",
        "tx_timestamp",
        "rx_timestamp",
        "hash_value",
        "capture_length",
    )

    def __init__(self, data: bytes) -> None:
        if len(data) < 14:
            raise PacketError(f"frame too short for an Ethernet header: {len(data)}")
        self.data = bytes(data)
        #: Monotonic id for debugging/tracing; not on the wire.
        self.packet_id: int = next(_packet_ids)
        self.ingress_port: Optional[int] = None
        self.egress_port: Optional[int] = None
        #: Hardware TX timestamp (ps since epoch of the stamping clock).
        self.tx_timestamp: Optional[int] = None
        #: Hardware RX timestamp (ps since epoch of the stamping clock).
        self.rx_timestamp: Optional[int] = None
        #: Filled by the monitor's hash unit.
        self.hash_value: Optional[bytes] = None
        #: Bytes of ``data`` actually captured (snaplen); None = all.
        self.capture_length: Optional[int] = None

    def __len__(self) -> int:
        return len(self.data)

    @property
    def held_data(self) -> bytes:
        """The bytes of the frame the host holds: ``data`` cut to
        ``capture_length`` (all of it when uncut)."""
        cut = self.capture_length
        return self.data if cut is None else self.data[:cut]

    @property
    def frame_length(self) -> int:
        """On-the-wire frame length including FCS and minimum padding."""
        return max(len(self.data) + ETH_FCS_BYTES, ETH_MIN_FRAME)

    def copy(self) -> "Packet":
        """Independent copy with fresh id; metadata is carried over."""
        clone = Packet(self.data)
        clone.ingress_port = self.ingress_port
        clone.egress_port = self.egress_port
        clone.tx_timestamp = self.tx_timestamp
        clone.rx_timestamp = self.rx_timestamp
        clone.hash_value = self.hash_value
        clone.capture_length = self.capture_length
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Packet #{self.packet_id} len={len(self.data)}>"
