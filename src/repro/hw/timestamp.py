"""The OSNT 64-bit timestamp unit.

The hardware keeps a 64-bit counter in 32.32 fixed-point seconds,
advanced every cycle of the 160 MHz datapath clock — giving the 6.25 ns
resolution the paper quotes. Both the monitor (stamp on receipt at the
MAC) and the generator (stamp just before the transmit MAC) instantiate
this unit, driven by the same GPS-disciplined oscillator.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator
from ..units import PS_PER_SEC
from .oscillator import Oscillator

#: Datapath clock period: 160 MHz → 6.25 ns → 6250 ps.
TICK_PS = 6_250
#: Fixed-point scale of the 64-bit counter (32 fractional bits).
FRACTION_SCALE = 1 << 32


def ps_to_raw(device_ps: int) -> int:
    """Device time in ps → 64-bit 32.32 fixed-point seconds."""
    return (device_ps * FRACTION_SCALE) // PS_PER_SEC


def raw_to_ps(raw: int) -> int:
    """64-bit 32.32 fixed-point seconds → device time in ps (floor)."""
    return (raw * PS_PER_SEC) // FRACTION_SCALE


#: A TX stamp embedded in a frame: the raw 64-bit counter, in
#: ``STAMP_BYTES`` bytes of ``STAMP_ORDER``, by default at byte
#: ``STAMP_OFFSET``: OSNT's tools put it at the start of a minimal UDP
#: payload, 14 (eth) + 20 (ipv4) + 8 (udp).
STAMP_BYTES = 8
STAMP_ORDER = "big"
STAMP_OFFSET = 42


def read_stamp(data: bytes, offset: int) -> Optional[int]:
    """The raw stamp at ``offset`` in frame bytes ``data``; None unless
    the whole stamp lies inside the frame."""
    end = offset + STAMP_BYTES
    if offset < 0 or end > len(data):
        return None
    return int.from_bytes(data[offset:end], STAMP_ORDER)


class TimestampUnit:
    """Produces hardware timestamps quantised to the 160 MHz clock.

    Without an oscillator the unit reads ideal simulated time (useful in
    unit tests); with one it reads the drifting/disciplined device clock,
    so captured timestamps exhibit exactly the drift behaviour E2
    measures.
    """

    def __init__(self, sim: Simulator, oscillator: Optional[Oscillator] = None) -> None:
        self.sim = sim
        self.oscillator = oscillator
        self._frozen_at: Optional[int] = None

    def freeze(self) -> None:
        """Latch the counter (fault injection): every read returns the
        value at the instant of the freeze until :meth:`unfreeze`."""
        if self._frozen_at is None:
            self._frozen_at = self._read()

    def unfreeze(self) -> None:
        self._frozen_at = None

    @property
    def frozen(self) -> bool:
        return self._frozen_at is not None

    def _read(self) -> int:
        if self.oscillator is not None:
            return self.oscillator.device_time()
        return self.sim.now

    def device_time_ps(self) -> int:
        """Unquantised device-clock reading at the current instant."""
        if self._frozen_at is not None:
            return self._frozen_at
        return self._read()

    def now_ps(self) -> int:
        """Quantised device time: floor to the last 6.25 ns tick."""
        device = self.device_time_ps()
        return device - (device % TICK_PS)

    def now_raw(self) -> int:
        """The 64-bit counter value the hardware would latch now."""
        return ps_to_raw(self.now_ps()) & 0xFFFFFFFFFFFFFFFF

    @staticmethod
    def resolution_ps() -> int:
        return TICK_PS
