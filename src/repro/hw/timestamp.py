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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum((a * k + b) // m for k in range(n))`` in O(log m) steps.

    The Euclid-like recursion of the AtCoder Library's ``floor_sum``,
    for any integers ``a`` and ``b``, ``n >= 0`` and ``m >= 1``.
    """
    total = 0
    while n:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        y = a * n + b
        if y < m:
            break
        n, b = divmod(y, m)
        m, a = a, m
    return total


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

    def now_ps_at(self, true_time_ps: int) -> int:
        """Quantised device time as it will read at ``true_time_ps``.

        Exactly what :meth:`now_ps` would return with the simulation
        clock at ``true_time_ps``, *provided* the oscillator is not
        rebased (GPS pulse, phase step) between now and then. The
        batched datapath uses this to stamp frames whose delivery time
        is known arithmetically; its work windows never span an
        oscillator event, so the reading is exact.

        Within one oscillator segment the reading never decreases while
        the rate is non-negative, because no step of it (float product,
        float sum, ``round``, floor to a tick) does; so bisection finds
        where a run of readings crosses a value, and :meth:`sum_ps_at`
        sums the run exactly.
        """
        if self._frozen_at is not None:
            device = self._frozen_at
        elif self.oscillator is not None:
            device = self.oscillator.device_time(true_time_ps)
        else:
            device = true_time_ps
        return device - (device % TICK_PS)

    def sum_ps_at(self, true_time_ps: int, count: int, stride: int) -> int:
        """Exact ``sum(now_ps_at(true_time_ps + k * stride) for k in range(count))``.

        The oscillator reads ``round(A + x * r)`` in floats. In exact
        arithmetic that quantises to ``TICK_PS * floor((A + x * r + 1/2)
        / TICK_PS)``, and a run of those sums in one integer floor sum of
        O(log) big-integer steps. Float rounding moves a reading by less
        than ``2**-51 * (|x| * |r| + |A| + 1)`` while ``|x| < 2**53``; two
        floor sums shifted by that bound either way agree only if no
        reading lies that close to a tick edge, else the run is summed
        reading by reading. A frozen unit (``r = 0``) and one without an
        oscillator (``r = 1``) read exact integers, with nothing to guard.
        """
        oscillator = self.oscillator
        exact = self._frozen_at is not None or oscillator is None
        if self._frozen_at is not None:
            origin, anchor, rate = true_time_ps, self._frozen_at, 0
        elif oscillator is None:
            origin, anchor, rate = 0, 0, 1
        else:
            origin, anchor = oscillator._anchor_true, oscillator._anchor_device
            rate = oscillator.rate
        an, ad = anchor.as_integer_ratio()
        rn, rd = rate.as_integer_ratio()
        den = 2 * max(ad, rd)  # float denominators are powers of two
        an *= den // ad
        rn *= den // rd
        x0 = true_time_ps - origin
        m = TICK_PS * den
        step = stride * rn
        first = an + x0 * rn + den // 2  # (A + x0 * r + 1/2) * den
        if exact:
            return TICK_PS * _floor_sum(count, m, step, first)
        far = max(abs(x0), abs(x0 + (count - 1) * stride))
        if far < 2**53:
            # The rounding bound times den, rounded up.
            err = -(-(far * abs(rn) + abs(an) + den) >> 51)
            ticks = _floor_sum(count, m, step, first + err)
            if ticks == _floor_sum(count, m, step, first - err):
                return TICK_PS * ticks
        return sum(self.now_ps_at(true_time_ps + k * stride) for k in range(count))

    def now_raw(self) -> int:
        """The 64-bit counter value the hardware would latch now."""
        return ps_to_raw(self.now_ps()) & 0xFFFFFFFFFFFFFFFF

    @staticmethod
    def resolution_ps() -> int:
        return TICK_PS
