"""LinkGuardian-style link-local loss protection.

LinkGuardian's observation (PAPERS.md, ``NUS-SNL__linkguardian``): on
optical links the dominant loss mode is *corruption*, and because it is
link-local it can be repaired link-locally — a small retransmit buffer
on the upstream switch resends the corrupted frame in sub-RTT time, so
the transport never sees the loss and never pays an RTO or a cwnd
collapse. The same corrupting link without protection turns every
corrupted frame into a transport-visible drop.

:class:`LinkGuardian` models both sides of that comparison as a single
:meth:`Link impairment hook <repro.hw.port.Link.add_impairment>`:

* the *corruption pattern* is drawn from its own named RNG stream,
  with optional geometric bursts by the same
  :class:`~repro.faults.models.GeometricBursts` draw
  :class:`~repro.faults.models.LinkLossModel` uses — and it is drawn
  identically whether protection is on or off, so a protected and an
  unprotected run at the same seed corrupt the *same frames*;
* ``protected=False``: the corrupted frame is dropped at the far MAC,
  booked as :class:`~repro.faults.models.LinkCorruptModel` books it
  (:func:`~repro.faults.models.book_fcs_failure`);
* ``protected=True``: the frame is delivered late instead — each local
  retransmit attempt costs :attr:`retx_delay_ps` and can itself be
  corrupted (drawn from a *second* stream so retries never perturb the
  corruption pattern); after :attr:`max_retx` failed attempts the frame
  is genuinely lost (the *effective* loss rate, exponentially smaller
  than the corruption rate);
* recovered frames are released through a per-direction holdback gate
  so a recovery never reorders the link (LinkGuardian preserves FIFO
  by holding subsequent frames back too — here: by delaying them the
  minimum needed to keep arrival order).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import FlowError
from ..faults.models import GeometricBursts, book_fcs_failure, impaired_port
from ..hw.port import DROP_FRAME, EthernetPort, Link
from ..sim import RandomStreams
from ..units import us


class LinkGuardian:
    """Corrupting link + optional switch-local retransmit protection."""

    def __init__(
        self,
        corrupt_rate: float,
        protected: bool = True,
        burst: float = 1.0,
        retx_delay_ps: int = us(2),
        max_retx: int = 3,
        seed: int = 0,
        direction: Optional[str] = None,
    ) -> None:
        if not 0.0 <= corrupt_rate < 1.0:
            raise FlowError(f"corrupt_rate must be in [0, 1), got {corrupt_rate}")
        if burst < 1.0:
            raise FlowError(f"burst must be >= 1, got {burst}")
        if retx_delay_ps <= 0:
            raise FlowError(f"retx_delay_ps must be positive, got {retx_delay_ps}")
        if max_retx < 1:
            raise FlowError(f"max_retx must be >= 1, got {max_retx}")
        if direction not in (None, "a_to_b", "b_to_a"):
            raise FlowError("direction must be 'a_to_b', 'b_to_a' or None")
        self.corrupt_rate = corrupt_rate
        self.protected = protected
        self.burst = burst
        self.retx_delay_ps = retx_delay_ps
        self.max_retx = max_retx
        self.direction = direction
        streams = RandomStreams(seed)
        # Two independent streams: the corruption pattern must be
        # bit-identical with protection on or off at the same seed, so
        # retry draws may never advance the corruption stream.
        self._corrupted_now = GeometricBursts(
            corrupt_rate, burst, streams.stream("linkguardian/corrupt")
        ).hit
        self._retx_rng = streams.stream("linkguardian/retx")
        self.link: Optional[Link] = None
        self._only_to: Optional[EthernetPort] = None
        #: Per-destination-port release gate (FIFO holdback), in ps.
        self._release_ps: Dict[str, int] = {}

        self.frames_seen = 0
        self.corrupted = 0
        self.recovered = 0
        self.lost = 0
        self.retx_attempts = 0

    def attach(self, link: Link) -> "LinkGuardian":
        """Hook this guardian onto a cable (once)."""
        if self.link is not None:
            raise FlowError("LinkGuardian is already attached to a link")
        self.link = link
        self._only_to = impaired_port(link, self.direction)
        link.add_impairment(self._on_frame)
        return self

    # -- per-frame verdict ---------------------------------------------------

    def _on_frame(self, packet, destination: EthernetPort) -> Optional[object]:
        only_to = self._only_to
        if only_to is not None and destination is not only_to:
            return None
        self.frames_seen += 1
        if self._corrupted_now():
            self.corrupted += 1
            delay = self._recovery_delay() if self.protected else None
            if delay is None:  # unprotected, or every local retransmit failed too
                self.lost += 1
                book_fcs_failure(self.link, destination)
                return DROP_FRAME
            self.recovered += 1
            return self._hold_fifo(destination, delay)
        return self._hold_fifo(destination, 0)

    def _recovery_delay(self) -> Optional[int]:
        """Picoseconds until the local retransmit gets through, or None
        if all :attr:`max_retx` attempts were corrupted as well."""
        for attempt in range(1, self.max_retx + 1):
            self.retx_attempts += 1
            if self._retx_rng.random() >= self.corrupt_rate:
                return attempt * self.retx_delay_ps
        return None

    def _hold_fifo(self, destination: EthernetPort, delay: int) -> Optional[int]:
        """Stretch ``delay`` so this frame never overtakes an earlier
        one that is still being recovered (per direction)."""
        now = destination.rx.sim.now
        arrival = now + delay
        floor = self._release_ps.get(destination.name, 0)
        if arrival < floor:
            delay = floor - now
            arrival = floor
        self._release_ps[destination.name] = arrival
        return delay if delay > 0 else None

    # -- reporting -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "frames_seen": self.frames_seen,
            "corrupted": self.corrupted,
            "recovered": self.recovered,
            "lost": self.lost,
            "retx_attempts": self.retx_attempts,
        }

    @property
    def effective_loss_rate(self) -> float:
        """Fraction of frames lost *after* protection (the LinkGuardian
        headline metric)."""
        return self.lost / self.frames_seen if self.frames_seen else 0.0


__all__ = ["LinkGuardian"]
