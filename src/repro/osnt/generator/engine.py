"""The per-port traffic generation engine.

One :class:`PortGenerator` drives one 10G port: it pulls frames from a
:class:`~repro.osnt.generator.source.PacketSource`, paces their start
times with a :class:`~repro.osnt.generator.schedule.Schedule`, and pushes
them into the port's TX MAC. The TX timestamper (when enabled) stamps at
the MAC's start-of-frame hook — "just before the transmit 10GbE MAC",
as the paper puts it — so queueing inside the engine never pollutes the
embedded timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...errors import ConfigError, GeneratorError
from ...hw.burst import attach_lane, resolve_datapath
from ...hw.port import EthernetPort
from ...hw.timestamp import TimestampUnit
from ...sim import Signal, Simulator, spawn
from ...telemetry import LogLinearHistogram
from .schedule import LineRate, Schedule
from .source import PacketSource
from .tx_timestamp import TxTimestamper


@dataclass
class GeneratorStats:
    sent: int = 0
    sent_bytes: int = 0  # frame bytes incl. FCS
    tx_fifo_drops: int = 0
    started_at_ps: Optional[int] = None
    finished_at_ps: Optional[int] = None

    def achieved_bps(self) -> float:
        """Average wire-payload rate over the active period."""
        if self.started_at_ps is None or self.finished_at_ps is None:
            return 0.0
        elapsed = self.finished_at_ps - self.started_at_ps
        if elapsed <= 0:
            return 0.0
        return self.sent_bytes * 8 * 1e12 / elapsed

    def achieved_pps(self) -> float:
        if self.started_at_ps is None or self.finished_at_ps is None:
            return 0.0
        elapsed = self.finished_at_ps - self.started_at_ps
        if elapsed <= 0:
            return 0.0
        return self.sent * 1e12 / elapsed


class PortGenerator:
    """Paced replay of a packet source out of one port."""

    def __init__(
        self,
        sim: Simulator,
        port: EthernetPort,
        timestamp_unit: TimestampUnit,
        name: str = "gen",
        datapath: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.port = port
        self.name = name
        #: Selected datapath: explicit argument beats ``REPRO_DATAPATH``
        #: beats the default (see :mod:`repro.hw.burst`). ``"burst"``
        #: batch-advances eligible runs and falls back to the per-packet
        #: process wherever an observation point needs real packets.
        self.datapath_impl = resolve_datapath(datapath)
        self._burst_lane = None
        self.timestamper = TxTimestamper(timestamp_unit, enabled=False)
        port.tx.on_start_of_frame = self.timestamper
        self.stats = GeneratorStats()
        self.source: Optional[PacketSource] = None
        self.schedule: Schedule = LineRate(port.rate_bps)
        self.limit_count: Optional[int] = None
        self.limit_duration_ps: Optional[int] = None
        self.done = Signal(f"{name}.done")
        self.running = False
        self._process = None
        #: In-band TX frame-size histogram: fed per sent frame, survives
        #: across runs (cleared explicitly, like a hardware histogram).
        self.tx_sizes = LogLinearHistogram(unit="bytes")

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish this engine's counters and TX size histogram."""
        registry.gauge(f"{prefix}.sent", lambda: self.stats.sent)
        registry.gauge(f"{prefix}.sent_bytes", lambda: self.stats.sent_bytes)
        registry.gauge(f"{prefix}.tx_fifo_drops", lambda: self.stats.tx_fifo_drops)
        registry.gauge(f"{prefix}.running", lambda: int(self.running))
        registry.gauge(f"{prefix}.achieved_bps", lambda: self.stats.achieved_bps())
        registry.register_histogram(f"{prefix}.tx_size_bytes", self.tx_sizes)

    # -- configuration ---------------------------------------------------

    def configure(
        self,
        source: PacketSource,
        schedule: Optional[Schedule] = None,
        count: Optional[int] = None,
        duration_ps: Optional[int] = None,
    ) -> None:
        """Set up a run. Call :meth:`start` to begin transmitting.

        A run with a ``duration_ps`` sends nothing unless it is positive,
        so a non-positive one is refused here, where every generator's
        duration and count land; so is a negative ``count``. The TX
        stamp is not part of a run: it is :attr:`timestamper`'s
        ``enabled`` and ``offset``, which the ``ts_enable`` and
        ``ts_offset`` registers set.
        """
        if self.running:
            raise GeneratorError(f"{self.name}: cannot reconfigure while running")
        if duration_ps is not None and not duration_ps > 0:
            raise ConfigError(f"duration must be positive, got {duration_ps!r} ps")
        if count is not None and count < 0:
            raise ConfigError(f"count must be non-negative, got {count!r}")
        self.source = source
        self.schedule = schedule or LineRate(self.port.rate_bps)
        self.limit_count = count
        self.limit_duration_ps = duration_ps

    # -- control -----------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting at the current simulated time."""
        if self.running:
            raise GeneratorError(f"{self.name}: already running")
        if self.source is None:
            raise GeneratorError(f"{self.name}: configure() before start()")
        self.running = True
        self.stats = GeneratorStats()
        self.schedule.reset()
        self.source.reset()
        if self.datapath_impl == "burst":
            self._process = None
            self._burst_lane = attach_lane(self)
            return
        self._process = spawn(self.sim, self._run(), name=self.name)

    def stop(self) -> None:
        """Abort the run; already-queued frames still drain from the MAC."""
        lane = self._burst_lane
        if lane is not None:
            self._burst_lane = None
            lane.abort()
        if self._process is not None:
            self._process.kill()
        self._finish()

    def _run(self):
        stats = self.stats
        stats.started_at_ps = self.sim.now
        deadline = (
            self.sim.now + self.limit_duration_ps
            if self.limit_duration_ps is not None
            else None
        )
        # Phase-offset schedules idle before their first frame; the
        # duration budget is anchored at start(), before the offset, so
        # staggered multi-port runs still end together.
        gap0 = self.schedule.initial_gap()
        if gap0 > 0:
            yield gap0
        index = 0
        while True:
            if self.limit_count is not None and index >= self.limit_count:
                break
            if deadline is not None and self.sim.now >= deadline:
                break
            packet = self.source.next_packet(index)
            if packet is None:
                break
            # Span birth must precede send(): an idle TX MAC serializes
            # synchronously, so the tx_stamp/mac hops can fire inside
            # this very call stack and need the span to exist already.
            spans = self.sim.spans
            if spans is not None:
                spans.begin(self.sim.now, packet, self.name)
            if self.port.send(packet):
                stats.sent += 1
                stats.sent_bytes += packet.frame_length
                self.tx_sizes.record(packet.frame_length)
            else:
                stats.tx_fifo_drops += 1
                if spans is not None:
                    spans.close(self.sim.now, packet, "tx_fifo_drop")
            index += 1
            gap = self.schedule.gap_after(packet.frame_length)
            if gap > 0:
                yield gap
        self._finish()

    def _finish(self) -> None:
        if not self.running:
            return
        self.running = False
        self.stats.finished_at_ps = self.sim.now
        self.done.fire(self.stats)
