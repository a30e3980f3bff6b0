"""A software (host-based) packet generator baseline.

OSNT's motivation is that commodity software generation and capture
cannot pace or timestamp precisely at 10 Gbps: departures are quantised
by kernel timers, smeared by scheduler jitter, and batched by the NIC
driver. This model reproduces those pathologies so the benchmarks can
show the *gap* the hardware closes (experiments E2 and E7):

* **timer quantisation** — intended departure times round up to the next
  timer tick (microseconds, vs the hardware's 6.25 ns);
* **scheduling jitter** — each send suffers a random positive delay with
  a heavy-ish tail (occasional multi-µs preemptions);
* **batching** — the driver releases queued packets in bursts, so
  fine-grained IDT structure collapses at high rates;
* **host timestamping** — software stamps when the packet is *queued*,
  not when it leaves the wire, so recorded timestamps also carry jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..errors import GeneratorError
from ..hw.port import EthernetPort
from ..net.packet import Packet
from ..sim import Simulator, spawn
from ..units import us
from .generator.schedule import Schedule
from .generator.source import PacketSource


@dataclass
class SoftwareGeneratorProfile:
    """Noise model of a host traffic generator.

    Defaults approximate a tuned Linux userspace generator of the
    paper's era: 1 µs effective timer resolution, ~2 µs mean scheduling
    jitter with occasional 50 µs preemption spikes, and 8-packet driver
    batching once the requested gap is below the batch threshold.
    """

    timer_resolution_ps: int = us(1)
    jitter_mean_ps: int = us(2)
    preemption_probability: float = 0.001
    preemption_ps: int = us(50)
    batch_size: int = 8
    batch_threshold_ps: int = us(10)


class SoftwareGenerator:
    """Drives a port the way a host stack would: imprecisely."""

    def __init__(
        self,
        sim: Simulator,
        port: EthernetPort,
        rng: Optional[random.Random] = None,
        profile: Optional[SoftwareGeneratorProfile] = None,
        name: str = "swgen",
    ) -> None:
        self.sim = sim
        self.port = port
        self.name = name
        self.profile = profile or SoftwareGeneratorProfile()
        self._rng = rng or random.Random(0)
        self.sent = 0
        self.departure_times: List[int] = []
        self.running = False
        self._process = None
        self._source: Optional[PacketSource] = None
        self._schedule: Optional[Schedule] = None
        self._count: Optional[int] = None
        port.tx.on_start_of_frame = self._note_departure

    def configure(
        self,
        source: PacketSource,
        schedule: Schedule,
        count: Optional[int] = None,
    ) -> None:
        if self.running:
            raise GeneratorError(f"{self.name}: cannot reconfigure while running")
        self._source = source
        self._schedule = schedule
        self._count = count

    def start(self) -> None:
        if self._source is None or self._schedule is None:
            raise GeneratorError(f"{self.name}: configure() before start()")
        self.running = True
        self.sent = 0
        self.departure_times = []
        self._process = spawn(self.sim, self._run(), name=self.name)

    def _note_departure(self, packet: Packet) -> None:
        self.departure_times.append(self.sim.now)

    def _jitter(self) -> int:
        profile = self.profile
        delay = round(self._rng.expovariate(1.0 / profile.jitter_mean_ps))
        if self._rng.random() < profile.preemption_probability:
            delay += profile.preemption_ps
        return delay

    def _quantise(self, gap: int) -> int:
        resolution = self.profile.timer_resolution_ps
        return ((gap + resolution - 1) // resolution) * resolution

    def _stamp(self, packet: Packet) -> None:
        """Host-side stamp: taken at queue time, not wire time."""
        packet.tx_timestamp = self.sim.now

    def _run(self):
        profile = self.profile
        index = 0
        while self._count is None or index < self._count:
            packet = self._source.next_packet(index)
            if packet is None:
                break
            gap = self._schedule.gap_after(packet.frame_length)
            batching = gap < profile.batch_threshold_ps
            if batching:
                # The driver sends a whole batch, then waits the
                # accumulated gap: correct average rate, ruined IDT.
                batch = [packet]
                while len(batch) < profile.batch_size:
                    index += 1
                    if self._count is not None and index >= self._count:
                        break
                    follower = self._source.next_packet(index)
                    if follower is None:
                        break
                    batch.append(follower)
                yield self._jitter()
                for queued in batch:
                    self._stamp(queued)
                    self.port.send(queued)
                    self.sent += 1
                index += 1
                yield self._quantise(gap * len(batch))
            else:
                yield self._jitter()
                self._stamp(packet)
                self.port.send(packet)
                self.sent += 1
                index += 1
                yield self._quantise(gap)
        self.running = False

    def achieved_gaps(self) -> List[int]:
        """Start-of-frame gaps actually realised on the wire."""
        times = self.departure_times
        return [b - a for a, b in zip(times, times[1:])]
