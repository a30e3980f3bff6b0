"""The per-port capture pipeline.

Hardware order, as in the OSNT monitor design:

    RX MAC → timestamp (64-bit, at receipt) → stats → filter bank
           → hash → thin → cut → DMA ring → host buffer

Timestamping happens first — "on receipt by the MAC module, thus
minimising queueing noise" — so filter/DMA queueing can never perturb
the recorded arrival times. Everything after the timestamp only decides
*whether* and *how much of* the packet reaches the host.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ...errors import CaptureError
from ...hw.dma import DmaEngine
from ...hw.port import EthernetPort
from ...hw.timestamp import STAMP_OFFSET, TimestampUnit, raw_to_ps, read_stamp
from ...net.packet import Packet
from ...net.pcap import PcapRecord, PcapWriter
from ...sim import Simulator
from ...telemetry import HistogramBank, LogLinearHistogram
from .filters import FilterBank
from .reducers import HashUnit, PacketCutter, Thinner

#: Latency samples beyond this are treated as garbage (no stamp embedded
#: where the extractor looked), mirroring a hardware range check.
LATENCY_SANITY_PS = 10**13  # 10 seconds

#: Flow-key extractors for per-flow latency banks: packet bytes → str.
#: String keys survive a JSON round-trip unchanged, so shard merges are
#: bit-identical to single-process runs.
FLOW_KEYS = ("dst_port", "src_ip", "five_tuple")


def _flow_key_fn(flow_key: str):
    from ...net.flows import extract_five_tuple

    if flow_key not in FLOW_KEYS:
        raise CaptureError(
            f"unknown flow key {flow_key!r}; choose from {FLOW_KEYS}"
        )

    def key_of(data: bytes) -> str:
        five = extract_five_tuple(data)
        if five is None:
            return "non-ip"
        if flow_key == "dst_port":
            return str(five.dst_port)
        if flow_key == "src_ip":
            return five.src_ip
        return str(five)

    return key_of


class MonitorStats:
    """Per-port monitor counters (the hardware stats module)."""

    def __init__(self) -> None:
        self.rx_packets = 0
        self.rx_bytes = 0  # frame bytes incl. FCS
        self.first_rx_ps: Optional[int] = None
        self.last_rx_ps: Optional[int] = None

    def note(self, now: int, frame_bytes: int) -> None:
        self.rx_packets += 1
        self.rx_bytes += frame_bytes
        if self.first_rx_ps is None:
            self.first_rx_ps = now
        self.last_rx_ps = now

    def observed_bps(self) -> float:
        if self.first_rx_ps is None or self.last_rx_ps == self.first_rx_ps:
            return 0.0
        return self.rx_bytes * 8 * 1e12 / (self.last_rx_ps - self.first_rx_ps)


class HostCaptureBuffer:
    """Software end of the capture path: stores packets, fans out events."""

    def __init__(self) -> None:
        self.packets: List[Packet] = []
        self.received = 0
        self._listeners: List[Callable[[Packet], None]] = []

    def add_listener(self, listener: Callable[[Packet], None]) -> None:
        self._listeners.append(listener)

    def deliver(self, packet: Packet) -> None:
        self.received += 1
        self.packets.append(packet)
        for listener in self._listeners:
            listener(packet)

    def clear(self) -> None:
        self.packets.clear()
        self.received = 0

    def write_pcap(self, writer: PcapWriter) -> int:
        """Dump buffered packets (RX-timestamped) to an open pcap writer."""
        for packet in self.packets:
            writer.write_packet(packet, packet.rx_timestamp or 0)
        return len(self.packets)

    def records(self) -> List[PcapRecord]:
        return [
            PcapRecord(packet.rx_timestamp or 0, packet.held_data, len(packet.data))
            for packet in self.packets
        ]


class CapturePipeline:
    """Wires one port's RX MAC through the monitor stages to the host."""

    def __init__(
        self,
        sim: Simulator,
        port: EthernetPort,
        timestamp_unit: TimestampUnit,
        dma: DmaEngine,
        name: str = "mon",
        port_index: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.port = port
        self.name = name
        self.port_index = port_index
        self.timestamp_unit = timestamp_unit
        self.dma = dma
        self.stats = MonitorStats()
        self.filter_bank = FilterBank()
        self.hash_unit: Optional[HashUnit] = None
        self.thinner = Thinner()
        self.cutter = PacketCutter()
        self.host = HostCaptureBuffer()
        self.enabled = False
        self.dma_drops_at_port = 0
        #: In-band latency histogram (P4TG-style): fed per packet from
        #: the embedded TX stamp once :meth:`enable_latency` arms it.
        self.latency = LogLinearHistogram(unit="ps")
        self.latency_skipped = 0
        self._latency_offset: Optional[int] = None
        #: Per-flow latency bank (P4TG's histogram extension): armed by
        #: ``enable_latency(per_flow=True)``, keyed from packet bytes.
        self.flow_latency: Optional[HistogramBank] = None
        self._flow_key_of = None
        port.add_rx_sink(self._on_frame)
        # A multi-port card shares one DMA engine; the device then owns
        # the host-side demux. Standalone pipelines claim it themselves.
        if dma.on_host_deliver is None:
            dma.on_host_deliver = self._fanout_host

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def enable_latency(
        self,
        offset: int = STAMP_OFFSET,
        per_flow: bool = False,
        flow_key: str = "dst_port",
        max_flows: int = 4096,
    ) -> None:
        """Arm in-band latency aggregation.

        ``offset`` is the byte position of the generator's embedded
        64-bit TX stamp (see :mod:`repro.osnt.generator.tx_timestamp`).
        Like the stats module, the histogram runs even when host capture
        is disabled — aggregation happens before the filter bank.

        ``per_flow=True`` additionally banks every sample into a
        per-flow histogram keyed by ``flow_key`` (``"dst_port"``,
        ``"src_ip"`` or ``"five_tuple"``), so the monitor answers
        "p99.9 RTT of flow X under burst load" without host capture.
        """
        self._latency_offset = offset
        if per_flow:
            self._flow_key_of = _flow_key_fn(flow_key)
            self.flow_latency = HistogramBank(unit="ps", max_keys=max_flows)
        else:
            self._flow_key_of = None
            self.flow_latency = None

    def disable_latency(self) -> None:
        self._latency_offset = None
        self._flow_key_of = None
        self.flow_latency = None

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish this pipeline's counters, stages and latency histogram."""
        stats = self.stats
        registry.gauge(f"{prefix}.rx_packets", lambda: stats.rx_packets)
        registry.gauge(f"{prefix}.rx_bytes", lambda: stats.rx_bytes)
        registry.gauge(f"{prefix}.captured", lambda: self.host.received)
        registry.gauge(f"{prefix}.dma_drops", lambda: self.dma_drops_at_port)
        registry.gauge(f"{prefix}.filter_passed", lambda: self.filter_bank.passed)
        registry.gauge(f"{prefix}.filter_dropped", lambda: self.filter_bank.filtered)
        registry.gauge(f"{prefix}.thinned", lambda: self.thinner.thinned)
        registry.gauge(f"{prefix}.cut", lambda: self.cutter.cut)
        registry.gauge(f"{prefix}.latency_skipped", lambda: self.latency_skipped)
        registry.register_histogram(f"{prefix}.latency_ps", self.latency)

    def _on_frame(self, packet: Packet) -> None:
        """RX stamp, count and bin one frame, then pass it down the stages.

        The in-band histogram's sample rule differs on purpose from the
        host's (:func:`repro.analysis.latency.stamped_frames`): it reads
        the stamp from the whole frame before any cut and bins any delta
        inside the ``[0, LATENCY_SANITY_PS]`` range check, a zero stamp
        field included, as a hardware range check would.
        """
        # Timestamp and count unconditionally: the stats module and the
        # timestamp run even when host capture is disabled.
        packet.rx_timestamp = self.timestamp_unit.now_ps()
        if self.port_index is not None:
            packet.ingress_port = self.port_index
        self.stats.note(self.sim.now, packet.frame_length)
        offset = self._latency_offset
        if offset is not None:
            # In-band aggregation: extract the embedded TX stamp and bin
            # the delta without ever shipping the sample to the host.
            data = packet.data
            raw = read_stamp(data, offset)
            if raw is not None:
                delta = packet.rx_timestamp - raw_to_ps(raw)
                if 0 <= delta <= LATENCY_SANITY_PS:
                    self.latency.record(delta)
                    if self.flow_latency is not None:
                        self.flow_latency.record(self._flow_key_of(data), delta)
                else:
                    self.latency_skipped += 1
            else:
                self.latency_skipped += 1
        spans = self.sim.spans
        if spans is not None:
            spans.hop(
                self.sim.now, packet, "rx_capture",
                {"monitor": self.name, "rx_ps": packet.rx_timestamp},
            )
        if not self.enabled:
            return
        if not self.filter_bank.decide(packet.data):
            if spans is not None:
                spans.close(
                    self.sim.now, packet, "filtered",
                    detail={"monitor": self.name},
                )
            return
        if self.hash_unit is not None:
            self.hash_unit.apply(packet)
        if not self.thinner.decide():
            if spans is not None:
                spans.close(
                    self.sim.now, packet, "thinned",
                    detail={"monitor": self.name},
                )
            return
        self.cutter.apply(packet)
        if not self.dma.enqueue(packet):
            self.dma_drops_at_port += 1

    def _fanout_host(self, packet: Packet) -> None:
        self.host.deliver(packet)

    @property
    def captured(self) -> int:
        return self.host.received

    @property
    def dropped(self) -> int:
        """Capture-path losses (DMA ring overflow)."""
        return self.dma.stats.dropped
