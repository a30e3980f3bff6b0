"""The OSNT card: four 10G ports, generator and monitor per port.

This is the model of one NetFPGA-10G programmed with the OSNT design:

* a GPS-disciplined oscillator feeding one 64-bit timestamp counter
  shared by the generator's TX stamper and the monitor's RX stamper;
* four full-duplex 10G ports, each with a :class:`PortGenerator` on TX
  and a :class:`CapturePipeline` on RX;
* one PCIe DMA engine shared by all four capture pipelines (the
  loss-limited host path), with a host-side demux by ingress port;
* an AXI-Lite register map mirroring how the real OSNT driver controls
  the design. Software-visible control (enable bits, snap length,
  thinning, filters, counters) goes through registers; bulk inputs
  (packet templates, PCAP contents, IDT schedules) are passed as Python
  objects, standing in for the DMA loads the real tools perform.

Register map (one window per block)::

    0x0000_0000  core      ID, VERSION, GPS_CTRL, GPS_ERROR
    0x0001_0000  gen[0]    + 0x1000 per port
    0x0002_0000  mon[0]    + 0x1000 per port
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigError
from ..hw.dma import DmaEngine
from ..hw.oscillator import GpsDiscipline, Oscillator
from ..hw.port import EthernetPort
from ..hw.registers import AxiLiteBus, RegisterFile
from ..hw.timestamp import TimestampUnit
from ..net.packet import Packet
from ..sim import RandomStreams, Simulator
from ..telemetry import MetricsRegistry
from ..units import GBPS, TEN_GBPS, ms
from .generator.engine import PortGenerator
from .generator.tx_timestamp import DEFAULT_OFFSET
from .monitor.capture import CapturePipeline
from .monitor.rates import RateMonitor

OSNT_DEVICE_ID = 0x05A7_0001
OSNT_VERSION = 0x0001_0000  # 1.0

CORE_BASE = 0x0000_0000
GEN_BASE = 0x0001_0000
MON_BASE = 0x0002_0000
BLOCK_STRIDE = 0x1000
WINDOW_SIZE = 0x1000

#: Wildcard marker for 32-bit filter field registers.
FILTER_WILDCARD = 0xFFFFFFFF


class OSNTDevice:
    """One simulated OSNT tester card."""

    NUM_PORTS = 4

    def __init__(
        self,
        sim: Simulator,
        name: str = "osnt",
        root_seed: int = 0,
        freq_error_ppm: float = 30.0,
        oscillator_walk_ppb: float = 20.0,
        gps_enabled: bool = True,
        dma_bandwidth_bps: float = 8 * GBPS,
        dma_ring_slots: int = 1024,
        num_ports: int = 4,
        port_rate_bps: float = TEN_GBPS,
    ) -> None:
        if not 1 <= num_ports <= 8:
            raise ConfigError(f"num_ports must be 1..8, got {num_ports}")
        self.sim = sim
        self.name = name
        self.streams = RandomStreams(root_seed).fork(name)
        self.oscillator = Oscillator(
            sim,
            freq_error_ppm=freq_error_ppm,
            walk_ppb_per_interval=oscillator_walk_ppb,
            rng=self.streams.stream("oscillator"),
        )
        self.gps = GpsDiscipline(sim, self.oscillator, enabled=gps_enabled)
        self.timestamp_unit = TimestampUnit(sim, oscillator=self.oscillator)
        self.dma = DmaEngine(
            sim,
            name=f"{name}.dma",
            bandwidth_bps=dma_bandwidth_bps,
            ring_slots=dma_ring_slots,
        )
        self.dma.on_host_deliver = self._host_demux

        self.ports: List[EthernetPort] = []
        self.generators: List[PortGenerator] = []
        self.monitors: List[CapturePipeline] = []
        for index in range(num_ports):
            port = EthernetPort(sim, f"{name}.p{index}", rate_bps=port_rate_bps)
            self.ports.append(port)
            self.generators.append(
                PortGenerator(sim, port, self.timestamp_unit, name=f"{name}.gen{index}")
            )
            self.monitors.append(
                CapturePipeline(
                    sim,
                    port,
                    self.timestamp_unit,
                    self.dma,
                    name=f"{name}.mon{index}",
                    port_index=index,
                )
            )
        self.bus = AxiLiteBus()
        self._build_register_map()
        self.metrics = MetricsRegistry(name)
        self.rate_monitors: List[RateMonitor] = []
        self._register_metrics()

    # -- telemetry -------------------------------------------------------------

    def _register_metrics(self) -> None:
        """Publish every block's counters into the card-wide registry.

        Pull gauges only: the hardware stats objects stay the single
        source of truth and nothing here touches a datapath hot loop.
        """
        registry = self.metrics
        registry.gauge("time_ps", lambda: self.sim.now)
        registry.gauge(
            "gps.error_ps",
            lambda: self.gps.last_error_ps if self.gps.last_error_ps is not None else 0,
        )
        registry.gauge("gps.enabled", lambda: int(self.gps.enabled))
        self.dma.register_metrics(registry, "dma")
        for index, port in enumerate(self.ports):
            prefix = f"p{index}"
            generator = self.generators[index]
            generator.register_metrics(registry, f"{prefix}.gen")
            port.tx.stats.register_metrics(registry, f"{prefix}.txmac")
            port.rx.stats.register_metrics(registry, f"{prefix}.rxmac")
            self.monitors[index].register_metrics(registry, f"{prefix}.mon")

    def start_telemetry(
        self,
        rate_interval_ps: int = ms(1),
        latency_offset: Optional[int] = DEFAULT_OFFSET,
    ) -> None:
        """Switch on the active telemetry paths.

        Arms every monitor's in-band latency histogram (expecting TX
        stamps at ``latency_offset``; ``None`` arms none, for traffic
        that carries no stamps) and starts one per-port RX rate sampler,
        registered as gauges so rates appear in :meth:`snapshot` output.
        Idempotent.
        """
        if latency_offset is not None:
            for monitor in self.monitors:
                monitor.enable_latency(latency_offset)
        if not self.rate_monitors:
            for index, port in enumerate(self.ports):
                stats = port.rx.stats
                sampler = RateMonitor(
                    self.sim,
                    read_counters=lambda stats=stats: (stats.packets, stats.bytes),
                    interval_ps=rate_interval_ps,
                )
                sampler.register_metrics(self.metrics, f"p{index}.rx_rate")
                self.rate_monitors.append(sampler)
        for sampler in self.rate_monitors:
            sampler.start()

    def stop_telemetry(self) -> None:
        for sampler in self.rate_monitors:
            sampler.stop()
        for monitor in self.monitors:
            monitor.disable_latency()

    def snapshot(self) -> dict:
        """One coherent read of the whole card's telemetry."""
        return self.metrics.snapshot()

    # -- convenience accessors -----------------------------------------------

    def port(self, index: int) -> EthernetPort:
        return self.ports[index]

    def generator(self, index: int) -> PortGenerator:
        return self.generators[index]

    def monitor(self, index: int) -> CapturePipeline:
        return self.monitors[index]

    def _host_demux(self, packet: Packet) -> None:
        index = packet.ingress_port
        if index is None or not 0 <= index < len(self.monitors):
            index = 0
        self.monitors[index].host.deliver(packet)

    # -- register map --------------------------------------------------------

    def _build_register_map(self) -> None:
        core = RegisterFile(f"{self.name}.core")
        core.add("id", 0x0, reset=OSNT_DEVICE_ID, writable=False)
        core.add("version", 0x4, reset=OSNT_VERSION, writable=False)
        core.add(
            "gps_ctrl",
            0x8,
            reset=1 if self.gps.enabled else 0,
            on_write=self._write_gps_ctrl,
        )
        core.add(
            "gps_error_ns",
            0xC,
            writable=False,
            on_read=lambda: abs(self.gps.last_error_ps or 0) // 1000 & 0xFFFFFFFF,
        )
        self.bus.attach(CORE_BASE, WINDOW_SIZE, core)
        self.core_regs = core

        self.gen_regs: List[RegisterFile] = []
        self.mon_regs: List[RegisterFile] = []
        for index in range(len(self.ports)):
            gen_rf = self._build_generator_regs(index)
            mon_rf = self._build_monitor_regs(index)
            self.bus.attach(GEN_BASE + index * BLOCK_STRIDE, WINDOW_SIZE, gen_rf)
            self.bus.attach(MON_BASE + index * BLOCK_STRIDE, WINDOW_SIZE, mon_rf)
            self.gen_regs.append(gen_rf)
            self.mon_regs.append(mon_rf)

    def _write_gps_ctrl(self, value: int) -> None:
        self.gps.enabled = bool(value & 1)

    def _build_generator_regs(self, index: int) -> RegisterFile:
        generator = self.generators[index]
        regfile = RegisterFile(f"{self.name}.gen{index}")

        def write_ctrl(value: int) -> None:
            if value & 0x1 and not generator.running:
                generator.start()
            if value & 0x2 and generator.running:
                generator.stop()

        regfile.add("ctrl", 0x0, on_write=write_ctrl)
        regfile.add(
            "ts_enable",
            0x4,
            on_write=lambda v: setattr(generator.timestamper, "enabled", bool(v & 1)),
        )
        regfile.add(
            "ts_offset",
            0x8,
            reset=generator.timestamper.offset,
            on_write=lambda v: setattr(generator.timestamper, "offset", v),
        )
        regfile.add(
            "sent_lo", 0x10, writable=False,
            on_read=lambda: generator.stats.sent & 0xFFFFFFFF,
        )
        regfile.add(
            "sent_hi", 0x14, writable=False,
            on_read=lambda: generator.stats.sent >> 32,
        )
        regfile.add(
            "sent_bytes_lo", 0x18, writable=False,
            on_read=lambda: generator.stats.sent_bytes & 0xFFFFFFFF,
        )
        regfile.add(
            "sent_bytes_hi", 0x1C, writable=False,
            on_read=lambda: generator.stats.sent_bytes >> 32,
        )
        regfile.add(
            "running", 0x20, writable=False,
            on_read=lambda: 1 if generator.running else 0,
        )
        return regfile

    def _build_monitor_regs(self, index: int) -> RegisterFile:
        monitor = self.monitors[index]
        regfile = RegisterFile(f"{self.name}.mon{index}")

        def write_ctrl(value: int) -> None:
            if value & 1:
                monitor.enable()
            else:
                monitor.disable()

        def write_snaplen(value: int) -> None:
            monitor.cutter.configure(value if value else None)

        def write_thin(value: int) -> None:
            monitor.thinner.keep_one_in = max(1, value)
            monitor.thinner.probability = None

        regfile.add("ctrl", 0x0, on_write=write_ctrl)
        regfile.add("snap_len", 0x4, on_write=write_snaplen)
        regfile.add("thin_one_in", 0x8, reset=1, on_write=write_thin)
        regfile.add(
            "rx_pkts_lo", 0x10, writable=False,
            on_read=lambda: monitor.stats.rx_packets & 0xFFFFFFFF,
        )
        regfile.add(
            "rx_pkts_hi", 0x14, writable=False,
            on_read=lambda: monitor.stats.rx_packets >> 32,
        )
        regfile.add(
            "rx_bytes_lo", 0x18, writable=False,
            on_read=lambda: monitor.stats.rx_bytes & 0xFFFFFFFF,
        )
        regfile.add(
            "rx_bytes_hi", 0x1C, writable=False,
            on_read=lambda: monitor.stats.rx_bytes >> 32,
        )
        regfile.add(
            "dma_drops", 0x20, writable=False,
            on_read=lambda: monitor.dma_drops_at_port & 0xFFFFFFFF,
        )
        regfile.add(
            "captured_lo", 0x24, writable=False,
            on_read=lambda: monitor.host.received & 0xFFFFFFFF,
        )
        self._add_filter_regs(regfile, monitor)
        return regfile

    def _add_filter_regs(self, regfile: RegisterFile, monitor: CapturePipeline) -> None:
        """Filter-row staging registers plus a write strobe (TCAM style)."""
        from .monitor.filters import FilterRule

        staged = {
            "src_ip": FILTER_WILDCARD,
            "src_len": 32,
            "dst_ip": FILTER_WILDCARD,
            "dst_len": 32,
            "proto": FILTER_WILDCARD,
            "src_port": FILTER_WILDCARD,
            "dst_port": FILTER_WILDCARD,
            "action": 1,
        }

        def stage(key):
            return lambda value: staged.__setitem__(key, value)

        def commit(value: int) -> None:
            if not value & 1:
                return
            from ..net.fields import ipv4_to_str

            rule = FilterRule(
                src_ip=None if staged["src_ip"] == FILTER_WILDCARD else ipv4_to_str(staged["src_ip"]),
                src_prefix_len=staged["src_len"],
                dst_ip=None if staged["dst_ip"] == FILTER_WILDCARD else ipv4_to_str(staged["dst_ip"]),
                dst_prefix_len=staged["dst_len"],
                protocol=None if staged["proto"] == FILTER_WILDCARD else staged["proto"] & 0xFF,
                src_port=None if staged["src_port"] == FILTER_WILDCARD else staged["src_port"] & 0xFFFF,
                dst_port=None if staged["dst_port"] == FILTER_WILDCARD else staged["dst_port"] & 0xFFFF,
                action_pass=bool(staged["action"] & 1),
            )
            monitor.filter_bank.add_rule(rule)

        def clear(value: int) -> None:
            if value & 1:
                monitor.filter_bank.clear()

        regfile.add("filter_src_ip", 0x40, reset=FILTER_WILDCARD, on_write=stage("src_ip"))
        regfile.add("filter_src_len", 0x44, reset=32, on_write=stage("src_len"))
        regfile.add("filter_dst_ip", 0x48, reset=FILTER_WILDCARD, on_write=stage("dst_ip"))
        regfile.add("filter_dst_len", 0x4C, reset=32, on_write=stage("dst_len"))
        regfile.add("filter_proto", 0x50, reset=FILTER_WILDCARD, on_write=stage("proto"))
        regfile.add("filter_src_port", 0x54, reset=FILTER_WILDCARD, on_write=stage("src_port"))
        regfile.add("filter_dst_port", 0x58, reset=FILTER_WILDCARD, on_write=stage("dst_port"))
        regfile.add("filter_action", 0x5C, reset=1, on_write=stage("action"))
        regfile.add("filter_commit", 0x60, on_write=commit)
        regfile.add("filter_clear", 0x64, on_write=clear)

    # -- window addresses (used by the software API) ---------------------------

    @staticmethod
    def generator_base(port_index: int) -> int:
        return GEN_BASE + port_index * BLOCK_STRIDE

    @staticmethod
    def monitor_base(port_index: int) -> int:
        return MON_BASE + port_index * BLOCK_STRIDE
