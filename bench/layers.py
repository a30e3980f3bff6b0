"""Per-layer accounting for the benchmark, applied from outside ``src/``.

Two instruments, both installed by replacing attributes of the simulator
and restored afterwards:

* :class:`Census` counts the simulated work from public state. It wraps
  the constructors of the components it reads (MACs, DMA engines,
  monitors, generators, switches), registers a simulator creation hook,
  and after every op folds their counters (``MacStats``, ``DmaStats``,
  ``egress_drops``, ``stats.sent``, final ``sim.now``) into totals. It
  also counts burst lanes and how many of them failed the datapath's
  eligibility audit. It adds a few calls per component, not per packet;
  it is armed for the untimed warm-up pass and the traced pass.
* :class:`Tracer` splits wall time into layers. A :class:`LayerProfiler`
  (a :class:`repro.obs.SimProfiler`) bills each fired event to the layer
  of its handler's module, and span wrappers around the cross-layer
  entry points (MAC receive, switch ingress, capture, DMA, flow-table
  lookup, control channel, result store, analysis reducers, ...) move
  the time of nested calls to their own layer. It is armed one op at a
  time, on the traced pass only. A layer's self time is its spans' time
  minus the spans nested in them, so the self times of one op add up to
  the op's wall time.

Neither instrument schedules events, touches packets or random streams,
or arms the span/tracer hooks that make burst lanes fall back, so a
traced run simulates exactly what a bare one does; ``measure.py``
checks that by comparing result digests and the fallback fraction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import SimProfiler, observe_simulators
from repro.sim import kernel as _kernel
from repro.sim.process import Process

#: Module prefix -> layer. The longest matching prefix wins; modules of
#: the package that match none are billed to ``other``.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.hw.burst": "hw.burst",
    "repro.hw.mac": "hw.mac",
    "repro.hw.fifo": "hw.mac",
    "repro.hw.port": "hw.port",
    "repro.hw.dma": "hw.dma",
    "repro.hw": "hw.other",
    "repro.osnt.generator": "osnt.generator",
    # The per-port rate samplers are the telemetry ticks that cut burst
    # windows; they live with the monitor but serve telemetry.
    "repro.osnt.monitor.rates": "telemetry",
    "repro.osnt.monitor": "osnt.monitor",
    "repro.osnt": "osnt.device",
    "repro.devices.legacy_switch": "devices.legacy_switch",
    "repro.devices.openflow_switch": "devices.openflow_switch",
    "repro.devices.flow_table": "devices.flow_table",
    "repro.devices": "devices.other",
    "repro.openflow": "openflow",
    "repro.oflops": "oflops",
    "repro.flows": "flows",
    "repro.runner": "runner",
    "repro.cluster": "cluster",
    "repro.analysis": "analysis",
    "repro.telemetry": "telemetry",
    "repro.testbed": "testbed",
    "repro.topology": "testbed",
    "repro.net": "net",
}
OTHER = "other"
STORE_GET = "cluster.store.get"
STORE_PUT = "cluster.store.put"

#: Every layer the traced run reports, in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([*MODULE_LAYERS.values(), STORE_GET, STORE_PUT, OTHER])
)

#: Layers whose entry points run in the parent of a forking sweep. Ops
#: that fork workers are traced with only these wrappers armed, because
#: forked workers inherit whatever is installed when they start.
PARENT_LAYERS = frozenset({"runner", "cluster", STORE_GET, STORE_PUT})

#: Cross-layer entry points: (module, attribute path, layer, call counter).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.hw.mac", "TxMac.enqueue", "hw.mac", None),
    ("repro.hw.mac", "RxMac.receive", "hw.mac", None),
    ("repro.hw.dma", "DmaEngine.enqueue", "hw.dma", None),
    ("repro.osnt.device", "OSNTDevice.__init__", "osnt.device", None),
    ("repro.osnt.device", "OSNTDevice.snapshot", "telemetry", None),
    ("repro.osnt.generator.engine", "PortGenerator.start", "osnt.generator", None),
    ("repro.osnt.monitor.capture", "CapturePipeline._on_frame", "osnt.monitor", None),
    ("repro.osnt.monitor.capture", "HostCaptureBuffer.deliver", "osnt.monitor", None),
    ("repro.devices.legacy_switch", "LegacySwitch.__init__", "devices.legacy_switch", None),
    ("repro.devices.legacy_switch", "LegacySwitch._ingress", "devices.legacy_switch", None),
    ("repro.devices.openflow_switch", "OpenFlowSwitch.__init__", "devices.openflow_switch", None),
    ("repro.devices.openflow_switch", "OpenFlowSwitch._datapath", "devices.openflow_switch", None),
    (
        "repro.devices.openflow_switch",
        "OpenFlowSwitch._on_control_message",
        "devices.openflow_switch",
        None,
    ),
    (
        "repro.devices.openflow_switch",
        "OpenFlowSwitch._firmware_handle",
        "devices.openflow_switch",
        "devices.openflow_switch.firmware_msgs",
    ),
    (
        "repro.devices.flow_table",
        "FlowTable.lookup",
        "devices.flow_table",
        "devices.flow_table.lookups",
    ),
    ("repro.devices.host", "SimpleHost._on_frame", "devices.other", None),
    ("repro.openflow.connection", "ControlEndpoint.send", "openflow", "openflow.msgs"),
    ("repro.flows.transport", "FlowEndpoint._on_frame", "flows", None),
    ("repro.flows.transport", "FlowEndpoint._send_segment", "flows", None),
    ("repro.runner.execution", "SweepRunner.run", "runner", None),
    ("repro.cluster.scheduler", "LocalScheduler.run", "cluster", None),
    ("repro.cluster.store", "ResultStore.get", STORE_GET, "cluster.store.gets"),
    ("repro.cluster.store", "ResultStore.put", STORE_PUT, "cluster.store.puts"),
)

#: Packages whose public functions are wrapped at every module-level
#: binding: callers import them by name, so wrapping only the defining
#: module would miss most calls.
FUNCTION_LAYERS: Dict[str, str] = {
    "repro.analysis": "analysis",
    "repro.net.parser": "net",
}

#: Burst-lane emitters and the counter their emitted frames go to.
EMITTERS = (
    ("_emit_bulk", "hw.burst.pkts_closed_form"),
    ("_emit_train", "hw.burst.pkts_closed_form"),
    ("_emit_serial", "hw.burst.pkts_serial"),
)

#: Spans kept in memory for the Chrome trace; later spans are counted.
SPAN_CAP = 200_000


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module's code is billed to."""
    name = module or ""
    while name:
        layer = MODULE_LAYERS.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return OTHER


def _function_layer(module: str) -> Optional[str]:
    for package, layer in FUNCTION_LAYERS.items():
        if module == package or module.startswith(package + "."):
            return layer
    return None


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- the census ---------------------------------------------------------------

#: Census bucket -> class whose instances it collects.
CENSUS_CLASSES = {
    "tx_macs": ("repro.hw.mac", "TxMac"),
    "rx_macs": ("repro.hw.mac", "RxMac"),
    "dmas": ("repro.hw.dma", "DmaEngine"),
    "pipelines": ("repro.osnt.monitor.capture", "CapturePipeline"),
    "generators": ("repro.osnt.generator.engine", "PortGenerator"),
    "legacy_switches": ("repro.devices.legacy_switch", "LegacySwitch"),
    "openflow_switches": ("repro.devices.openflow_switch", "OpenFlowSwitch"),
}


class Census:
    """Counts of the simulated work, read from public component state.

    Use as a context manager around a pass and call :meth:`fold` after
    every op; :attr:`totals` accumulates across ops. Instances are
    released at each fold, so holding them costs no memory across ops.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, int] = defaultdict(int)
        self._live: Dict[str, list] = {name: [] for name in CENSUS_CLASSES}
        self._sims: list = []
        self._patches = Patches()

    def __enter__(self) -> "Census":
        for bucket, (module, cls_name) in CENSUS_CLASSES.items():
            cls = getattr(importlib.import_module(module), cls_name)
            self._patches.wrap(cls, "__init__", self._collector(self._live[bucket]))
        lane_cls = importlib.import_module("repro.hw.burst").BurstLane
        self._patches.wrap(lane_cls, "_audit", self._auditor)
        _kernel.add_creation_hook(self._sims.append)
        return self

    def __exit__(self, *exc) -> None:
        _kernel.remove_creation_hook(self._sims.append)
        self._patches.restore()
        self.fold()

    @staticmethod
    def _collector(bucket: list):
        def make(original):
            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                bucket.append(obj)

            return init

        return make

    def _auditor(self, original):
        totals = self.totals

        def audit(lane):
            eligible = original(lane)
            totals["lanes"] += 1
            if not eligible:
                totals["fallbacks"] += 1
            return eligible

        return audit

    def fold(self) -> None:
        """Add the counters of every component seen so far to the totals."""
        t = self.totals
        live = self._live
        for sim in self._sims:
            t["sim_ps"] += sim.now
            t["events"] += sim.events_processed
        for mac in live["tx_macs"]:
            t["frames"] += mac.stats.packets
            t["mac_drops"] += mac.stats.drops_overflow
        for mac in live["rx_macs"]:
            t["deliveries"] += mac.stats.packets
        for dma in live["dmas"]:
            t["dma_transfers"] += dma.stats.delivered
            t["dma_drops"] += dma.stats.dropped
        for pipeline in live["pipelines"]:
            t["monitor_pkts"] += pipeline.stats.rx_packets
        for generator in live["generators"]:
            t["generator_sent"] += generator.stats.sent
        for switch in live["legacy_switches"]:
            t["legacy_forwards"] += switch.forwarded
            t["legacy_drops"] += switch.egress_drops + switch.dropped_fabric
        for switch in live["openflow_switches"]:
            t["of_datapath_pkts"] += switch.datapath_hits + switch.datapath_misses
            t["of_packet_in_drops"] += switch.packet_ins_dropped
        self._sims.clear()
        for bucket in live.values():
            bucket.clear()

    @property
    def fallback_frac(self) -> float:
        """Share of burst lanes that fell back to the per-packet path."""
        lanes = self.totals["lanes"]
        return self.totals["fallbacks"] / lanes if lanes else 0.0


# -- the tracer ---------------------------------------------------------------


class LayerClock:
    """A span stack that accumulates each layer's self time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.spans_dropped = 0
        self.origin = time.perf_counter()
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        stack = self._stack
        layer, start, nested = stack.pop()
        duration = end - start
        self.self_s[layer] += duration - nested
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((layer, start, duration, len(stack)))
        else:
            self.spans_dropped += 1

    def chrome_trace(self, totals: Dict[str, Any]) -> Dict[str, Any]:
        """The kept spans as Chrome trace JSON (complete "X" events)."""
        origin = self.origin
        events = [
            {
                "name": layer,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"depth": depth},
            }
            for layer, start, duration, depth in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"layers": totals, "spans_dropped": self.spans_dropped},
        }


_ADVANCE = Process._advance


class LayerProfiler(SimProfiler):
    """Bills every fired event to the layer of its handler's module.

    ``Process._advance`` is billed to the module of the process's
    generator function, so generator-driven hardware (the per-packet
    generator loop, DMA, hosts) lands in its own layer, not in ``sim``.
    """

    def __init__(self, clock: LayerClock) -> None:
        super().__init__()
        self.layers = clock
        self.events_by_layer: Dict[str, int] = defaultdict(int)
        self._module_layers: Dict[Optional[str], str] = {}

    def dispatch(self, event) -> None:
        callback = event.callback
        if getattr(callback, "__func__", None) is _ADVANCE:
            generator = callback.__self__._generator
            frame = getattr(generator, "gi_frame", None)
            module = "repro.sim" if frame is None else frame.f_globals.get("__name__")
        else:
            module = getattr(callback, "__module__", None)
        layer = self._module_layers.get(module)
        if layer is None:
            layer = self._module_layers[module] = layer_of_module(module)
        self.events_by_layer[layer] += 1
        self.events += 1
        clock = self.layers
        clock.enter(layer)
        try:
            callback(*event.args)
        finally:
            clock.exit()


class Tracer:
    """Wall-time attribution across every op of one traced pass."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.profiler = LayerProfiler(self.clock)
        #: Wall time from each simulator's creation to its first run.
        self.build_s = 0.0
        self._created: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._bindings: Optional[List[Tuple[Any, str, str]]] = None

    @contextmanager
    def op(self, layer: str, forks: bool = False):
        """Trace one op; its own code is billed to ``layer``.

        ``forks`` arms only the parent-side entry points (see
        :data:`PARENT_LAYERS`).
        """
        patches = Patches()
        with ExitStack() as stack:
            stack.callback(patches.restore)
            self._install(patches, forks)
            if not forks:
                stack.enter_context(observe_simulators(profiler=self.profiler))
                _kernel.add_creation_hook(self._on_sim_created)
                stack.callback(_kernel.remove_creation_hook, self._on_sim_created)
            clock = self.clock
            clock.enter(layer)
            try:
                yield
            finally:
                clock.exit()

    def _on_sim_created(self, sim) -> None:
        self._created[sim] = time.perf_counter()

    def _install(self, patches: Patches, forks: bool) -> None:
        clock = self.clock
        for module, path, layer, counter in ENTRY_POINTS:
            if forks and layer not in PARENT_LAYERS:
                continue
            owner, attr = _resolve(module, path)
            patches.wrap(owner, attr, _spanned(clock, layer, counter))
        if forks:
            return
        patches.wrap(*_resolve("repro.sim.kernel", "Simulator.run"), self._run_wrapper)
        lane_cls = importlib.import_module("repro.hw.burst").BurstLane
        for attr, counter in EMITTERS:
            patches.wrap(lane_cls, attr, _emission_counter(clock, counter))
        for owner, attr, layer in self._function_bindings():
            patches.wrap(owner, attr, _spanned(clock, layer, None))

    def _run_wrapper(self, original):
        clock = self.clock
        created = self._created

        def run(sim, *args, **kwargs):
            born = created.pop(sim, None)
            if born is not None:
                self.build_s += time.perf_counter() - born
            clock.enter("sim")
            try:
                return original(sim, *args, **kwargs)
            finally:
                clock.exit()

        return run

    def _function_bindings(self) -> List[Tuple[Any, str, str]]:
        """(module, name, layer) for every binding of a wrapped function.

        See :data:`FUNCTION_LAYERS`. Computed once, after the warm-up
        pass has imported every module the workload uses.
        """
        if self._bindings is None:
            modules = [
                module
                for name, module in sorted(sys.modules.items())
                if name == "repro" or name.startswith("repro.")
            ]
            targets: Dict[Any, str] = {}
            for module in modules:
                layer = _function_layer(module.__name__)
                if layer is None:
                    continue
                for attr, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                    ):
                        targets[obj] = layer
            self._bindings = [
                (module, attr, targets[obj])
                for module in modules
                for attr, obj in vars(module).items()
                if inspect.isfunction(obj) and obj in targets
            ]
        return self._bindings

    # -- reads -----------------------------------------------------------------

    @property
    def counts(self) -> Dict[str, int]:
        return self.clock.counts

    @property
    def events_by_layer(self) -> Dict[str, int]:
        return self.profiler.events_by_layer

    def self_s(self) -> Dict[str, float]:
        """Self time per reported layer (seconds)."""
        return {layer: self.clock.self_s.get(layer, 0.0) for layer in LAYERS}

    def write_chrome(self, path, totals: Dict[str, Any]) -> None:
        with open(path, "w") as handle:
            json.dump(self.clock.chrome_trace(totals), handle)


def _spanned(clock: LayerClock, layer: str, counter: Optional[str]):
    """A wrapper factory that bills each call to ``layer``."""
    enter, exit_, counts = clock.enter, clock.exit, clock.counts

    def make(original):
        def spanned(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            enter(layer)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()

        return spanned

    return make


def _emission_counter(clock: LayerClock, counter: str):
    counts = clock.counts

    def make(original):
        def emit(lane, limit):
            stats = lane.engine.stats
            before = stats.sent
            original(lane, limit)
            counts[counter] += stats.sent - before

        return emit

    return make
