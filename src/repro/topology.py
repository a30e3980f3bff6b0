"""Declarative topology construction.

A :class:`Topology` is to device wiring what
:class:`~repro.runner.ExperimentSpec` is to measurement campaigns and
:class:`~repro.faults.ImpairmentSpec` is to fault injection: a
plain-data, JSON-round-trip description of *which* devices exist and
*how* their ports are cabled. Scenarios declare the shape once —

    >>> topo = (Topology(name="pair")
    ...         .host("h1").host("h2").switch("s1", ports=2)
    ...         .link("h1", "s1", rate="10Gbps", delay="5ns")
    ...         .link("s1", "h2"))
    >>> built = topo.build(Simulator())          # doctest: +SKIP

— and :meth:`Topology.build` instantiates the devices **in declaration
order** (construction order is part of the determinism contract: it
fixes RNG stream creation and daemon-event scheduling order) and wires
the cables in declaration order.

Node kinds and their ``params`` (all optional, human units accepted):

* ``host`` — :class:`~repro.devices.host.SimpleHost`; ``ip``/``mac``
  (auto-assigned ``10.0.0.N`` / ``02:00:00:00:00:NN`` by host index
  when omitted), ``rate``, ``reply_delay``.
* ``legacy_switch`` (builder alias :meth:`Topology.switch`) —
  :class:`~repro.devices.legacy_switch.LegacySwitch`; ``ports``,
  ``rate``, ``latency``, ``jitter``, ``buffer_bytes``, ``mac_table``,
  ``fabric_rate``, ``seed`` (the switch's jitter RNG,
  ``RandomStreams(seed).stream("sw")``).
* ``openflow_switch`` — a
  :class:`~repro.openflow.connection.ControlChannel` plus an
  :class:`~repro.devices.openflow_switch.OpenFlowSwitch` on its switch
  end; ``ports``, ``rate``, ``control_latency``, ``control_bandwidth``,
  ``profile`` (a name from :data:`repro.devices.PROFILES`, a dict of
  :class:`~repro.devices.SwitchProfile` fields, or an instance),
  ``datapath_id``. The channel is reachable via
  :meth:`BuiltTopology.control_channel`.
* ``osnt`` — an :class:`~repro.osnt.OSNT` tester card; params are
  passed through to the device (``root_seed`` etc.).
* ``snmp`` — an :class:`~repro.devices.SnmpAgent` serving the ports of
  the switch named by ``switch``.

Link endpoints are ``"name"`` (a host's single NIC, or the device's
first *unconnected* port) or ``"name:N"`` (explicit port index).
A link's ``rate`` (when given) reprograms both endpoint ports before
cabling; ``delay`` is the propagation delay and ``bit_error_rate``
models a dirty fibre exactly like
:func:`repro.hw.port.connect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .errors import TopologyError
from .hw.port import DEFAULT_PROPAGATION_PS, EthernetPort, Link, connect
from .spec import Spec
from .units import duration_ps, rate_bps

#: Registered node kinds (see module docstring).
NODE_KINDS = ("host", "legacy_switch", "openflow_switch", "osnt", "snmp")


@dataclass
class NodeSpec(Spec):
    """One device declaration: a unique name, a kind, its parameters."""

    name: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    _FIELDS = ("name", "kind", "params")
    _REQUIRED = ("name", "kind")
    _STRINGS = ("name", "kind")
    _ERROR = TopologyError
    _LABEL = "node"

    def _validate(self) -> None:
        if not self.name:
            raise TopologyError("node needs a non-empty name")
        if ":" in self.name:
            raise TopologyError(
                f"node name {self.name!r} may not contain ':' "
                "(reserved for port references)"
            )
        if self.kind not in NODE_KINDS:
            raise TopologyError(
                f"unknown node kind {self.kind!r}; choose from {sorted(NODE_KINDS)}"
            )
        if not isinstance(self.params, dict):
            raise TopologyError(
                f"node {self.name!r}: params must be a dict, "
                f"got {type(self.params).__name__}"
            )


@dataclass
class LinkSpec(Spec):
    """One cable: two port references plus the wire's properties."""

    a: str
    b: str
    delay: Union[int, str] = DEFAULT_PROPAGATION_PS
    rate: Optional[Union[float, str]] = None
    bit_error_rate: float = 0.0

    _FIELDS = ("a", "b", "delay", "rate", "bit_error_rate")
    _REQUIRED = ("a", "b")
    _STRINGS = ("a", "b")
    _ERROR = TopologyError
    _LABEL = "link"

    def _validate(self) -> None:
        if not self.a or not self.b:
            raise TopologyError("link needs two endpoint references")
        ber = self.bit_error_rate
        numeric = isinstance(ber, (int, float)) and not isinstance(ber, bool)
        if not (numeric and 0.0 <= ber < 1.0):
            raise TopologyError(
                f"link {self.a!r}–{self.b!r}: bit_error_rate must be in [0, 1)"
            )

    @property
    def delay_ps(self) -> int:
        return duration_ps(self.delay)

    @property
    def rate_bps(self) -> Optional[float]:
        return None if self.rate is None else rate_bps(self.rate)


def _parse_endpoint(ref: str) -> Tuple[str, Optional[int]]:
    """Split ``"name"`` / ``"name:3"`` into (node name, port index)."""
    if ":" not in ref:
        return ref, None
    name, _, index = ref.rpartition(":")
    if not name or not index.isdigit():
        raise TopologyError(f"bad endpoint reference {ref!r} (want 'name' or 'name:N')")
    return name, int(index)


class Topology(Spec):
    """Chainable builder of a :class:`NodeSpec`/:class:`LinkSpec` plan."""

    _FIELDS = ("name", "nodes", "links")
    _STRINGS = ("name",)
    _ERROR = TopologyError
    _LABEL = "topology"

    def __init__(
        self,
        name: str = "topology",
        nodes: Sequence[Union[NodeSpec, dict]] = (),
        links: Sequence[Union[LinkSpec, dict]] = (),
    ) -> None:
        self.name = name
        self._check_strings()
        for field, entries in (("nodes", nodes), ("links", links)):
            if not isinstance(entries, (list, tuple)):
                raise TopologyError(
                    f"topology {field} must be a list, got {type(entries).__name__}"
                )
        self.nodes: List[NodeSpec] = []
        self.links: List[LinkSpec] = []
        for node in nodes:
            self._add_node(node if isinstance(node, NodeSpec) else NodeSpec.from_dict(node))
        for entry in links:
            self.links.append(entry if isinstance(entry, LinkSpec) else LinkSpec.from_dict(entry))

    # -- declaration ---------------------------------------------------------

    def _add_node(self, node: NodeSpec) -> "Topology":
        if any(existing.name == node.name for existing in self.nodes):
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes.append(node)
        return self

    def node(self, name: str, kind: str, **params: Any) -> "Topology":
        """Declare a device of any registered ``kind``."""
        return self._add_node(NodeSpec(name=name, kind=kind, params=params))

    def host(self, name: str, **params: Any) -> "Topology":
        """Declare a :class:`~repro.devices.SimpleHost` endpoint."""
        return self.node(name, "host", **params)

    def switch(self, name: str, kind: str = "legacy", **params: Any) -> "Topology":
        """Declare a switch (``kind="legacy"`` or ``"openflow"``)."""
        kinds = {"legacy": "legacy_switch", "openflow": "openflow_switch"}
        if kind not in kinds:
            raise TopologyError(
                f"unknown switch kind {kind!r}; choose from {sorted(kinds)}"
            )
        return self.node(name, kinds[kind], **params)

    def tester(self, name: str = "osnt", **params: Any) -> "Topology":
        """Declare an :class:`~repro.osnt.OSNT` tester card."""
        return self.node(name, "osnt", **params)

    def snmp(self, name: str, switch: str, **params: Any) -> "Topology":
        """Declare an SNMP agent over a declared switch's ports."""
        return self.node(name, "snmp", switch=switch, **params)

    def link(
        self,
        a: str,
        b: str,
        delay: Union[int, str] = DEFAULT_PROPAGATION_PS,
        rate: Optional[Union[float, str]] = None,
        bit_error_rate: float = 0.0,
    ) -> "Topology":
        """Declare a cable between two endpoint references."""
        self.links.append(
            LinkSpec(a=a, b=b, delay=delay, rate=rate, bit_error_rate=bit_error_rate)
        )
        return self

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "nodes": [node.to_dict() for node in self.nodes],
            "links": [link.to_dict() for link in self.links],
        }

    @classmethod
    def from_any(
        cls, value: Union[None, "Topology", Dict[str, Any], str]
    ) -> "Topology":
        """Coerce any accepted representation into a :class:`Topology`."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_json(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TopologyError(f"cannot build a Topology from {type(value).__name__}")

    # -- construction --------------------------------------------------------

    def build(self, sim=None) -> "BuiltTopology":
        """Instantiate devices and wire cables, in declaration order.

        Returns a :class:`BuiltTopology`.
        """
        from .sim import Simulator

        if sim is None:
            sim = Simulator()
        built = BuiltTopology(sim, self)
        host_index = 0
        for node in self.nodes:
            if node.kind == "host":
                host_index += 1
            built.devices[node.name] = self._build_node(built, sim, node, host_index)
        for spec in self.links:
            built.links.append(self._build_link(built, spec))
        return built

    def _build_node(self, built: "BuiltTopology", sim, node: NodeSpec, host_index: int):
        params = dict(node.params)
        try:
            if node.kind == "host":
                return self._build_host(sim, node, params, host_index)
            if node.kind == "legacy_switch":
                return self._build_legacy_switch(sim, node, params)
            if node.kind == "openflow_switch":
                return self._build_openflow_switch(built, sim, node, params)
            if node.kind == "osnt":
                from .osnt.api import OSNT

                return OSNT(sim, **params)
            if node.kind == "snmp":
                return self._build_snmp(built, sim, node, params)
        except TopologyError:
            raise
        except TypeError as exc:
            raise TopologyError(f"node {node.name!r} ({node.kind}): {exc}") from exc
        raise TopologyError(f"unknown node kind {node.kind!r}")  # pragma: no cover

    @staticmethod
    def _build_host(sim, node: NodeSpec, params: Dict[str, Any], host_index: int):
        from .devices.host import SimpleHost

        kwargs: Dict[str, Any] = {
            "mac": params.pop("mac", None) or f"02:00:00:00:00:{host_index:02x}",
            "ip": params.pop("ip", None) or f"10.0.0.{host_index}",
        }
        if "rate" in params:
            kwargs["rate_bps"] = rate_bps(params.pop("rate"))
        if "reply_delay" in params:
            kwargs["reply_delay_ps"] = duration_ps(params.pop("reply_delay"))
        if params:
            raise TopologyError(
                f"host {node.name!r}: unknown param(s) {', '.join(sorted(params))}"
            )
        return SimpleHost(sim, node.name, **kwargs)

    @staticmethod
    def _build_legacy_switch(sim, node: NodeSpec, params: Dict[str, Any]):
        from .devices.legacy_switch import LegacySwitch
        from .sim import RandomStreams

        kwargs: Dict[str, Any] = {"name": params.pop("device_name", node.name)}
        if "ports" in params:
            kwargs["num_ports"] = int(params.pop("ports"))
        if "rate" in params:
            kwargs["port_rate_bps"] = rate_bps(params.pop("rate"))
        if "latency" in params:
            kwargs["switching_latency_ps"] = duration_ps(params.pop("latency"))
        if "jitter" in params:
            kwargs["latency_jitter_ps"] = duration_ps(params.pop("jitter"))
        if "buffer_bytes" in params:
            kwargs["buffer_bytes_per_port"] = int(params.pop("buffer_bytes"))
        if "mac_table" in params:
            kwargs["mac_table_capacity"] = int(params.pop("mac_table"))
        if "fabric_rate" in params:
            fabric = params.pop("fabric_rate")
            kwargs["fabric_rate_bps"] = None if fabric is None else rate_bps(fabric)
        if "seed" in params:
            kwargs["rng"] = RandomStreams(int(params.pop("seed"))).stream("sw")
        if params:
            raise TopologyError(
                f"switch {node.name!r}: unknown param(s) {', '.join(sorted(params))}"
            )
        return LegacySwitch(sim, **kwargs)

    @staticmethod
    def _build_openflow_switch(built: "BuiltTopology", sim, node: NodeSpec, params):
        from .devices.openflow_switch import PROFILES, SwitchProfile, OpenFlowSwitch
        from .openflow.connection import ControlChannel

        channel_kwargs: Dict[str, Any] = {}
        if "control_latency" in params:
            channel_kwargs["latency_ps"] = duration_ps(params.pop("control_latency"))
        if "control_bandwidth" in params:
            channel_kwargs["bandwidth_bps"] = rate_bps(params.pop("control_bandwidth"))
        profile = params.pop("profile", None)
        if isinstance(profile, str):
            if profile not in PROFILES:
                raise TopologyError(
                    f"switch {node.name!r}: unknown profile {profile!r}; "
                    f"known: {', '.join(sorted(PROFILES))}"
                )
            profile = PROFILES[profile]
        elif isinstance(profile, dict):
            profile = SwitchProfile(**profile)
        kwargs: Dict[str, Any] = {
            "name": params.pop("device_name", node.name),
            "profile": profile,
        }
        if "ports" in params:
            kwargs["num_ports"] = int(params.pop("ports"))
        if "rate" in params:
            kwargs["port_rate_bps"] = rate_bps(params.pop("rate"))
        if "datapath_id" in params:
            kwargs["datapath_id"] = int(params.pop("datapath_id"))
        if params:
            raise TopologyError(
                f"switch {node.name!r}: unknown param(s) {', '.join(sorted(params))}"
            )
        channel = ControlChannel(sim, **channel_kwargs)
        built.control_channels[node.name] = channel
        return OpenFlowSwitch(sim, channel.switch, **kwargs)

    @staticmethod
    def _build_snmp(built: "BuiltTopology", sim, node: NodeSpec, params):
        from .devices.snmp_agent import SnmpAgent

        switch_name = params.pop("switch", None)
        if switch_name is None:
            raise TopologyError(f"snmp node {node.name!r} needs a 'switch' param")
        switch = built.devices.get(switch_name)
        if switch is None:
            raise TopologyError(
                f"snmp node {node.name!r}: switch {switch_name!r} must be "
                "declared before it"
            )
        return SnmpAgent(sim, switch.ports, **params)

    def _build_link(self, built: "BuiltTopology", spec: LinkSpec) -> Link:
        port_a = built.endpoint(spec.a)
        port_b = built.endpoint(spec.b)
        rate = spec.rate_bps
        if rate is not None:
            for port in (port_a, port_b):
                port.rate_bps = rate
                port.tx.rate_bps = rate
        return connect(
            port_a,
            port_b,
            propagation_ps=spec.delay_ps,
            bit_error_rate=spec.bit_error_rate,
        )


class BuiltTopology:
    """The instantiated devices and cables of one :meth:`Topology.build`."""

    def __init__(self, sim, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        #: name → device, in declaration order.
        self.devices: Dict[str, Any] = {}
        #: :class:`~repro.hw.port.Link` objects, in declaration order.
        self.links: List[Link] = []
        #: OpenFlow control channels, keyed by their switch's node name.
        self.control_channels: Dict[str, Any] = {}

    def __getitem__(self, name: str):
        return self.node(name)

    def node(self, name: str):
        """The built device for a declared node name."""
        device = self.devices.get(name)
        if device is None:
            raise TopologyError(f"no node named {name!r} in the topology")
        return device

    def control_channel(self, name: str):
        """The control channel of a declared OpenFlow switch."""
        channel = self.control_channels.get(name)
        if channel is None:
            raise TopologyError(f"node {name!r} is not an OpenFlow switch")
        return channel

    def endpoint(self, ref: str) -> EthernetPort:
        """Resolve ``"name"`` / ``"name:N"`` to an Ethernet port.

        Without an index a host resolves to its single NIC and a
        multi-port device to its first unconnected port (deterministic:
        ports are scanned in index order).
        """
        name, index = _parse_endpoint(ref)
        device = self.node(name)
        port_attr = getattr(device, "port", None)
        if isinstance(port_attr, EthernetPort):  # SimpleHost-style: one NIC
            if index not in (None, 0):
                raise TopologyError(f"host {name!r} has a single port; got {ref!r}")
            return port_attr
        if not callable(port_attr):
            raise TopologyError(f"node {name!r} has no attachable ports")
        if index is not None:
            try:
                return port_attr(index)
            except (IndexError, KeyError) as exc:
                raise TopologyError(f"node {name!r} has no port {index}") from exc
        ports = getattr(device, "ports", None)
        if ports is None and hasattr(device, "device"):  # the OSNT facade
            ports = getattr(device.device, "ports", None)
        if not ports:
            raise TopologyError(
                f"cannot auto-pick a port on {name!r}; use an explicit {name}:N"
            )
        for port in ports:
            if port.link is None:
                return port
        raise TopologyError(f"all ports of {name!r} are already connected")

    def link_between(self, a: str, b: str) -> Link:
        """The first declared link between two node names (either order)."""
        targets = {a, b}
        for spec, link in zip(self.topology.links, self.links):
            names = {_parse_endpoint(spec.a)[0], _parse_endpoint(spec.b)[0]}
            if names == targets:
                return link
        raise TopologyError(f"no link between {a!r} and {b!r}")


__all__ = [
    "BuiltTopology",
    "LinkSpec",
    "NODE_KINDS",
    "NodeSpec",
    "Topology",
]
