"""The injector: binds an :class:`ImpairmentSpec` to live components.

Usage is three steps, mirroring how a testbed is wired::

    injector = FaultInjector(sim, spec, seed=experiment_seed)
    injector.bind(link=link, dma=card.dma, clock=card, control=channel)
    injector.arm()

``bind`` names the attachment points; each :class:`FaultSpec` resolves
its ``target`` (or its model's default) against those names. ``arm``
instantiates the registered model classes and schedules their
activation windows as daemon events, so faults never keep an
open-ended run alive.

Determinism: each fault draws from its own named RNG stream
(``fault/<name>`` on the injector's :class:`~repro.sim.RandomStreams`),
derived from the root seed alone. Two runs with the same seed and spec
produce bit-identical impairment timelines — compare
:meth:`FaultInjector.timeline_digest` — regardless of worker count,
because nothing else in the simulation shares those streams.

Telemetry: every recorded fault action increments
``faults.<name>.<action>`` in the bound
:class:`~repro.telemetry.MetricsRegistry` and, when a tracer is
armed on the simulator, emits a ``"fault"``-category instant event.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from ..errors import FaultError
from ..sim.random import RandomStreams
from .models import FAULT_MODELS, FaultModel
from .spec import ImpairmentSpec

#: Keep at most this many in-memory timeline records (the digest always
#: covers the full history).
TIMELINE_LIMIT = 4096


class FaultInjector:
    """Attach the fault models of one :class:`ImpairmentSpec` to a sim."""

    def __init__(
        self,
        sim,
        spec,
        *,
        seed: int = 0,
        streams: Optional[RandomStreams] = None,
        registry=None,
    ) -> None:
        self.sim = sim
        self.spec = ImpairmentSpec.from_any(spec)
        self.streams = streams if streams is not None else RandomStreams(seed)
        self.registry = registry
        self._targets: Dict[str, Any] = {}
        self._models: Dict[str, FaultModel] = {}
        self._armed = False
        #: Bounded in-memory view of what fired, for tests and reports.
        self.timeline: List[Tuple[int, str, str, dict]] = []
        self.events_recorded = 0
        self._digest = hashlib.sha256()

    # -- wiring --------------------------------------------------------------

    def bind(self, **targets: Any) -> "FaultInjector":
        """Name the components faults may attach to.

        Conventional names: ``link`` (a :class:`~repro.hw.port.Link`),
        ``dma`` (a :class:`~repro.hw.dma.DmaEngine`), ``clock`` (an
        object exposing ``.oscillator``/``.gps``/``.timestamp_unit``,
        e.g. an OSNT device) and ``control`` (a
        :class:`~repro.openflow.connection.ControlChannel`). Arbitrary
        extra names are fine — a spec selects one with its ``target``
        field. ``None`` values are ignored so callers can pass whatever
        subset their testbed has. Returns ``self`` for chaining.
        """
        for name, target in targets.items():
            if target is not None:
                self._targets[name] = target
        return self

    def arm(self) -> "FaultInjector":
        """Instantiate every fault model and schedule its window."""
        if self._armed:
            raise FaultError("injector is already armed")
        self._armed = True
        for fault in self.spec.faults:
            model_cls = FAULT_MODELS.get(fault.model)
            if model_cls is None:
                known = ", ".join(sorted(FAULT_MODELS))
                raise FaultError(
                    f"fault {fault.name!r}: unknown model {fault.model!r} "
                    f"(known: {known})"
                )
            target_name = fault.target or model_cls.default_target
            if target_name not in self._targets:
                bound = ", ".join(sorted(self._targets)) or "nothing"
                raise FaultError(
                    f"fault {fault.name!r} targets {target_name!r} but the "
                    f"injector has {bound} bound"
                )
            rng = self.streams.stream(f"fault/{fault.name}")
            model = model_cls(fault, self._targets[target_name], rng, self)
            model.arm(self.sim)
            self._models[fault.name] = model
        return self

    @property
    def models(self) -> Dict[str, FaultModel]:
        """The armed models, keyed by fault name."""
        return dict(self._models)

    def model(self, name: str) -> FaultModel:
        try:
            return self._models[name]
        except KeyError:
            raise FaultError(f"no armed fault named {name!r}") from None

    # -- recording -----------------------------------------------------------

    def record(self, fault_name: str, action: str, **detail: Any) -> None:
        """Log one fault action into timeline + digest + telemetry.

        A ``packet=`` keyword names the frame the action touched; it is
        routed to an armed :class:`repro.obs.SpanRecorder` (the packet's
        span gains a fault hop) and **stripped before** the timeline and
        digest, so digests stay bit-identical whether or not models pass
        packets and whether or not spans are armed.
        """
        packet = detail.pop("packet", None)
        now = self.sim.now
        if packet is not None:
            spans = self.sim.spans
            if spans is not None:
                spans.fault(now, packet, fault_name, action, detail or None)
        self.events_recorded += 1
        entry = (now, fault_name, action, detail)
        if len(self.timeline) < TIMELINE_LIMIT:
            self.timeline.append(entry)
        payload = (
            f"{now}|{fault_name}|{action}|"
            f"{sorted(detail.items()) if detail else ''}"
        )
        self._digest.update(payload.encode())
        if self.registry is not None:
            self.registry.counter(f"faults.{fault_name}.{action}").inc()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(now, "fault", f"{fault_name}.{action}", detail or None)

    def timeline_digest(self) -> str:
        """SHA-256 over the *entire* recorded history (not just the
        bounded in-memory window) — the bit-identity witness."""
        return self._digest.hexdigest()
