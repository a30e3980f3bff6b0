"""The fault-model catalogue.

Each model degrades one component class on purpose, through the same
hooks real hardware failures exercise:

* link layer — frame loss (optionally bursty, after LinkGuardian's
  observation that sub-RTT *corruption* loss is what breaks testers),
  FCS corruption, reordering and jitter on a :class:`~repro.hw.port.Link`;
* host path — DMA drain stalls and descriptor-ring clamps on a
  :class:`~repro.hw.dma.DmaEngine` (capture loss becomes measurable,
  never silent);
* clocks — oscillator drift steps, GPS holdover windows and a frozen
  timestamp counter on the card's clock subsystem;
* control plane — channel flaps (messages lost while down) and latency
  spikes on a :class:`~repro.openflow.connection.ControlChannel`.

Every stochastic decision draws from the model's own named RNG stream
(derived from the injector's root seed and the fault's ``name``), so
adding or removing one fault never perturbs another's timeline and the
whole impairment schedule is bit-identical for a given seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple, Type

from ..errors import FaultError
from ..hw.port import DROP_FRAME, Link
from ..units import duration_ps
from .spec import FaultSpec

#: Registry of model kinds, filled by the :func:`fault_model` decorator.
FAULT_MODELS: Dict[str, Type["FaultModel"]] = {}


def fault_model(kind: str) -> Callable[[Type["FaultModel"]], Type["FaultModel"]]:
    """Register a model class under its spec ``model`` kind."""

    def decorate(cls: Type["FaultModel"]) -> Type["FaultModel"]:
        cls.kind = kind
        FAULT_MODELS[kind] = cls
        return cls

    return decorate


def _param_ps(params: dict, key: str, default) -> Optional[int]:
    value = params.get(key, default)
    return None if value is None else duration_ps(value)


def _param_rate(params: dict, key: str, default: float, name: str) -> float:
    rate = float(params.get(key, default))
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"fault {name!r}: {key} must be in [0, 1], got {rate}")
    return rate


class FaultModel:
    """Base class: window scheduling plus the injector back-channel."""

    kind = "base"
    #: Default injector binding this model attaches to.
    default_target = "link"
    #: The ``params`` keys this model reads; any other key is a FaultError.
    param_keys: Tuple[str, ...] = ()

    def __init__(self, spec: FaultSpec, target, rng: random.Random, injector) -> None:
        unknown = sorted(set(spec.params) - set(self.param_keys))
        if unknown:
            accepted = ", ".join(sorted(self.param_keys)) or "none"
            raise FaultError(
                f"fault {spec.name!r} ({self.kind}): unknown param(s) "
                f"{', '.join(map(repr, unknown))}; accepted: {accepted}"
            )
        self.spec = spec
        self.name = spec.name
        self.target = target
        self.rng = rng
        self.injector = injector
        self.active = False

    # -- lifecycle ----------------------------------------------------------

    def arm(self, sim) -> None:
        """Schedule the activation window (daemon events: faults must
        never keep an otherwise-finished run alive)."""
        self.sim = sim
        start = self.spec.start_ps
        if start <= sim.now:
            self._activate()
        else:
            sim.call_at(start, self._activate, daemon=True)
        stop = self.spec.stop_ps
        if stop is not None:
            sim.call_at(stop, self._deactivate, daemon=True)

    def _activate(self) -> None:
        self.active = True
        self.record("activate")
        self.on_activate()

    def _deactivate(self) -> None:
        self.active = False
        self.record("deactivate")
        self.on_deactivate()

    def on_activate(self) -> None:
        """Model-specific window entry (override as needed)."""

    def on_deactivate(self) -> None:
        """Model-specific window exit (override as needed)."""

    def record(self, action: str, **detail) -> None:
        self.injector.record(self.name, action, **detail)


# ---------------------------------------------------------------------------
# Link-layer models (target: a hw.port.Link)
# ---------------------------------------------------------------------------


def impaired_port(link, direction: Optional[str]):
    """The port whose arriving frames a directional link impairment
    touches (``"a_to_b"``: ``port_b``, ``"b_to_a"``: ``port_a``), or None
    when it touches both directions."""
    if direction is None:
        return None
    return link.port_b if direction == "a_to_b" else link.port_a


def book_fcs_failure(link, destination) -> None:
    """Count a corrupted frame that reaches the far MAC and fails its FCS
    check there: a corrupted frame on the link, an RX error *and* an
    injected drop, exactly how a dirty fibre shows up to a real tester."""
    link.frames_corrupted += 1
    stats = destination.rx.stats
    stats.errors += 1
    stats.drops_injected += 1


class GeometricBursts:
    """Per-frame hits that come in bursts: a burst starts with probability
    ``rate / burst`` and lasts a geometric number of frames with mean
    ``burst`` (the starting frame included), so the long-run share of hit
    frames is ``rate``. Every draw comes from ``rng``, in frame order."""

    def __init__(self, rate: float, burst: float, rng: random.Random) -> None:
        self.rate = rate
        self.burst = burst
        self.rng = rng
        self.left = 0  # frames of the current burst still to hit

    def hit(self) -> bool:
        if self.left > 0:
            self.left -= 1
            return True
        if self.rate <= 0.0:
            return False
        enter = min(1.0, self.rate / self.burst)
        if self.rng.random() >= enter:
            return False
        length = 1
        continue_p = 1.0 - 1.0 / self.burst
        while continue_p > 0.0 and self.rng.random() < continue_p:
            length += 1
        self.left = length - 1
        return True


class _LinkModel(FaultModel):
    """Base for models that hook a link's per-frame delivery path.

    All link models accept an optional ``direction`` param:
    ``"a_to_b"`` impairs only frames delivered toward the link's
    ``port_b``, ``"b_to_a"`` the reverse, and the default (None) both
    directions. Directional impairment is what closed-loop experiments
    need — dropping a flow's data segments without touching its ACKs
    keeps the loss accounting exact.
    """

    default_target = "link"
    param_keys = ("direction",)

    def __init__(self, spec: FaultSpec, target, rng: random.Random, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.direction = spec.params.get("direction")
        if self.direction not in (None, "a_to_b", "b_to_a"):
            raise FaultError(
                f"fault {spec.name!r}: direction must be 'a_to_b', "
                f"'b_to_a' or omitted, got {self.direction!r}"
            )

    def arm(self, sim) -> None:
        if not isinstance(self.target, Link):
            raise FaultError(
                f"fault {self.name!r} ({self.kind}) needs a Link target, "
                f"got {type(self.target).__name__}"
            )
        self._only_to = impaired_port(self.target, self.direction)
        self.target.add_impairment(self._on_frame)
        super().arm(sim)

    def _on_frame(self, packet, destination) -> Optional[int]:
        if not self.active:
            return None
        only_to = self._only_to
        if only_to is not None and destination is not only_to:
            return None
        return self.decide(packet, destination)

    def decide(self, packet, destination) -> Optional[int]:
        """Per-frame verdict: ``None`` deliver, ``DROP_FRAME`` drop, or
        an extra delay in ps."""
        raise NotImplementedError


@fault_model("link_loss")
class LinkLossModel(_LinkModel):
    """Random (optionally bursty) frame loss on the wire.

    ``rate`` is the long-run average loss fraction; ``burst`` is the
    mean number of *consecutive* frames lost per loss event (1 = i.i.d.
    drops; larger values model the correlated loss bursts that P4TG-style
    burst loads and LinkGuardian's corrupting links produce). Burst
    lengths are geometric with the configured mean, and the entry
    probability is scaled so the average rate stays ``rate``.
    """

    param_keys = _LinkModel.param_keys + ("rate", "burst")

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.rate = _param_rate(spec.params, "rate", 0.0, spec.name)
        self.burst = float(spec.params.get("burst", 1.0))
        if self.burst < 1.0:
            raise FaultError(f"fault {spec.name!r}: burst must be >= 1")
        self._losses = GeometricBursts(self.rate, self.burst, rng)
        self.dropped = 0

    def decide(self, packet, destination) -> Optional[int]:
        if not self._losses.hit():
            return None
        self.dropped += 1
        destination.rx.stats.drops_injected += 1
        self.record("drop", bytes=packet.frame_length, packet=packet)
        return DROP_FRAME


@fault_model("link_corrupt")
class LinkCorruptModel(_LinkModel):
    """Per-frame FCS corruption: the frame reaches the far MAC but fails
    the FCS check there (:func:`book_fcs_failure`)."""

    param_keys = _LinkModel.param_keys + ("rate",)

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.rate = _param_rate(spec.params, "rate", 0.0, spec.name)
        self.corrupted = 0

    def decide(self, packet, destination) -> Optional[int]:
        if self.rate <= 0.0 or self.rng.random() >= self.rate:
            return None
        self.corrupted += 1
        book_fcs_failure(self.target, destination)
        self.record("corrupt", bytes=packet.frame_length, packet=packet)
        return DROP_FRAME


@fault_model("link_jitter")
class LinkJitterModel(_LinkModel):
    """Uniform extra per-frame delay in ``[0, max_jitter]`` picoseconds."""

    param_keys = _LinkModel.param_keys + ("max_jitter",)

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.max_jitter_ps = _param_ps(spec.params, "max_jitter", 0) or 0
        if self.max_jitter_ps < 0:
            raise FaultError(f"fault {spec.name!r}: max_jitter must be >= 0")
        self.delayed = 0

    def decide(self, packet, destination) -> Optional[int]:
        if self.max_jitter_ps <= 0:
            return None
        delay = self.rng.randrange(self.max_jitter_ps + 1)
        if delay <= 0:
            return None
        self.delayed += 1
        self.record("delay", delay_ps=delay, packet=packet)
        return delay


@fault_model("link_reorder")
class LinkReorderModel(_LinkModel):
    """Hold back a random subset of frames by a fixed extra delay, so
    they arrive *after* frames sent later — classic reordering."""

    param_keys = _LinkModel.param_keys + ("rate", "delay")

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.rate = _param_rate(spec.params, "rate", 0.0, spec.name)
        self.delay_ps = _param_ps(spec.params, "delay", 0) or 0
        if self.delay_ps < 0:
            raise FaultError(f"fault {spec.name!r}: delay must be >= 0")
        self.reordered = 0

    def decide(self, packet, destination) -> Optional[int]:
        if self.rate <= 0.0 or self.delay_ps <= 0:
            return None
        if self.rng.random() >= self.rate:
            return None
        self.reordered += 1
        self.record("reorder", delay_ps=self.delay_ps, packet=packet)
        return self.delay_ps


# ---------------------------------------------------------------------------
# DMA / host-path models (target: a hw.dma.DmaEngine)
# ---------------------------------------------------------------------------


class _DmaModel(FaultModel):
    default_target = "dma"

    def arm(self, sim) -> None:
        from ..hw.dma import DmaEngine

        if not isinstance(self.target, DmaEngine):
            raise FaultError(
                f"fault {self.name!r} ({self.kind}) needs a DmaEngine target, "
                f"got {type(self.target).__name__}"
            )
        super().arm(sim)


@fault_model("dma_stall")
class DmaStallModel(_DmaModel):
    """Periodic drain stalls: every ``period`` the engine stops moving
    bytes for ``duration`` (host IOMMU hiccups, PCIe backpressure). The
    ring keeps filling, so sufficiently long stalls surface as counted
    tail drops — loss-limited, never silent."""

    param_keys = ("period", "duration")

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.period_ps = _param_ps(spec.params, "period", "1ms")
        self.duration_ps = _param_ps(spec.params, "duration", "100us")
        if self.period_ps <= 0 or self.duration_ps <= 0:
            raise FaultError(f"fault {spec.name!r}: period/duration must be positive")
        self.stalls = 0

    def on_activate(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if not self.active:
            return
        self.stalls += 1
        self.target.stall_for(self.duration_ps)
        self.record("stall", duration_ps=self.duration_ps)
        self.sim.call_after(self.period_ps, self._tick, daemon=True)


@fault_model("dma_ring_clamp")
class DmaRingClampModel(_DmaModel):
    """Clamp the usable descriptor ring to ``slots`` while active —
    ring-overflow pressure without rebuilding the engine."""

    param_keys = ("slots",)

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.slots = int(spec.params.get("slots", 1))
        if self.slots < 1:
            raise FaultError(f"fault {spec.name!r}: slots must be >= 1")

    def on_activate(self) -> None:
        self.target.set_slot_clamp(self.slots)
        self.record("clamp", slots=self.slots)

    def on_deactivate(self) -> None:
        self.target.set_slot_clamp(None)
        self.record("unclamp")


# ---------------------------------------------------------------------------
# Clock models (target: an object with .oscillator/.gps/.timestamp_unit,
# e.g. an OSNTDevice)
# ---------------------------------------------------------------------------


class _ClockModel(FaultModel):
    default_target = "clock"

    def arm(self, sim) -> None:
        for attr in self.required_attrs:
            if not hasattr(self.target, attr):
                raise FaultError(
                    f"fault {self.name!r} ({self.kind}) needs a clock target "
                    f"with .{attr} (e.g. an OSNTDevice)"
                )
        super().arm(sim)

    required_attrs = ("oscillator",)


@fault_model("clock_drift_step")
class ClockDriftStepModel(_ClockModel):
    """Step the oscillator at window start: ``ppm`` of extra frequency
    error and/or a ``phase`` jump — a thermal shock or a reference
    glitch the GPS servo must then chase back down."""

    required_attrs = ("oscillator",)
    param_keys = ("ppm", "phase")

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.ppm = float(spec.params.get("ppm", 0.0))
        self.phase_ps = _param_ps(spec.params, "phase", 0) or 0

    def on_activate(self) -> None:
        oscillator = self.target.oscillator
        if self.ppm:
            oscillator.adjust_rate(self.ppm * 1e-6)
        if self.phase_ps:
            oscillator.step_phase(self.phase_ps)
        self.record("drift_step", ppm=self.ppm, phase_ps=self.phase_ps)


@fault_model("gps_holdover")
class GpsHoldoverModel(_ClockModel):
    """GPS holdover: the PPS input disappears for the window, the servo
    stops correcting and the clock free-runs on its (drifting) crystal.
    Re-acquisition at window end steps the clock back onto the pulse."""

    required_attrs = ("gps",)

    def on_activate(self) -> None:
        self._was_enabled = self.target.gps.enabled
        self.target.gps.enabled = False
        self.record("holdover_start")

    def on_deactivate(self) -> None:
        self.target.gps.enabled = self._was_enabled
        self.record("holdover_end")


@fault_model("timestamp_freeze")
class TimestampFreezeModel(_ClockModel):
    """Freeze the 64-bit timestamp counter for the window (a latch-up:
    every capture in the window carries the same stale stamp)."""

    required_attrs = ("timestamp_unit",)

    def on_activate(self) -> None:
        self.target.timestamp_unit.freeze()
        self.record("freeze")

    def on_deactivate(self) -> None:
        self.target.timestamp_unit.unfreeze()
        self.record("unfreeze")


# ---------------------------------------------------------------------------
# Control-channel models (target: an openflow.connection.ControlChannel)
# ---------------------------------------------------------------------------


class _ControlModel(FaultModel):
    default_target = "control"

    def arm(self, sim) -> None:
        from ..openflow.connection import ControlChannel

        if not isinstance(self.target, ControlChannel):
            raise FaultError(
                f"fault {self.name!r} ({self.kind}) needs a ControlChannel "
                f"target, got {type(self.target).__name__}"
            )
        super().arm(sim)


@fault_model("control_flap")
class ControlFlapModel(_ControlModel):
    """Flap the control session: every ``period`` the channel goes down
    for ``down_time``; messages sent while down are lost (the TCP
    session is gone — there is nobody to retransmit to)."""

    param_keys = ("period", "down_time")

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.period_ps = _param_ps(spec.params, "period", "10ms")
        self.down_ps = _param_ps(spec.params, "down_time", "2ms")
        if self.period_ps <= 0 or self.down_ps <= 0:
            raise FaultError(f"fault {spec.name!r}: period/down_time must be positive")
        if self.down_ps >= self.period_ps:
            raise FaultError(
                f"fault {spec.name!r}: down_time must be shorter than period"
            )
        self.flaps = 0

    def on_activate(self) -> None:
        self._down()

    def on_deactivate(self) -> None:
        if self.target.down:
            self.target.set_down(False)
            self.record("up")

    def _down(self) -> None:
        if not self.active:
            return
        self.flaps += 1
        self.target.set_down(True)
        self.record("down")
        self.sim.call_after(self.down_ps, self._up, daemon=True)

    def _up(self) -> None:
        if not self.active:
            return
        self.target.set_down(False)
        self.record("up")
        self.sim.call_after(self.period_ps - self.down_ps, self._down, daemon=True)


@fault_model("control_latency")
class ControlLatencySpikeModel(_ControlModel):
    """Add ``extra`` one-way latency to both directions of the control
    channel while active — a congested management network."""

    param_keys = ("extra",)

    def __init__(self, spec, target, rng, injector) -> None:
        super().__init__(spec, target, rng, injector)
        self.extra_ps = _param_ps(spec.params, "extra", "1ms")
        if self.extra_ps < 0:
            raise FaultError(f"fault {spec.name!r}: extra must be >= 0")

    def on_activate(self) -> None:
        self.target.set_extra_latency(self.extra_ps)
        self.record("spike_start", extra_ps=self.extra_ps)

    def on_deactivate(self) -> None:
        self.target.set_extra_latency(0)
        self.record("spike_end")
