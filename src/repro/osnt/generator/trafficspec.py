"""Declarative traffic model specifications.

A :class:`TrafficModelSpec` is to the generator's schedules what
:class:`~repro.faults.ImpairmentSpec` is to fault injection: a
plain-data, JSON-round-trip description of *which* traffic pattern to
offer, with units strings (``"9.5Gbps"``, ``"10us"``) accepted wherever
a rate or duration appears.  Because the spec is data, a traffic-model
axis sweeps through the runner exactly like a frame-size axis, and its
SHA-256 fingerprint pins the offered timeline: equal fingerprints plus
equal seeds mean bit-identical frame departures at any worker count.

Model kinds live in the :data:`TRAFFIC_MODELS` registry (extensible via
the :func:`traffic_model` decorator)::

    spec = TrafficModelSpec("burst_train", {
        "frames_per_burst": 32,
        "inter_burst_gap": "40us",
        "peak": "10Gbps",
    })
    schedule = spec.build(line_rate_bps=TEN_GBPS, streams=device.streams)

Stochastic kinds draw from per-model ``sim.random`` streams derived as
``traffic/<name>.<kind>`` so two models in one experiment never share a
draw sequence.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

from ...errors import ConfigError
from ...spec import Spec
from ...units import TEN_GBPS, duration_ps, rate_bps
from .schedule import (
    ConstantBitRate,
    ConstantGap,
    ExplicitGaps,
    LineRate,
    PoissonGaps,
    Schedule,
)
from .trafficmodels import (
    BurstTrain,
    Composite,
    CompositeStage,
    MarkovOnOff,
    Periodic,
)

#: Registry of model kinds → builder(params, ctx) -> Schedule.
TRAFFIC_MODELS: Dict[str, Callable[..., Schedule]] = {}


def traffic_model(kind: str) -> Callable:
    """Register a builder for a traffic model kind."""

    def decorate(builder: Callable[..., Schedule]) -> Callable[..., Schedule]:
        if kind in TRAFFIC_MODELS:
            raise ConfigError(f"traffic model kind {kind!r} already registered")
        TRAFFIC_MODELS[kind] = builder
        return builder

    return decorate


@dataclass
class BuildContext:
    """Everything a builder may need beyond its own parameters."""

    line_rate_bps: float = TEN_GBPS
    streams: Optional[Any] = None  # a repro.sim.RandomStreams
    name: str = "traffic"
    seed: Optional[int] = None

    def stream(self, kind: str):
        """The per-model RNG stream ``traffic/<name>.<kind>``, drawn from
        ``streams`` when given, else derived from ``seed`` (0 when None)."""
        label = f"traffic/{self.name}.{kind}"
        if self.streams is not None:
            return self.streams.stream(label)
        from ...sim import RandomStreams

        return RandomStreams(0 if self.seed is None else self.seed).stream(label)


def _check_params(kind: str, params: Dict[str, Any], allowed: tuple) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(
            f"traffic model {kind!r}: unknown parameter(s): "
            f"{', '.join(sorted(unknown))} (allowed: {', '.join(allowed)})"
        )


def _require(kind: str, params: Dict[str, Any], key: str) -> Any:
    if key not in params:
        raise ConfigError(f"traffic model {kind!r} needs parameter {key!r}")
    return params[key]


def _peak(params: Dict[str, Any], ctx: BuildContext) -> float:
    peak = params.get("peak")
    return ctx.line_rate_bps if peak is None else rate_bps(peak)


@traffic_model("line_rate")
def _build_line_rate(params, ctx):
    _check_params("line_rate", params, ("rate",))
    rate = params.get("rate")
    return LineRate(ctx.line_rate_bps if rate is None else rate_bps(rate))


@traffic_model("cbr")
def _build_cbr(params, ctx):
    _check_params("cbr", params, ("rate",))
    return ConstantBitRate(
        rate_bps(_require("cbr", params, "rate")),
        line_rate_bps=ctx.line_rate_bps,
    )


@traffic_model("constant_gap")
def _build_constant_gap(params, ctx):
    _check_params("constant_gap", params, ("gap",))
    return ConstantGap(
        duration_ps(_require("constant_gap", params, "gap")),
        line_rate_bps=ctx.line_rate_bps,
    )


@traffic_model("poisson")
def _build_poisson(params, ctx):
    _check_params("poisson", params, ("mean_gap", "clamp_to_wire"))
    return PoissonGaps(
        duration_ps(_require("poisson", params, "mean_gap")),
        line_rate_bps=ctx.line_rate_bps,
        clamp_to_wire=bool(params.get("clamp_to_wire", False)),
        stream=ctx.stream("poisson"),
    )


@traffic_model("explicit_gaps")
def _build_explicit_gaps(params, ctx):
    _check_params("explicit_gaps", params, ("gaps",))
    gaps = _require("explicit_gaps", params, "gaps")
    if not isinstance(gaps, (list, tuple)):
        raise ConfigError("traffic model 'explicit_gaps': gaps must be a list")
    return ExplicitGaps(
        [duration_ps(g) for g in gaps], line_rate_bps=ctx.line_rate_bps
    )


@traffic_model("markov_onoff")
def _build_markov_onoff(params, ctx):
    _check_params("markov_onoff", params, ("mean_on", "mean_off", "peak"))
    return MarkovOnOff(
        duration_ps(_require("markov_onoff", params, "mean_on")),
        duration_ps(_require("markov_onoff", params, "mean_off")),
        peak_bps=_peak(params, ctx),
        line_rate_bps=ctx.line_rate_bps,
        stream=ctx.stream("markov_onoff"),
    )


@traffic_model("burst_train")
def _build_burst_train(params, ctx):
    _check_params(
        "burst_train",
        params,
        ("frames_per_burst", "inter_burst_gap", "peak", "ramp_bursts"),
    )
    return BurstTrain(
        int(_require("burst_train", params, "frames_per_burst")),
        duration_ps(_require("burst_train", params, "inter_burst_gap")),
        peak_bps=_peak(params, ctx),
        line_rate_bps=ctx.line_rate_bps,
        ramp_bursts=int(params.get("ramp_bursts", 0)),
    )


@traffic_model("periodic")
def _build_periodic(params, ctx):
    _check_params("periodic", params, ("on", "off", "peak", "phase"))
    return Periodic(
        duration_ps(_require("periodic", params, "on")),
        duration_ps(_require("periodic", params, "off")),
        peak_bps=_peak(params, ctx),
        line_rate_bps=ctx.line_rate_bps,
        phase_ps=duration_ps(params.get("phase", 0)),
    )


@traffic_model("composite")
def _build_composite(params, ctx):
    _check_params("composite", params, ("stages", "mode"))
    raw_stages = _require("composite", params, "stages")
    if not isinstance(raw_stages, (list, tuple)) or not raw_stages:
        raise ConfigError(
            "traffic model 'composite': stages must be a non-empty list"
        )
    stages = []
    for i, entry in enumerate(raw_stages):
        if not isinstance(entry, dict):
            raise ConfigError(
                f"traffic model 'composite': stage {i} must be a JSON object"
            )
        extra = set(entry) - {"model", "params", "frames", "rate_scale"}
        if extra:
            raise ConfigError(
                f"traffic model 'composite': stage {i} has unknown "
                f"field(s): {', '.join(sorted(extra))}"
            )
        child_spec = TrafficModelSpec(
            model=entry.get("model", ""),
            params=entry.get("params", {}),
            name=f"{ctx.name}.{i}",
        )
        child = child_spec.build(
            line_rate_bps=ctx.line_rate_bps,
            streams=ctx.streams,
            seed=ctx.seed,
        )
        stages.append(
            CompositeStage(
                child,
                frames=int(entry.get("frames", 1)),
                rate_scale=float(entry.get("rate_scale", 1.0)),
            )
        )
    return Composite(
        stages,
        mode=params.get("mode", "sequence"),
        line_rate_bps=ctx.line_rate_bps,
    )


@dataclass
class TrafficModelSpec(Spec):
    """One traffic pattern: a registered kind plus its parameters."""

    model: str
    params: Dict[str, Any] = field(default_factory=dict)
    name: str = "traffic"

    _FIELDS = ("model", "params", "name")
    _REQUIRED = ("model",)
    _STRINGS = ("model", "name")
    _ERROR = ConfigError
    _LABEL = "traffic spec"

    def _validate(self) -> None:
        if not self.model:
            raise ConfigError("traffic model spec needs a model kind")
        if not isinstance(self.params, dict):
            raise ConfigError(
                f"traffic model {self.model!r}: params must be a dict, "
                f"got {type(self.params).__name__}"
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_any(
        cls,
        value: Union[None, "TrafficModelSpec", Dict[str, Any], str],
    ) -> Optional["TrafficModelSpec"]:
        """Coerce any accepted representation into a spec.

        ``None`` passes through (no traffic model); a spec passes
        through; a dict is :meth:`from_dict`; a string is parsed as
        JSON — or, as a convenience, taken as a bare model kind with no
        parameters if it is not a JSON document.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, str):
            text = value.strip()
            if text.startswith("{"):
                return cls.from_json(text)
            return cls(model=text)
        raise ConfigError(
            f"cannot build a TrafficModelSpec from {type(value).__name__}"
        )

    # -- building ------------------------------------------------------------

    def build(
        self,
        line_rate_bps: float = TEN_GBPS,
        streams: Optional[Any] = None,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> Schedule:
        """Materialize the schedule this spec describes.

        Stochastic kinds draw from the derived ``traffic/<name>.<kind>``
        stream of ``streams`` (a :class:`repro.sim.RandomStreams`), or
        of ``RandomStreams(seed)`` (seed 0 when neither is given).
        """
        if self.model not in TRAFFIC_MODELS:
            raise ConfigError(
                f"unknown traffic model kind {self.model!r} "
                f"(registered: {', '.join(sorted(TRAFFIC_MODELS))})"
            )
        ctx = BuildContext(
            line_rate_bps=line_rate_bps,
            streams=streams,
            name=self.name if name is None else name,
            seed=seed,
        )
        return TRAFFIC_MODELS[self.model](copy.deepcopy(self.params), ctx)


def build_traffic(
    value: Union[None, TrafficModelSpec, Dict[str, Any], str, Schedule],
    line_rate_bps: float = TEN_GBPS,
    streams: Optional[Any] = None,
    name: str = "traffic",
) -> Optional[Schedule]:
    """Coerce a traffic argument (spec, dict, JSON, Schedule, None) to a Schedule.

    The accepted argument shape for scenario ``traffic=`` parameters:
    an already-built :class:`Schedule` passes through untouched;
    anything spec-shaped goes through :meth:`TrafficModelSpec.from_any`
    and is built; ``None`` stays None.
    """
    if value is None or isinstance(value, Schedule):
        return value
    spec = TrafficModelSpec.from_any(value)
    return spec.build(line_rate_bps=line_rate_bps, streams=streams, name=name)
