"""Declarative impairment specifications.

An :class:`ImpairmentSpec` is to fault injection what
:class:`~repro.runner.ExperimentSpec` is to measurement campaigns: a
plain-data, JSON-round-trip description of *which* fault models to
attach *where* and *when*. Because the spec is data, a fault axis can be
swept by the runner exactly like a frame-size axis — every shard builds
its own simulator, derives the fault RNG from the shard seed, and the
impairment timeline is bit-identical at any worker count.

Each :class:`FaultSpec` names one fault model instance:

* ``name`` — unique label; namespaces the model's RNG stream, its
  telemetry counters (``faults.<name>.*``) and its timeline records;
* ``model`` — a registered model kind (see
  :data:`repro.faults.models.FAULT_MODELS`);
* ``target`` — the injector binding the model attaches to (``"link"``,
  ``"dma"``, ``"clock"``, ``"control"`` by default — see
  :meth:`repro.faults.FaultInjector.bind`);
* ``params`` — model parameters; rates are floats, durations accept
  human strings (``"2ms"``) like everywhere else in the package;
* ``start`` / ``stop`` — the activation window in simulated time
  (``stop=None`` keeps the fault active forever).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import FaultError
from ..spec import Spec
from ..units import duration_ps


@dataclass
class FaultSpec(Spec):
    """One fault model instance with its target and activation window."""

    name: str
    model: str
    target: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    start: Union[int, str] = 0
    stop: Optional[Union[int, str]] = None

    _FIELDS = ("name", "model", "target", "params", "start", "stop")
    _REQUIRED = ("name", "model")
    _ERROR = FaultError
    _LABEL = "fault"

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("fault needs a non-empty name")
        if not self.model:
            raise FaultError(f"fault {self.name!r} needs a model kind")
        if not isinstance(self.params, dict):
            raise FaultError(
                f"fault {self.name!r}: params must be a dict, "
                f"got {type(self.params).__name__}"
            )
        if self.stop is not None and self.stop_ps <= self.start_ps:
            raise FaultError(
                f"fault {self.name!r}: stop ({self.stop!r}) must be after "
                f"start ({self.start!r})"
            )

    @property
    def start_ps(self) -> int:
        return duration_ps(self.start)

    @property
    def stop_ps(self) -> Optional[int]:
        return None if self.stop is None else duration_ps(self.stop)


@dataclass
class ImpairmentSpec(Spec):
    """A named set of fault models — the whole impairment plan of a run."""

    faults: List[FaultSpec] = field(default_factory=list)
    name: str = "impairments"

    _FIELDS = ("name", "faults")
    _ERROR = FaultError
    _LABEL = "impairment spec"

    def __post_init__(self) -> None:
        if not isinstance(self.faults, (list, tuple)):
            raise FaultError(
                f"faults must be a list, got {type(self.faults).__name__}"
            )
        normalized: List[FaultSpec] = []
        for entry in self.faults:
            if isinstance(entry, FaultSpec):
                normalized.append(entry)
            elif isinstance(entry, dict):
                normalized.append(FaultSpec.from_dict(entry))
            else:
                raise FaultError(
                    f"fault entries must be FaultSpec or dict, "
                    f"got {type(entry).__name__}"
                )
        self.faults = normalized
        seen = set()
        for fault in self.faults:
            if fault.name in seen:
                raise FaultError(f"duplicate fault name {fault.name!r}")
            seen.add(fault.name)

    @property
    def empty(self) -> bool:
        return not self.faults

    # -- construction --------------------------------------------------------

    @classmethod
    def from_any(
        cls,
        value: Union[None, "ImpairmentSpec", Dict[str, Any], Sequence, str],
    ) -> "ImpairmentSpec":
        """Coerce any accepted representation into a spec.

        ``None`` → empty spec; an :class:`ImpairmentSpec` passes through;
        a dict is :meth:`from_dict`; a list is taken as the fault list;
        a string is parsed as JSON.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_json(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, (list, tuple)):
            return cls(faults=list(value))
        raise FaultError(
            f"cannot build an ImpairmentSpec from {type(value).__name__}"
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_json(cls, document: str) -> "ImpairmentSpec":
        data = cls._parse_json(document)
        if isinstance(data, list):
            return cls(faults=data)
        return cls.from_dict(data)
