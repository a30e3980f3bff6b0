"""Canonical JSON, content digests and the shared declarative-spec base.

Every plain-data description in the package — an
:class:`~repro.runner.ExperimentSpec`, an
:class:`~repro.faults.ImpairmentSpec` and its
:class:`~repro.faults.FaultSpec` entries, a
:class:`~repro.osnt.generator.trafficspec.TrafficModelSpec`, a
:class:`~repro.topology.Topology` and its node/link declarations —
round-trips through dicts and JSON and hashes to a fingerprint. This
module holds the one implementation of each of those:

* :func:`canonical_json` — sorted keys, no whitespace: equal values
  render to equal bytes, so reports compare with ``==``;
* :func:`digest` — SHA-256 hex of a value's canonical JSON, the hash
  behind fingerprints, result-store keys and timeline digests;
* :class:`Spec` — a mixin giving a class ``to_dict``/``from_dict``
  (field-checked against ``_FIELDS``/``_REQUIRED``), a type check of
  its declared string fields (``_STRINGS``), ``to_json``/``from_json``
  and ``fingerprint()``, raising the class's own ``_ERROR`` type. Each
  spec class keeps only its fields, its validation and any nested
  conversion.

Fingerprints and digests are part of the on-disk contract (result-store
keys are digests, and the attack scenarios store their traffic spec's
fingerprint in each result); ``tests/test_spec.py`` pins their exact
values.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

__all__ = ["Spec", "canonical_json", "digest"]


def canonical_json(value: Any) -> str:
    """The one JSON rendering used for fingerprints and merged reports.

    Sorted keys, no whitespace: byte-identical for equal values, so
    reports can be compared with ``==`` across runs and worker counts.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


class Spec:
    """Dict/JSON round-trip and fingerprinting for a declarative spec.

    Subclasses set ``_FIELDS`` (serialization order), ``_REQUIRED``
    (fields :meth:`from_dict` insists on), ``_STRINGS`` (fields that
    must hold a string, or ``None`` where ``None`` is the declared
    default), ``_ERROR`` (the exception type raised for malformed
    input) and ``_LABEL`` (how messages name the spec). Classes with
    nested specs override :meth:`to_dict`. Dataclass specs put their
    own checks in :meth:`_validate`, which runs after the string check;
    other specs call :meth:`_check_strings` from ``__init__``.
    """

    _FIELDS: ClassVar[Tuple[str, ...]] = ()
    _REQUIRED: ClassVar[Tuple[str, ...]] = ()
    _STRINGS: ClassVar[Tuple[str, ...]] = ()
    _ERROR: ClassVar[Type[Exception]] = ValueError
    _LABEL: ClassVar[str] = "spec"

    def __post_init__(self) -> None:
        self._check_strings()
        self._validate()

    def _check_strings(self) -> None:
        """Raise ``_ERROR`` for a declared string field of another type."""
        for name in self._STRINGS:
            value = getattr(self, name)
            optional = value is None and getattr(type(self), name, "") is None
            if not isinstance(value, str) and not optional:
                raise self._ERROR(
                    f"{self._LABEL} field {name!r} must be a string, "
                    f"got {type(value).__name__}"
                )

    def _validate(self) -> None:
        """Check field values; the string fields' types are checked."""

    def to_dict(self) -> Dict[str, Any]:
        return {name: copy.deepcopy(getattr(self, name)) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        if not isinstance(data, dict):
            raise cls._ERROR(
                f"{cls._LABEL} must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise cls._ERROR(
                f"unknown {cls._LABEL} field(s): {', '.join(sorted(unknown))}"
            )
        for required in cls._REQUIRED:
            if required not in data:
                raise cls._ERROR(f"{cls._LABEL} is missing required field {required!r}")
        return cls(**copy.deepcopy(data))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=(indent is None))

    @classmethod
    def _parse_json(cls, document: str) -> Any:
        """Decode a JSON document, raising ``_ERROR`` when it is malformed."""
        try:
            return json.loads(document)
        except json.JSONDecodeError as exc:
            raise cls._ERROR(f"{cls._LABEL} is not valid JSON: {exc}") from exc

    @classmethod
    def from_json(cls, document: str):
        return cls.from_dict(cls._parse_json(document))

    def fingerprint(self) -> str:
        """Content hash: equal specs → equal fingerprints across runs."""
        return digest(self.to_dict())[:16]
