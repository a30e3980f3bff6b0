"""Wildcard packet filters (the monitor's TCAM filter bank).

The OSNT monitor provides "wildcard-enabled packet filters" in hardware:
a small TCAM matching on the 5-tuple, where any field may be masked.
Entries are priority-ordered (lowest index wins, like TCAM rows); a
packet matching an entry takes that entry's action, otherwise the bank's
default action applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Union

from ...errors import CaptureError
from ...net.ethernet import ETH_HEADER_LEN
from ...net.fields import ipv4_to_int
from ...net.flows import FiveTuple, extract_five_tuple
from ...net.parser import decode

#: Hardware bank depth on the NetFPGA-10G design.
DEFAULT_BANK_SIZE = 16


@dataclass
class FilterRule:
    """One TCAM row. ``None`` in a field means wildcard.

    IPv4 prefixes are expressed with ``*_prefix_len`` (0-32); a prefix
    length of 32 matches the exact address.
    """

    src_ip: Optional[str] = None
    src_prefix_len: int = 32
    dst_ip: Optional[str] = None
    dst_prefix_len: int = 32
    protocol: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    action_pass: bool = True

    def __post_init__(self) -> None:
        for length in (self.src_prefix_len, self.dst_prefix_len):
            if not 0 <= length <= 32:
                raise CaptureError(f"bad prefix length {length}")

    @classmethod
    def from_spec(cls, spec: Union["FilterRule", Dict[str, Any], str]) -> "FilterRule":
        """Build a rule from a declarative spec.

        Accepts an existing rule (pass-through), a JSON object string,
        or a dict using either the dataclass field names or the CLI
        shorthand: ``"src"``/``"dst"`` take ``"a.b.c.d/len"`` prefix
        strings (bare address = /32) and ``"action"`` takes ``"pass"``
        or ``"drop"``.

        >>> FilterRule.from_spec({"src": "10.0.0.0/8", "action": "drop"})
        ... # doctest: +SKIP
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise CaptureError(f"filter rule is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise CaptureError(
                f"filter rule spec must be a dict, got {type(spec).__name__}"
            )
        known = {f.name for f in dataclass_fields(cls)}
        kwargs: Dict[str, Any] = {}
        for key, value in spec.items():
            if key in ("src", "dst"):
                address, slash, length = str(value).partition("/")
                kwargs[f"{key}_ip"] = address
                if slash:
                    kwargs[f"{key}_prefix_len"] = int(length)
            elif key == "action":
                if value not in ("pass", "drop"):
                    raise CaptureError(f"filter action must be pass/drop, got {value!r}")
                kwargs["action_pass"] = value == "pass"
            elif key in known:
                kwargs[key] = value
            else:
                raise CaptureError(f"unknown filter rule field {key!r}")
        return cls(**kwargs)

    def matches(self, tup: Optional[FiveTuple]) -> bool:
        if tup is None:
            # Non-IP traffic only matches the all-wildcard rule.
            return (
                self.src_ip is None
                and self.dst_ip is None
                and self.protocol is None
                and self.src_port is None
                and self.dst_port is None
            )
        if self.protocol is not None and tup.protocol != self.protocol:
            return False
        if self.src_port is not None and tup.src_port != self.src_port:
            return False
        if self.dst_port is not None and tup.dst_port != self.dst_port:
            return False
        if self.src_ip is not None and not _prefix_match(
            tup.src_ip, self.src_ip, self.src_prefix_len
        ):
            return False
        if self.dst_ip is not None and not _prefix_match(
            tup.dst_ip, self.dst_ip, self.dst_prefix_len
        ):
            return False
        return True


def _prefix_match(address: str, prefix: str, prefix_len: int) -> bool:
    if prefix_len == 0:
        return True
    mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
    try:
        return (ipv4_to_int(address) & mask) == (ipv4_to_int(prefix) & mask)
    except Exception:
        return False


class FilterBank:
    """Priority-ordered rule table with a default action."""

    def __init__(self, size: int = DEFAULT_BANK_SIZE, default_pass: bool = True) -> None:
        if size < 1:
            raise CaptureError("filter bank needs at least one entry")
        self.size = size
        self.default_pass = default_pass
        self.rules: List[FilterRule] = []
        self.matched = 0
        self.passed = 0
        self.filtered = 0

    @classmethod
    def from_rules(
        cls,
        rules: Union[Sequence, str],
        size: int = DEFAULT_BANK_SIZE,
        default_pass: Optional[bool] = None,
    ) -> "FilterBank":
        """Build a populated bank declaratively.

        ``rules`` is a sequence of rule specs (anything
        :meth:`FilterRule.from_spec` accepts) or a JSON array string.
        ``default_pass=None`` picks the conventional default: drop
        what no rule matched when any *pass* rule exists (capture only
        what you asked for), otherwise pass — the same behaviour the
        ``osnt-mon`` CLI and :meth:`TrafficMonitor.add_filter` apply.
        """
        if isinstance(rules, str):
            try:
                rules = json.loads(rules)
            except json.JSONDecodeError as exc:
                raise CaptureError(f"filter rules are not valid JSON: {exc}") from exc
        if not isinstance(rules, (list, tuple)):
            raise CaptureError(
                f"filter rules must be a list, got {type(rules).__name__}"
            )
        parsed = [FilterRule.from_spec(spec) for spec in rules]
        if default_pass is None:
            default_pass = not any(rule.action_pass for rule in parsed)
        bank = cls(size=size, default_pass=default_pass)
        for rule in parsed:
            bank.add_rule(rule)
        return bank

    def add_rule(self, rule: FilterRule) -> int:
        """Append a rule; returns its row index."""
        if len(self.rules) >= self.size:
            raise CaptureError(f"filter bank full ({self.size} entries)")
        self.rules.append(rule)
        return len(self.rules) - 1

    def clear(self) -> None:
        self.rules.clear()

    def decide(self, data: bytes) -> bool:
        """True if the frame should pass to the capture path.

        An empty bank parses nothing. A frame too short for Ethernet
        counts as non-IP, so only an all-wildcard rule matches it.
        """
        verdict = self.default_pass
        if self.rules:
            tup = None
            if len(data) >= ETH_HEADER_LEN:
                tup = extract_five_tuple(decode(data))
            for rule in self.rules:
                if rule.matches(tup):
                    self.matched += 1
                    verdict = rule.action_pass
                    break
        if verdict:
            self.passed += 1
        else:
            self.filtered += 1
        return verdict
