"""The OpenFlow switch's flow table.

Lookup follows the 1.0 spec: the highest-priority matching entry wins
(exact-match entries effectively sort above wildcards because they are
installed with distinct priorities by controllers; here priority alone
decides, spec-style), and among equal priorities the first in table
order. Modification commands implement the ADD / MODIFY / MODIFY_STRICT
/ DELETE / DELETE_STRICT semantics, including overlap checking and
capacity limits — a full table is how OFLOPS provokes
``OFPFMFC_ALL_TABLES_FULL`` errors.

Lookup is a tuple-space search: one dict per rule *shape* (the fields a
rule fixes and its nw prefix lengths) maps projected field values to the
best entry, so a lookup is one hash probe per shape. The index is rebuilt
at the first lookup after a mutation bumps :attr:`FlowTable.version`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional

from ..errors import OpenFlowError
from ..net.fields import ipv4_to_int
from ..openflow import constants as ofp
from ..openflow.actions import Action, OutputAction
from ..openflow.match import Match

#: (wildcard bit, field) of the ten fields a rule fixes or leaves wild
#: whole; nw_src and nw_dst wildcard by prefix length instead.
_SIMPLE_FIELDS = (
    (ofp.OFPFW_IN_PORT, "in_port"),
    (ofp.OFPFW_DL_SRC, "dl_src"),
    (ofp.OFPFW_DL_DST, "dl_dst"),
    (ofp.OFPFW_DL_VLAN, "dl_vlan"),
    (ofp.OFPFW_DL_VLAN_PCP, "dl_vlan_pcp"),
    (ofp.OFPFW_DL_TYPE, "dl_type"),
    (ofp.OFPFW_NW_TOS, "nw_tos"),
    (ofp.OFPFW_NW_PROTO, "nw_proto"),
    (ofp.OFPFW_TP_SRC, "tp_src"),
    (ofp.OFPFW_TP_DST, "tp_dst"),
)
_SIMPLE_BITS = sum(bit for bit, _ in _SIMPLE_FIELDS)


@dataclass
class FlowEntry:
    match: Match
    priority: int = 0x8000
    actions: List[Action] = field(default_factory=list)
    cookie: int = 0
    idle_timeout: int = 0
    hard_timeout: int = 0
    flags: int = 0
    installed_at_ps: int = 0
    last_used_ps: int = 0
    packet_count: int = 0
    byte_count: int = 0

    def note_hit(self, now_ps: int, nbytes: int) -> None:
        self.packet_count += 1
        self.byte_count += nbytes
        self.last_used_ps = now_ps


class TableFullError(OpenFlowError):
    """Raised when an ADD hits the capacity limit."""


class OverlapError(OpenFlowError):
    """Raised when CHECK_OVERLAP finds an overlapping same-priority entry."""


class FlowTable:
    """One flow table with bounded capacity."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise OpenFlowError("flow table capacity must be positive")
        self.capacity = capacity
        self.entries: List[FlowEntry] = []
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        #: Bumped on every mutation (add/modify/delete/expire). Lookup
        #: memoizers key their caches on this to stay coherent.
        self.version = 0
        #: One (projection, bucket) per rule shape; a bucket maps field
        #: values to the winning ((-priority, position), entry).
        self._index: List[tuple] = []
        self._index_version = -1

    def __len__(self) -> int:
        return len(self.entries)

    # -- datapath ---------------------------------------------------------

    def lookup(self, key: Match, now_ps: int, nbytes: int = 0) -> Optional[FlowEntry]:
        """Highest-priority entry matching an exact ``key``; the first in
        table order wins a tie."""
        self.lookups += 1
        if self._index_version != self.version:
            self._build_index()
        best = None
        for project, bucket in self._index:
            held = bucket.get(project(key))
            if held is not None and (best is None or held[0] < best[0]):
                best = held
        if best is None:
            self.misses += 1
            return None
        self.hits += 1
        best[1].note_hit(now_ps, nbytes)
        return best[1]

    def _build_index(self) -> None:
        shapes = {}
        for position, entry in enumerate(self.entries):
            match = entry.match
            shape = (match.wildcards & _SIMPLE_BITS, match.nw_src_prefix_len,
                     match.nw_dst_prefix_len)
            slot = shapes.get(shape)
            if slot is None:
                slot = shapes[shape] = (_projection(*shape), {})
            project, bucket = slot
            value = project(match)
            rank = (-entry.priority, position)
            held = bucket.get(value)
            if held is None or rank < held[0]:
                bucket[value] = (rank, entry)
        self._index = list(shapes.values())
        self._index_version = self.version

    # -- modification -----------------------------------------------------

    def add(self, entry: FlowEntry, check_overlap: bool = False) -> FlowEntry:
        """ADD: replace an identical entry, else insert a new one."""
        if check_overlap:
            for existing in self.entries:
                if existing.priority == entry.priority and _overlaps(
                    existing.match, entry.match
                ):
                    raise OverlapError("overlapping entry at equal priority")
        strict_key = entry.match.normalised_tuple()
        for index, existing in enumerate(self.entries):
            if (
                existing.priority == entry.priority
                and existing.match.normalised_tuple() == strict_key
            ):
                self.entries[index] = entry  # ADD over identical = replace
                self.version += 1
                return entry
        if len(self.entries) >= self.capacity:
            raise TableFullError(f"flow table full ({self.capacity} entries)")
        self.entries.append(entry)
        self.version += 1
        return entry

    def modify(self, match: Match, priority: int, actions: List[Action], strict: bool) -> int:
        """MODIFY(_STRICT): rewrite actions of matching entries.

        Returns the number of entries changed (0 means the caller should
        fall back to an ADD, per the 1.0 spec).
        """
        changed = 0
        strict_key = match.normalised_tuple() if strict else None
        for entry in self.entries:
            if _mod_selects(entry, match, strict_key, priority, ofp.OFPP_NONE):
                entry.actions = list(actions)
                changed += 1
        if changed:
            self.version += 1
        return changed

    def delete(
        self,
        match: Match,
        priority: int = 0,
        out_port: int = ofp.OFPP_NONE,
        strict: bool = False,
    ) -> List[FlowEntry]:
        """DELETE(_STRICT): remove matching entries; returns them."""
        strict_key = match.normalised_tuple() if strict else None
        removed = [
            entry
            for entry in self.entries
            if _mod_selects(entry, match, strict_key, priority, out_port)
        ]
        if removed:
            self.entries = [entry for entry in self.entries if entry not in removed]
            self.version += 1
        return removed

    def expire(self, now_ps: int) -> List[tuple]:
        """Remove timed-out entries; returns (entry, reason) pairs."""
        expired = []
        remaining = []
        for entry in self.entries:
            idle_deadline = (
                entry.last_used_ps + entry.idle_timeout * 10**12
                if entry.idle_timeout
                else None
            )
            hard_deadline = (
                entry.installed_at_ps + entry.hard_timeout * 10**12
                if entry.hard_timeout
                else None
            )
            if hard_deadline is not None and now_ps >= hard_deadline:
                expired.append((entry, ofp.OFPRR_HARD_TIMEOUT))
            elif idle_deadline is not None and now_ps >= idle_deadline:
                expired.append((entry, ofp.OFPRR_IDLE_TIMEOUT))
            else:
                remaining.append(entry)
        self.entries = remaining
        if expired:
            self.version += 1
        return expired


def _projection(simple_wild: int, src_len: int, dst_len: int):
    """The key of one rule shape: a match's fixed simple fields, plus the
    top ``*_len`` bits of nw_src / nw_dst for each nonzero prefix."""
    names = [name for bit, name in _SIMPLE_FIELDS if not simple_wild & bit]
    fields = attrgetter(*names) if names else (lambda match: ())
    if not (src_len or dst_len):
        return fields
    src_shift, dst_shift = 32 - src_len, 32 - dst_len

    def project(match: Match) -> tuple:
        return (
            fields(match),
            ipv4_to_int(match.nw_src) >> src_shift if src_len else None,
            ipv4_to_int(match.nw_dst) >> dst_shift if dst_len else None,
        )

    return project


def _mod_selects(
    entry: FlowEntry,
    match: Match,
    strict_key: Optional[tuple],
    priority: int,
    out_port: int,
) -> bool:
    if strict_key is not None:
        # Strict: the command's ``normalised_tuple()``, built once per command.
        if entry.priority != priority or entry.match.normalised_tuple() != strict_key:
            return False
    else:
        # Non-strict: the command's match acts as a filter; entries whose
        # *rule* falls within it are selected. 1.0 uses "more specific
        # or equal": every field the filter fixes must be fixed equal in
        # the entry.
        if not _subsumes(match, entry.match):
            return False
    if out_port != ofp.OFPP_NONE:
        if not any(
            isinstance(action, OutputAction) and action.port == out_port
            for action in entry.actions
        ):
            return False
    return True


def _subsumes(filter_match: Match, entry_match: Match) -> bool:
    """True if every constraint of ``filter_match`` holds for the entry."""
    for bit, name in _SIMPLE_FIELDS:
        if not filter_match.wildcards & bit:
            if entry_match.wildcards & bit:
                return False
            if getattr(filter_match, name) != getattr(entry_match, name):
                return False
    for which in ("src", "dst"):
        filter_len = getattr(filter_match, f"nw_{which}_prefix_len")
        entry_len = getattr(entry_match, f"nw_{which}_prefix_len")
        if filter_len:
            if entry_len < filter_len:
                return False
            mask = ((1 << filter_len) - 1) << (32 - filter_len)
            filter_ip = ipv4_to_int(getattr(filter_match, f"nw_{which}"))
            entry_ip = ipv4_to_int(getattr(entry_match, f"nw_{which}"))
            if (filter_ip & mask) != (entry_ip & mask):
                return False
    return True


def _overlaps(first: Match, second: Match) -> bool:
    """Two matches overlap if some packet could match both.

    Conservative field-by-field check: they overlap unless some field is
    fixed to different values in both.
    """
    for bit, name in _SIMPLE_FIELDS:
        if not first.wildcards & bit and not second.wildcards & bit:
            if getattr(first, name) != getattr(second, name):
                return False
    for which in ("src", "dst"):
        common = min(
            getattr(first, f"nw_{which}_prefix_len"),
            getattr(second, f"nw_{which}_prefix_len"),
        )
        if common:
            mask = ((1 << common) - 1) << (32 - common)
            if (ipv4_to_int(getattr(first, f"nw_{which}")) & mask) != (
                ipv4_to_int(getattr(second, f"nw_{which}")) & mask
            ):
                return False
    return True
