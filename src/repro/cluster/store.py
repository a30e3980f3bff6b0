"""Content-addressed result store: never run the same shard twice.

At fleet scale most submitted experiments are near-duplicates — a
sweep re-run with one more axis value, an interrupted campaign run
again, two users measuring the same operating point. The store turns
every completed shard into a shared, verifiable artifact keyed by
*what was computed*, not where or when. It is the sweep runner's only
on-disk record of finished shards, so resuming a sweep is a cache hit:

    key = SHA-256(scenario, collect, imports, shard params, shard seed,
                  code version)

Everything that can change a shard's result is in the key; nothing
else is. Sweep-level bookkeeping (campaign name, axis layout, retry
budget, timeouts) is deliberately excluded, so two **overlapping**
sweeps share cache entries for their common shards. The code version
(:func:`repro.cluster.code_version`) keys out results produced by an
older source tree.

Layout of a store directory::

    store/
      index.jsonl              # one append-only line per put (advisory)
      objects/ab/ab12...ef.json  # the entry, fan-out by key prefix

Entries are written atomically (temp file + fsync + rename) and carry
an internal SHA-256 of their canonical result JSON; :meth:`ResultStore.get`
re-verifies it and treats any corrupt or truncated entry as a miss
(quarantining it), so a crashed writer can never poison a sweep.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import SweepError
from ..runner.spec import ExperimentSpec, Shard
from ..spec import digest
from .version import code_version

_OBJECTS = "objects"
_INDEX = "index.jsonl"
#: Store format version, embedded in every entry.
STORE_VERSION = 1

_AGE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(s|m|h|d|w)?\s*$")
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_age_s(text: Union[str, int, float]) -> float:
    """A human age ('90s', '15m', '12h', '7d', '2w') in seconds."""
    if isinstance(text, (int, float)):
        seconds = float(text)
    else:
        match = _AGE_RE.match(text)
        if match is None:
            raise SweepError(
                f"bad age {text!r} (expected e.g. '90s', '15m', '12h', '7d')"
            )
        seconds = float(match.group(1)) * _AGE_UNITS[match.group(2) or "s"]
    # A negative age would put the gc cutoff in the future and delete
    # every entry, however new.
    if not math.isfinite(seconds) or seconds < 0:
        raise SweepError(f"bad age {text!r} (want a finite age >= 0)")
    return seconds


def result_digest(result: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of a shard result."""
    return digest(result)


def shard_cache_key(
    spec: ExperimentSpec, shard: Shard, code: Optional[str] = None
) -> str:
    """The content address of one shard's result (64 hex chars).

    Covers exactly what determines the result: the scenario and its
    collection plan, the helper imports, the shard's full expanded
    params and derived seed, and the code version. Campaign name,
    axis layout and execution policy are excluded so overlapping
    sweeps hit each other's entries.
    """
    return digest(
        {
            "scenario": spec.scenario,
            "collect": spec.collect,
            "imports": spec.imports,
            "params": shard.params,
            "seed": shard.seed,
            "code": code if code is not None else code_version(),
        }
    )


@dataclass
class StoreStats:
    """What :meth:`ResultStore.stats` found on disk."""

    entries: int = 0
    total_bytes: int = 0
    oldest_s: Optional[float] = None
    newest_s: Optional[float] = None
    by_scenario: Dict[str, int] = field(default_factory=dict)
    corrupt: int = 0

    def summary(self) -> str:
        """Human-readable multi-line rendering (for ``cache stats``)."""
        lines = [
            f"entries:     {self.entries}",
            f"total bytes: {self.total_bytes}",
        ]
        if self.oldest_s is not None:
            lines.append(f"oldest:      {self.oldest_s:.0f}s ago")
        if self.newest_s is not None:
            lines.append(f"newest:      {self.newest_s:.0f}s ago")
        for scenario in sorted(self.by_scenario):
            lines.append(f"  {scenario}: {self.by_scenario[scenario]}")
        if self.corrupt:
            lines.append(f"corrupt:     {self.corrupt} (ignored)")
        return "\n".join(lines)


class ResultStore:
    """A shared on-disk content-addressed store of shard results.

    Safe for concurrent writers on one filesystem: every entry is
    written to a temp file, fsynced and renamed into place, and a
    duplicate put is a no-op (first writer wins — both writers hold
    the same bytes by construction).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.objects = self.directory / _OBJECTS
        self.index_path = self.directory / _INDEX
        try:
            self.objects.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SweepError(
                f"cannot use {self.directory} as a result store: {exc}"
            ) from exc
        #: Process-local counters (operational; reset per instance).
        self.hits = 0
        self.misses = 0

    @classmethod
    def existing(cls, directory: Union[str, Path]) -> "ResultStore":
        """The store already at ``directory``; never creates one."""
        if not (Path(directory) / _OBJECTS).is_dir():
            raise SweepError(
                f"{directory} is not a result store (no {_OBJECTS}/ directory)"
            )
        return cls(directory)

    # -- addressing ----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise SweepError(f"bad store key {key!r} (want 64 hex chars)")
        return self.objects / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).exists()

    # -- write ---------------------------------------------------------------

    def put(
        self,
        key: str,
        result: Dict[str, Any],
        scenario: str = "",
        code: Optional[str] = None,
    ) -> bool:
        """Store one shard result under ``key``; False if already present."""
        path = self._entry_path(key)
        if path.exists():
            return False
        entry = {
            "v": STORE_VERSION,
            "key": key,
            "digest": result_digest(result),
            "scenario": scenario,
            "code": code if code is not None else code_version(),
            "created_s": time.time(),
            "result": result,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(entry, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._index_append(
            {
                "key": key,
                "scenario": scenario,
                "created_s": entry["created_s"],
                "bytes": path.stat().st_size,
            }
        )
        return True

    def _index_append(self, line: Dict[str, Any]) -> None:
        # O_APPEND single-line writes are atomic enough for an advisory
        # index; gc() rewrites it from the objects (the ground truth).
        with open(self.index_path, "a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")

    # -- read ----------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored result for ``key``, or None (miss/corrupt entry).

        Integrity is verified on every read: the entry's recorded
        digest must match a recomputation over the result it carries.
        A mismatch (torn write, bit rot, hand-edited file) quarantines
        the entry by renaming it to ``*.corrupt`` and reports a miss.
        """
        path = self._entry_path(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, OSError):
            self._quarantine(path)
            self.misses += 1
            return None
        result = entry.get("result") if isinstance(entry, dict) else None
        if (
            not isinstance(result, dict)
            or entry.get("key") != key
            or entry.get("digest") != result_digest(result)
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> None:
        try:
            path.rename(path.with_suffix(".corrupt"))
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------------

    def _iter_entries(self):
        for path in sorted(self.objects.glob("??/*.json")):
            yield path

    def stats(self) -> StoreStats:
        """Scan the objects tree (not the advisory index) and summarize."""
        stats = StoreStats()
        now = time.time()
        for path in self._iter_entries():
            try:
                entry = json.loads(path.read_text())
                created = float(entry["created_s"])
                scenario = str(entry.get("scenario", ""))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
                stats.corrupt += 1
                continue
            stats.entries += 1
            stats.total_bytes += path.stat().st_size
            age = now - created
            if stats.oldest_s is None or age > stats.oldest_s:
                stats.oldest_s = age
            if stats.newest_s is None or age < stats.newest_s:
                stats.newest_s = age
            stats.by_scenario[scenario] = stats.by_scenario.get(scenario, 0) + 1
        return stats

    def gc(
        self, older_than_s: Union[str, int, float], dry_run: bool = False
    ) -> List[str]:
        """Delete entries older than the given age; returns removed keys.

        Corrupt/quarantined entries are always removed. Temp files that
        a writer killed inside :meth:`put` left behind are removed once
        they are older than the same age (a younger one may belong to a
        live writer) and reported by file name. The advisory index is
        rewritten from the surviving objects afterwards.
        """
        cutoff = time.time() - parse_age_s(older_than_s)
        removed: List[str] = []
        survivors: List[Dict[str, Any]] = []
        for path in self._iter_entries():
            try:
                entry = json.loads(path.read_text())
                created = float(entry["created_s"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
                removed.append(path.stem)
                if not dry_run:
                    path.unlink(missing_ok=True)
                continue
            if created < cutoff:
                removed.append(entry.get("key", path.stem))
                if not dry_run:
                    path.unlink(missing_ok=True)
            else:
                survivors.append(
                    {
                        "key": entry.get("key", path.stem),
                        "scenario": entry.get("scenario", ""),
                        "created_s": created,
                        "bytes": path.stat().st_size,
                    }
                )
        for orphan in sorted(self.objects.glob("??/.*.tmp.*")):
            try:
                if orphan.stat().st_mtime >= cutoff:
                    continue
            except FileNotFoundError:
                continue  # its writer renamed it into place meanwhile
            removed.append(orphan.name)
            if not dry_run:
                orphan.unlink(missing_ok=True)
        if not dry_run:
            for stale in self.objects.glob("??/*.corrupt"):
                stale.unlink(missing_ok=True)
            tmp = self.directory / f".{_INDEX}.tmp.{os.getpid()}"
            with open(tmp, "w") as handle:
                for line in survivors:
                    handle.write(json.dumps(line, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.index_path)
        return removed
