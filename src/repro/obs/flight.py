"""The sweep flight recorder: worker heartbeats, live progress, stalls.

A long sharded sweep (:class:`repro.runner.SweepRunner`) is otherwise a
black box between launch and report. The flight recorder opens it up
with plain append-only JSONL files, one per shard attempt:

* **worker side** — :class:`HeartbeatWriter` runs a daemon thread in the
  process running the shard (a forked pool worker, or the caller in
  inline mode) that appends a beat line every ``interval_s`` wall
  seconds: shard, attempt, sequence number, wall time, and a sample of
  the live simulation (``sim_ps``, ``events``, plus deltas since the
  previous beat) taken via :func:`repro.sim.current_simulator` — no
  cooperation from scenario code required;
* **parent side** — :class:`FlightTailer` tails those files between
  poll cycles, maintains per-shard liveness and flags a **stall** when
  a tracked shard has produced no beat within ``stall_after_s``
  (defaulting to ``k×interval``). Stalls are advisory — the runner's
  wall-clock timeout still decides life and death — but they surface in
  the :class:`~repro.runner.SweepReport` and the live progress line.

Heartbeat files are operational telemetry: they never feed the merged
report, so ``merged_json()`` stays bit-identical with the recorder on
or off.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..sim.kernel import current_simulator

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_S = 0.25
#: Default stall threshold as a multiple of the heartbeat interval
#: ("no heartbeat within k×interval → flagged").
DEFAULT_STALL_FACTOR = 10.0
#: Heartbeat file name suffix.
HEARTBEAT_SUFFIX = ".hb.jsonl"


def heartbeat_path(directory: Union[str, Path], shard_index: int, attempt: int) -> Path:
    """The heartbeat file for one shard attempt."""
    return Path(directory) / f"shard-{shard_index:05d}-a{attempt}{HEARTBEAT_SUFFIX}"


class HeartbeatWriter:
    """Appends periodic beat lines for one shard attempt (worker side).

    Each beat is one JSON line appended to the file at ``path``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        shard_index: int,
        attempt: int = 1,
        interval_s: float = DEFAULT_HEARTBEAT_S,
        clock=time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.shard_index = shard_index
        self.attempt = attempt
        self.interval_s = interval_s
        self.clock = clock
        self.seq = 0
        self._started_at: Optional[float] = None
        self._last_sim_ps: Optional[int] = None
        self._last_events: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "HeartbeatWriter":
        """Write the ``start`` beat and launch the ticker thread."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._started_at = self.clock()
        self.beat("start")
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{self.shard_index}", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.beat("tick")

    def stop(self, kind: str = "done") -> None:
        """Stop the ticker and write a final beat of ``kind``."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s * 4 + 1.0)
            self._thread = None
        self.beat(kind)

    def __enter__(self) -> "HeartbeatWriter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop("failed" if exc_type is not None else "done")

    # -- beats -------------------------------------------------------------

    def beat(self, kind: str) -> Dict[str, Any]:
        """Sample the live simulation and append one beat line."""
        with self._lock:
            self.seq += 1
            sim = current_simulator()
            sim_ps = sim.now if sim is not None else None
            events = sim.events_processed if sim is not None else None
            line: Dict[str, Any] = {
                "v": 1,
                "kind": kind,
                "shard": self.shard_index,
                "attempt": self.attempt,
                "seq": self.seq,
                "wall_s": round(self.clock() - (self._started_at or 0.0), 6),
                "sim_ps": sim_ps,
                "events": events,
            }
            if sim_ps is not None and self._last_sim_ps is not None:
                line["d_sim_ps"] = sim_ps - self._last_sim_ps
            if events is not None and self._last_events is not None:
                line["d_events"] = events - self._last_events
            self._last_sim_ps = sim_ps
            self._last_events = events
            with open(self.path, "a") as handle:
                handle.write(json.dumps(line, sort_keys=True) + "\n")
                handle.flush()
            return line


def read_heartbeats(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All complete beat lines of one heartbeat file (tolerates a torn
    trailing line from a killed worker)."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    beats = []
    for line in raw.split(b"\n"):
        if not line:
            continue
        try:
            beats.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return beats


class FlightTailer:
    """Tails per-shard heartbeat files and detects stalls (parent side).

    The runner calls :meth:`track` when it launches an attempt,
    :meth:`poll` every scheduler cycle, and :meth:`untrack` when the
    attempt finishes. Only incremental file bytes are read per poll.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        stall_after_s: float,
        clock=time.monotonic,
    ) -> None:
        if not stall_after_s > 0:  # NaN compares false, so it is rejected too
            raise ValueError(f"stall_after_s must be > 0, got {stall_after_s}")
        self.directory = Path(directory)
        self.stall_after_s = stall_after_s
        self.clock = clock
        self._tracked: Dict[int, Dict[str, Any]] = {}  # shard -> state
        #: Shards that were flagged stalled at least once (ever).
        self.stalled_shards: set = set()

    def track(self, shard_index: int, attempt: int) -> None:
        """Start following one shard attempt's heartbeat file."""
        self._tracked[shard_index] = {
            "attempt": attempt,
            "path": heartbeat_path(self.directory, shard_index, attempt),
            "offset": 0,
            "buffer": b"",
            "beats": 0,
            "last_beat": None,
            "last_seen_at": self.clock(),  # tracked-at counts as activity
            "stalled": False,
        }

    def untrack(self, shard_index: int) -> None:
        self._tracked.pop(shard_index, None)

    def _drain(self, state: Dict[str, Any]) -> None:
        """Read new complete lines from the shard's heartbeat file."""
        path: Path = state["path"]
        try:
            with open(path, "rb") as handle:
                handle.seek(state["offset"])
                chunk = handle.read()
        except FileNotFoundError:
            return
        if not chunk:
            return
        state["offset"] += len(chunk)
        data = state["buffer"] + chunk
        lines = data.split(b"\n")
        state["buffer"] = lines.pop()  # tail may be mid-write
        fresh = 0
        for line in lines:
            if not line:
                continue
            try:
                beat = json.loads(line)
            except json.JSONDecodeError:
                continue
            state["last_beat"] = beat
            fresh += 1
        if fresh:
            state["beats"] += fresh
            state["last_seen_at"] = self.clock()
            state["stalled"] = False

    def poll(self) -> Dict[int, Dict[str, Any]]:
        """Drain every tracked file; returns per-shard status dicts."""
        now = self.clock()
        statuses: Dict[int, Dict[str, Any]] = {}
        for shard_index, state in self._tracked.items():
            self._drain(state)
            age = now - state["last_seen_at"]
            if age > self.stall_after_s:
                state["stalled"] = True
                self.stalled_shards.add(shard_index)
            beat = state["last_beat"] or {}
            statuses[shard_index] = {
                "shard": shard_index,
                "attempt": state["attempt"],
                "beats": state["beats"],
                "last_age_s": age,
                "stalled": state["stalled"],
                "sim_ps": beat.get("sim_ps"),
                "events": beat.get("events"),
                "d_sim_ps": beat.get("d_sim_ps"),
                "d_events": beat.get("d_events"),
            }
        return statuses


def render_progress(
    done: int,
    failed: int,
    total: int,
    statuses: Dict[int, Dict[str, Any]],
    elapsed_s: float,
    cached: int = 0,
) -> str:
    """One live progress/ETA line from the tailer's poll output.

    ``cached`` counts shards served instantly from the result store
    (PR 6). They complete in ~0s, so including them in the per-shard
    rate makes the ETA collapse toward zero on warm-cache sweeps; the
    estimate uses freshly executed shards only. Remaining shards are
    assumed fresh — a pessimistic ETA that corrects itself as further
    cache hits land.
    """
    finished = done + failed
    fresh = finished - cached
    if fresh > 0 and total > finished and elapsed_s > 0:
        eta = elapsed_s / fresh * (total - finished)
        eta_text = f", eta {eta:.0f}s"
    else:
        eta_text = ""
    cached_text = f", {cached} cached" if cached else ""
    running = len(statuses)
    stalled = sorted(s["shard"] for s in statuses.values() if s["stalled"])
    stall_text = f", STALLED: {stalled}" if stalled else ""
    sim_parts = [
        f"s{index}@{status['sim_ps'] / 1e6:.1f}µs"
        for index, status in sorted(statuses.items())
        if status["sim_ps"] is not None
    ]
    sim_text = f" [{' '.join(sim_parts)}]" if sim_parts else ""
    return (
        f"sweep: {finished}/{total} done ({failed} failed){cached_text}, "
        f"{running} running{sim_text}, {elapsed_s:.0f}s elapsed{eta_text}{stall_text}"
    )
