"""The attempt loop that runs a sweep's shards.

:class:`LocalScheduler` runs every attempt of a sweep: in this process
when ``workers`` is 0, and otherwise in one subprocess per attempt
(forked unless another start method is asked for), at most ``workers``
at a time. Both kinds of attempt run :func:`_run_attempt` and hand its
outcome payload to one loop, :meth:`LocalScheduler.run`, which enforces
the spec's per-attempt wall-clock timeout on forked attempts (an inline
attempt cannot be interrupted), retries failed, hung or dead attempts
within the spec's retry budget, and reports every shard's terminal
:class:`~repro.runner.ShardResult` through one ``on_record`` callback.
It never influences shard *content* — a result depends only on
``(spec, shard)`` — so merged reports are bit-identical at any worker
count and across failure histories.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import traceback
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..errors import ConfigError, FaultError, SweepError
from ..obs.flight import DEFAULT_HEARTBEAT_S, HeartbeatWriter, heartbeat_path
from ..runner.execution import run_shard
from ..runner.report import STATUS_FAILED, STATUS_OK, ShardResult
from ..runner.spec import ExperimentSpec, Shard

#: How often the pool polls its workers, seconds.
POLL_S = 0.01

#: Grace period between SIGTERM and SIGKILL for a hung worker.
_KILL_GRACE_S = 1.0

OnRecord = Callable[[ShardResult], None]
OnCycle = Optional[Callable[[Dict[int, Dict[str, Any]]], None]]


def _run_attempt(
    spec: ExperimentSpec,
    shard: Shard,
    flight_path: Optional[str],
    attempt: int,
    heartbeat_s: float,
) -> Dict[str, Any]:
    """Run one attempt at ``shard`` in this process; return its outcome payload.

    The payload is ``{"status": "ok", "result": ...}``, or a failure
    with its error text, traceback and ``retry`` flag. A spec the
    scenario rejects (:class:`~repro.errors.SweepError`), a value it
    refuses (:class:`~repro.errors.ConfigError`) or a fault spec that
    does not arm (:class:`~repro.errors.FaultError`) fails the same way
    on every attempt, so it is not retried. With
    ``flight_path`` set, a :class:`~repro.obs.HeartbeatWriter` ticks in
    a daemon thread for the flight tailer.
    """
    writer = None
    last_beat = "failed"
    try:
        if flight_path is not None:
            writer = HeartbeatWriter(
                flight_path, shard.index, attempt=attempt, interval_s=heartbeat_s
            ).start()
        payload = {"status": STATUS_OK, "result": run_shard(spec, shard)}
        last_beat = "done"
    except Exception as exc:  # noqa: BLE001 — reported, maybe retried
        payload = {
            "status": STATUS_FAILED,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "retry": not isinstance(exc, (SweepError, FaultError, ConfigError)),
        }
    finally:
        if writer is not None:
            writer.stop(last_beat)
    return payload


def _worker_main(
    spec: ExperimentSpec,
    shard: Shard,
    out_path: str,
    flight_path: Optional[str] = None,
    attempt: int = 1,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> None:
    """Worker-process entry: run the attempt, write its outcome, exit hard.

    The outcome file is written atomically (temp + rename) so the
    parent never sees a torn read; ``os._exit`` skips the parent's
    inherited atexit/teardown state (we forked from an arbitrary
    process, possibly a test runner). An exception that is not an
    ``Exception`` (``SystemExit``, say) leaves no outcome file, and the
    parent reads a dead worker.
    """
    try:
        payload = _run_attempt(spec, shard, flight_path, attempt, heartbeat_s)
        tmp = f"{out_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, out_path)
    finally:
        os._exit(0)


class _Attempt:
    """One in-flight worker process for one shard."""

    def __init__(
        self,
        ctx,
        spec: ExperimentSpec,
        shard: Shard,
        out_path: str,
        flight_path: Optional[str] = None,
        attempt: int = 1,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        self.shard = shard
        self.out_path = out_path
        self.started = time.monotonic()
        self.process = ctx.Process(
            target=_worker_main,
            args=(spec, shard, out_path, flight_path, attempt, heartbeat_s),
            daemon=True,
        )
        self.process.start()

    def outcome(self, timeout_s: Optional[float]) -> Optional[Dict[str, Any]]:
        """Poll once: a payload dict when finished, None while running."""
        # Sample liveness before looking for the file: a worker that
        # writes its result and exits between the two checks must not
        # read as "died without a result".
        alive = self.process.is_alive()
        if os.path.exists(self.out_path):
            # The file is renamed into place after the payload is
            # complete, so existence implies a full, valid document.
            self.process.join()
            with open(self.out_path) as handle:
                payload = json.load(handle)
            os.unlink(self.out_path)
            return payload
        if not alive:
            return {
                "status": STATUS_FAILED,
                "error": f"worker died without a result (exitcode {self.process.exitcode})",
            }
        if timeout_s is not None and time.monotonic() - self.started > timeout_s:
            self.terminate()
            return {
                "status": STATUS_FAILED,
                "error": f"shard timed out after {timeout_s}s (worker terminated)",
            }
        return None

    def terminate(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_KILL_GRACE_S)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)


class _InlineAttempt:
    """One attempt run in this process, to the end, when it is created.

    It has :class:`_Attempt`'s surface, so the loop treats both alike;
    nothing can interrupt it, so the timeout does not apply.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        shard: Shard,
        flight_path: Optional[str],
        attempt: int,
        heartbeat_s: float,
    ) -> None:
        self.shard = shard
        self._payload = _run_attempt(spec, shard, flight_path, attempt, heartbeat_s)

    def outcome(self, timeout_s: Optional[float]) -> Dict[str, Any]:
        return self._payload

    def terminate(self) -> None:
        pass


class LocalScheduler:
    """The attempt loop: inline at ``workers=0``, a forked pool otherwise.

    Forked workers are started per attempt from this process, write
    their outcome file atomically and exit; the loop polls them,
    enforces timeouts, retries and collects. Inline attempts run one at
    a time in this process and go through the same loop.
    """

    def __init__(
        self,
        workers: int = 2,
        start_method: Optional[str] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        import multiprocessing

        if workers < 0:
            raise SweepError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.heartbeat_s = heartbeat_s
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._executed = 0
        self._retried = 0

    def _start(self, spec, shard, out_path, flight_path, number):
        """Attempt ``number`` at ``shard``: forked, or run here and now."""
        if self.workers:
            return _Attempt(
                self._ctx, spec, shard, out_path, flight_path, number, self.heartbeat_s
            )
        return _InlineAttempt(spec, shard, flight_path, number, self.heartbeat_s)

    def run(
        self,
        spec: ExperimentSpec,
        todo: List[Shard],
        *,
        on_record: OnRecord,
        tailer=None,
        on_cycle: OnCycle = None,
    ) -> None:
        """Drive every shard in ``todo`` to a terminal :class:`ShardResult`.

        Calls ``on_record`` exactly once per shard with a terminal
        record (ok or failed), honors ``spec.timeout_s`` per forked
        attempt and ``spec.retries`` as the total retry budget (attempts
        = ``retries + 1``, however attempts end — failure, timeout or
        worker death); a payload with ``"retry": false`` (the scenario
        rejected its params) ends the shard at once. ``tailer``, when
        given, is fed per-attempt heartbeat files for stall detection;
        ``on_cycle`` is invoked every poll cycle with the tailer's status
        map (empty when untailed) for live progress rendering.
        """
        self._executed = 0
        self._retried = 0
        slots = max(self.workers, 1)
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
            pending: Deque[Shard] = deque(todo)
            attempts_used: Dict[int, int] = {shard.index: 0 for shard in todo}
            started_at: Dict[int, float] = {}
            running: List[Any] = []
            try:
                while pending or running:
                    while pending and len(running) < slots:
                        shard = pending.popleft()
                        started_at.setdefault(shard.index, time.monotonic())
                        attempts_used[shard.index] += 1
                        number = attempts_used[shard.index]
                        out = os.path.join(
                            scratch, f"shard-{shard.index:05d}-a{number}.json"
                        )
                        flight_path = None
                        if tailer is not None:
                            flight_path = str(
                                heartbeat_path(tailer.directory, shard.index, number)
                            )
                            tailer.track(shard.index, number)
                        running.append(
                            self._start(spec, shard, out, flight_path, number)
                        )
                    still_running: List[Any] = []
                    for attempt in running:
                        payload = attempt.outcome(spec.timeout_s)
                        if payload is None:
                            still_running.append(attempt)
                            continue
                        shard = attempt.shard
                        self._executed += 1
                        if tailer is not None:
                            tailer.untrack(shard.index)
                        ok = payload["status"] == STATUS_OK
                        if (
                            not ok
                            and payload.get("retry", True)
                            and attempts_used[shard.index] <= spec.retries
                        ):
                            self._retried += 1
                            pending.append(shard)  # retry at the back of the queue
                            continue
                        on_record(
                            ShardResult(
                                index=shard.index,
                                params=shard.params,
                                seed=shard.seed,
                                status=STATUS_OK if ok else STATUS_FAILED,
                                result=payload.get("result"),
                                error=payload.get("error"),
                                attempts=attempts_used[shard.index],
                                elapsed_s=time.monotonic() - started_at[shard.index],
                            )
                        )
                    running = still_running
                    if on_cycle is not None:
                        on_cycle(tailer.poll() if tailer is not None else {})
                    elif tailer is not None:
                        tailer.poll()
                    if running:
                        time.sleep(POLL_S)
            finally:
                for attempt in running:
                    attempt.terminate()

    def stats(self) -> Dict[str, Any]:
        """Operational counters from the most recent :meth:`run`."""
        return {
            "backend": "local" if self.workers else "inline",
            "workers": self.workers,
            "executed": self._executed,
            "retried": self._retried,
        }
