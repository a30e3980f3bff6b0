"""The forked worker pool that runs a sweep's shards.

:class:`LocalScheduler` starts one subprocess per shard attempt (forked
unless another start method is asked for), enforces the spec's
per-attempt wall-clock timeout, retries failed, hung or dead
attempts within the spec's retry budget, and reports every shard's
terminal :class:`~repro.runner.ShardResult` through one ``on_record``
callback. It never influences shard *content* — a result depends only
on ``(spec, shard)`` — so merged reports are bit-identical at any
worker count and across failure histories.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..errors import SweepError
from ..obs.flight import DEFAULT_HEARTBEAT_S, heartbeat_path
from ..runner.report import STATUS_FAILED, STATUS_OK, ShardResult
from ..runner.spec import ExperimentSpec, Shard

#: How often the pool polls its workers, seconds.
POLL_S = 0.01

OnRecord = Callable[[ShardResult], None]
OnCycle = Optional[Callable[[Dict[int, Dict[str, Any]]], None]]


class LocalScheduler:
    """The forked worker pool.

    Workers are started per attempt from this process (forked by
    default), write their outcome file atomically and exit; the parent polls, enforces
    timeouts, retries and collects. See
    :mod:`repro.runner.execution` for the worker entry point.
    """

    def __init__(
        self,
        workers: int = 2,
        start_method: Optional[str] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        import multiprocessing

        if workers < 1:
            raise SweepError(f"LocalScheduler needs workers >= 1, got {workers}")
        self.workers = workers
        self.heartbeat_s = heartbeat_s
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._executed = 0
        self._retried = 0

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
        record (ok or failed), honors ``spec.timeout_s`` per attempt
        and ``spec.retries`` as the total retry budget (attempts =
        ``retries + 1``, however attempts end — failure, timeout or
        worker death); a payload with ``"retry": false`` (the scenario
        rejected its params) ends the shard at once. ``tailer``, when
        given, is fed per-attempt heartbeat files for stall detection;
        ``on_cycle`` is invoked every poll cycle with the tailer's status
        map (empty when untailed) for live progress rendering.
        """
        from ..runner.execution import _Attempt

        self._executed = 0
        self._retried = 0
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
            pending: Deque[Shard] = deque(todo)
            attempts_used: Dict[int, int] = {shard.index: 0 for shard in todo}
            started_at: Dict[int, float] = {}
            running: List[Any] = []
            try:
                while pending or running:
                    while pending and len(running) < self.workers:
                        shard = pending.popleft()
                        started_at.setdefault(shard.index, time.monotonic())
                        attempts_used[shard.index] += 1
                        out = os.path.join(
                            scratch,
                            f"shard-{shard.index:05d}-a{attempts_used[shard.index]}.json",
                        )
                        flight_path = None
                        if tailer is not None:
                            flight_path = str(
                                heartbeat_path(
                                    tailer.directory,
                                    shard.index,
                                    attempts_used[shard.index],
                                )
                            )
                            tailer.track(shard.index, attempts_used[shard.index])
                        running.append(
                            _Attempt(
                                self._ctx,
                                spec,
                                shard,
                                out,
                                flight_path=flight_path,
                                attempt=attempts_used[shard.index],
                                heartbeat_s=self.heartbeat_s,
                            )
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
                        if payload["status"] == STATUS_OK:
                            on_record(
                                ShardResult(
                                    index=shard.index,
                                    params=shard.params,
                                    seed=shard.seed,
                                    status=STATUS_OK,
                                    result=payload.get("result"),
                                    attempts=attempts_used[shard.index],
                                    elapsed_s=time.monotonic()
                                    - started_at[shard.index],
                                )
                            )
                        elif (
                            payload.get("retry", True)
                            and attempts_used[shard.index] <= spec.retries
                        ):
                            self._retried += 1
                            pending.append(shard)  # retry at the back of the queue
                        else:
                            on_record(
                                ShardResult(
                                    index=shard.index,
                                    params=shard.params,
                                    seed=shard.seed,
                                    status=STATUS_FAILED,
                                    error=payload.get("error", "unknown failure"),
                                    attempts=attempts_used[shard.index],
                                    elapsed_s=time.monotonic()
                                    - started_at[shard.index],
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
            "backend": "local",
            "workers": self.workers,
            "executed": self._executed,
            "retried": self._retried,
        }
