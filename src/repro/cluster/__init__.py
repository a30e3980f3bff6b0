"""The sweep runner's content-addressed result store and worker pool.

* **never compute the same shard twice** — :class:`ResultStore` is a
  shared on-disk content-addressed store of shard results keyed by
  :func:`shard_cache_key` (scenario + shard params + seed + code
  version). Overlapping sweeps execute only their new shards; a warm
  rerun executes none. Cache-served results are byte-identical to a
  cold run by construction.
* **use every core of the host** — :class:`LocalScheduler` is the
  attempt loop behind ``SweepRunner(workers=N)``: one forked process
  per shard attempt, wall-clock timeouts and bounded retry, or every
  attempt inline in this process at ``workers=0``.

The invariant everything here preserves: a merged sweep report is
**bit-identical** across {cold, warm cache} x any worker count x any
kill/resume history.

    from repro.runner import ExperimentSpec, SweepRunner

    spec = ExperimentSpec(name="e1", scenario="line_rate",
                          axes={"frame_size": [64, 512, 1518]})
    report = SweepRunner(spec, workers=4,
                         cache_dir="~/.cache/osnt-results").run()
"""

from .scheduler import LocalScheduler
from .store import ResultStore, StoreStats, parse_age_s, result_digest, shard_cache_key
from .version import code_version, source_digest

__all__ = [
    "LocalScheduler",
    "ResultStore",
    "StoreStats",
    "code_version",
    "parse_age_s",
    "result_digest",
    "shard_cache_key",
    "source_digest",
]
