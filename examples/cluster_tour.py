#!/usr/bin/env python3
"""Tour of repro.cluster: cached sweeps on the forked worker pool.

Walks the cluster layer end to end on one machine:

1. run a small ``line_rate`` sweep on a pool of two forked workers,
   publishing every shard result into a content-addressed
   :class:`~repro.cluster.ResultStore`;
2. rerun the sweep warm — every shard is served from the store, none
   execute, and the merged document is byte-identical;
3. *extend* the sweep with a new axis value — only the new operating
   point executes, the overlap is cache hits;
4. inspect and garbage-collect the store.

Run:  python examples/cluster_tour.py
"""

import tempfile
from pathlib import Path

from repro.cluster import ResultStore
from repro.runner import ExperimentSpec, SweepRunner


def spec_for(frame_sizes):
    return ExperimentSpec(
        name="cluster-tour",
        scenario="line_rate",
        params={"duration": "0.2ms", "seed": 0},
        axes={"frame_size": frame_sizes},
        retries=1,
        timeout_s=120.0,
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="cluster-tour-") as tmp:
        store_dir = Path(tmp) / "store"

        # -- 1. cold run ------------------------------------------------
        print("=== cold run: 2 forked workers, result store armed ===")
        spec = spec_for([64, 256, 512, 1024, 1518])
        report = SweepRunner(spec, workers=2, cache_dir=store_dir).run()
        report.require_ok()
        print(report.summary())
        stats = report.scheduler_stats
        print(f"backend={stats['backend']} executed={stats['executed']} "
              f"retried={stats['retried']}")
        cold_merged = report.merged_json()

        # -- 2. warm rerun ----------------------------------------------
        print("\n=== warm rerun: same sweep, same store ===")
        warm = SweepRunner(spec, workers=2, cache_dir=store_dir).run()
        warm.require_ok()
        print(f"cache hits: {len(warm.from_cache)}/{len(warm.shards)}, "
              f"executed: {warm.scheduler_stats.get('executed', 0)}")
        assert warm.merged_json() == cold_merged, "cache changed the results!"
        print("merged document byte-identical to the cold run")

        # -- 3. overlapping sweep ---------------------------------------
        print("\n=== extended sweep: one new frame size ===")
        extended = SweepRunner(
            spec_for([64, 256, 512, 1024, 1518, 1280]),
            workers=2,
            cache_dir=store_dir,
        ).run()
        extended.require_ok()
        print(f"cache hits: {len(extended.from_cache)}/"
              f"{len(extended.shards)} — only the 1280-byte point ran")

        # -- 4. store maintenance ---------------------------------------
        print("\n=== store stats and gc ===")
        store = ResultStore(store_dir)
        print(store.stats().summary())
        would_remove = store.gc("1h", dry_run=True)
        print(f"gc --older-than 1h would remove {len(would_remove)} entries")


if __name__ == "__main__":
    main()
