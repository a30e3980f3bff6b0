#!/usr/bin/env python3
"""A full measurement campaign as one declarative, resumable sweep.

Describes the paper's latency-vs-load experiment (E3) as an
:class:`~repro.runner.ExperimentSpec` — frame size x offered load, three
repeats per point — and runs it across a pool of worker processes with
a result store. Kill it mid-run and start it again: completed shards
are served from the store and the merged result is bit-identical to an
uninterrupted run.

The same spec can be saved as JSON and driven from the shell:

    python examples/sweep_campaign.py --emit-spec > campaign.json
    osnt-sweep run campaign.json --workers 4 --cache runs/e3

Run:  python examples/sweep_campaign.py
"""

import sys
import tempfile

from repro.analysis import print_table
from repro.runner import ExperimentSpec, SweepRunner

CAMPAIGN = ExperimentSpec(
    name="latency-vs-load",
    scenario="legacy_latency",
    params={"duration": "1ms", "probe_load": 0.05},
    axes={
        "frame_size": [256, 1518],
        "load": [0.5, 0.8, 0.95],
    },
    repeats=3,
    seed=7,
    timeout_s=120.0,
    retries=1,
)


def main() -> None:
    if "--emit-spec" in sys.argv:
        print(CAMPAIGN.to_json(indent=2))
        return

    with tempfile.TemporaryDirectory(prefix="sweep-campaign-") as store:
        runner = SweepRunner(CAMPAIGN, workers=4, cache_dir=store)

        # Simulate an interrupted campaign: run only part of it...
        partial = runner.run(max_shards=5)
        print(
            f"first pass: {len(partial.ok)} of {CAMPAIGN.shard_count} shards done, "
            f"{len(partial.pending)} pending\n"
        )

        # ...then "come back later" and resume from the result store.
        report = runner.run()
        report.require_ok()

    served = [s.index for s in report.from_cache]
    ran = [s.index for s in report.ok if not s.cached]
    print(f"second pass resumed {len(served)} shard(s) from the store, ran {len(ran)}\n")
    # CI runs every example, so a broken resume fails here.
    assert len(served) == 5, "resume must serve the first pass's 5 shards"
    assert served == [s.index for s in partial.ok], "resume served other shards"
    assert len(ran) == CAMPAIGN.shard_count - 5, "resume must run only the rest"

    # Average the repeats per sweep point for the summary table.
    points = {}
    for shard in report.ok:
        key = (shard.params["frame_size"], shard.params["load"])
        points.setdefault(key, []).append(shard.result["mean_us"])
    print_table(
        ["frame B", "load", "repeats", "mean latency (us)"],
        [
            [frame, load, len(values), f"{sum(values) / len(values):.2f}"]
            for (frame, load), values in sorted(points.items())
        ],
        title="E3 via the sweep runner: latency vs load (3 seeds per point)",
    )


if __name__ == "__main__":
    main()
