"""Tests for repro.cluster: the result store and the forked pool."""

import json
import os
import time

import pytest

from repro.cluster import (
    LocalScheduler,
    ResultStore,
    code_version,
    parse_age_s,
    result_digest,
    shard_cache_key,
    source_digest,
)
from repro.errors import SweepError
from repro.runner import ExperimentSpec, run_spec
from repro.runner.spec import Shard


def echo_spec(**overrides):
    base = dict(
        name="cluster-echo",
        scenario="echo",
        params={"alpha": 1},
        axes={"x": [1, 2], "y": ["a", "b"]},
        retries=1,
        timeout_s=30.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# -- ages and keys ------------------------------------------------------------


class TestParseAge:
    def test_units(self):
        assert parse_age_s("90s") == 90.0
        assert parse_age_s("15m") == 900.0
        assert parse_age_s("12h") == 43200.0
        assert parse_age_s("7d") == 7 * 86400.0
        assert parse_age_s("2w") == 2 * 604800.0

    def test_bare_number_is_seconds(self):
        assert parse_age_s("42") == 42.0
        assert parse_age_s(42) == 42.0
        assert parse_age_s(1.5) == 1.5

    def test_bad_age_raises(self):
        for bad in (
            "", "h", "12x", "-5s", "1.2.3m", "9" * 400,
            -1, -0.5, float("inf"), float("nan"),
        ):
            with pytest.raises(SweepError):
                parse_age_s(bad)


class TestShardCacheKey:
    def test_key_ignores_campaign_bookkeeping(self):
        """Overlapping sweeps must share keys for their common shards."""
        a = echo_spec(name="first", retries=0)
        b = echo_spec(name="second", retries=3, timeout_s=5.0)
        for sa, sb in zip(a.expand(), b.expand()):
            assert shard_cache_key(a, sa) == shard_cache_key(b, sb)

    def test_key_covers_what_changes_results(self):
        spec = echo_spec()
        shard = spec.expand()[0]
        base = shard_cache_key(spec, shard)
        other_params = Shard(
            index=shard.index,
            params={**shard.params, "alpha": 2},
            seed=shard.seed,
        )
        other_seed = Shard(index=shard.index, params=shard.params, seed=shard.seed + 1)
        assert shard_cache_key(spec, other_params) != base
        assert shard_cache_key(spec, other_seed) != base
        assert shard_cache_key(spec, shard, code="0.0+stale") != base
        assert shard_cache_key(echo_spec(scenario="sleep"), shard) != base

    def test_key_shape(self):
        spec = echo_spec()
        key = shard_cache_key(spec, spec.expand()[0])
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)


class TestCodeVersion:
    def test_source_digest_tracks_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\n")
        first = source_digest(tmp_path)
        assert source_digest(tmp_path) == first  # stable
        (tmp_path / "a.py").write_text("x = 2\n")
        assert source_digest(tmp_path) != first

    def test_code_version_format(self):
        version = code_version()
        release, _, digest = version.partition("+")
        assert release and digest
        assert len(digest) == 10


# -- the result store ---------------------------------------------------------


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ab" * 32
        result = {"value": 42, "nested": {"k": [1, 2]}}
        assert store.put(key, result, scenario="echo") is True
        assert key in store
        assert store.get(key) == result
        assert store.hits == 1

    def test_duplicate_put_is_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        assert store.put(key, {"v": 1}) is True
        assert store.put(key, {"v": 1}) is False

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ef" * 32) is None
        assert store.misses == 1

    def test_bad_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("short", "Z" * 64, "../../../../etc/passwd"):
            with pytest.raises(SweepError):
                store.get(bad)

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "12" * 32
        store.put(key, {"v": 1})
        path = store._entry_path(key)
        entry = json.loads(path.read_text())
        entry["result"]["v"] = 999  # digest no longer matches
        path.write_text(json.dumps(entry))
        assert store.get(key) is None
        assert store.misses == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_torn_entry_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "34" * 32
        store.put(key, {"v": 1})
        path = store._entry_path(key)
        whole = path.read_text()
        # A torn write, and JSON that parses but is not an entry object.
        for body in (whole[: len(whole) // 2], "[1, 2]", "null"):
            path.write_text(body)
            assert store.get(key) is None
            assert path.with_suffix(".corrupt").exists()
            path.with_suffix(".corrupt").unlink()
        assert store.misses == 3

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"v": 1}, scenario="echo")
        store.put("cd" * 32, {"v": 2}, scenario="echo")
        store.put("ef" * 32, {"v": 3}, scenario="sleep")
        stats = store.stats()
        assert stats.entries == 3
        assert stats.by_scenario == {"echo": 2, "sleep": 1}
        assert stats.total_bytes > 0
        assert "entries:     3" in stats.summary()

    def test_gc_by_age(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"v": 1}, scenario="echo")
        store.put("cd" * 32, {"v": 2}, scenario="echo")
        # Backdate one entry (created_s is not covered by the digest).
        old = store._entry_path("ab" * 32)
        entry = json.loads(old.read_text())
        entry["created_s"] = time.time() - 7200
        old.write_text(json.dumps(entry, sort_keys=True))

        would = store.gc("1h", dry_run=True)
        assert would == ["ab" * 32]
        assert old.exists()  # dry run touches nothing

        removed = store.gc("1h")
        assert removed == ["ab" * 32]
        assert not old.exists()
        assert store.get("cd" * 32) == {"v": 2}
        # The index was rewritten from the survivors.
        lines = [
            json.loads(line)
            for line in store.index_path.read_text().splitlines()
        ]
        assert [line["key"] for line in lines] == ["cd" * 32]

    def test_gc_sweeps_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "56" * 32
        store.put(key, {"v": 1})
        path = store._entry_path(key)
        path.write_text("not json")
        assert store.get(key) is None
        assert path.with_suffix(".corrupt").exists()
        # Entries that parse but are not valid are corrupt too, whether
        # or not a get() has quarantined them yet.
        listed, undated = store._entry_path("78" * 32), store._entry_path("9a" * 32)
        store.put("78" * 32, {"v": 2})
        store.put("9a" * 32, {"v": 3})
        listed.write_text("[1, 2]")
        entry = json.loads(undated.read_text())
        entry["created_s"] = None
        undated.write_text(json.dumps(entry))
        assert store.stats().corrupt == 2
        assert store.stats().entries == 0
        store.gc("52w")  # nothing is that old, but quarantine goes
        assert not path.with_suffix(".corrupt").exists()
        assert not listed.exists() and not undated.exists()


# -- cache-served sweeps ------------------------------------------------------


class TestCachedSweeps:
    def test_cold_then_warm_is_byte_identical(self, tmp_path):
        spec = echo_spec()
        store_dir = tmp_path / "store"
        cold = run_spec(spec, workers=2, cache_dir=store_dir)
        assert not cold.from_cache
        warm = run_spec(spec, workers=2, cache_dir=store_dir)
        assert len(warm.from_cache) == len(spec.expand())
        assert warm.merged_json() == cold.merged_json()
        assert warm.scheduler_stats.get("executed", 0) == 0

    def test_overlapping_sweep_runs_only_new_shards(self, tmp_path):
        store_dir = tmp_path / "store"
        first = echo_spec(name="first", axes={"x": [1, 2], "y": ["a", "b"]})
        cold = run_spec(first, workers=0, cache_dir=store_dir)
        assert cold.scheduler_stats == {"backend": "inline", "executed": 4}
        # Same sweep extended along its slowest-varying axis: the four
        # old operating points keep their indices and seeds, so only
        # the two new shards execute.
        extended = echo_spec(name="second", axes={"x": [1, 2, 3], "y": ["a", "b"]})
        warm = run_spec(extended, workers=0, cache_dir=store_dir)
        assert warm.scheduler_stats == {"backend": "inline", "executed": 2}
        assert len(warm.from_cache) == 4
        assert warm.require_ok().complete

    def test_result_digest_is_canonical(self):
        assert result_digest({"b": 1, "a": 2}) == result_digest({"a": 2, "b": 1})


# -- checkpoint hygiene: the store is the resume record -----------------------


class TestCheckpointHygiene:
    def test_orphaned_tmp_files_are_cleaned(self, tmp_path):
        # A writer killed inside put() leaves its temp file behind.
        store = ResultStore(tmp_path)
        fanout = store.objects / "ab"
        fanout.mkdir()
        old = fanout / f".{'ab' * 32}.tmp.12345"
        young = fanout / f".{'ab' * 32}.tmp.678"
        old.write_text("{torn")
        young.write_text("{torn")
        month_ago = time.time() - 30 * 86400
        os.utime(old, (month_ago, month_ago))

        assert store.gc("7d", dry_run=True) == [old.name]
        assert old.exists()  # dry run touches nothing
        assert store.gc("7d") == [old.name]
        assert not old.exists()
        # A younger temp file may belong to a live writer.
        assert young.exists()

    def test_stale_code_version_detected_on_resume(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        with monkeypatch.context() as patch:
            patch.setattr("repro.cluster.version._cached", "0.0.0+stale00000")
            stale = run_spec(echo_spec(), workers=0, cache_dir=store)
        assert ResultStore(store).stats().entries == 4
        fresh = run_spec(echo_spec(), workers=0, cache_dir=store)
        assert not fresh.from_cache
        assert fresh.scheduler_stats == {"backend": "inline", "executed": 4}
        assert fresh.merged_json() == stale.merged_json()
        # Both trees' entries coexist under their own keys.
        assert ResultStore(store).stats().entries == 8

    def test_non_object_shard_checkpoint_reruns(self, tmp_path):
        store = tmp_path / "store"
        spec = echo_spec()
        first = run_spec(spec, workers=0, cache_dir=store)
        key = shard_cache_key(spec, spec.expand()[0])
        ResultStore(store)._entry_path(key).write_text("[]")
        again = run_spec(spec, workers=0, cache_dir=store)
        assert [s.cached for s in again.shards] == [False, True, True, True]
        assert again.merged_json() == first.merged_json()

    def test_store_path_that_is_a_file_is_a_sweep_error(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        with pytest.raises(SweepError, match="not-a-dir"):
            ResultStore(path)
        with pytest.raises(SweepError, match="not-a-dir"):
            run_spec(echo_spec(), cache_dir=path)


# -- schedulers ---------------------------------------------------------------


class TestLocalScheduler:
    def test_runner_reports_local_backend(self):
        report = run_spec(echo_spec(), workers=2)
        assert report.require_ok().complete
        stats = report.scheduler_stats
        assert stats["backend"] == "local"
        assert stats["executed"] == len(echo_spec().expand())

    def test_rejects_zero_workers(self):
        with pytest.raises(SweepError):
            LocalScheduler(workers=0)
