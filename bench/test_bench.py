"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/

Workloads run at reduced scale (``small=True``) so the whole file takes
well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import measure
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Every workload at reduced scale, bare and traced, at seed 1."""
    workdir = str(tmp_path_factory.mktemp("bench"))
    return {
        (name, trace): measure.measure(
            name, seed=1, seconds=0, trace=trace, small=True, workdir=workdir
        )
        for name in NAMES
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", NAMES)
def test_workload_has_no_failed_ops(records, name):
    record = records[(name, False)]
    assert record["failed"] == 0, record["failures"]
    assert record["correct"]
    assert record["attempted"] >= len(workloads.build(name, 1, small=True).ops())
    for metric in record["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_trace_is_non_perturbing(records, name):
    bare, traced = records[(name, False)], records[(name, True)]
    assert traced["failed"] == 0, traced["failures"]
    assert traced["digests"] == bare["digests"]
    metrics = {key: value["value"] for key, value in traced["metrics"].items()}
    assert metrics["trace.overhead"] > 0
    self_s = sum(metrics[f"{layer}.self_frac"] for layer in layers.LAYERS)
    assert self_s == pytest.approx(1.0, rel=0.1)


def test_fallback_fraction_separates_the_datapaths(records):
    def fallback(name):
        return records[(name, True)]["metrics"]["hw.burst.fallback_frac"]["value"]

    assert fallback("linerate_burst") == 0.0
    assert fallback("legacy_switch") == 1.0


def test_metric_names_are_valid_and_declared(records):
    end_to_end = [metric["name"] for metric in SPEC["end_to_end"]]
    per_layer = [metric["name"] for metric in SPEC["per_layer"]]
    declared = end_to_end + per_layer
    assert len(set(declared)) == len(declared)
    for name in declared:
        assert METRIC_NAME.fullmatch(name), name
    for (name, trace), record in records.items():
        emitted = set(record["metrics"])
        if trace:
            assert emitted == set(per_layer), name
        else:
            # run.py adds setup_s, measured in separate interpreters.
            assert emitted | {"setup_s"} == set(end_to_end), name


def _runs(workload, values, trace=False):
    return [
        {
            "workload": workload,
            "trace": trace,
            "metrics": {"wall_ref": {"value": value, "unit": "ref"}},
        }
        for value in values
    ]


@pytest.mark.parametrize(
    "base, new, expected",
    [
        ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], "regressed"),
        ([1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], "improved"),
        ([1.00, 1.01, 0.99, 1.00], [1.01, 1.00, 1.02, 1.01], "unchanged"),
        ([1.00, 1.60, 0.70, 1.30], [1.00, 1.40, 0.80, 1.20], "unresolved"),
        # Spread wider than the bound, but every new run is faster.
        ([2.00, 2.80, 1.70, 2.30], [1.00, 1.40, 0.80, 1.20], "improved"),
    ],
)
def test_compare_verdicts(base, new, expected):
    rows = compare.compare(_runs("legacy_switch", base), _runs("legacy_switch", new), SPEC)
    (row,) = [row for row in rows if row["metric"] == "wall_ref"]
    assert row["verdict"] == expected


def test_compare_uses_a_single_runs_quartiles():
    base = _runs("sweep_cached", [1.0])
    base[0]["quartiles"] = {"wall_ref": [0.5, 1.0, 1.5]}
    new = _runs("sweep_cached", [1.05])
    new[0]["quartiles"] = {"wall_ref": [1.0, 1.05, 1.1]}
    (row,) = compare.compare(base, new, SPEC)
    assert row["verdict"] == "unresolved"


def test_compare_ignores_traced_runs():
    rows = compare.compare(
        _runs("sweep_cached", [1.0], trace=True), _runs("sweep_cached", [1.0]), SPEC
    )
    assert rows == []


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    args = ["--workload", "linerate_burst", "--small", "--seconds", "0", "--trace", trace]
    done = _run(args, ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }


def test_run_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    args = ["--workload", "linerate_burst", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = _run(args, tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
