"""Compare two benchmark result files, metric by metric.

    python3 bench/compare.py BASE.json NEW.json

Both files are written by ``run.py --out``. For every workload and
end-to-end metric present in both, this prints each side's median and
quartiles, the change of the median, the bound from ``BENCHMARK.json``
and a verdict:

* ``unresolved`` — either side's spread (quartile distance over the
  median) is wider than the bound, and not every new run reads better
  than every base run (then it is ``improved``);
* ``regressed`` — the median got worse by more than the bound;
* ``improved`` — the median got better by more than the spread;
* ``unchanged`` — otherwise.

A side with several runs of a workload is summarized over the runs'
medians; a side with one run uses that run's own quartiles. Exits 1 if
any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass
class Side:
    """One side of a comparison: a metric's values across runs."""

    values: List[float]
    q1: float
    median: float
    q3: float

    @property
    def spread(self) -> float:
        return (self.q3 - self.q1) / self.median if self.median else 0.0


def summarize(records: List[Dict[str, Any]], workload: str, metric: str) -> Optional[Side]:
    """The metric over the bare runs of ``workload`` (None if absent)."""
    runs = [
        r
        for r in records
        if r["workload"] == workload and not r.get("trace") and metric in r["metrics"]
    ]
    if not runs:
        return None
    values = [r["metrics"][metric]["value"] for r in runs]
    if len(runs) == 1:
        q1, median, q3 = runs[0].get("quartiles", {}).get(metric, [values[0]] * 3)
        return Side(values, q1, median, q3)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Side(values, q1, statistics.median(values), q3)


def verdict(base: Side, new: Side, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new.median - base.median) / base.median
    if max(base.spread, new.spread) > bound:
        if better == "lower":
            all_better = max(new.values) < min(base.values)
        else:
            all_better = min(new.values) > max(base.values)
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > max(base.spread, new.spread):
        return "improved"
    return "unchanged"


def compare(
    base: List[Dict[str, Any]], new: List[Dict[str, Any]], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = summarize(base, workload, metric["name"])
            b = summarize(new, workload, metric["name"])
            if a is None or b is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": a,
                    "new": b,
                    "change": (b.median - a.median) / a.median,
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def _side(side: Side) -> str:
    return f"{side.median:.4g} [{side.q1:.4g}, {side.q3:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base = json.loads(args.base.read_text())["runs"]
    new = json.loads(args.new.read_text())["runs"]
    rows = compare(base, new, spec)
    print(
        f"{'workload':17} {'metric':18} {'base median [q1, q3]':34} "
        f"{'new median [q1, q3]':34} {'change':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:17} {row['metric']:18} {_side(row['base']):34} "
            f"{_side(row['new']):34} {row['change']:+8.1%} {row['bound']:6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
