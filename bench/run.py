"""The end-to-end benchmark of the simulator.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                         [--out FILE] [--small]

For each workload (all of them when ``--workload`` is not given) this
runs ``measure.py`` in a fresh interpreter of its own and, unless
tracing, times ``setup_s`` in other fresh interpreters before and after
it. Every interpreter gets a fixed ``PYTHONHASHSEED`` and a
``PYTHONPATH`` pointing at this checkout's ``src``. The workload names,
metric names, units and bounds come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones. Lines before it give
each workload's result digest. ``--out FILE`` appends the full records
(samples, quartiles, digests, failures) to FILE, the input of
``compare.py``. Scratch files live under ``.bench_out/`` and are removed
at exit; ``--trace 1`` leaves a Chrome trace there.

Exits non-zero, without a result line, if the checkout has no
simulator source or a workload's interpreter fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed for ``setup_s`` before and after the
#: measured run (spreading them over it evens out host-speed drift); the
#: median of all of them is reported.
SETUP_RUNS = (6, 5)
#: A run must end within this budget (seconds), set-up included.
RUN_BUDGET_S = 175.0
#: Any fixed value: a random hash seed moves wall times between runs.
HASH_SEED = "0"

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "workloads.setup({name!r})\n"
    "print(time.perf_counter() - start)\n"
)


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(workdir: Path) -> Dict[str, str]:
    """The environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    # Keep temporary files (the sweep runner's) inside the checkout.
    env["TMPDIR"] = str(workdir)
    # Measure the default datapath and event queue.
    env.pop("REPRO_DATAPATH", None)
    env.pop("REPRO_EVENT_QUEUE", None)
    return env


def measure_setup(name: str, env: Dict[str, str], runs: int) -> List[float]:
    """Seconds to import the package and resolve the workload, per run."""
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(name=name)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_group(command: List[str], env: Dict[str, str], timeout: float) -> str:
    """Run ``command`` in its own process group; returns its stdout.

    The sweep workload forks workers, so on timeout or interrupt the
    whole group is killed and reaped, not just the direct child.
    """
    with subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{command[1]} exited with {proc.returncode}")
    return stdout


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, small: bool, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """One measured run of one workload, plus set-up timing unless traced."""
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    before, after = (0, 0) if trace else SETUP_RUNS
    try:
        env = child_env(workdir)
        setup = measure_setup(name, env, before)
        command = [
            sys.executable,
            str(BENCH / "measure.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--workdir", str(workdir),
        ]
        if small:
            command.append("--small")
        if trace:
            trace_out = OUT / f"trace-{name}-seed{seed}.json"
            command += ["--trace-out", str(trace_out.relative_to(ROOT))]
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        stdout = run_group(command, env, remaining)
        record = json.loads(stdout.splitlines()[-1])
        setup += measure_setup(name, env, after)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        unit = {m["name"]: m["unit"] for m in spec["end_to_end"]}["setup_s"]
        record["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": unit}
        record["quartiles"]["setup_s"] = statistics.quantiles(setup, n=4)
        record["samples"]["setup_s"] = setup
    return record


def append_records(path: Path, records: List[Dict[str, Any]]) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    path.write_text(json.dumps({"runs": runs + records}, indent=1) + "\n")


def summary_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The final stdout line; metric names are prefixed when several run."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in records
            for name, value in r["metrics"].items()
        }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="append full records to this JSON file")
    parser.add_argument("--small", action="store_true", help="reduced scale, for the tests")
    args = parser.parse_args(argv)

    records = []
    for name in [args.workload] if args.workload else names:
        try:
            record = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.small, spec
            )
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for reason in record["failures"]:
            print(f"failed {name}: {reason}", file=sys.stderr)
        print(f"digest {name} seed={args.seed} {record['digest']}")
        records.append(record)
    if args.out is not None:
        append_records(args.out, records)
    print(json.dumps(summary_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
