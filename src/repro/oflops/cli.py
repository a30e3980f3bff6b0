"""``oflops-turbo`` — run measurement modules against the simulated DUT.

Since the sweep-runner redesign this CLI is a thin front-end over the
``oflops`` scenario: the flags are packed into a declarative
:class:`~repro.runner.ExperimentSpec` with one shard per module, so the
same runs can be scripted, sharded and resumed via ``osnt-sweep``.
A malformed option exits 2 with ``oflops-turbo: <message>``; a module
that fails during its run is reported by name and exits 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..devices.openflow_switch import PROFILES
from ..errors import ReproError
from ..units import us
from .modules import ALL_MODULES
from .report import render_result


def build_spec(args, names: List[str]):
    """The declarative spec equivalent to one CLI invocation."""
    from ..runner import ExperimentSpec

    return ExperimentSpec(
        name="oflops-turbo",
        scenario="oflops",
        params={
            "dut": args.dut,
            "barrier_mode": args.barrier_mode,
            "firmware_delay": us(args.firmware_delay_us),
            "table_write": us(args.table_write_us),
            "control_latency": us(args.control_latency_us),
            "n_rules": args.rules,
            # Pin the legacy seed so CLI output matches the pre-spec
            # runner (OflopsContext's default OSNT root seed).
            "seed": 0,
        },
        axes={"module": names},
        timeout_s=None,
        retries=0,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oflops-turbo",
        description="OFLOPS-turbo: OpenFlow switch evaluation (simulated DUT)",
    )
    parser.add_argument(
        "modules",
        nargs="*",
        default=[],
        help=f"modules to run (default: all). Available: {', '.join(sorted(ALL_MODULES))}",
    )
    parser.add_argument(
        "--dut",
        choices=sorted(PROFILES),
        default=None,
        help="use a named switch profile instead of the individual knobs",
    )
    parser.add_argument(
        "--barrier-mode",
        choices=["spec", "eager"],
        default="spec",
        help="DUT barrier behaviour (eager = replies before table writes land)",
    )
    parser.add_argument(
        "--firmware-delay-us", type=float, default=10.0, help="per-message CPU cost"
    )
    parser.add_argument(
        "--table-write-us", type=float, default=100.0, help="per-rule TCAM write cost"
    )
    parser.add_argument(
        "--control-latency-us", type=float, default=50.0, help="one-way channel latency"
    )
    parser.add_argument("--rules", type=int, default=32, help="rules for table tests")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the module sweep (0 = inline)",
    )
    parser.add_argument(
        "--spec",
        action="store_true",
        help="print the equivalent osnt-sweep spec JSON and exit",
    )
    args = parser.parse_args(argv)

    names = args.modules or sorted(ALL_MODULES)
    unknown = [name for name in names if name not in ALL_MODULES]
    if unknown:
        parser.error(f"unknown module(s): {', '.join(unknown)}")

    from ..runner import run_spec

    try:
        spec = build_spec(args, names)
        if args.spec:
            print(spec.to_json(indent=2))
            return 0
        report = run_spec(spec, workers=args.workers)
    except ReproError as exc:
        print(f"oflops-turbo: {exc}", file=sys.stderr)
        return 2
    for shard in report.ok:
        print(render_result(shard.result))
        print()
    for shard in report.failed:
        print(
            f"module {shard.params['module']!r} failed: {shard.error}",
            file=sys.stderr,
        )
    return 1 if report.failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
