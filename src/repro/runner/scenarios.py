"""Built-in scenarios: the paper's experiments bound to the spec API.

A built-in point scenario *is* its point function: ``_POINTS`` maps
each scenario name to the module and function that measure it, plus
the one-line description ``osnt-sweep scenarios`` prints. A scenario
imports its module on its first call, so resolving or listing
scenarios imports no simulation code. One binder maps a shard's params
onto the function's keyword parameters:

* key ``k`` binds to parameter ``k``, else to ``k_ps``: ``duration``
  fills ``duration_ps``;
* a ``*_ps`` parameter is coerced with :func:`repro.units.duration_ps`
  and a ``*_bps`` one with :func:`repro.units.rate_bps`, so params may
  be human strings (``"10ms"``, ``"9.5Gbps"``); ``None`` passes through
  where the parameter's default is ``None``; ``telemetry`` and
  ``waveforms`` are coerced to ``bool``;
* a function with a ``seed`` parameter gets ``params["seed"]`` when the
  spec pins it, else the shard's derived seed; a seedless one ignores
  the key. Pin ``seed: 0`` (and ``switch_seed: 1`` where the scenario
  has one) to reproduce the point functions' defaults and the golden
  E-series numbers;
* any other key, or ``k`` together with ``k_ps``, is a
  :class:`~repro.errors.SweepError` that names the accepted keys, and so
  is a missing required parameter: a misspelled key never silently
  measures a default.

Every default is written once, in its point function. A result is a
plain dict: a ``(row, extras)`` pair becomes the row's fields updated
with the extras, ``(rows, extras)`` becomes ``{"rows": [...], **extras}``
and a result dataclass becomes its fields. ``params["telemetry"] =
true`` asks supporting scenarios to include the card's metrics snapshot
under the ``"telemetry"`` result key, which
:meth:`~repro.runner.SweepReport.merged_telemetry` folds across shards.

Also here: ``echo``, ``sleep`` and ``flaky_marker``, tiny operational
scenarios used by the runner's own tests.

Every scenario registered here needs a small spec in the ``SMOKE``
table of ``tests/test_invariance.py``, which checks that its merged
sweep report is the same across workers, datapaths, event queues,
observability, resume, the result cache and a spawned interpreter.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import time
from typing import Any, Callable, Dict, Iterable

from ..errors import SweepError
from ..units import duration_ps, rate_bps
from .registry import register_scenario, scenario

#: scenario -> (module, point function, description).
_POINTS = {
    # -- paper experiments
    "line_rate": (
        "repro.testbed.scenarios",
        "line_rate_point",
        "E1: line-rate generation for one frame size.",
    ),
    "idt_precision": (
        "repro.testbed.scenarios",
        "idt_precision_point",
        "E2: inter-departure precision for one generator kind.",
    ),
    "clock_error": (
        "repro.testbed.scenarios",
        "clock_error_point",
        "E2b: clock error over time for one discipline mode.",
    ),
    "legacy_latency": (
        "repro.testbed.scenarios",
        "legacy_latency_point",
        "E3: probe latency through the legacy switch at one load.",
    ),
    "capture_path": (
        "repro.testbed.scenarios",
        "capture_path_point",
        "E6: capture completeness for one load and reducer variant.",
    ),
    "timestamp_placement": (
        "repro.testbed.scenarios",
        "timestamp_placement_point",
        "E7: hardware vs host-side latency spread at one load.",
    ),
    "router_latency": (
        "repro.testbed.scenarios",
        "router_latency_point",
        "E9: router forwarding latency at one matched-prefix depth.",
    ),
    "imix_latency": (
        "repro.testbed.scenarios",
        "imix_latency_point",
        "E3b: per-size latency classified from one IMIX stream.",
    ),
    "flowmod_latency": (
        "repro.testbed.scenarios",
        "measure_flowmod_latency",
        "E4: flow_mod install latency, control vs data plane.",
    ),
    "forwarding_consistency": (
        "repro.testbed.scenarios",
        "measure_forwarding_consistency",
        "E5: forwarding consistency during a large table update.",
    ),
    "rfc2544": (
        "repro.testbed.rfc2544",
        "rfc2544_point",
        "E8: RFC 2544 zero-loss throughput search for one frame size.",
    ),
    # -- OFLOPS-turbo
    "oflops": (
        "repro.oflops.module",
        "oflops_point",
        "One OFLOPS-turbo module run against a configured DUT profile.",
    ),
    # -- attack workloads
    "syn_flood_flowmod": (
        "repro.testbed.attacks",
        "syn_flood_flowmod_point",
        "A1: flow_mod latency under many-flow SYN churn.",
    ),
    "incast_burst": (
        "repro.testbed.attacks",
        "incast_burst_point",
        "A2: k synchronized burst trains converging on one egress.",
    ),
    # -- fault injection
    "lossy_link_latency": (
        "repro.faults.scenarios",
        "lossy_link_latency_point",
        "F1: probe latency through the legacy switch over a lossy link.",
    ),
    "gps_holdover_drift": (
        "repro.faults.scenarios",
        "gps_holdover_drift_point",
        "F2: clock error through a GPS holdover window.",
    ),
    "flowmod_under_flap": (
        "repro.faults.scenarios",
        "flowmod_under_flap_point",
        "F3: flow_mod latency with the control channel flapping.",
    ),
    # -- closed-loop flows
    "fct_vs_loss": (
        "repro.flows.scenarios",
        "fct_vs_loss_point",
        "L1: flow completion times over a corrupting link, protected or not.",
    ),
    "effective_loss_vs_speed": (
        "repro.flows.scenarios",
        "effective_loss_vs_speed_point",
        "L2: transport-visible loss rate at different link speeds.",
    ),
    "throughput_under_bursty_corruption": (
        "repro.flows.scenarios",
        "throughput_under_bursty_corruption_point",
        "L3: aggregate goodput under geometric corruption bursts.",
    ),
}

#: Row properties a scenario reports beside the row's fields.
_PROPERTIES = {
    "flowmod_latency": ("data_plane_complete_ps", "control_says_done_before_data_ps"),
    "incast_burst": ("delivery_fraction",),
    "lossy_link_latency": ("observed_loss",),
}

#: Fault fields a run without impairments leaves out while they are
#: unset, so ``flowmod_latency`` keeps its pre-faults result schema.
_FAULT_FIELDS = {"flowmod_latency": ("degraded", "control_retries")}

#: Parameters coerced to ``bool``.
_FLAGS = ("telemetry", "waveforms")


def _seed(params: Dict[str, Any], derived: int) -> int:
    pinned = params.get("seed")
    return derived if pinned is None else pinned


def _bad_key(name: str, problem: str, accepted: Iterable[str]) -> SweepError:
    return SweepError(
        f"scenario {name!r}: {problem}; accepted: {', '.join(sorted(accepted))}"
    )


def _bind(name: str, fn: Callable, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The keyword arguments that call point function ``fn`` for a shard."""
    signature = inspect.signature(fn).parameters
    accepted = {p[:-3] + "[_ps]" if p.endswith("_ps") else p for p in signature}
    accepted.add("seed")
    kwargs: Dict[str, Any] = {}
    for key, value in params.items():
        if key == "seed":
            continue
        target = key if key in signature else f"{key}_ps"
        if target not in signature:
            raise _bad_key(name, f"unknown key {key!r}", accepted)
        if target in kwargs:
            raise _bad_key(name, f"{target[:-3]!r} and {target!r} both given", accepted)
        if value is None and signature[target].default is None:
            pass
        elif target.endswith("_ps"):
            value = duration_ps(value)
        elif target.endswith("_bps"):
            value = rate_bps(value)
        elif target in _FLAGS:
            value = bool(value)
        kwargs[target] = value
    if "seed" in signature:
        kwargs["seed"] = _seed(params, seed)
    for parameter, spec in signature.items():
        if parameter not in kwargs and spec.default is spec.empty:
            raise _bad_key(name, f"missing key {parameter!r}", accepted)
    return kwargs


def _plain(name: str, result: Any, impaired: bool) -> Dict[str, Any]:
    """A point function's result as the plain dict its scenario returns."""
    if isinstance(result, dict):
        return result
    extras: Dict[str, Any] = {}
    if isinstance(result, tuple):
        result, extras = result
    if isinstance(result, list):
        out = {"rows": [dataclasses.asdict(row) for row in result]}
    else:
        out = dataclasses.asdict(result)
    out.update(extras)
    for prop in _PROPERTIES.get(name, ()):
        out[prop] = getattr(result, prop)
    fault_fields = _FAULT_FIELDS.get(name, ())
    if not impaired and not any(out[field] for field in fault_fields):
        for field in fault_fields:
            del out[field]
    return out


def _point(name: str, module: str, function: str, description: str) -> Callable:
    def run(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
        fn = getattr(importlib.import_module(module), function)
        kwargs = _bind(name, fn, params, seed)
        return _plain(name, fn(**kwargs), bool(kwargs.get("impairments")))

    run.__doc__ = description
    return run


for _name, (_module, _function, _description) in _POINTS.items():
    register_scenario(_name, _point(_name, _module, _function, _description))


# -- operational scenarios ---------------------------------------------------


@scenario("echo")
def _echo(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Return the shard's params and seed — smoke tests and examples.

    Honors the ``params["seed"]`` pin like every built-in scenario, so
    the pinning contract is testable without running a real testbed.
    """
    return {"params": params, "seed": _seed(params, seed)}


@scenario("sleep")
def _sleep(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Sleep ``duration_s`` of wall-clock time — timeout-path testing."""
    duration_s = float(params.get("duration_s", 0.1))
    time.sleep(duration_s)
    return {"slept_s": duration_s, "seed": seed}


@scenario("flaky_marker")
def _flaky_marker(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Fail until ``params["marker"]`` exists (created on first try).

    Models a transient fault: the first attempt plants the marker file
    and raises; the retry finds it and succeeds. Works across worker
    processes because the state lives on the filesystem.
    """
    marker = params["marker"]
    if os.path.exists(marker):
        return {"recovered": True, "seed": seed}
    with open(marker, "w") as handle:
        handle.write("attempted\n")
    raise RuntimeError(f"transient failure (marker {marker} planted)")
