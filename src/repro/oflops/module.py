"""The OFLOPS measurement-module framework.

Like the original OFLOPS, a measurement is a *module*: a class with a
lifecycle the runner drives. Modules receive the context (all three
channels), arm whatever callbacks they need, let the simulation advance,
and produce a result dictionary.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import OflopsError, SweepError
from ..units import ms, seconds, us
from .context import OflopsContext

#: Simulated time the runner advances between ``is_finished`` polls.
_SLICE_PS = ms(1)


class MeasurementModule:
    """Base class for OFLOPS-turbo measurement modules."""

    #: Short identifier used by the runner/CLI.
    name = "base"
    description = ""
    #: Hard cap on simulated time for one run.
    max_duration_ps = seconds(10)
    #: Degradable modules survive the deadline: instead of raising,
    #: the runner collects whatever partial results exist and marks
    #: them ``degraded=True`` — the behaviour fault-injection runs
    #: (flapped control channels, lossy links) need. A module opting
    #: in must make its :meth:`collect` tolerate missing replies.
    degradable = False

    def setup(self, ctx: OflopsContext) -> None:
        """Prepare DUT state (install baseline rules, start captures)."""

    def sync_setup(self, ctx: OflopsContext, timeout_ps: int) -> None:
        """Fence the setup rules with one barrier, or fail naming the module.

        Runs in ``timeout_ps`` slices of simulated time until the reply
        lands, so a large table's setup takes as long as its writes do,
        and gives up once :attr:`max_duration_ps` is spent. There are no
        resends: a module that needs its baseline rules cannot measure
        on a channel that lost them.
        """
        xid = ctx.control.barrier()
        waited = 0
        while True:
            ctx.run_for(timeout_ps)
            waited += timeout_ps
            if ctx.control.rtt_of(xid) is not None:
                return
            if waited >= self.max_duration_ps:
                raise OflopsError(
                    f"module {self.name!r}: setup barrier unanswered after "
                    f"{waited} ps"
                )

    def start(self, ctx: OflopsContext) -> None:
        """Kick off the measured activity (traffic, message bursts)."""
        raise NotImplementedError

    def is_finished(self, ctx: OflopsContext) -> bool:
        """Polled by the runner between simulation slices."""
        raise NotImplementedError

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        """Extract the results after the run completes."""
        raise NotImplementedError


class ModuleRunner:
    """Drives one module through its lifecycle on a fresh context."""

    def __init__(self, ctx: Optional[OflopsContext] = None) -> None:
        self.ctx = ctx or OflopsContext()

    def run(self, module: MeasurementModule) -> Dict[str, Any]:
        ctx = self.ctx
        tracer = ctx.sim.tracer
        if tracer is not None:
            tracer.instant(ctx.sim.now, "oflops", "setup", {"module": module.name})
        module.setup(ctx)
        started_at = ctx.sim.now
        if tracer is not None:
            tracer.instant(started_at, "oflops", "start", {"module": module.name})
        module.start(ctx)
        deadline = started_at + module.max_duration_ps
        degraded = False
        while not module.is_finished(ctx):
            if ctx.sim.now >= deadline:
                if not module.degradable:
                    raise OflopsError(
                        f"module {module.name!r} did not finish within "
                        f"{module.max_duration_ps} ps of simulated time"
                    )
                degraded = True
                if tracer is not None:
                    tracer.instant(
                        ctx.sim.now, "oflops", "degraded", {"module": module.name}
                    )
                break
            ctx.run_until(min(ctx.sim.now + _SLICE_PS, deadline))
        results = module.collect(ctx)
        if degraded:
            results["degraded"] = True
        results.setdefault("module", module.name)
        results.setdefault("simulated_ps", ctx.sim.now - started_at)
        if tracer is not None:
            tracer.instant(
                ctx.sim.now, "oflops", "finish",
                {"module": module.name, "simulated_ps": results["simulated_ps"]},
            )
        metrics = getattr(ctx, "metrics", None)
        if metrics is not None:
            metrics.counter("module.runs").inc()
            if degraded:
                metrics.counter("module.degraded").inc()
            metrics.histogram("module.duration_ps", unit="ps").record(
                results["simulated_ps"]
            )
        return results


def oflops_point(
    module: str,
    dut: Optional[str] = None,
    barrier_mode: str = "spec",
    firmware_delay_ps: int = us(10),
    table_write_ps: int = us(100),
    control_latency_ps: int = us(50),
    impairments: Optional[list] = None,
    n_rules: int = 32,
    max_duration_ps: Optional[int] = None,
    seed: int = 0,
    telemetry: bool = False,
) -> Dict[str, Any]:
    """The ``oflops`` scenario: one module run against a DUT profile.

    ``dut`` names one of :data:`~repro.devices.openflow_switch.PROFILES`;
    without it the switch takes ``barrier_mode``, ``firmware_delay_ps``
    and ``table_write_ps``. ``n_rules`` sizes the table modules, and
    ``max_duration_ps`` caps a run (degradable modules run out the full
    deadline on a faulted channel). ``telemetry`` adds the context's
    metrics snapshot under ``"telemetry"``.
    """
    from ..devices.openflow_switch import PROFILES, SwitchProfile
    from .modules import ALL_MODULES

    if module not in ALL_MODULES:
        raise SweepError(
            f"unknown oflops module {module!r}; known: {', '.join(sorted(ALL_MODULES))}"
        )
    if dut is None:
        profile = SwitchProfile(
            barrier_mode=barrier_mode,
            firmware_delay_ps=firmware_delay_ps,
            table_write_ps=table_write_ps,
        )
    elif dut in PROFILES:
        profile = PROFILES[dut]
    else:
        raise SweepError(
            f"unknown oflops dut {dut!r}; known: {', '.join(sorted(PROFILES))}"
        )
    ctx = OflopsContext(
        profile=profile,
        control_latency_ps=control_latency_ps,
        impairments=impairments,
        seed=seed,
        root_seed=seed,
    )
    module_cls = ALL_MODULES[module]
    if module in ("flow_mod_latency", "forwarding_consistency"):
        measurement = module_cls(n_rules=n_rules)
    else:
        measurement = module_cls()
    if max_duration_ps is not None:
        measurement.max_duration_ps = max_duration_ps
    result = dict(ModuleRunner(ctx).run(measurement))
    if telemetry:
        result["telemetry"] = ctx.snapshot()
    return result
