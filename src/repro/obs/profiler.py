"""The sim-time profiler: wall-clock attribution of kernel dispatch.

Answers the operational question every long sweep raises — *where is
the wall-clock going, and how fast is simulated time advancing?* —
without touching simulated behaviour. Armed on a simulator
(:meth:`SimProfiler.arm`, the arming protocol every recorder shares),
the kernel routes every fired event through :meth:`SimProfiler.dispatch`,
which times the callback with ``perf_counter`` and attributes it to the
handler's qualified name.

The headline number is the **speedometer**: simulated picoseconds
advanced per wall-clock second. The breakdown is the top-N hottest
handlers by cumulative wall time. Disarmed cost is one None check per
dispatched event (budgeted by the ``profiler-disarmed/chained`` row of
``benchmarks/test_perf.py``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..sim.kernel import _Recorder


class SimProfiler(_Recorder):
    """Wall-clock dispatch profiler (arm with :meth:`arm`).

    >>> profiler = SimProfiler().arm(sim)
    >>> sim.run()
    >>> profiler.disarm()
    >>> print(profiler.format_report())

    Arming another simulator accumulates: stats and the speedometer
    carry across (``observe_simulators`` relies on this to profile every
    simulator a scenario creates).
    """

    _SLOT = "profiler"

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: label -> [calls, cumulative_wall_seconds]
        self._stats: Dict[str, List[float]] = {}
        self.events = 0
        self._sim = None
        self._sim_base_ps = 0
        self._sim_ps_accumulated = 0
        self._wall_started: Optional[float] = None
        self._wall_accumulated = 0.0

    def _attach(self, sim) -> None:
        self._sim_base_ps = sim.now
        self._wall_started = self.clock()
        sim._profiler = self
        sim._profile_dispatch = self.dispatch

    def _detach(self, sim) -> None:
        self._sim_ps_accumulated += sim.now - self._sim_base_ps
        self._wall_accumulated += self.clock() - self._wall_started
        self._wall_started = None
        sim._profiler = sim._profile_dispatch = None

    # -- the kernel hook ---------------------------------------------------

    def dispatch(self, event) -> None:
        """Fire one event, billing its wall time to the handler label."""
        clock = self.clock
        start = clock()
        try:
            event.callback(*event.args)
        finally:
            elapsed = clock() - start
            callback = event.callback
            label = getattr(callback, "__qualname__", None) or repr(callback)
            entry = self._stats.get(label)
            if entry is None:
                self._stats[label] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            self.events += 1

    # -- reads -------------------------------------------------------------

    def sim_ps_advanced(self) -> int:
        """Simulated picoseconds advanced while armed (cumulative)."""
        total = self._sim_ps_accumulated
        if self._sim is not None:
            total += self._sim.now - self._sim_base_ps
        return total

    def wall_elapsed_s(self) -> float:
        """Wall-clock seconds spent armed (cumulative)."""
        total = self._wall_accumulated
        if self._wall_started is not None:
            total += self.clock() - self._wall_started
        return total

    def sim_ps_per_wall_s(self) -> float:
        """The speedometer: simulated ps advanced per wall second."""
        wall = self.wall_elapsed_s()
        if wall <= 0.0:
            return 0.0
        return self.sim_ps_advanced() / wall

    def hottest(self, top_n: int = 10) -> List[Dict[str, Any]]:
        """Top-N handlers by cumulative wall time."""
        ranked = sorted(
            self._stats.items(), key=lambda item: item[1][1], reverse=True
        )
        return [
            {
                "handler": label,
                "calls": int(calls),
                "wall_s": wall_s,
                "mean_us": (wall_s / calls) * 1e6 if calls else 0.0,
            }
            for label, (calls, wall_s) in ranked[:top_n]
        ]

    def report(self, top_n: int = 10) -> Dict[str, Any]:
        """The whole profile as one plain dict."""
        return {
            "events": self.events,
            "wall_s": self.wall_elapsed_s(),
            "sim_ps": self.sim_ps_advanced(),
            "sim_ps_per_wall_s": self.sim_ps_per_wall_s(),
            "hottest": self.hottest(top_n),
        }

    def format_report(self, top_n: int = 10) -> str:
        """The profile as a human-readable table."""
        from ..analysis.report import format_table

        speed = self.sim_ps_per_wall_s()
        title = (
            f"sim speedometer: {speed / 1e12:.4f} sim-s/wall-s "
            f"({self.events} events in {self.wall_elapsed_s():.2f} wall-s)"
        )
        rows = [
            [
                entry["handler"],
                entry["calls"],
                f"{entry['wall_s'] * 1e3:.2f}",
                f"{entry['mean_us']:.2f}",
            ]
            for entry in self.hottest(top_n)
        ]
        return format_table(["handler", "calls", "wall ms", "mean µs"], rows, title=title)
