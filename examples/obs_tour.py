#!/usr/bin/env python3
"""Tour of repro.obs: trace one packet through the Figure-2 topology.

Builds the demo Part I testbed (OSNT port 0 → legacy switch → OSNT
port 1), arms the causal observability stack and sends a single
timestamped probe:

* the :class:`~repro.obs.SpanRecorder` records the packet's lifecycle
  span — generator → TX stamp → MAC → link → switch lookup → re-emit →
  capture → host DMA — correlated across the switch by the in-band
  64-bit TX timestamp (the paper's correlation trick, applied to
  observability);
* the :class:`~repro.obs.SimProfiler` attributes the run's wall-clock
  to kernel handlers and reports the "sim speedometer";
* the whole thing exports as a JSONL packet-story table and a Chrome
  ``trace_event`` file (open at chrome://tracing or
  https://ui.perfetto.dev — spans render beside the kernel trace).

Run:  python examples/obs_tour.py
"""

import json
import os
import tempfile

from repro.obs import SimProfiler, SpanRecorder
from repro.sim import Simulator
from repro.telemetry import Tracer, write_chrome_trace
from repro.testbed.topology import legacy_testbed
from repro.testbed.workloads import udp_template
from repro.units import to_us


def main() -> None:
    sim = Simulator()
    tracer = Tracer().arm(sim)
    spans = SpanRecorder().arm(sim)
    profiler = SimProfiler().arm(sim)

    bed = legacy_testbed(sim)
    bed.monitor.start_capture()
    bed.generator.load_template(udp_template(256), count=1)
    bed.generator.set_load(0.1).embed_timestamps()
    bed.generator.start()
    sim.run()
    profiler.disarm()

    # -- the packet story ---------------------------------------------------
    [span] = spans.spans()
    story = span.as_story()
    print(f"packet span {story['span']}: origin {story['origin']}, "
          f"outcome {story['outcome']}")
    print(f"  travelled as packet ids {story['packet_ids']} "
          f"(the switch re-emitted a fresh frame; the raw TX stamp "
          f"{story['tx_stamp_raw']:#x} ties them together)")
    born = story["born_ps"]
    for hop in story["hops"]:
        detail = hop.get("detail", {})
        where = ", ".join(f"{k}={v}" for k, v in detail.items())
        print(f"  +{to_us(hop['t_ps'] - born):8.3f} µs  {hop['hop']:<14} {where}")
    print(f"  total journey: {to_us(story['end_ps'] - born):.3f} µs\n")

    # -- the profiler -------------------------------------------------------
    print(profiler.format_report(top_n=5))
    print()

    # -- the exports --------------------------------------------------------
    out_dir = tempfile.mkdtemp(prefix="obs-tour-")
    stories_path = os.path.join(out_dir, "packets.jsonl")
    trace_path = os.path.join(out_dir, "trace.json")
    spans.write_stories(stories_path)
    events = write_chrome_trace(trace_path, tracer, span_recorder=spans)
    with open(stories_path) as handle:
        assert json.loads(handle.readline())["span"] == span.span_id
    print(f"wrote packet stories to {stories_path}")
    print(f"wrote {events} Chrome trace events to {trace_path} "
          f"(load in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()
