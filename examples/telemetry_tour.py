#!/usr/bin/env python3
"""Tour of the repro.telemetry subsystem on a PCAP replay workload.

Synthesises a capture file, replays it across a loopback cable with
hardware TX timestamps embedded in-band (the P4TG trick: the receiver
computes latency from the stamp carried *inside* each frame, no second
channel needed), with the full telemetry stack armed:

* per-port counters, rates and latency histograms in one ``snapshot()``,
* the in-band latency distribution as p50/p90/p99 and bucket rows,
* an event trace of the whole run (kernel events plus one span track
  per packet) exported as Chrome ``trace_event`` JSON — open it at
  chrome://tracing or https://ui.perfetto.dev.

Run:  python examples/telemetry_tour.py
"""

import json
import os
import tempfile

from repro.analysis import print_table
from repro.hw import connect
from repro.net import PcapRecord, build_udp, write_pcap
from repro.obs import SpanRecorder
from repro.osnt import OSNT
from repro.sim import Simulator
from repro.telemetry import Tracer, write_chrome_trace, write_snapshot_json
from repro.units import ms, to_us, us


def synthesize_capture(path: str) -> int:
    """A mixed-size trace: 400 packets, sizes cycling 64..1024 bytes."""
    sizes = [64, 128, 256, 512, 1024]
    records = []
    timestamp = 0
    for index in range(400):
        records.append(
            PcapRecord(
                timestamp_ps=timestamp,
                data=build_udp(frame_size=sizes[index % len(sizes)]).data,
            )
        )
        timestamp += us(2)
    return write_pcap(path, records)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="telemetry_tour_")
    pcap_path = os.path.join(workdir, "input.pcap")
    count = synthesize_capture(pcap_path)
    print(f"synthesized {count} packets -> {pcap_path}")

    sim = Simulator()
    # Kernel events from the first tick; the spans record each packet's
    # hops (MAC TX/RX, capture, host delivery) for the same trace file.
    tracer = Tracer(capacity=1 << 15).arm(sim)
    spans = SpanRecorder().arm(sim)

    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    tester.start_telemetry()  # rate gauges + in-band latency on every port

    monitor = tester.monitor(1)
    monitor.start_capture()
    generator = tester.generator(0)
    generator.load_pcap(pcap_path)
    generator.embed_timestamps()
    generator.start()

    sim.run()  # drain the replay
    sim.run(until=sim.now + ms(2))  # let the daemon rate ticks land
    tester.device.stop_telemetry()

    # -- one call, the whole card ---------------------------------------
    snapshot = tester.snapshot()
    highlights = [
        "osnt.p0.gen.sent",
        "osnt.p0.gen.achieved_bps",
        "osnt.p1.mon.rx_packets",
        "osnt.p1.mon.captured",
        "osnt.p1.rx_rate.peak_bps",
        "osnt.dma.delivered",
    ]
    print_table(
        ["metric", "value"],
        [[name, snapshot[name]] for name in highlights],
        title=f"snapshot highlights ({len(snapshot)} metrics total)",
    )

    # -- the in-band latency distribution -------------------------------
    latency = monitor.latency_histogram
    summary = latency.summary()
    print_table(
        ["percentile", "µs"],
        [
            ["p50", f"{to_us(summary.p50):.3f}"],
            ["p90", f"{to_us(summary.p90):.3f}"],
            ["p99", f"{to_us(summary.p99):.3f}"],
            ["max", f"{to_us(summary.maximum):.3f}"],
        ],
        title=f"loopback latency, {summary.count} in-band samples",
    )
    print_table(
        ["bucket low ps", "bucket high ps", "count"],
        [list(row) for row in latency.bucket_rows()[:8]],
        title="first latency buckets (log-linear, ~3% relative error)",
    )

    # -- TX size histogram straight from the registry --------------------
    sizes = tester.metrics.get("p0.gen.tx_size_bytes").summary()
    print(
        f"tx sizes: count={sizes.count} min={sizes.minimum} "
        f"p50={sizes.p50:.0f} max={sizes.maximum}"
    )

    # -- export: snapshot JSON + Chrome trace ----------------------------
    snapshot_path = os.path.join(workdir, "snapshot.json")
    trace_path = os.path.join(workdir, "trace.json")
    write_snapshot_json(snapshot_path, snapshot)
    written = write_chrome_trace(trace_path, tracer, span_recorder=spans)
    with open(trace_path) as handle:
        document = json.load(handle)
    print(f"wrote {len(snapshot)} metrics -> {snapshot_path}")
    print(
        f"wrote {written} trace events -> {trace_path} "
        f"({document['otherData']['evicted']} evicted; load it in "
        "chrome://tracing or ui.perfetto.dev)"
    )


if __name__ == "__main__":
    main()
