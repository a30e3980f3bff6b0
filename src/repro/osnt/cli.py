"""Command-line tools mirroring the OSNT software utilities.

``osnt-gen`` — drive the (simulated) tester's generator: synthetic
templates or PCAP replay, rate control, TX timestamping; optionally
capture the far end of a loopback cable to a PCAP file.

``osnt-mon`` — run a PCAP file through the monitor pipeline offline:
wildcard filters, cutting, thinning; writes the reduced capture and
prints the stats the hardware counters would show.

``osnt-telemetry`` — run a timestamped loopback workload with the full
telemetry stack armed and emit the card snapshot as JSON (optionally
CSV and a Chrome ``trace_event`` file).

``osnt-telemetry timeline`` — run a workload with the sim-time waveform
recorder armed and export the queue/utilization timelines as CSV,
JSONL, Chrome counter tracks or OpenMetrics last-value gauges.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..analysis.report import format_table
from ..hw.port import connect
from ..net.builder import build_udp
from ..net.pcap import PcapWriter
from ..net.pcapng import read_capture
from ..sim import Simulator
from ..units import format_rate, ms, parse_rate, seconds
from .api import OSNT
from .monitor.filters import FilterBank
from .monitor.reducers import PacketCutter, Thinner


def gen_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="osnt-gen",
        description="OSNT traffic generator (simulated NetFPGA-10G loopback)",
    )
    parser.add_argument("--frame-size", type=int, default=64, help="wire bytes incl. FCS")
    parser.add_argument("--rate", default="10Gbps", help='target rate, e.g. "5Gbps"')
    parser.add_argument(
        "--traffic-model", metavar="SPEC",
        help="pace with a declarative traffic model: a spec JSON string "
        '(\'{"model": "burst_train", ...}\'), a JSON file path, or a bare '
        "model kind; overrides --rate",
    )
    parser.add_argument("--count", type=int, default=None, help="packets to send")
    parser.add_argument(
        "--duration-ms", type=float, default=None, help="run length in simulated ms"
    )
    parser.add_argument("--replay", metavar="PCAP", help="replay a capture instead")
    parser.add_argument("--loop", type=int, default=1, help="replay loop count")
    parser.add_argument(
        "--timestamp", action="store_true", help="embed hardware TX timestamps"
    )
    parser.add_argument("--capture", metavar="PCAP", help="write loopback capture here")
    args = parser.parse_args(argv)
    if args.count is None and args.duration_ms is None and not args.replay:
        args.duration_ms = 1.0

    sim = Simulator()
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    generator = tester.generator(0)
    monitor = tester.monitor(1)
    monitor.start_capture()

    if args.replay:
        generator.load_pcap(args.replay, loop=args.loop)
    else:
        generator.load_template(build_udp(frame_size=args.frame_size), count=args.count)
        if args.traffic_model:
            import os

            model = args.traffic_model
            if os.path.exists(model) and not model.lstrip().startswith("{"):
                with open(model) as handle:
                    model = handle.read()
            generator.use_model(model)
        else:
            rate_bps = parse_rate(args.rate)
            generator.set_rate(rate_bps)
    if args.timestamp:
        generator.embed_timestamps()
    if args.duration_ms is not None:
        generator.for_duration(ms(args.duration_ms))
    generator.start()
    sim.run(until=seconds(10))
    sim.run()

    stats = generator.stats
    print(
        format_table(
            ["metric", "value"],
            [
                ["packets sent", generator.packets_sent],
                ["bytes sent", generator.bytes_sent],
                ["achieved rate", format_rate(stats.achieved_bps())],
                ["achieved pps", f"{stats.achieved_pps():,.0f}"],
                ["captured at peer", monitor.captured_count],
            ],
            title="osnt-gen run summary",
        )
    )
    if args.capture:
        written = monitor.save_pcap(args.capture)
        print(f"wrote {written} packets to {args.capture}")
    return 0


def mon_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="osnt-mon",
        description="OSNT monitor pipeline over a PCAP file (filter/cut/thin)",
    )
    parser.add_argument("input", help="input pcap")
    parser.add_argument("--output", help="write the reduced capture here")
    parser.add_argument("--snaplen", type=int, default=None, help="cut to N bytes")
    parser.add_argument("--thin", type=int, default=1, metavar="N", help="keep 1-in-N")
    parser.add_argument("--proto", type=int, default=None, help="filter: IP protocol")
    parser.add_argument("--src-ip", default=None, help="filter: source prefix a.b.c.d/len")
    parser.add_argument("--dst-ip", default=None, help="filter: dest prefix a.b.c.d/len")
    parser.add_argument("--dst-port", type=int, default=None, help="filter: dest port")
    parser.add_argument(
        "--flows", type=int, default=0, metavar="N",
        help="also print the top-N flows of the (filtered) capture",
    )
    args = parser.parse_args(argv)

    rule_fields = {}
    if args.proto is not None:
        rule_fields["protocol"] = args.proto
    if args.dst_port is not None:
        rule_fields["dst_port"] = args.dst_port
    for field, value in (("src", args.src_ip), ("dst", args.dst_ip)):
        if value:
            rule_fields[field] = value
    bank = FilterBank.from_rules([rule_fields] if rule_fields else [])

    cutter = PacketCutter(args.snaplen)
    thinner = Thinner(keep_one_in=args.thin)

    records = read_capture(args.input)
    kept = []
    in_bytes = out_bytes = 0
    for record in records:
        in_bytes += len(record.data)
        if not bank.decide(record.data):
            continue
        if not thinner.decide():
            continue
        data = record.data
        if args.snaplen is not None and len(data) > args.snaplen:
            data = data[: args.snaplen]
            cutter.cut += 1
        out_bytes += len(data)
        kept.append((record, data))

    print(
        format_table(
            ["metric", "value"],
            [
                ["packets in", len(records)],
                ["passed filter", bank.passed],
                ["dropped by filter", bank.filtered],
                ["thinned", thinner.thinned],
                ["cut", cutter.cut],
                ["packets out", len(kept)],
                ["bytes in", in_bytes],
                ["bytes out", out_bytes],
                [
                    "host-load reduction",
                    f"{(1 - out_bytes / in_bytes) * 100:.1f}%" if in_bytes else "0%",
                ],
            ],
            title=f"osnt-mon: {args.input}",
        )
    )
    if args.flows:
        from ..analysis.flowstats import FlowAccounting
        from ..net.packet import Packet

        accounting = FlowAccounting()
        for record, __ in kept:
            if len(record.data) >= 14:
                packet = Packet(record.data)
                packet.rx_timestamp = record.timestamp_ps
                accounting.add(packet)
        print(
            format_table(
                ["flow", "packets", "bytes", "duration ms", "rate Mbps"],
                accounting.table_rows(args.flows),
                title=f"top {args.flows} flows ({len(accounting)} total)",
            )
        )
    if args.output:
        with PcapWriter(args.output) as writer:
            for record, data in kept:
                from ..net.pcap import PcapRecord

                writer.write(
                    PcapRecord(
                        timestamp_ps=record.timestamp_ps,
                        data=data,
                        orig_len=record.original_length,
                    )
                )
        print(f"wrote {len(kept)} packets to {args.output}")
    return 0


def telemetry_main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "timeline":
        return timeline_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="osnt-telemetry",
        description=(
            "run a timestamped loopback workload with telemetry armed and "
            "dump the card snapshot (JSON to stdout by default); see the "
            "'timeline' subcommand for sim-time waveform exports"
        ),
    )
    parser.add_argument("--frame-size", type=int, default=256, help="wire bytes incl. FCS")
    parser.add_argument("--rate", default="5Gbps", help='target rate, e.g. "5Gbps"')
    parser.add_argument("--duration-ms", type=float, default=1.0, help="simulated run length")
    parser.add_argument("--replay", metavar="PCAP", help="replay a capture instead")
    parser.add_argument("--json", metavar="FILE", help="write the snapshot here")
    parser.add_argument(
        "--format", choices=("json", "openmetrics"), default="json",
        help="snapshot output format: JSON document (default) or "
        "OpenMetrics text exposition",
    )
    parser.add_argument("--csv", metavar="FILE", help="also write a flat metric,value CSV")
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record and write a Chrome trace_event file (kernel events "
        "plus one span track per packet)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=1 << 16, help="trace ring-buffer slots"
    )
    parser.add_argument(
        "--trace-counters", action="store_true",
        help="also render the metrics-card counters as Chrome counter "
        "tracks in the --trace file (opt-in: default traces stay "
        "byte-identical)",
    )
    parser.add_argument(
        "--histograms", action="store_true",
        help="include full bucket dumps in the JSON, not just summaries",
    )
    parser.add_argument(
        "--status", action="store_true", help="print the dashboard panel to stderr"
    )
    args = parser.parse_args(argv)

    from ..obs import SpanRecorder
    from ..telemetry import (
        Tracer,
        registry_histograms_to_dict,
        snapshot_to_json,
        snapshot_to_openmetrics,
        write_chrome_trace,
        write_snapshot_csv,
    )

    sim = Simulator()
    tracer = spans = None
    if args.trace:
        tracer = Tracer(capacity=args.trace_capacity).arm(sim)
        spans = SpanRecorder().arm(sim)
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    tester.start_telemetry()
    monitor = tester.monitor(1)
    monitor.start_capture()
    generator = tester.generator(0)
    if args.replay:
        generator.load_pcap(args.replay)
    else:
        generator.load_template(build_udp(frame_size=args.frame_size))
        generator.set_rate(parse_rate(args.rate))
    generator.embed_timestamps()
    generator.for_duration(ms(args.duration_ms))
    generator.start()
    sim.run()  # drain the workload
    sim.run(until=sim.now + ms(2))  # let the daemon rate ticks land
    tester.device.stop_telemetry()

    snapshot = tester.snapshot()
    if args.format == "openmetrics":
        # OpenMetrics is flat text: histogram full-bucket dumps do not
        # fit the exposition format, so --histograms only affects JSON.
        document = snapshot_to_openmetrics(snapshot, prefix="osnt")
    else:
        payload = dict(snapshot)
        if args.histograms:
            payload["histograms"] = registry_histograms_to_dict(tester.metrics)
        document = snapshot_to_json(payload) + "\n"
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(document)
    else:
        print(document, end="")
    if args.csv:
        write_snapshot_csv(args.csv, snapshot)
        print(f"wrote metrics CSV to {args.csv}", file=sys.stderr)
    if tracer is not None:
        registry = tester.metrics if args.trace_counters else None
        written = write_chrome_trace(
            args.trace, tracer, span_recorder=spans, registry=registry
        )
        print(
            f"wrote {written} trace events to {args.trace} "
            f"({tracer.evicted} evicted)",
            file=sys.stderr,
        )
    if args.status:
        from .dashboard import render_status

        print(render_status(tester), file=sys.stderr)
    return 0


def timeline_main(argv: Optional[List[str]] = None) -> int:
    """``osnt-telemetry timeline``: sim-time waveform export."""
    parser = argparse.ArgumentParser(
        prog="osnt-telemetry timeline",
        description=(
            "run a workload with the deterministic waveform recorder armed "
            "and export (sim_time, value) timelines: FIFO occupancy, DMA "
            "ring depth, switch queues, per-link utilization"
        ),
    )
    parser.add_argument(
        "--scenario", choices=("loopback", "incast"), default="loopback",
        help="loopback: OSNT tester p0->p1 with capture+DMA; incast: "
        "synchronized burst trains converging on one legacy-switch egress",
    )
    parser.add_argument("--frame-size", type=int, default=256, help="wire bytes incl. FCS")
    parser.add_argument("--rate", default="5Gbps", help="loopback target rate")
    parser.add_argument("--duration-ms", type=float, default=1.0, help="simulated run length")
    parser.add_argument("--senders", type=int, default=3, help="incast senders (1-3)")
    parser.add_argument("--seed", type=int, default=0, help="incast template/switch seed")
    parser.add_argument(
        "--keep-every", type=int, default=1, metavar="K",
        help="decimation: collapse each K committed points to a min/max/"
        "last envelope (1 = keep every state change)",
    )
    parser.add_argument(
        "--capacity", type=int, default=1 << 14, help="retained points per series"
    )
    parser.add_argument(
        "--window-us", type=float, default=10.0,
        help="utilization window for *.wire_bytes rate series, simulated µs",
    )
    parser.add_argument("--csv", metavar="FILE", help="write series,time_ps,value CSV")
    parser.add_argument("--jsonl", metavar="FILE", help="write one point per JSON line")
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write the waveforms as Chrome trace_event counter tracks",
    )
    parser.add_argument(
        "--openmetrics", metavar="FILE",
        help="write last-value gauges as an OpenMetrics exposition",
    )
    parser.add_argument(
        "--digest-only", action="store_true",
        help="print only the recorder digest (for determinism checks)",
    )
    args = parser.parse_args(argv)

    from ..obs import observe_simulators
    from ..telemetry import WaveformRecorder
    from ..units import us

    recorder = WaveformRecorder(
        capacity=args.capacity,
        keep_every=args.keep_every,
        window_ps=max(1, int(us(args.window_us))),
    )
    if args.scenario == "incast":
        from ..testbed.attacks import incast_burst_point

        with observe_simulators(waves=recorder):
            row, __ = incast_burst_point(
                senders=args.senders,
                frame_size=args.frame_size,
                duration_ps=int(ms(args.duration_ms)),
                seed=args.seed,
            )
        headline = (
            f"incast: {row.sent} sent, {row.received} received, "
            f"queue peak {row.queue_peak_bytes} B, "
            f"{row.egress_drops} egress drops"
        )
    else:
        with observe_simulators(waves=recorder):
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            monitor = tester.monitor(1)
            monitor.start_capture()
            generator = tester.generator(0)
            generator.load_template(build_udp(frame_size=args.frame_size))
            generator.set_rate(parse_rate(args.rate))
            generator.embed_timestamps()
            generator.for_duration(ms(args.duration_ms))
            generator.start()
            sim.run()
        headline = (
            f"loopback: {generator.packets_sent} sent, "
            f"{monitor.captured_count} captured"
        )

    digest = recorder.digest()
    if args.digest_only:
        print(digest)
    else:
        rows = []
        for name in recorder.names():
            wf = recorder.get(name)
            points = wf.points()
            values = [v for __, v in points]
            rows.append(
                [
                    name,
                    wf.recorded,
                    len(points),
                    wf.evicted,
                    min(values) if values else "",
                    max(values) if values else "",
                ]
            )
        print(
            format_table(
                ["series", "samples", "points", "evicted", "min", "max"],
                rows,
                title=f"osnt-telemetry timeline ({headline})",
            )
        )
        print(f"waveform digest: {digest}")
    if args.csv:
        points = recorder.write_csv(args.csv)
        print(f"wrote {points} points to {args.csv}", file=sys.stderr)
    if args.jsonl:
        points = recorder.write_jsonl(args.jsonl)
        print(f"wrote {points} points to {args.jsonl}", file=sys.stderr)
    if args.trace:
        from ..telemetry import write_chrome_trace

        written = write_chrome_trace(args.trace, None, waves=recorder)
        print(f"wrote {written} counter events to {args.trace}", file=sys.stderr)
    if args.openmetrics:
        from ..telemetry import snapshot_to_openmetrics

        with open(args.openmetrics, "w") as handle:
            handle.write(snapshot_to_openmetrics(recorder.gauges(), prefix="osnt"))
        print(f"wrote gauges to {args.openmetrics}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(gen_main())
