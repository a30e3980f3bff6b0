"""Golden digests for the span exports and the tracer's kernel records.

A :class:`~repro.obs.SpanRecorder` records every hop a frame takes
(generator, TX stamp, MAC TX/RX, switch, fault actions, capture, DMA,
host) on the frame's :class:`~repro.obs.PacketSpan`. The digests
below pin both span exports — the JSONL packet stories and the Chrome
trace events — on three scenario points that between them reach the
switch, fault-drop, thinning, DMA-drop and host-delivery outcomes, and
the tracer's kernel events on the E3 point, whose lanes run per packet
under every observability setting. A change to how observations are
recorded must leave every digest identical.

Story rows drop ``packet_ids``: they come from a process-global packet
counter, so they depend on which tests ran earlier in the process.
"""

import hashlib
import json

import pytest

from repro.faults.scenarios import lossy_link_latency_point
from repro.obs import SpanRecorder, observe_simulators
from repro.telemetry import Tracer
from repro.testbed.scenarios import capture_path_point, legacy_latency_point
from repro.units import us

POINTS = {
    "e3_legacy_latency": lambda: legacy_latency_point(
        512, 0.6, duration_ps=us(100)
    ),
    "e6_capture_path": lambda: capture_path_point(
        1.0, variant={"name": "cut+thin", "snaplen": 64, "keep_one_in": 2},
        frame_size=64, duration_ps=us(160), dma_bandwidth_bps=2e8,
    ),
    "lossy_link_latency": lambda: lossy_link_latency_point(
        0.2, burst=2.0, load=0.5, duration_ps=us(60)
    ),
}

#: (stories, chrome events) per point.
GOLDEN_SPANS = {
    "e3_legacy_latency": (
        "2f6668f5e4bb8a96d9b15cb85476ddf85674d7cdae45696e82bf2dd34484b080",
        "21c43f0c83c5c5b808525fd431f3b8cfe25c8c622bfe2bff7568160b5dee4898",
    ),
    "e6_capture_path": (
        "dcb0b40029b3cffa5971f94bae7255dbd430ac87958379e918ac390fc020d42a",
        "86ed2e130a1e298e3b313f9150a6066b9ba723b56f113f5ac02ce81e6e4ef29e",
    ),
    "lossy_link_latency": (
        "85bd3a5e222afa879cbf610cb85a756df8e62ec2baa58bd0f470d5d06507da5d",
        "353d3c7001d22d1d5ec2413f865eec6b0d0060a97d1164208f24c5d10009c16d",
    ),
}

GOLDEN_TRACER_E3 = "5b1057e9ca22fea118e127be9102850c10f273d0299022f9f8e3a15b3d8c8771"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stories_digest(spans: SpanRecorder) -> str:
    rows = []
    for line in spans.stories_jsonl().splitlines():
        row = json.loads(line)
        del row["packet_ids"]
        rows.append(json.dumps(row, sort_keys=True))
    return _sha256("\n".join(rows))


def _events_digest(events) -> str:
    return _sha256(json.dumps(events, sort_keys=True))


@pytest.mark.parametrize("point", sorted(POINTS))
def test_span_exports_are_pinned(point):
    spans = SpanRecorder()
    with observe_simulators(spans=spans):
        POINTS[point]()
    assert spans.started > 0 and spans.evicted == 0
    digests = (_stories_digest(spans), _events_digest(spans.chrome_events()))
    assert digests == GOLDEN_SPANS[point]


def test_tracer_kernel_records_are_pinned():
    tracer = Tracer()
    with observe_simulators(tracer=tracer):
        POINTS["e3_legacy_latency"]()
    assert tracer.evicted == 0
    events = [e for e in tracer.chrome_events() if e["cat"] != "packet"]
    assert {e["cat"] for e in events} == {"kernel"}
    assert _events_digest(events) == GOLDEN_TRACER_E3
