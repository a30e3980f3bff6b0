"""Telemetry metric costs: histogram records and registry snapshots.

Not a paper experiment — pytest-benchmark timings of the two metric
paths every card exercises: an O(1) log-linear histogram record, and
one ``snapshot()`` read of a 100-metric registry. The tracer's overhead
budget lives with the other recorders' in ``test_perf_obs.py``.
"""

from repro.telemetry import LogLinearHistogram, MetricsRegistry


def test_histogram_record_throughput(benchmark):
    """O(1) record: 100k observations through the log-linear histogram."""
    values = [(i * 2_654_435_761) % 1_000_000_000 for i in range(100_000)]

    def run():
        histogram = LogLinearHistogram(unit="ps")
        record = histogram.record
        for value in values:
            record(value)
        return histogram.count

    count = benchmark(run)
    assert count == len(values)


def test_snapshot_cost_scales_with_registry(benchmark):
    """One snapshot of a 100-metric registry stays microseconds-cheap."""
    registry = MetricsRegistry("card")
    for index in range(80):
        registry.counter(f"c{index}").inc(index)
    for index in range(15):
        registry.gauge(f"g{index}", source=lambda index=index: index * 1.5)
    for index in range(5):
        histogram = registry.histogram(f"h{index}", unit="ps")
        for value in range(0, 10_000, 7):
            histogram.record(value)

    snapshot = benchmark(registry.snapshot)
    assert len(snapshot) == 100
