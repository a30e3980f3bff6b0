"""Measurement analysis: latency extraction, statistics, reports."""

from .fct import fct_report
from .flowstats import FlowAccounting, FlowRecord, flows_from_capture, merge_captures
from .latency import (
    LatencyResult,
    LossResult,
    latency_from_capture,
    loss_from_sequence_numbers,
)
from .report import format_microseconds, format_table, print_table
from .stats import (
    SummaryStats,
    gap_jitter_std,
    percentile,
    rfc3550_jitter,
)

__all__ = [
    "FlowAccounting",
    "FlowRecord",
    "LatencyResult",
    "LossResult",
    "SummaryStats",
    "fct_report",
    "flows_from_capture",
    "format_microseconds",
    "format_table",
    "gap_jitter_std",
    "latency_from_capture",
    "merge_captures",
    "loss_from_sequence_numbers",
    "percentile",
    "print_table",
    "rfc3550_jitter",
]
