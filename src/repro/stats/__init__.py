"""Measurement plumbing: counters, latency records, report tables."""

from repro.stats.counters import LatencyStats, ReplayStats
from repro.stats.report import format_table

__all__ = ["LatencyStats", "ReplayStats", "format_table"]
