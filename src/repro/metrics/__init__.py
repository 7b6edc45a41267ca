"""Metrics collection and reporting."""

from repro.metrics.collector import Collector, FlowRecord
from repro.metrics.reporting import (
    failure_breakdown_rows,
    improvement,
    render_table,
)
from repro.metrics.resilience import (
    PhaseStats,
    ResilienceProbe,
    ResilienceSummary,
)
from repro.metrics.timeline import (
    RatioTimeline,
    Sample,
    WindowedRateSampler,
    track_hit_rate,
)

__all__ = [
    "Collector",
    "FlowRecord",
    "render_table",
    "improvement",
    "failure_breakdown_rows",
    "Sample",
    "WindowedRateSampler",
    "RatioTimeline",
    "track_hit_rate",
    "PhaseStats",
    "ResilienceProbe",
    "ResilienceSummary",
]
