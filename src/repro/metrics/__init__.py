"""Pipeline statistics (Figure 6) and schedule trade-off metrics (Figure 3)."""

from repro.metrics.pipeline_stats import PipelineStats, analyze_pipeline
from repro.metrics.tradeoff import (
    TradeoffMetrics,
    TradeoffReport,
    measure_tradeoffs,
)

__all__ = [
    "PipelineStats",
    "analyze_pipeline",
    "TradeoffMetrics",
    "TradeoffReport",
    "measure_tradeoffs",
]
