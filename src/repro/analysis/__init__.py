"""Program analyses: interval arithmetic, required-region (box) computation,
call-graph construction, and monotonicity checks.

The paper (Section 4.2) deliberately chooses *interval analysis* over the
polyhedral model: every region is an axis-aligned box whose bounds are
symbolic expressions, which is less expressive but can analyze through any
expression the language can build.
"""

from repro.analysis.interval import Interval, bounds_of_expr_in_scope
from repro.analysis.bounds import Box, box_touched, box_union
from repro.analysis.call_graph import build_environment, realization_order
from repro.analysis.scope import Scope
from repro.analysis.static_cost import (
    StaticAnalysisError,
    StaticCostAnalyzer,
    analyze_lowered,
)

__all__ = [
    "Interval",
    "bounds_of_expr_in_scope",
    "Box",
    "box_touched",
    "box_union",
    "build_environment",
    "realization_order",
    "Scope",
    "StaticAnalysisError",
    "StaticCostAnalyzer",
    "analyze_lowered",
]
