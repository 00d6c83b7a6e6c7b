"""Trade-off metrics for schedules: span, maximum reuse distance, work amplification.

These are the three columns of Figure 3 in the paper, which quantify how each
scheduling strategy trades parallelism, locality and redundant work:

* **span** — how many threads / SIMD lanes could be kept busy doing useful
  work, measured as total work divided by the work on the critical path (loops
  serialized by sliding-window reuse or reduction order contribute to the
  critical path; data-parallel loops do not);
* **maximum reuse distance** — the largest number of operations between a value
  being produced and read back, a proxy for how much fast memory is needed to
  exploit producer-consumer locality;
* **work amplification** — arithmetic operations relative to the breadth-first
  schedule of the same pipeline (redundant recomputation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set

import numpy as np

from repro.runtime.counters import ExecutionListener

__all__ = ["TradeoffMetrics", "TradeoffReport", "measure_tradeoffs",
           "static_total_ops"]


@dataclass
class TradeoffReport:
    """The Figure 3 metrics for one (pipeline, schedule) pair."""

    total_ops: int
    span: float
    max_reuse_distance: int
    peak_footprint_bytes: int
    work_amplification: Optional[float] = None

    def as_row(self) -> Dict[str, object]:
        return {
            "ops": self.total_ops,
            "span": self.span,
            "max_reuse_distance": self.max_reuse_distance,
            "peak_footprint_bytes": self.peak_footprint_bytes,
            "work_amplification": self.work_amplification,
        }


class TradeoffMetrics(ExecutionListener):
    """Execution listener computing span and reuse distance.

    ``serialized_loops`` are loop names whose iterations cannot run in parallel
    (sliding-window loops, reduction loops); every other loop of a pure stage
    is data parallel by construction of the language.
    """

    def __init__(self, serialized_loops: Iterable[str] = ()):
        self.serialized_loops: Set[str] = set(serialized_loops)
        self.total_ops = 0
        self.critical_ops = 0.0
        self.max_reuse_distance = 0
        self.peak_footprint_bytes = 0
        self._live_bytes = 0
        self._live_sizes: Dict[str, int] = {}
        self._parallel_capacity = 1.0
        self._capacity_stack = []
        self._last_write: Dict[tuple, int] = {}

    # -- loop structure -----------------------------------------------------
    def _is_serialized(self, name: str) -> bool:
        if name in self.serialized_loops:
            return True
        # Update-stage loops (reductions, scans) are serialized by definition;
        # their loop names carry the ".s<stage>." marker added by lowering.
        parts = name.split(".")
        return any(p.startswith("s") and p[1:].isdigit() for p in parts[1:-1] or parts[1:])

    def on_loop_begin(self, name: str, for_type, extent: int) -> None:
        multiplier = 1 if self._is_serialized(name) else max(int(extent), 1)
        self._capacity_stack.append(multiplier)
        self._parallel_capacity *= multiplier

    def on_loop_end(self, name: str, for_type, extent: int) -> None:
        if self._capacity_stack:
            self._parallel_capacity /= self._capacity_stack.pop()

    # -- work and locality -----------------------------------------------------
    def on_arith(self, count: int, lanes: int) -> None:
        work = count * lanes
        self.total_ops += work
        self.critical_ops += work / max(self._parallel_capacity, 1.0)

    def on_store(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        for idx in _indices(index):
            self._last_write[(buffer, idx)] = self.total_ops

    def on_load(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        for idx in _indices(index):
            written_at = self._last_write.get((buffer, idx))
            if written_at is not None:
                distance = self.total_ops - written_at
                if distance > self.max_reuse_distance:
                    self.max_reuse_distance = distance

    def on_allocate(self, buffer: str, size: int, element_bytes: int) -> None:
        nbytes = size * element_bytes
        self._live_bytes += nbytes
        self._live_sizes[buffer] = nbytes
        self.peak_footprint_bytes = max(self.peak_footprint_bytes, self._live_bytes)

    def on_free(self, buffer: str) -> None:
        self._live_bytes -= self._live_sizes.pop(buffer, 0)

    # -- result ------------------------------------------------------------
    def report(self) -> TradeoffReport:
        span = self.total_ops / self.critical_ops if self.critical_ops > 0 else 1.0
        return TradeoffReport(
            total_ops=self.total_ops,
            span=span,
            max_reuse_distance=self.max_reuse_distance,
            peak_footprint_bytes=self.peak_footprint_bytes,
        )


def _indices(index):
    if isinstance(index, np.ndarray):
        return [int(i) for i in index.ravel()]
    return [int(index)]


def measure_tradeoffs(pipeline, sizes: Sequence[int], schedule=None, options=None,
                      params=None, inputs=None,
                      baseline_ops: Optional[int] = None) -> TradeoffReport:
    """Run a pipeline under the trade-off metrics listener and return the report.

    ``schedule`` optionally applies a first-class :class:`~repro.core.Schedule`
    non-destructively, so one un-mutated algorithm graph can be measured under
    every candidate schedule.  ``baseline_ops`` (the operation count of the
    breadth-first schedule) turns the absolute operation count into the
    work-amplification column of Figure 3.
    """
    from repro.pipeline import Pipeline

    if not isinstance(pipeline, Pipeline):
        pipeline = Pipeline(pipeline)
    # Pinned to the interpreter: these metrics consume the exact per-operation
    # event stream, which the batched NumPy backend does not report.  One
    # (cached) compilation supplies both the slide set and the execution.
    compiled = pipeline.compile(sizes, schedule=schedule, options=options,
                                target="interp")
    metrics = TradeoffMetrics(serialized_loops=set(compiled.lowered.slides.values()))
    compiled.run(listeners=[metrics], params=params, inputs=inputs)
    report = metrics.report()
    if baseline_ops:
        report.work_amplification = report.total_ops / baseline_ops
    return report


def static_total_ops(pipeline, sizes: Sequence[int], schedule=None, options=None,
                     params=None) -> int:
    """The exact operation count of a (pipeline, schedule) pair — statically.

    The work-amplification column of Figure 3 only needs ``total_ops``, and
    the static IR cost model counts exactly what :class:`TradeoffMetrics`
    accumulates from the interpreter's ``on_arith`` events — so amplification
    sweeps over many candidate schedules can skip interpretation entirely.
    Span and reuse distance still require the event stream: use
    :func:`measure_tradeoffs` for the full report.
    """
    from repro.analysis.static_cost import estimate_cost_static

    return estimate_cost_static(pipeline, sizes, schedule=schedule,
                                options=options, params=params).ops
