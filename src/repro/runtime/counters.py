"""Execution instrumentation.

The executor reports every loop, arithmetic operation, load and store to a set
of listeners.  :class:`Counters` is the basic listener: the trade-off metrics
of Figure 3 build on the same events, and its ``arith_ops``/``loads``/
``stores`` are the executed reference the static cost model
(:mod:`repro.analysis.static_cost`) is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["ExecutionListener", "Counters"]


class ExecutionListener:
    """Interface for observers of pipeline execution.  All methods are optional."""

    def on_loop_begin(self, name: str, for_type, extent: int) -> None:
        """A loop is entered (once per loop, not per iteration)."""

    def on_loop_end(self, name: str, for_type, extent: int) -> None:
        """A loop is exited."""

    def on_produce(self, name: str) -> None:
        """Computation of a stage begins."""

    def on_arith(self, count: int, lanes: int) -> None:
        """``count`` arithmetic operations of ``lanes`` vector lanes were issued."""

    def on_load(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        """A load from ``buffer`` at flat index ``index`` (scalar or per-lane array)."""

    def on_store(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        """A store to ``buffer`` at flat index ``index``."""

    def on_allocate(self, buffer: str, size: int, element_bytes: int) -> None:
        """A buffer of ``size`` elements was allocated."""

    def on_free(self, buffer: str) -> None:
        """A buffer went out of scope."""


@dataclass
class Counters(ExecutionListener):
    """Aggregate operation counters for one pipeline execution."""

    arith_ops: int = 0
    vector_ops: int = 0
    scalar_ops: int = 0
    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    loops_entered: int = 0
    allocations: int = 0
    peak_allocated_bytes: int = 0
    #: Per-buffer peak: the largest allocation each Func's storage ever
    #: reached.  With storage folding this is the folded size — the number
    #: that must stay constant as a stream grows, asserted per stage rather
    #: than inferred from the total.
    peak_allocated_by_buffer: Dict[str, int] = field(default_factory=dict)
    _live_bytes: int = 0
    _live_sizes: Dict[str, int] = field(default_factory=dict)
    per_stage_ops: Dict[str, int] = field(default_factory=dict)
    _current_stage: str = ""

    def on_loop_begin(self, name: str, for_type, extent: int) -> None:
        self.loops_entered += 1

    def on_produce(self, name: str) -> None:
        self._current_stage = name

    def on_arith(self, count: int, lanes: int) -> None:
        self.arith_ops += count * lanes
        if lanes > 1:
            self.vector_ops += count
        else:
            self.scalar_ops += count
        if self._current_stage:
            self.per_stage_ops[self._current_stage] = (
                self.per_stage_ops.get(self._current_stage, 0) + count * lanes
            )

    def on_load(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        self.loads += lanes
        self.bytes_loaded += lanes * element_bytes

    def on_store(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        self.stores += lanes
        self.bytes_stored += lanes * element_bytes

    def on_allocate(self, buffer: str, size: int, element_bytes: int) -> None:
        self.allocations += 1
        nbytes = size * element_bytes
        self._live_bytes += nbytes
        self._live_sizes[buffer] = nbytes
        self.peak_allocated_bytes = max(self.peak_allocated_bytes, self._live_bytes)
        self.peak_allocated_by_buffer[buffer] = max(
            self.peak_allocated_by_buffer.get(buffer, 0), nbytes)

    def on_free(self, buffer: str) -> None:
        self._live_bytes -= self._live_sizes.pop(buffer, 0)

    def summary(self) -> Dict[str, int]:
        """A plain-dict snapshot (used by benchmark reports)."""
        return {
            "arith_ops": self.arith_ops,
            "vector_ops": self.vector_ops,
            "scalar_ops": self.scalar_ops,
            "loads": self.loads,
            "stores": self.stores,
            "bytes_loaded": self.bytes_loaded,
            "bytes_stored": self.bytes_stored,
            "loops_entered": self.loops_entered,
            "allocations": self.allocations,
            "peak_allocated_bytes": self.peak_allocated_bytes,
            "peak_allocated_by_buffer": dict(self.peak_allocated_by_buffer),
        }
