"""The cost model: converts an instrumented execution into estimated cycles.

The model is an :class:`~repro.runtime.counters.ExecutionListener`.  As the
interpreter runs the lowered pipeline it reports arithmetic, loads, stores,
loop structure and allocations; the model

* charges each (vector) arithmetic operation ``issue_cost * ceil(lanes /
  vector_width)`` cycles,
* routes every memory access through the cache simulator and charges the
  latency of the level it hit (scaled down by the profile's latency hiding),
* divides all work inside parallel / GPU loops by the parallelism actually
  available (``min(parallel iterations, cores)``), and
* charges a fixed dispatch overhead per parallel task, so extremely
  fine-grained parallelism is penalized.

The result is a deterministic, hardware-free stand-in for the wall-clock
numbers of the paper's Figure 7/8 whose *ordering* of schedules matches the
qualitative claims of Section 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ir.stmt import ForType
from repro.machine.cache import CacheSimulator, CacheStats
from repro.machine.profiles import MachineProfile, XEON_W3520
from repro.runtime.counters import ExecutionListener

__all__ = ["CostModel", "CostReport", "estimate_cost"]


@dataclass
class CostReport:
    """The outcome of a cost-model run."""

    profile_name: str
    cycles: float
    arithmetic_cycles: float
    memory_cycles: float
    parallel_overhead_cycles: float
    cache: CacheStats
    #: Estimated milliseconds at the profile's clock frequency.
    milliseconds: float
    ops: int = 0
    loads: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, float]:
        result = {
            "profile": self.profile_name,
            "cycles": self.cycles,
            "arithmetic_cycles": self.arithmetic_cycles,
            "memory_cycles": self.memory_cycles,
            "parallel_overhead_cycles": self.parallel_overhead_cycles,
            "milliseconds": self.milliseconds,
            "ops": self.ops,
            "loads": self.loads,
            "stores": self.stores,
        }
        result.update(self.cache.as_dict())
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostReport({self.profile_name}: {self.milliseconds:.3f} ms, "
            f"{self.cycles:.0f} cycles)"
        )


_PARALLEL_TYPES = (ForType.PARALLEL, ForType.GPU_BLOCK, ForType.GPU_THREAD)


class CostModel(ExecutionListener):
    """Accumulates estimated cycles while a pipeline executes."""

    def __init__(self, profile: MachineProfile = XEON_W3520,
                 cache: Optional[CacheSimulator] = None):
        self.profile = profile
        self.cache = cache if cache is not None else CacheSimulator(
            l1_size=profile.l1_size,
            l2_size=profile.l2_size,
            line_bytes=profile.cache_line_bytes,
        )
        self.arithmetic_cycles = 0.0
        self.memory_cycles = 0.0
        self.parallel_overhead_cycles = 0.0
        self.ops = 0
        self.loads = 0
        self.stores = 0
        #: Extents of the currently open parallel loops.
        self._parallel_stack: List[int] = []
        self._parallel_factor = 1.0

    # ------------------------------------------------------------------
    # parallel structure
    # ------------------------------------------------------------------
    def _recompute_factor(self) -> None:
        available = 1
        for extent in self._parallel_stack:
            available *= max(extent, 1)
        self._parallel_factor = float(min(available, self.profile.cores)) or 1.0

    def on_loop_begin(self, name: str, for_type, extent: int) -> None:
        if for_type in _PARALLEL_TYPES:
            # Dispatch overhead (thread-pool enqueue / kernel launch), paid once
            # per entry of the parallel loop by the enclosing context.
            self.parallel_overhead_cycles += (
                self.profile.parallel_task_overhead / self._parallel_factor
            )
            self._parallel_stack.append(max(extent, 1))
            self._recompute_factor()

    def on_loop_end(self, name: str, for_type, extent: int) -> None:
        if for_type in _PARALLEL_TYPES and self._parallel_stack:
            self._parallel_stack.pop()
            self._recompute_factor()

    # ------------------------------------------------------------------
    # work
    # ------------------------------------------------------------------
    def on_arith(self, count: int, lanes: int) -> None:
        self.ops += count * lanes
        issues = count * math.ceil(lanes / self.profile.vector_width)
        self.arithmetic_cycles += issues * self.profile.issue_cost / self._parallel_factor

    def _memory_access(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        latencies = {1: self.profile.l1_latency, 2: self.profile.l2_latency,
                     3: self.profile.memory_latency}
        if isinstance(index, np.ndarray):
            # One cache access per distinct line touched by the vector.
            indices = np.unique(index // max(1, self.cache.line_bytes // element_bytes))
            cost = 0.0
            for line_index in indices:
                level = self.cache.access(buffer, int(line_index) *
                                          (self.cache.line_bytes // element_bytes),
                                          element_bytes)
                cost += latencies[level]
        else:
            level = self.cache.access(buffer, int(index), element_bytes)
            cost = latencies[level]
        hidden = self.profile.latency_hiding
        self.memory_cycles += cost * (1.0 - hidden) / self._parallel_factor

    def on_load(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        self.loads += lanes
        self._memory_access(buffer, index, lanes, element_bytes)

    def on_store(self, buffer: str, index, lanes: int, element_bytes: int) -> None:
        self.stores += lanes
        self._memory_access(buffer, index, lanes, element_bytes)

    def on_allocate(self, buffer: str, size: int, element_bytes: int) -> None:
        self.cache.register_buffer(buffer, size * element_bytes)

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def report(self) -> CostReport:
        cycles = self.arithmetic_cycles + self.memory_cycles + self.parallel_overhead_cycles
        milliseconds = cycles / (self.profile.frequency_ghz * 1e6)
        return CostReport(
            profile_name=self.profile.name,
            cycles=cycles,
            arithmetic_cycles=self.arithmetic_cycles,
            memory_cycles=self.memory_cycles,
            parallel_overhead_cycles=self.parallel_overhead_cycles,
            cache=self.cache.stats,
            milliseconds=milliseconds,
            ops=self.ops,
            loads=self.loads,
            stores=self.stores,
        )


def estimate_cost(pipeline, sizes: Sequence[int],
                  schedule=None, options=None,
                  profile: Optional[MachineProfile] = None,
                  params=None, inputs=None, target=None,
                  mode: str = "dynamic") -> CostReport:
    """Estimate ``pipeline``'s cost at ``sizes`` and return the report.

    ``pipeline`` is a :class:`repro.pipeline.Pipeline` (or an output Func,
    which is wrapped).  ``schedule`` optionally applies a first-class
    :class:`~repro.core.Schedule` non-destructively; ``target`` (a
    :class:`~repro.runtime.Target`) selects the modeled machine via its
    ``profile``/``vector_width``/``threads`` fields when ``profile`` is not
    given explicitly.

    ``mode="dynamic"`` (the default here) runs the pipeline on the
    interpreter and charges per-operation events — exact but slow.
    ``mode="static"`` delegates to
    :func:`repro.analysis.static_cost.estimate_cost_static`, which scores the
    lowered IR without executing anything (same op/load/store counts,
    orders of magnitude faster); it ignores ``inputs`` since nothing runs.
    """
    from repro.pipeline import Pipeline
    from repro.runtime.target import Target

    if mode == "static":
        from repro.analysis.static_cost import estimate_cost_static

        return estimate_cost_static(pipeline, sizes, schedule=schedule,
                                    options=options, params=params,
                                    profile=profile, target=target)
    if mode != "dynamic":
        raise ValueError(f"unknown cost-model mode {mode!r}; "
                         "expected 'static' or 'dynamic'")
    if not isinstance(pipeline, Pipeline):
        pipeline = Pipeline(pipeline)
    if profile is None:
        profile = Target.resolve(target).machine_profile() if target is not None \
            else XEON_W3520
    model = CostModel(profile)
    # Pinned to the interpreter backend regardless of the target's backend:
    # the cost model charges per-operation events, which the batched NumPy
    # backend does not report exactly.
    compiled = pipeline.compile(sizes, schedule=schedule, target="interp",
                                options=options)
    compiled.run(params=params, inputs=inputs, listeners=[model])
    return model.report()
