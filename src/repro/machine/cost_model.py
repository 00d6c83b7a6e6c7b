"""The cost model: estimated cycles of a lowered pipeline on a machine profile.

:func:`estimate_cost` lowers the pipeline (through the compile cache) and
scores the lowered IR with
:func:`repro.analysis.static_cost.analyze_lowered`, which

* charges each (vector) arithmetic operation ``issue_cost * ceil(lanes /
  vector_width)`` cycles,
* classifies every load/store site's cache-line traffic against the
  profile's L1/L2 geometry and charges the latency of the level it lands in
  (scaled down by the profile's latency hiding),
* divides all work inside parallel / GPU loops by the parallelism actually
  available (``min(parallel iterations, cores)``), and
* charges a fixed dispatch overhead per parallel task, so extremely
  fine-grained parallelism is penalized.

Nothing executes.  The result is a deterministic, hardware-free stand-in for
the wall-clock numbers of the paper's Figure 7/8 whose *ordering* of
schedules matches the qualitative claims of Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.machine.profiles import MachineProfile

__all__ = ["CacheStats", "CostReport", "estimate_cost"]


@dataclass
class CacheStats:
    """Estimated hit/miss counts of the two cache levels."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
        }


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


def estimate_cost(pipeline, sizes: Sequence[int],
                  schedule=None, options=None,
                  profile: Optional[MachineProfile] = None,
                  params=None, target=None) -> CostReport:
    """Estimate ``pipeline``'s cost at ``sizes`` and return the report.

    ``pipeline`` is a :class:`repro.pipeline.Pipeline` (or an output Func,
    which is wrapped).  ``schedule`` optionally applies a first-class
    :class:`~repro.core.Schedule` non-destructively; ``target`` (a
    :class:`~repro.runtime.Target`) selects the modeled machine via its
    ``profile``/``vector_width``/``threads`` fields when ``profile`` is not
    given explicitly.  The pipeline is lowered, not run: ``ops``/``loads``/
    ``stores`` equal what the interpreter's
    :class:`~repro.runtime.counters.Counters` would count.
    """
    from repro.analysis.static_cost import analyze_lowered
    from repro.pipeline import Pipeline
    from repro.runtime.target import Target

    if not isinstance(pipeline, Pipeline):
        pipeline = Pipeline(pipeline)
    if profile is None:
        profile = Target.resolve(target).machine_profile()
    compiled = pipeline.compile(sizes, schedule=schedule, options=options,
                                target="interp")
    return analyze_lowered(compiled.lowered, profile, sizes=sizes, params=params)
