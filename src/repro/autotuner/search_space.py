"""The schedule search space: genomes the genetic algorithm manipulates.

A genome assigns one :class:`FunctionGene` to every (non-output) function of
the pipeline.  Genes are declarative — a small list of domain transformations
plus a call-schedule choice — and are converted to concrete
:class:`~repro.core.schedule.FuncSchedule` objects on demand.  As in the
paper, each function is scheduled identically across all its call sites, block
size arguments are small powers of two, and the number of domain operations
per function is limited to keep generated code bounded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.function import Function
from repro.core.pipeline_schedule import Schedule
from repro.core.schedule import FuncSchedule, ScheduleError

__all__ = ["FunctionGene", "ScheduleGenome", "POWER_OF_TWO_SIZES", "MAX_DOMAIN_OPS"]

#: Block/vector sizes are drawn from small powers of two (Section 5).
POWER_OF_TWO_SIZES = (2, 4, 8, 16, 32, 64)

#: Limit on domain scheduling operations per function, to prevent code explosion.
MAX_DOMAIN_OPS = 4


@dataclass
class FunctionGene:
    """The schedule of one function, in genome form.

    ``call_schedule`` is one of:

    * ``("inline",)``
    * ``("root",)``
    * ``("at", consumer_name, consumer_var)`` — compute (and store) at a loop
      of a consumer;
    * ``("at_store", consumer_name, store_var, compute_var)`` — store at one
      loop, compute at a deeper loop (the sliding-window shape).

    ``domain_ops`` is a list of transformation tuples:

    * ``("split", var, factor[, tail])`` — ``tail`` is a
      :class:`~repro.core.split.TailStrategy` value string (default round-up)
    * ``("tile", xfactor, yfactor)`` — split the two innermost storage dims
    * ``("reorder", (v0, v1, ...))``
    * ``("parallel", var)`` / ``("vectorize", var, width)`` / ``("unroll", var, n)``
    * ``("gpu_tile", xfactor, yfactor)``
    * ``("storage_fold", dim, factor)`` — fold the *storage* dimension ``dim``
      to a ring of ``factor`` entries (legality checked during lowering; an
      illegal fold raises :class:`~repro.core.schedule.ScheduleError`)
    * ``("rdom_outer",)`` — iterate update stages with the RDom loops hoisted
      outermost (soundness checked during lowering; an unsafe interchange
      raises :class:`~repro.core.schedule.ScheduleError`)
    """

    call_schedule: Tuple = ("inline",)
    domain_ops: List[Tuple] = field(default_factory=list)

    def copy(self) -> "FunctionGene":
        return FunctionGene(self.call_schedule, [tuple(op) for op in self.domain_ops])


@dataclass
class ScheduleGenome:
    """A complete candidate schedule: one gene per function (output included)."""

    genes: Dict[str, FunctionGene] = field(default_factory=dict)

    def copy(self) -> "ScheduleGenome":
        return ScheduleGenome({name: gene.copy() for name, gene in self.genes.items()})

    # ------------------------------------------------------------------
    # conversion to concrete schedules
    # ------------------------------------------------------------------
    def to_schedules(self, env: Dict[str, Function],
                     output_name: str) -> Dict[str, FuncSchedule]:
        """Materialize the genome as FuncSchedule overrides for the compiler.

        Raises :class:`~repro.core.schedule.ScheduleError` if any gene is
        inconsistent (unknown dimensions etc.); the tuner treats that as an
        invalid individual and resamples.
        """
        schedules: Dict[str, FuncSchedule] = {}
        for name, gene in self.genes.items():
            func = env.get(name)
            if func is None or func.schedule is None:
                continue
            schedule = FuncSchedule(func.args)
            _apply_gene(schedule, gene, func, output_name)
            schedules[name] = schedule
        return schedules

    def to_schedule(self, env: Dict[str, Function], output_name: str) -> Schedule:
        """Materialize the genome as a first-class :class:`Schedule` value.

        The result is immutable, serializable and digest-keyed, so the
        evaluator's repeated realizations of equal genomes (elites, duplicate
        offspring) hit the pipeline's compilation cache instead of
        re-lowering.  Functions of ``env`` the genome does not cover keep
        their current schedule, matching :meth:`to_schedules` semantics.
        """
        materialized = self.to_schedules(env, output_name)
        for name, func in env.items():
            if name not in materialized and func.schedule is not None:
                materialized[name] = func.schedule
        return Schedule.from_func_schedules(materialized)

    def describe(self) -> str:
        lines = []
        for name in sorted(self.genes):
            gene = self.genes[name]
            lines.append(f"{name}: {gene.call_schedule} {gene.domain_ops}")
        return "\n".join(lines)


def _resolve_dim(schedule: FuncSchedule, var: str, prefer_inner: bool) -> str:
    """Map a storage-dimension name to the loop dimension it currently lives in.

    After a ``tile`` op, the original x/y dimensions have been split; follow-up
    ops referring to "x" target the inner (for vectorize/unroll) or outer (for
    parallel) derived dimension instead of failing.
    """
    if schedule.has_dim(var):
        return var
    candidates = (f"{var}_i", f"{var}_o") if prefer_inner else (f"{var}_o", f"{var}_i")
    for candidate in candidates:
        if schedule.has_dim(candidate):
            return candidate
    raise ScheduleError(f"no loop dimension for {var!r} in {schedule.dim_names()}")


# ----------------------------------------------------------------------
# Lowering genes to table directives (repro.core.schedule.DIRECTIVES).
# Genes elide names; each entry below supplies them — given the schedule so
# far, since ``var`` resolves late — and FuncSchedule.apply does the rest.
# ----------------------------------------------------------------------
def _split(schedule: FuncSchedule, var: str, factor: int, *tail) -> List[Tuple]:
    var = _resolve_dim(schedule, var, prefer_inner=True)
    return [("split", var, f"{var}_o", f"{var}_i", factor, *tail)]


def _tile_dims(schedule: FuncSchedule, kind: str) -> Tuple[str, str]:
    if len(schedule.storage_dims) < 2:
        raise ScheduleError(f"{kind} requires at least two storage dimensions")
    return schedule.storage_dims[0], schedule.storage_dims[1]


def _tile(schedule: FuncSchedule, xfactor: int, yfactor: int) -> List[Tuple]:
    x, y = _tile_dims(schedule, "tile")
    return [("tile", x, y, f"{x}_o", f"{y}_o", f"{x}_i", f"{y}_i", xfactor, yfactor)]


def _gpu_tile(schedule: FuncSchedule, xfactor: int, yfactor: int) -> List[Tuple]:
    x, y = _tile_dims(schedule, "gpu_tile")
    return [("gpu_tile", x, y, f"{x}_thr", f"{y}_thr", xfactor, yfactor)]


def _split_and_mark(mark: str, tag: str):
    """``(mark, var, n)``: mark the dimension if its extent is already ``n``,
    else its ``<var>_<tag>i`` half after a split by ``n``."""
    def lower(schedule: FuncSchedule, var: str, n: int) -> List[Tuple]:
        var = _resolve_dim(schedule, var, prefer_inner=True)
        if schedule.constant_extent(var) == n:
            return [(mark, var)]
        outer, inner = f"{var}_{tag}o", f"{var}_{tag}i"
        return [("split", var, outer, inner, n), (mark, inner)]
    return lower


_DOMAIN_OPS = {
    "split": _split,
    "tile": _tile,
    "gpu_tile": _gpu_tile,
    "vectorize": _split_and_mark("vectorize", "v"),
    "unroll": _split_and_mark("unroll", "u"),
    "parallel": lambda s, var: [("parallel", _resolve_dim(s, var, prefer_inner=False))],
    "reorder": lambda s, order: [("reorder", order)],
    # storage_fold addresses a *storage* dimension: splits rename loop dims
    # but leave storage dims intact, so no _resolve_dim here.
    "storage_fold": lambda s, dim, factor: [("storage_fold", dim, factor)],
    "rdom_outer": lambda s: [("rdom_outer",)],
}

_CALL_SCHEDULES = {
    "inline": lambda: [("compute_inline",)],
    "root": lambda: [("compute_root",)],
    # compute_at also places the (so far unplaced) storage at the same loop.
    "at": lambda consumer, var: [("compute_at", consumer, var)],
    "at_store": lambda consumer, store_var, compute_var: [
        ("store_at", consumer, store_var), ("compute_at", consumer, compute_var)],
}


def _apply_gene(schedule: FuncSchedule, gene: FunctionGene, func: Function,
                output_name: str) -> None:
    """Lower ``gene`` to table directives and replay them onto ``schedule``."""
    for kind, *args in gene.domain_ops[:MAX_DOMAIN_OPS]:
        if kind not in _DOMAIN_OPS:
            raise ScheduleError(f"unknown domain op {kind!r}")
        for directive in _DOMAIN_OPS[kind](schedule, *args):
            schedule.apply(*directive)
    kind, *args = gene.call_schedule
    if func.name == output_name or (kind == "inline" and func.has_updates()):
        kind, args = "root", ()
    if kind not in _CALL_SCHEDULES:
        raise ScheduleError(f"unknown call schedule {kind!r}")
    for directive in _CALL_SCHEDULES[kind](*args):
        schedule.apply(*directive)
