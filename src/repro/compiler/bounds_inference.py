"""Bounds inference (Section 4.2 of the paper).

After lowering, loop bounds and allocation sizes refer to symbolic bounds
variables (``f.x.min``, ``f.x.extent``, ``f.x.min_realized``...).  This pass
walks the loop nest and injects let-statements defining them:

* at each **Realize** site, the allocation bounds are the box of coordinates
  touched anywhere inside the realization (calls from all consumers plus the
  footprint of the function's own update definitions);
* at each **produce/consume** site, the computed region is the box required by
  the consuming code at that loop level, evaluated by interval analysis of the
  index expressions of every call, given the bounds of all loops *inside* the
  site (loops outside remain free variables, so the definitions act as a
  preamble evaluated at each iteration of the enclosing loops — exactly the
  dynamic bounds evaluation the paper describes).

The output function's bounds are not inferred: they are free symbols bound by
the runtime to the requested output region.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.bounds import Box, _BoxCollector, box_union
from repro.analysis.interval import Interval, bounds_of_expr_in_scope, interval_union
from repro.analysis.scope import Scope
from repro.compiler.schedule_functions import bound_var
from repro.core.function import Function
from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.ir.mutator import IRMutator
from repro.ir.names import NameIndex

__all__ = ["bounds_inference", "BoundsError", "update_footprint"]


class BoundsError(RuntimeError):
    """Raised when a required region cannot be bounded."""


def update_footprint(func: Function) -> Optional[List[Interval]]:
    """The box written by a function's update definitions, one interval per dim.

    Dimensions whose coordinate expression is just a pure variable (or whose
    bounds cannot be determined) get an unbounded interval, meaning "no larger
    than the required region"; scatter dimensions (e.g. a histogram bucket
    index) get the interval implied by the scattering expression.
    """
    if not func.updates:
        return None
    result: List[Interval] = [Interval.everything() for _ in func.args]
    any_bounded = False
    for update in func.updates:
        scope: Scope = Scope()
        if update.rdom is not None:
            for rvar in update.rdom.variables:
                scope.push(rvar.name, Interval(rvar.min, rvar.min + rvar.extent - 1))
        for i, arg in enumerate(update.args):
            if isinstance(arg, E.Variable) and arg.name in func.args:
                continue  # covered by the required region
            interval = bounds_of_expr_in_scope(arg, scope)
            if interval.is_bounded():
                any_bounded = True
                if result[i].is_everything():
                    result[i] = interval
                else:
                    result[i] = interval_union(result[i], interval)
    return result if any_bounded else None


def _box_with_footprint(box: Optional[Box], footprint: Optional[List[Interval]],
                        dims: int) -> Optional[Box]:
    if footprint is None:
        return box
    if box is None:
        return Box(footprint)
    merged = []
    for i in range(dims):
        extra = footprint[i]
        if extra.is_bounded():
            merged.append(interval_union(box[i], extra))
        else:
            merged.append(box[i])
    return Box(merged)


def _define_bounds(name: str, dims: Sequence[str], box: Box, body: S.Stmt,
                   suffix_min: str, suffix_max: str, suffix_extent: str) -> S.Stmt:
    """Wrap ``body`` in let-statements defining a function's bounds from ``box``."""
    lets = []
    for dim, interval in zip(dims, box):
        if interval.min is None or interval.max is None:
            raise BoundsError(
                f"the required region of {name!r} along {dim!r} is unbounded; "
                "clamp the index expressions that read it (see Section 4.2 of the paper)"
            )
        min_name = f"{name}.{dim}.{suffix_min}"
        max_name = f"{name}.{dim}.{suffix_max}"
        extent_name = f"{name}.{dim}.{suffix_extent}"
        extent_value = (
            E.Variable(max_name, interval.max.type.element_of())
            - E.Variable(min_name, interval.min.type.element_of())
            + 1
        )
        lets.append((extent_name, extent_value))
        lets.append((max_name, interval.max))
        lets.append((min_name, interval.min))
    for let_name, let_value in lets:
        body = S.LetStmt(let_name, let_value, body)
    return body


class _BoundsInference(IRMutator):
    def __init__(self, env: Dict[str, Function], output_names: Set[str]):
        self.env = env
        self.output_names = output_names
        self._footprints: Dict[str, Optional[List[Interval]]] = {}
        # Shared by every box walk of this pass: each walk queries the
        # subtrees the previous (inner) walks already summarised.
        self._names = NameIndex()

    def _box_touched(self, node: S.Stmt, name: str) -> Optional[Box]:
        """The box of ``name`` read inside ``node`` (``box_touched`` on the shared index)."""
        collector = _BoxCollector({name}, Scope(), True, False, self._names)
        collector.walk(node)
        return collector.boxes.get(name)

    def _footprint(self, name: str) -> Optional[List[Interval]]:
        if name not in self._footprints:
            func = self.env.get(name)
            self._footprints[name] = update_footprint(func) if func is not None else None
        return self._footprints[name]

    # -- allocation bounds at Realize sites --------------------------------
    def visit_Realize(self, node: S.Realize):
        # Mutate the body first so that bounds definitions of nested stages are
        # already in place; the box computation below then resolves their loop
        # bounds instead of treating them as free symbols.
        body = self.mutate(node.body)
        result = S.Realize(node.name, node.type, node.bounds, body)
        if node.name in self.output_names or node.name not in self.env:
            return result
        func = self.env[node.name]
        box = self._box_touched(body, node.name)
        box = _box_with_footprint(box, self._footprint(node.name), func.dimensions())
        if box is None:
            raise BoundsError(f"{node.name!r} is realized but never used")
        return _define_bounds(node.name, func.args, box, result,
                              "min_realized", "max_realized", "extent_realized")

    # -- computed-region bounds at produce/consume sites --------------------
    def visit_Block(self, node: S.Block):
        new_stmts = [self.mutate(s) for s in node.stmts]
        result = S.Block(new_stmts)

        produced_here = []
        for s in new_stmts:
            if isinstance(s, S.ProducerConsumer) and s.is_producer:
                if s.name not in self.output_names and s.name in self.env:
                    produced_here.append(s.name)
        block_stmts = list(new_stmts)
        for name in produced_here:
            func = self.env[name]
            # The region computed must cover the region consumed by subsequent
            # stages: the box comes from the consume side only (reads the
            # producer makes of itself in update definitions do not grow the
            # region it must initialize, only its allocation).
            box = None
            for s in block_stmts:
                if isinstance(s, S.ProducerConsumer) and not s.is_producer and s.name == name:
                    box = box_union(box, self._box_touched(s, name))
            box = _box_with_footprint(box, self._footprint(name), func.dimensions())
            if box is None:
                raise BoundsError(f"{name!r} is computed but never used")
            result = _define_bounds(name, func.args, box, result, "min", "max", "extent")
        return result


def bounds_inference(stmt: S.Stmt, env: Dict[str, Function],
                     output_names: Sequence[str]) -> S.Stmt:
    """Inject definitions for every symbolic bound variable in ``stmt``."""
    return _BoundsInference(env, set(output_names)).mutate(stmt)
