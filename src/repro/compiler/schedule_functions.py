"""Lowering / loop synthesis (Section 4.1 of the paper).

Lowering starts from the output function and builds a loop nest covering the
required region of the output, whose body evaluates the function at a single
point (a :class:`~repro.ir.stmt.Provide`).  It then proceeds recursively up
the pipeline, injecting the storage (:class:`~repro.ir.stmt.Realize`) and
computation (produce nests) of each earlier stage at the loop levels given by
its call schedule.

Loop bounds are left as symbolic expressions of the required region of each
function (``<f>.<dim>.min`` / ``<f>.<dim>.extent``); bounds inference resolves
them afterwards.  Split dimensions round the traversed domain up to a multiple
of the split factor, exactly as the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.compiler.substitute import substitute
from repro.core.function import Function
from repro.core.loop_level import LoopLevel
from repro.core.schedule import FuncSchedule, ScheduleError
from repro.core.split import Split, TailStrategy
from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.ir.names import NameIndex
from repro.ir.visitor import IRVisitor
from repro.types import Int

__all__ = [
    "build_loop_nest",
    "produce_nest",
    "schedule_functions",
    "realize_bounds_for",
    "loop_var_name",
    "bound_var",
]


# ---------------------------------------------------------------------------
# naming conventions
# ---------------------------------------------------------------------------

def loop_var_name(func_name: str, dim: str, stage: int = 0) -> str:
    """The IR name of a loop variable of a function's stage."""
    if stage == 0:
        return f"{func_name}.{dim}"
    return f"{func_name}.s{stage}.{dim}"


def bound_var(func_name: str, dim: str, which: str) -> E.Variable:
    """A symbolic bound variable (``which`` in {min, max, extent, min_realized, ...})."""
    return E.Variable(f"{func_name}.{dim}.{which}", Int(32))


# ---------------------------------------------------------------------------
# loop-bound expressions for (possibly split) dimensions
# ---------------------------------------------------------------------------

def _extent_of_dim(func: Function, schedule: FuncSchedule, var: str) -> E.Expr:
    """The loop extent of a dimension, accounting for splits (rounding up)."""
    for s in schedule.splits:
        if s.inner == var:
            return op.const(s.factor)
        if s.outer == var:
            old_extent = _extent_of_dim(func, schedule, s.old)
            return (old_extent + (s.factor - 1)) / s.factor
    # A root storage dimension.
    return bound_var(func.name, var, "extent")


def _min_of_dim(func: Function, schedule: FuncSchedule, var: str) -> E.Expr:
    for s in schedule.splits:
        if s.inner == var or s.outer == var:
            return op.const(0)
    return bound_var(func.name, var, "min")


def realize_bounds_for(func: Function, which: str = "realized") -> List:
    """The (min, extent) expression pairs used for a function's Realize node.

    Extents are rounded up to a multiple of the product of split factors along
    each storage dimension so that the rounded-up traversal of split loops
    stays in bounds.
    """
    schedule = func.schedule
    bounds = []
    for dim in schedule.storage_dims:
        min_expr = bound_var(func.name, dim, "min_realized" if which == "realized" else "min")
        extent_expr = bound_var(
            func.name, dim, "extent_realized" if which == "realized" else "extent"
        )
        if schedule.is_split(dim):
            if which == "realized":
                # The computed region may start anywhere inside the stored
                # region, and split loops round their traversal up, so pad
                # the allocation by the worst-case traversal overshoot.
                pad = schedule.split_padding(dim)
                if pad:
                    extent_expr = extent_expr + pad
            else:
                extent_expr = _rounded_extent_expr(schedule, dim, extent_expr)
        bounds.append((min_expr, extent_expr))
    return bounds


def _rounded_extent_expr(schedule: FuncSchedule, var: str, extent_expr: E.Expr) -> E.Expr:
    """Symbolic form of :meth:`FuncSchedule.rounded_extent`: the contiguous
    region the rounded-up traversal of ``var``'s split chain covers.

    Follows both the outer chain (tile counts round up) and the inner chain
    (a re-split inner dimension makes each tile cover more than its stride) —
    a single multiplicative round-up factor is not sound for the latter.
    """
    split = schedule.split_children(var)
    if split is None:
        return extent_expr
    tiles = _rounded_extent_expr(
        schedule, split.outer, (extent_expr + (split.factor - 1)) / split.factor)
    inner_cover = schedule.rounded_extent(split.inner, split.factor)
    return (tiles - 1) * split.factor + inner_cover


# ---------------------------------------------------------------------------
# building the loop nest of a single stage
# ---------------------------------------------------------------------------

def _pure_var_substitutions(func: Function) -> Dict[str, E.Expr]:
    return {
        arg: E.Variable(loop_var_name(func.name, arg), Int(32)) for arg in func.args
    }


def _wrap_split_lets(func: Function, schedule: FuncSchedule, body: S.Stmt,
                     stage: int) -> S.Stmt:
    """Add the let-statements reconstituting split dimensions.

    For a split ``old -> outer, inner`` the original coordinate is
    ``old = old_min + outer * factor + inner`` (``old_min`` only when ``old``
    is a root storage dimension, since derived dimensions are zero-based).
    """
    for split in schedule.splits:
        outer = E.Variable(loop_var_name(func.name, split.outer, stage), Int(32))
        inner = E.Variable(loop_var_name(func.name, split.inner, stage), Int(32))
        value = outer * split.factor + inner
        if split.old in schedule.storage_dims:
            value = bound_var(func.name, split.old, "min") + value
        body = S.LetStmt(loop_var_name(func.name, split.old, stage), value, body)
    return body


def _guard_conditions(func: Function, schedule: FuncSchedule) -> Optional[E.Expr]:
    """The combined bounds guard required by GUARD_WITH_IF splits (or None)."""
    condition = None
    guarded_roots = set()
    for split in schedule.splits:
        if split.tail == TailStrategy.GUARD_WITH_IF:
            guarded_roots.add(schedule.root_of(split.old))
    for root in sorted(guarded_roots):
        coord = E.Variable(loop_var_name(func.name, root), Int(32))
        check = coord <= bound_var(func.name, root, "max")
        condition = check if condition is None else (condition & check)
    return condition


def build_loop_nest(func: Function, stage: int) -> S.Stmt:
    """The loop nest evaluating one stage (0 = pure definition, >=1 = updates)."""
    if stage == 0:
        return _build_pure_loop_nest(func)
    return _build_update_loop_nest(func, stage)


def _build_pure_loop_nest(func: Function) -> S.Stmt:
    schedule = func.schedule
    substitutions = _pure_var_substitutions(func)
    value = substitute(func.definition.value, substitutions)
    args = [substitutions[a] for a in func.args]
    body: S.Stmt = S.Provide(func.name, value, args)

    guard = _guard_conditions(func, schedule)
    if guard is not None:
        body = S.IfThenElse(guard, body)

    body = _wrap_split_lets(func, schedule, body, stage=0)

    for dim in schedule.dims:  # innermost first
        body = S.For(
            loop_var_name(func.name, dim.var),
            _min_of_dim(func, schedule, dim.var),
            _extent_of_dim(func, schedule, dim.var),
            dim.for_type,
            body,
        )
    return body


def _build_update_loop_nest(func: Function, stage: int) -> S.Stmt:
    update = func.updates[stage - 1]
    schedule = func.schedule

    substitutions: Dict[str, E.Expr] = {}
    free_pure = update.free_pure_vars(func.args)
    for arg in free_pure:
        substitutions[arg] = E.Variable(loop_var_name(func.name, arg, stage), Int(32))
    rdom = update.rdom
    rvar_loops = []
    if rdom is not None:
        for rvar in rdom.variables:
            loop_name = loop_var_name(func.name, rvar.name, stage)
            substitutions[rvar.name] = E.Variable(loop_name, Int(32))
            rvar_loops.append((loop_name, rvar.min, rvar.extent))

    args = [substitute(a, substitutions) for a in update.args]
    value = substitute(update.value, substitutions)
    body: S.Stmt = S.Provide(func.name, value, args)

    def pure_loop(inner: S.Stmt, arg: str, for_type: S.ForType) -> S.Stmt:
        # Free pure variables loop over the stage's required region.
        return S.For(
            loop_var_name(func.name, arg, stage),
            bound_var(func.name, arg, "min"),
            bound_var(func.name, arg, "extent"),
            for_type,
            inner,
        )

    if schedule.rdom_is_outer and rvar_loops:
        # Interchanged nest: pure-variable loops innermost (first argument
        # innermost), reduction loops hoisted outside.  Sound only when
        # pure-var points are independent — validated here; violations are
        # documented-illegal schedules (ScheduleError), not findings.
        _validate_rdom_outer(func, update, free_pure)
        for arg in free_pure:
            body = pure_loop(body, arg, _hoisted_for_type(schedule, arg))
        for loop_name, mn, extent in rvar_loops:
            mn = substitute(mn, substitutions)
            extent = substitute(extent, substitutions)
            body = S.For(loop_name, mn, extent, S.ForType.SERIAL, body)
        return body

    # Reduction-domain loops, first variable innermost (lexicographic order).
    for loop_name, mn, extent in rvar_loops:
        mn = substitute(mn, substitutions)
        extent = substitute(extent, substitutions)
        body = S.For(loop_name, mn, extent, S.ForType.SERIAL, body)

    # Free pure variables become outer loops over the stage's required region.
    for arg in free_pure:
        body = pure_loop(body, arg, S.ForType.SERIAL)
    return body


def _hoisted_for_type(schedule: FuncSchedule, arg: str) -> S.ForType:
    """The for-type of a hoisted update-stage pure loop.

    Update stages ignore the pure stage's splits, but a PARALLEL marking on
    any loop dimension derived from ``arg`` carries over: under ``rdom_outer``
    the pure-var iterations of one reduction step are independent (that is
    exactly what :func:`_validate_rdom_outer` proves), so running them in
    parallel cannot change the result.
    """
    for d in schedule.dims:
        if d.for_type == S.ForType.PARALLEL and schedule.root_of(d.var) == arg:
            return S.ForType.PARALLEL
    return S.ForType.SERIAL


def _validate_rdom_outer(func: Function, update, free_pure: Sequence[str]) -> None:
    """Reject ``rdom_outer`` schedules whose interchange could be observable.

    Hoisting the reduction loops is sound iff each pure-var point evolves
    independently: the update may reference the function *only at its own
    point* (``f[x-1, y]`` on the right-hand side would make point ``x`` read
    point ``x-1`` mid-reduction, and the interchange would change which
    reduction step's value it sees), and the RDom bounds must not depend on
    the pure variables (they become outer-loop bounds).
    """
    expected = tuple(update.args)

    class _SelfCalls(IRVisitor):
        def __init__(self):
            self.bad = False

        def visit_Call(self, node: E.Call):
            if (node.call_type == E.CallType.HALIDE and node.name == func.name
                    and tuple(node.args) != expected):
                self.bad = True
            for a in node.args:
                self.visit(a)

    finder = _SelfCalls()
    finder.visit(update.value)
    for a in update.args:
        finder.visit(a)
    if finder.bad:
        raise ScheduleError(
            f"rdom_outer on {func.name!r}: the update references "
            f"{func.name!r} at a point other than the one it defines, so the "
            "reduction loops cannot be hoisted outside the pure-variable loops"
        )

    pure_names = set(free_pure)
    if update.rdom is not None:
        names = NameIndex()
        for rvar in update.rdom.variables:
            clash = pure_names & set().union(*(
                names.variables(e) for e in (rvar.min, rvar.extent) if isinstance(e, E.Expr)))
            if clash:
                raise ScheduleError(
                    f"rdom_outer on {func.name!r}: reduction variable "
                    f"{rvar.name!r} has bounds depending on pure variable(s) "
                    f"{sorted(clash)}, which would be undefined outside their "
                    "loops"
                )


def produce_nest(func: Function) -> S.Stmt:
    """The complete produce statement for a function: pure stage plus updates."""
    stages = [build_loop_nest(func, 0)]
    for stage in range(1, len(func.updates) + 1):
        stages.append(build_loop_nest(func, stage))
    return S.ProducerConsumer(func.name, True, S.Block.make(stages))


# ---------------------------------------------------------------------------
# realization injection
# ---------------------------------------------------------------------------

class _CallFinder(IRVisitor):
    def __init__(self, name: str):
        self.name = name
        self.found = False

    def visit_Call(self, node: E.Call):
        if node.call_type == E.CallType.HALIDE and node.name == self.name:
            self.found = True
        for a in node.args:
            self.visit(a)


def _contains_call_to(node, name: str) -> bool:
    finder = _CallFinder(name)
    finder.visit(node)
    return finder.found


class _InjectRealization:
    """Inject the Realize and produce nest of one function into the current stmt."""

    def __init__(self, func: Function):
        self.func = func
        self.compute_level = func.schedule.compute_level
        self.store_level = func.schedule.store_level
        self.injected_produce = 0
        self.injected_realize = 0

    def inject(self, stmt: S.Stmt) -> S.Stmt:
        stmt = self._walk(stmt)
        if self.injected_produce == 0:
            raise ScheduleError(
                f"cannot compute {self.func.name!r} at loop "
                f"{self.compute_level!r}: no such loop encloses a use of it"
            )
        if self.store_level.is_root():
            stmt = S.Realize(self.func.name, self.func.output_type,
                             realize_bounds_for(self.func), stmt)
            self.injected_realize += 1
        if self.injected_realize == 0:
            raise ScheduleError(
                f"storage for {self.func.name!r} at {self.store_level!r} does not "
                f"enclose its computation at {self.compute_level!r}"
            )
        return stmt

    # -- recursive rewrite ------------------------------------------------
    def _walk(self, node):
        if isinstance(node, S.For):
            body = self._walk(node.body)
            if (
                self.compute_level.is_at()
                and node.name == self.compute_level.loop_name()
                and _contains_call_to(body, self.func.name)
            ):
                body = S.Block([
                    S.ProducerConsumer(self.func.name, True, produce_nest(self.func)),
                    S.ProducerConsumer(self.func.name, False, body),
                ])
                self.injected_produce += 1
            if (
                self.store_level.is_at()
                and node.name == self.store_level.loop_name()
                and self.injected_produce > self.injected_realize
            ):
                body = S.Realize(self.func.name, self.func.output_type,
                                 realize_bounds_for(self.func), body)
                self.injected_realize = self.injected_produce
            if body is node.body:
                return node
            return S.For(node.name, node.min, node.extent, node.for_type, body)

        if isinstance(node, S.Block):
            return S.Block([self._walk(s) for s in node.stmts])
        if isinstance(node, S.ProducerConsumer):
            return S.ProducerConsumer(node.name, node.is_producer, self._walk(node.body))
        if isinstance(node, S.Realize):
            return S.Realize(node.name, node.type, node.bounds, self._walk(node.body))
        if isinstance(node, S.LetStmt):
            return S.LetStmt(node.name, node.value, self._walk(node.body))
        if isinstance(node, S.IfThenElse):
            return S.IfThenElse(node.condition, self._walk(node.then_case),
                                self._walk(node.else_case) if node.else_case else None)
        if isinstance(node, S.Allocate):
            return S.Allocate(node.name, node.type, node.size, self._walk(node.body))
        return node


def schedule_functions(env: Dict[str, Function], order: Sequence[str],
                       output: Function) -> S.Stmt:
    """Build the complete loop nest for a pipeline.

    ``env`` maps names to (non-inlined) functions, ``order`` is a realization
    order with producers first and the output last.
    """
    # The output function's own produce nest, wrapped in its Realize.
    stmt: S.Stmt = produce_nest(output)
    stmt = S.Realize(output.name, output.output_type,
                     realize_bounds_for(output, which="required"), stmt)

    # Inject the remaining functions from the consumers backwards so that, by
    # the time a producer is injected, every call to it is already present.
    for name in reversed([n for n in order if n != output.name]):
        func = env.get(name)
        if func is None or func.schedule.is_inlined():
            continue
        compute_level = func.schedule.compute_level
        store_level = func.schedule.store_level
        if compute_level.is_root():
            produce = S.ProducerConsumer(func.name, True, produce_nest(func))
            consume = S.ProducerConsumer(func.name, False, stmt)
            stmt = S.Block([produce, consume])
            stmt = S.Realize(func.name, func.output_type, realize_bounds_for(func), stmt)
            if not store_level.is_root():
                raise ScheduleError(
                    f"{func.name!r} is computed at root but stored at {store_level!r}; "
                    "storage must be at or outside the compute level"
                )
        else:
            stmt = _InjectRealization(func).inject(stmt)
    return stmt
