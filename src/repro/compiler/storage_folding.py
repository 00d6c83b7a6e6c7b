"""Storage folding (Section 4.3 of the paper).

If a function's storage is allocated outside a serial loop but each iteration
only touches a window of bounded size that marches monotonically across the
allocation, the storage can be folded: accesses are rewritten modulo a small
power of two and the allocation shrinks to that size.  For the two-stage blur
with a sliding window this reduces the intermediate stage to three (rounded to
four) scanlines, cutting peak memory and working-set size.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.analysis.linear import constant_difference
from repro.analysis.monotonic import Monotonic, is_monotonic
from repro.compiler.simplify import simplify_expr
from repro.core.function import Function
from repro.core.schedule import ScheduleError
from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.ir.mutator import IRMutator
from repro.ir.names import NameIndex
from repro.ir.visitor import children_of

__all__ = ["storage_folding", "MAX_FOLD_FACTOR"]

#: Folding is only worthwhile for small windows; beyond this we leave storage alone.
MAX_FOLD_FACTOR = 256


def _round_up_to_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


class _AccessRewriter(IRMutator):
    """Rewrite accesses to one function so that dimension ``dim_index`` wraps mod ``factor``."""

    def __init__(self, name: str, dim_index: int, factor: int):
        self.name = name
        self.dim_index = dim_index
        self.factor = factor

    def _fold(self, args) -> List[E.Expr]:
        new_args = list(args)
        new_args[self.dim_index] = op.make_binary(E.Mod, new_args[self.dim_index], self.factor)
        return new_args

    def visit_Call(self, node: E.Call):
        args = [self.mutate(a) for a in node.args]
        if node.call_type == E.CallType.HALIDE and node.name == self.name:
            args = self._fold(args)
        return E.Call(node.type, node.name, args, node.call_type, node.target)

    def visit_Provide(self, node: S.Provide):
        args = [self.mutate(a) for a in node.args]
        value = self.mutate(node.value)
        if node.name == self.name:
            args = self._fold(args)
        return S.Provide(node.name, value, args)


def _produce_context(body: S.Stmt, name: str, index: NameIndex):
    """What storage folding needs to know about the produce of ``name`` in ``body``.

    One walk over the statements that call or provide ``name`` returns
    ``(all_serial, lets, loop_names)``: whether every loop enclosing a produce
    of ``name`` is serial; the values of the ``<name>.<dim>.{min,max}`` lets on
    the way (the outermost of each name); and the names of the loops enclosing
    the first produce, outermost first.
    """
    lets: Dict[str, E.Expr] = {}
    loops: List[S.For] = []
    loop_names: List[str] = []
    all_serial = True

    def walk(node) -> None:
        nonlocal all_serial
        if not isinstance(node, S.Stmt) or name not in index.funcs(node):
            return
        if isinstance(node, S.For):
            loops.append(node)
            walk(node.body)
            loops.pop()
            return
        if isinstance(node, S.LetStmt) and node.name.startswith(name + ".") and (
            node.name.endswith(".min") or node.name.endswith(".max")
        ):
            lets.setdefault(node.name, node.value)
        if isinstance(node, S.ProducerConsumer) and node.is_producer and node.name == name:
            if any(f.for_type != S.ForType.SERIAL for f in loops):
                all_serial = False
            if not loop_names:
                loop_names.extend(f.name for f in loops)
        for child in children_of(node):
            walk(child)

    walk(body)
    return all_serial, lets, loop_names


class _StorageFolder(IRMutator):
    def __init__(self, env: Dict[str, Function]):
        self.env = env
        self.folds: Dict[str, Dict[str, int]] = {}
        self.names = NameIndex()

    def visit_Realize(self, node: S.Realize):
        body = self.mutate(node.body)
        func = self.env.get(node.name)
        if func is None:
            if body is node.body:
                return node
            return S.Realize(node.name, node.type, node.bounds, body)

        all_serial, lets, loop_names = _produce_context(body, node.name, self.names)
        bounds = list(node.bounds)
        forced = dict(getattr(func.schedule, "storage_folds", None) or {})
        if forced:
            body, bounds = self._apply_forced_folds(
                func, forced, body, bounds, all_serial, lets, loop_names
            )
        elif all_serial:
            body, bounds = self._try_fold(func, body, bounds, lets, loop_names)
        return S.Realize(node.name, node.type, bounds, body)

    def _apply_forced_folds(self, func: Function, forced: Dict[str, int],
                            body: S.Stmt, bounds: List[Tuple[E.Expr, E.Expr]],
                            all_serial: bool, lets: Dict[str, E.Expr],
                            loop_names: List[str]):
        """Apply schedule-directed ``storage_fold`` directives, or raise ScheduleError.

        Unlike the automatic path (which silently skips anything it cannot
        prove safe), an explicit fold is a promise by the schedule author and
        every legality condition is checked loudly: this is where a schedule
        that would need unbounded history is rejected.
        """
        for dim, factor in forced.items():
            what = f"storage_fold({dim!r}, {factor}) on {func.name!r}"
            if dim not in func.args:
                raise ScheduleError(
                    f"{what}: no such dimension (has {list(func.args)!r})")
            factor = int(factor)
            if factor < 1:
                raise ScheduleError(f"{what}: fold factor must be >= 1")
            if not all_serial:
                raise ScheduleError(
                    f"{what}: a parallel loop sits between the storage and the "
                    f"computation, so folded values could be overwritten while "
                    f"other iterations still need them")
            entries = _window(func.name, dim, lets)
            if isinstance(entries, str):
                raise ScheduleError(f"{what}: {entries}")
            if entries > factor:
                raise ScheduleError(
                    f"{what}: each iteration touches {entries} entries "
                    f"of {dim!r}, which do not fit in a fold of {factor}")
            if not _marches(func.name, dim, lets, loop_names):
                raise ScheduleError(
                    f"{what}: the window of {dim!r} does not march "
                    f"monotonically along an enclosing serial loop, so folding "
                    f"would overwrite values still needed")
            body, bounds = self._fold(func, dim, factor, body, bounds)
        return body, bounds

    def _try_fold(self, func: Function, body: S.Stmt,
                  bounds: List[Tuple[E.Expr, E.Expr]], lets: Dict[str, E.Expr],
                  loop_names: List[str]):
        for dim_index, dim in enumerate(func.args):
            entries = _window(func.name, dim, lets)
            if isinstance(entries, str):
                continue
            fold = _round_up_to_power_of_two(entries)
            if fold > MAX_FOLD_FACTOR or not _marches(func.name, dim, lets, loop_names):
                continue
            # Don't bother folding allocations already known to be at most `fold`.
            alloc_extent = constant_difference(bounds[dim_index][1], op.const(0))
            if alloc_extent is not None and alloc_extent <= fold:
                continue
            return self._fold(func, dim, fold, body, bounds)
        return body, bounds

    def _fold(self, func: Function, dim: str, factor: int, body: S.Stmt,
              bounds: List[Tuple[E.Expr, E.Expr]]):
        dim_index = func.args.index(dim)
        body = _AccessRewriter(func.name, dim_index, factor).mutate(body)
        bounds[dim_index] = (op.const(0), op.const(factor))
        self.folds.setdefault(func.name, {})[dim] = factor
        return body, bounds


def _window(name: str, dim: str, lets: Dict[str, E.Expr]) -> Union[int, str]:
    """How many entries of ``dim`` each iteration touches, or why that is not a constant."""
    min_expr = lets.get(f"{name}.{dim}.min")
    max_expr = lets.get(f"{name}.{dim}.max")
    if min_expr is None or max_expr is None:
        return ("the function is not computed inside its storage scope (inlined, "
                "or computed at the same level it is stored), so there is no window to fold")
    window = constant_difference(max_expr, min_expr)
    if window is None or window < 0:
        return (f"the extent of {dim!r} touched per iteration is not a constant — the "
                f"schedule would require unbounded history to fold this dimension")
    return int(window) + 1


def _marches(name: str, dim: str, lets: Dict[str, E.Expr], loop_names: List[str]) -> bool:
    """Whether the window of ``dim`` moves monotonically up some enclosing serial loop;
    folding a window that does not would overwrite values still needed."""
    min_expr = simplify_expr(lets[f"{name}.{dim}.min"])
    return any(is_monotonic(min_expr, loop) == Monotonic.INCREASING for loop in loop_names)


def storage_folding(stmt: S.Stmt, env: Dict[str, Function]) -> Tuple[S.Stmt, Dict[str, Dict[str, int]]]:
    """Fold storage where legal; returns the new statement and a report of folds applied."""
    folder = _StorageFolder(env)
    result = folder.mutate(stmt)
    # A forced fold on a function that never materializes storage (inlined,
    # or the pipeline output whose buffer the caller owns) would silently do
    # nothing; reject it so schedules stay honest.
    for name, func in env.items():
        forced = getattr(func.schedule, "storage_folds", None) or {}
        applied = folder.folds.get(name, {})
        missing = [dim for dim in forced if dim not in applied]
        if missing:
            raise ScheduleError(
                f"storage_fold on {name!r} (dims {missing!r}): the function "
                f"has no storage of its own to fold (it is inlined or is the "
                f"pipeline output)")
    return result, folder.folds
