"""Legality analysis for batched (whole-array) loop execution.

The NumPy backend replaces an innermost serial loop by a single evaluation of
its body with the loop variable bound to an index vector.  That is only sound
when the loop has no loop-carried dependences and when turning every store
into one fancy-indexed scatter preserves the scalar store order.  This module
decides, per :class:`~repro.ir.stmt.For` node of a lowered pipeline, whether
the loop may be batched, and annotates each batchable loop with the
disjointness facts the backend can verify cheaply at run time.

A loop ``for v in [min, min+extent)`` is *batchable* when its body

* contains no nested loop, allocation, or producer/consumer marker — only
  blocks, lets, guards, asserts, evaluates and stores;
* never loads from a buffer it also stores — with one exception: a
  *same-index read-modify-write*, where the body's only store is to a buffer
  whose every load uses an index structurally equal to the store's index.
  Each iteration then touches exactly one location of that buffer, so the
  only way iterations could interact is through index collisions, which the
  per-store disjointness machinery below already rules out.  This is the
  shape of ordered blend/accumulate updates iterated with the reduction loop
  hoisted outermost (``dst[i] = dst[i] * (1 - a) + src * a``);
* stores each buffer at most once (two scatters to one buffer could
  interleave differently than the scalar loop), and — when the body loads
  from the buffer it stores — performs no *other* store at all: the backends
  commit stores immediately during a batched attempt, so a later store's
  runtime uniqueness check aborting after an RMW store committed would make
  the scalar replay re-apply the read-modify-write.  With the RMW store as
  the body's only store, every abort happens before it commits;
* performs at least one store (otherwise batching gains nothing);
* does not shadow the loop variable with a let.

Batching additionally requires every store to write disjoint locations
across iterations.  For scalar store indices that are affine in ``v`` —
resolving through the let bindings the scheduler wraps around the body —
:func:`affine_coefficient` extracts the (possibly symbolic) coefficient of
``v``, and the backend proves disjointness by evaluating it: a nonzero
coefficient makes the index injective.  Stores whose index defeats the static
analysis (e.g. already-vectorized indices whose ramp hides inside a widened
let) fall back to a runtime uniqueness check on the evaluated index vector,
with the scalar loop as the safety net.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.ir.names import NameIndex
from repro.ir.visitor import children_of

__all__ = [
    "BatchabilityError",
    "StoreCheck",
    "LoopBatchInfo",
    "affine_coefficient",
    "analyze_batchable_loops",
]


class BatchabilityError(RuntimeError):
    """Raised when a batched loop discovers it must abandon batching."""


class StoreCheck:
    """A statically derived disjointness certificate for one store.

    ``coefficient`` is the coefficient of the loop variable in the store's
    flat index, as an IR expression over variables in scope at the loop (flat
    indices multiply loop variables by symbolic ``<buffer>.stride.<i>``
    variables, so the coefficient is rarely a plain constant).  Evaluating it
    to a nonzero value proves consecutive iterations write distinct
    locations, letting the backend skip the per-store uniqueness check.
    """

    __slots__ = ("store", "buffer", "coefficient")

    def __init__(self, store: S.Store, coefficient: E.Expr):
        self.store = store
        self.buffer = store.name
        self.coefficient = coefficient

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoreCheck({self.buffer!r}, coeff={self.coefficient!r})"


class LoopBatchInfo:
    """The batchability verdict for one ``For`` node."""

    __slots__ = ("loop", "batchable", "reason", "store_checks")

    def __init__(self, loop: S.For, batchable: bool, reason: str = "",
                 store_checks: Optional[List[StoreCheck]] = None):
        self.loop = loop
        self.batchable = batchable
        self.reason = reason
        self.store_checks = store_checks or []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "batchable" if self.batchable else f"not batchable ({self.reason})"
        return f"LoopBatchInfo({self.loop.name!r}: {verdict})"


def _contains_variable(node, name: str, lets: Optional[Mapping[str, E.Expr]] = None) -> bool:
    if isinstance(node, E.Variable):
        if node.name == name:
            return True
        if lets and node.name in lets:
            return _contains_variable(lets[node.name], name, lets)
        return False
    return any(_contains_variable(child, name, lets) for child in children_of(node))


def affine_coefficient(e: E.Expr, var: str,
                       lets: Optional[Mapping[str, E.Expr]] = None) -> Optional[E.Expr]:
    """The coefficient of ``var`` in ``e``, as an expression, or None.

    Unlike :func:`repro.analysis.linear.to_linear`, coefficients here may be
    arbitrary expressions that do not mention ``var`` (flat indices multiply
    loop variables by symbolic stride variables), so the result is an IR
    expression to be evaluated by the runtime rather than a number.  ``lets``
    maps enclosing let bindings, which the analysis resolves through; ramps
    and broadcasts contribute the coefficient of their base/value (the lane
    axis is orthogonal to the loop axis and checked separately).
    """
    if not _contains_variable(e, var, lets):
        return op.const(0)
    if isinstance(e, E.Variable):
        if e.name == var:
            return op.const(1)
        if lets and e.name in lets:
            return affine_coefficient(lets[e.name], var, lets)
        return op.const(0)
    if isinstance(e, E.Cast):
        return affine_coefficient(e.value, var, lets)
    if isinstance(e, E.Ramp):
        if _contains_variable(e.stride, var, lets):
            return None
        return affine_coefficient(e.base, var, lets)
    if isinstance(e, E.Broadcast):
        return affine_coefficient(e.value, var, lets)
    if isinstance(e, E.Add):
        a = affine_coefficient(e.a, var, lets)
        b = affine_coefficient(e.b, var, lets)
        if a is None or b is None:
            return None
        return op.make_binary(E.Add, a, b)
    if isinstance(e, E.Sub):
        a = affine_coefficient(e.a, var, lets)
        b = affine_coefficient(e.b, var, lets)
        if a is None or b is None:
            return None
        return op.make_binary(E.Sub, a, b)
    if isinstance(e, E.Mul):
        in_a = _contains_variable(e.a, var, lets)
        in_b = _contains_variable(e.b, var, lets)
        if in_a and in_b:
            return None
        if in_a:
            coeff = affine_coefficient(e.a, var, lets)
            return None if coeff is None else op.make_binary(E.Mul, coeff, e.b)
        coeff = affine_coefficient(e.b, var, lets)
        return None if coeff is None else op.make_binary(E.Mul, coeff, e.a)
    if isinstance(e, E.Call) and e.call_type == E.CallType.INTRINSIC and e.name == "likely":
        return affine_coefficient(e.args[0], var, lets)
    return None


_DISALLOWED_STMTS = (S.For, S.Allocate, S.Realize, S.Provide, S.ProducerConsumer)


class _BodyScan:
    """One pass over a candidate loop body collecting the legality facts."""

    def __init__(self, var: str):
        self.var = var
        self.reason: Optional[str] = None
        self.loaded: set = set()
        self.stored: set = set()
        self.loads: List[E.Load] = []
        self.stores: List[S.Store] = []
        self.store_checks: List[StoreCheck] = []

    def scan(self, node, lets: Dict[str, E.Expr]) -> None:
        if node is None or self.reason is not None:
            return
        if isinstance(node, _DISALLOWED_STMTS):
            self.reason = f"contains {type(node).__name__}"
            return
        if isinstance(node, (S.LetStmt, E.Let)):
            if node.name == self.var:
                self.reason = "loop variable shadowed by a let"
                return
            self.scan(node.value, lets)
            self.scan(node.body, {**lets, node.name: node.value})
            return
        if isinstance(node, E.Load):
            self.loaded.add(node.name)
            self.loads.append(node)
        if isinstance(node, S.Store):
            if node.name in self.stored:
                self.reason = f"buffer {node.name!r} stored more than once"
                return
            self.stored.add(node.name)
            self.stores.append(node)
            self._annotate_store(node, lets)
            if self.reason is not None:
                return
        for child in children_of(node):
            self.scan(child, lets)

    def _annotate_store(self, store: S.Store, lets: Dict[str, E.Expr]) -> None:
        """Derive a static disjointness certificate for ``store`` if possible."""
        coefficient = affine_coefficient(store.index, self.var, lets)
        if coefficient is None:
            return  # defer to the backend's runtime uniqueness check
        if op.const_value(coefficient) == 0:
            if store.index.type.lanes == 1:
                # The loop writes one location over and over; batching cannot
                # reproduce "last iteration wins" through a scatter.
                self.reason = (f"store index into {store.name!r} does not advance "
                               "with the loop variable")
            return
        if store.index.type.lanes > 1:
            # A nonzero per-iteration coefficient does not rule out collisions
            # between the lanes of different iterations; defer to the runtime
            # uniqueness check.
            return
        # The certificate must be evaluable at loop entry: it may only
        # reference variables bound outside the body (not inner lets).
        if not NameIndex().variables(coefficient).isdisjoint(lets):
            return
        self.store_checks.append(StoreCheck(store, coefficient))

    def finish(self) -> Optional[str]:
        if self.reason is not None:
            return self.reason
        if not self.stored:
            return "body performs no stores"
        overlap = self.loaded & self.stored
        if overlap and not self._is_same_index_rmw(overlap):
            return ("possible loop-carried dependence through "
                    + ", ".join(sorted(repr(b) for b in overlap)))
        return None

    def _is_same_index_rmw(self, overlap: set) -> bool:
        """True when the load/store overlap is a batchable read-modify-write.

        Requires the body's *only* store to be the overlapping one (aborts —
        which fire at a store's runtime uniqueness check, before it commits —
        can then never follow a committed RMW store, keeping the scalar
        replay sound) and every load of that buffer to use an index
        structurally equal to the store's.  Each iteration then reads and
        writes one location of the buffer, reducing cross-iteration
        interference to index collisions — exactly what the per-store
        disjointness certificate / runtime uniqueness check already proves
        absent.
        """
        if len(self.stores) != 1:
            return False
        store = self.stores[0]
        if overlap != {store.name}:
            return False
        return all(load.index == store.index
                   for load in self.loads if load.name == store.name)


def _analyze_loop(loop: S.For) -> LoopBatchInfo:
    scan = _BodyScan(loop.name)
    scan.scan(loop.body, {})
    reason = scan.finish()
    if reason is not None:
        return LoopBatchInfo(loop, False, reason)
    return LoopBatchInfo(loop, True, store_checks=scan.store_checks)


def analyze_batchable_loops(stmt: S.Stmt) -> Dict[int, LoopBatchInfo]:
    """Batchability of every ``For`` node in ``stmt``, keyed by node identity.

    The map is keyed by ``id(node)``: statement equality is structural, but
    the backend needs a verdict per occurrence.  Callers must keep ``stmt``
    alive while using the result.
    """
    infos: Dict[int, LoopBatchInfo] = {}

    def walk(node) -> None:
        if isinstance(node, S.For):
            infos[id(node)] = _analyze_loop(node)
        for child in children_of(node):
            if isinstance(child, (S.Stmt, E.Expr)):
                walk(child)

    walk(stmt)
    return infos
