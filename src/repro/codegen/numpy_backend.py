"""The vectorized NumPy execution backend.

:class:`NumpyExecutor` is a drop-in replacement for the scalar interpreter
(:class:`~repro.runtime.executor.Executor`): same construction, same binding
API, same listener protocol, and — by contract — bit-identical output.  The
difference is how ``For`` loops run.  Loops marked batchable by
:mod:`repro.codegen.legality` are *peeled*: instead of iterating, the loop
variable is bound to ``np.arange(min, min + extent)`` and the body executes
once, with NumPy broadcasting evaluating every iteration simultaneously.
Everything the scalar interpreter already does with vector values (fancy
indexed loads/stores, ``np.where`` for ``select``, ufunc intrinsics) carries
over unchanged, which is what keeps the two backends bit-identical: the same
elementwise operations run in the same order, just whole-array at a time.

Four constructs need care beyond plain broadcasting:

* **Already-vectorized bodies.**  The vectorization pass replaces the
  innermost loop with ``Ramp``/``Broadcast`` vectors of ``k`` lanes.  When
  the surrounding loop is batched, the loop axis and the lane axis must stay
  distinct: ramps with a batched base evaluate to a 2-D ``(iterations,
  lanes)`` array, and broadcasts lift batched scalars to ``(iterations, 1)``
  so NumPy pairs the axes correctly.

* **Guards.**  A ``GUARD_WITH_IF`` split tail produces an ``IfThenElse``
  whose condition becomes a boolean vector under batching.  The backend
  executes each branch in a *sub-batch*: every loop-aligned array in scope is
  filtered down to the lanes selected by the mask — the statement-level
  analogue of ``np.where`` — so loads in the branch never touch
  out-of-bounds locations for masked-off iterations.

* **Store ordering.**  A batched store is one fancy-indexed scatter, which
  only matches the scalar loop when iterations write disjoint locations.
  Where the legality pass derived an affine coefficient for the store index,
  evaluating it (it is usually a symbolic stride) settles disjointness in
  O(1); otherwise the evaluated index vector is checked for uniqueness
  directly.  A store that fails its check raises an internal abort and the
  loop re-runs through the scalar path, which is always correct: the only
  load/store overlap legality admits is the same-index read-modify-write
  with the RMW store as the body's sole store, and every abort fires at a
  store's uniqueness check — i.e. before that store commits — so the scalar
  re-execution always starts from unmodified buffer contents and writes
  every location with the scalar-order values.

* **Assertions.**  ``AssertStmt`` conditions may evaluate to vectors; the
  batched loop asserts all lanes at once.

Instrumentation caveat: listeners observe batched events (one ``on_load``
with ``lanes == iterations`` instead of many scalar events).  During a
batched attempt the events are buffered and only delivered once the attempt
commits; a store-check abort discards the buffer and replays the loop through
the scalar path, whose events are delivered normally — so totals match the
interpreter on the abort path too, never double-counted.  The machine model
and the Figure 3 metrics should still use the interpreter backend, whose
event *stream* (not just the totals) is exact.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

import numpy as np

from repro.codegen.legality import LoopBatchInfo, analyze_batchable_loops
from repro.compiler.lower import LoweredPipeline
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.names import NameIndex
from repro.runtime.counters import ExecutionListener
from repro.runtime.executor import (
    _MISSING,
    ExecutionError,
    Executor,
    build_eval_table,
)

__all__ = ["NumpyExecutor"]


class _BatchAbort(Exception):
    """Internal: a batched loop body found it cannot preserve store order."""


class _EventRecorder(ExecutionListener):
    """Buffers listener events so a batched attempt can commit or discard them.

    A batched loop body delivers its events here instead of to the real
    listeners; on success :meth:`replay` forwards them, on a
    :class:`_BatchAbort` they are dropped and the scalar replay produces the
    (exact, scalar-order) events instead.  This keeps listener totals
    identical to the interpreter even on the abort path.
    """

    def __init__(self):
        self.events = []

    def on_loop_begin(self, *args) -> None:
        self.events.append(("on_loop_begin", args))

    def on_loop_end(self, *args) -> None:
        self.events.append(("on_loop_end", args))

    def on_produce(self, *args) -> None:
        self.events.append(("on_produce", args))

    def on_arith(self, *args) -> None:
        self.events.append(("on_arith", args))

    def on_load(self, *args) -> None:
        self.events.append(("on_load", args))

    def on_store(self, *args) -> None:
        self.events.append(("on_store", args))

    def on_allocate(self, *args) -> None:
        self.events.append(("on_allocate", args))

    def on_free(self, *args) -> None:
        self.events.append(("on_free", args))

    def replay(self, listeners) -> None:
        for name, args in self.events:
            for listener in listeners:
                getattr(listener, name)(*args)


def _indices_unique(index: np.ndarray) -> bool:
    """Whether a flat index vector has no duplicate entries."""
    flat = index.ravel()
    if flat.size <= 1:
        return True
    steps = np.diff(flat)
    # Affine indices form monotonic sequences; this O(n) test settles the
    # common case before paying for a sort.
    if bool((steps > 0).all()) or bool((steps < 0).all()):
        return True
    return np.unique(flat).size == flat.size


class NumpyExecutor(Executor):
    """Executes a lowered pipeline with batched whole-array loop evaluation."""

    #: Loops shorter than this run through the scalar path (batching overhead
    #: does not pay for itself on a couple of iterations).
    MIN_BATCH_EXTENT = 2

    def __init__(self, lowered: LoweredPipeline,
                 listeners: Iterable[ExecutionListener] = (),
                 target=None):
        super().__init__(lowered, listeners=listeners, target=target)
        self._batch_info: Dict[int, LoopBatchInfo] = analyze_batchable_loops(lowered.stmt)
        #: Iteration count of the loop currently being batched (None outside).
        self._lanes: Optional[int] = None
        #: Stores proven disjoint for the current batched execution (by id).
        self._verified_stores: Set[int] = set()
        #: Scope names whose binding carries the batch (loop) axis on axis 0:
        #: the batched loop variable plus every let transitively derived from
        #: it.  Masked sub-batches must filter exactly these — an array's
        #: shape alone cannot distinguish a loop-aligned vector from a
        #: lane-axis vector whose width happens to equal the batch extent.
        self._aligned_names: Set[str] = set()
        #: Which variables each let value reads (the same values run every batch).
        self._names = NameIndex()

    # ------------------------------------------------------------------
    # batched loop execution
    # ------------------------------------------------------------------
    def _exec_For(self, stmt: S.For) -> None:
        info = self._batch_info.get(id(stmt))
        if info is None or not info.batchable or self._lanes is not None:
            return super()._exec_For(stmt)
        mn = int(self._eval(stmt.min))
        extent = int(self._eval(stmt.extent))
        if extent < self.MIN_BATCH_EXTENT:
            return self._run_scalar(stmt, mn, extent)

        verified: Set[int] = set()
        for check in info.store_checks:
            if int(self._eval_quiet(check.coefficient)) != 0:
                verified.add(id(check.store))

        for listener in self.listeners:
            listener.on_loop_begin(stmt.name, stmt.for_type, extent)
        # Buffer the batched attempt's events: they are committed only if the
        # attempt succeeds.  An abort discards them and the scalar replay
        # below reports the (exact) events instead — totals therefore match
        # the interpreter on both paths, never double-counted.
        real_listeners = self.listeners
        recorder = _EventRecorder() if real_listeners else None
        self.listeners = [recorder] if recorder is not None else []
        saved = self.scope.get(stmt.name, _MISSING)
        self.scope[stmt.name] = np.arange(mn, mn + extent)
        self._lanes = extent
        self._verified_stores = verified
        self._aligned_names = {stmt.name}
        aborted = False
        try:
            self._execute(stmt.body)
        except _BatchAbort:
            aborted = True
        finally:
            self.listeners = real_listeners
            self._lanes = None
            self._verified_stores = set()
            self._aligned_names = set()
            if saved is _MISSING:
                self.scope.pop(stmt.name, None)
            else:
                self.scope[stmt.name] = saved
        if aborted:
            # Safe to replay: the abort fired at the (single) store's
            # uniqueness check, before it committed — even a same-index RMW
            # body therefore saw only unmodified buffer contents, and scalar
            # re-execution overwrites every location in the correct order.
            # (The enclosing loop_begin/loop_end are already accounted for.)
            self._run_scalar(stmt, mn, extent, loop_events=False)
        elif recorder is not None:
            recorder.replay(real_listeners)
        for listener in self.listeners:
            listener.on_loop_end(stmt.name, stmt.for_type, extent)

    def _run_scalar(self, stmt: S.For, mn: int, extent: int,
                    loop_events: bool = True) -> None:
        """The inherited scalar loop (bounds already evaluated).

        ``loop_events=False`` skips the loop begin/end listener events — used
        by the abort replay, whose enclosing events were already delivered.
        """
        if loop_events:
            for listener in self.listeners:
                listener.on_loop_begin(stmt.name, stmt.for_type, extent)
        saved = self.scope.get(stmt.name, _MISSING)
        try:
            for i in range(mn, mn + extent):
                self.scope[stmt.name] = i
                self._execute(stmt.body)
        finally:
            if saved is _MISSING:
                self.scope.pop(stmt.name, None)
            else:
                self.scope[stmt.name] = saved
        if loop_events:
            for listener in self.listeners:
                listener.on_loop_end(stmt.name, stmt.for_type, extent)

    def _eval_quiet(self, e: E.Expr):
        """Evaluate without reporting to listeners (used for legality checks)."""
        saved = self.listeners
        self.listeners = []
        try:
            return self._eval(e)
        finally:
            self.listeners = saved

    # ------------------------------------------------------------------
    # lets: track which bindings carry the batch axis
    # ------------------------------------------------------------------
    def _references_aligned(self, e: E.Expr) -> bool:
        return not self._names.variables(e).isdisjoint(self._aligned_names)

    def _exec_LetStmt(self, stmt: S.LetStmt) -> None:
        if self._lanes is None:
            return super()._exec_LetStmt(stmt)
        value = self._eval(stmt.value)
        aligned = self._references_aligned(stmt.value)
        saved = self.scope.get(stmt.name, _MISSING)
        was_aligned = stmt.name in self._aligned_names
        self.scope[stmt.name] = value
        if aligned:
            self._aligned_names.add(stmt.name)
        elif was_aligned:
            self._aligned_names.discard(stmt.name)
        try:
            self._execute(stmt.body)
        finally:
            if was_aligned:
                self._aligned_names.add(stmt.name)
            else:
                self._aligned_names.discard(stmt.name)
            if saved is _MISSING:
                self.scope.pop(stmt.name, None)
            else:
                self.scope[stmt.name] = saved

    def _eval_Let(self, e: E.Let):
        if self._lanes is None:
            return super()._eval_Let(e)
        value = self._eval(e.value)
        aligned = self._references_aligned(e.value)
        saved = self.scope.get(e.name, _MISSING)
        was_aligned = e.name in self._aligned_names
        self.scope[e.name] = value
        if aligned:
            self._aligned_names.add(e.name)
        elif was_aligned:
            self._aligned_names.discard(e.name)
        try:
            return self._eval(e.body)
        finally:
            if was_aligned:
                self._aligned_names.add(e.name)
            else:
                self._aligned_names.discard(e.name)
            if saved is _MISSING:
                self.scope.pop(e.name, None)
            else:
                self.scope[e.name] = saved

    # ------------------------------------------------------------------
    # stores: scatters must be provably order-independent
    # ------------------------------------------------------------------
    def _exec_Store(self, stmt: S.Store) -> None:
        if self._lanes is None:
            return super()._exec_Store(stmt)
        buffer = self.buffers.get(stmt.name)
        if buffer is None:
            raise ExecutionError(f"store to unknown buffer {stmt.name!r}")
        index = self._eval(stmt.index)
        value = self._eval(stmt.value)
        if not (isinstance(index, np.ndarray) and index.ndim > 0):
            # The batched index collapsed to one location.  A scalar value
            # means every iteration writes the same thing — storing it once
            # is equivalent; per-iteration values would need the last one.
            if isinstance(value, np.ndarray) and value.ndim > 0:
                raise _BatchAbort(stmt.name)
            idx = int(index)
            if idx < 0 or idx >= buffer.size:
                raise ExecutionError(
                    f"store to {stmt.name!r} out of bounds (index {idx}, size {buffer.size})"
                )
            buffer[idx] = value
            for listener in self.listeners:
                listener.on_store(stmt.name, index, 1, buffer.dtype.itemsize)
            return
        if id(stmt) not in self._verified_stores and not _indices_unique(index):
            raise _BatchAbort(stmt.name)
        idx = index.astype(np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= buffer.size):
            raise ExecutionError(
                f"store to {stmt.name!r} out of bounds "
                f"(index {int(idx.max())}, size {buffer.size})"
            )
        buffer[idx] = value
        for listener in self.listeners:
            listener.on_store(stmt.name, index, idx.size, buffer.dtype.itemsize)

    # ------------------------------------------------------------------
    # vector values under batching: keep loop axis and lane axis distinct
    # ------------------------------------------------------------------
    def _eval_Ramp(self, e: E.Ramp):
        base = self._eval(e.base)
        stride = self._eval(e.stride)
        if isinstance(base, np.ndarray) and base.ndim >= 1:
            return base[..., None] + np.asarray(stride)[..., None] * np.arange(e.lanes)
        return base + stride * np.arange(e.lanes)

    def _eval_Broadcast(self, e: E.Broadcast):
        value = self._eval(e.value)
        if self._lanes is not None and isinstance(value, np.ndarray) and value.ndim == 1:
            return value[:, None]
        if isinstance(value, np.ndarray) and value.ndim > 0:
            return value
        return np.full(e.lanes, value)

    # ------------------------------------------------------------------
    # guards become masked sub-batches
    # ------------------------------------------------------------------
    def _exec_IfThenElse(self, stmt: S.IfThenElse) -> None:
        condition = self._eval(stmt.condition)
        if not (isinstance(condition, np.ndarray) and condition.ndim > 0):
            if bool(condition):
                self._execute(stmt.then_case)
            elif stmt.else_case is not None:
                self._execute(stmt.else_case)
            return
        if self._lanes is None:
            raise ExecutionError(
                "vector condition outside a batched loop; "
                "use TailStrategy.ROUND_UP for vectorized dimensions"
            )
        mask = np.asarray(condition, dtype=bool)
        # A lane-axis vector (condition.type.lanes > 1) is indistinguishable
        # by shape from a per-iteration mask when the vector width equals the
        # batch extent; masking it along the loop axis would be wrong.
        if stmt.condition.type.lanes != 1 or mask.ndim != 1:
            raise ExecutionError("a guard condition must be scalar per iteration")
        self._execute_masked(stmt.then_case, mask)
        if stmt.else_case is not None:
            self._execute_masked(stmt.else_case, ~mask)

    def _execute_masked(self, branch: Optional[S.Stmt], mask: np.ndarray) -> None:
        """Run ``branch`` for the subset of batched iterations selected by ``mask``."""
        if branch is None or not mask.any():
            return
        if mask.all():
            self._execute(branch)
            return
        lanes = self._lanes
        # Filter every loop-aligned array in scope down to the selected
        # iterations; bindings created inside the branch are then naturally
        # mask-sized and need no filtering on read.  Alignment is tracked by
        # name (_aligned_names), not inferred from shapes: a lane-axis vector
        # whose width equals the batch extent must not be filtered.
        saved = {
            name: value for name in (self._aligned_names & self.scope.keys())
            if isinstance(value := self.scope[name], np.ndarray)
            and value.ndim >= 1 and value.shape[0] == lanes
        }
        for name, value in saved.items():
            self.scope[name] = value[mask]
        self._lanes = int(mask.sum())
        try:
            self._execute(branch)
        finally:
            self._lanes = lanes
            self.scope.update(saved)

    # ------------------------------------------------------------------
    # vector-aware assertions
    # ------------------------------------------------------------------
    def _exec_AssertStmt(self, stmt: S.AssertStmt) -> None:
        condition = self._eval(stmt.condition)
        if isinstance(condition, np.ndarray):
            if not bool(np.all(condition)):
                raise ExecutionError(stmt.message)
            return
        if not bool(condition):
            raise ExecutionError(stmt.message)


NumpyExecutor._EVAL_TABLE = build_eval_table(NumpyExecutor)
