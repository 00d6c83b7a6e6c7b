"""The compile-to-Python source backend.

Where the interpreter (:mod:`repro.runtime.executor`) re-dispatches on IR
nodes for every pixel and the NumPy backend
(:mod:`repro.codegen.numpy_backend`) still walks the tree once per loop, this
backend stops interpreting altogether: :func:`compile_lowered` walks the
lowered ``Stmt``/``Expr`` tree **once** and emits a self-contained Python
function for the whole pipeline, which is ``compile()``+``exec()``'d and then
reused for every run.  The emitted code mirrors the interpreter's NumPy
operations exactly, so outputs stay bit-identical:

* loops the legality pass (:mod:`repro.codegen.legality`) marks batchable are
  emitted as whole-array NumPy code over an ``arange`` index vector, guarded
  by the same store-disjointness certificates the NumPy backend evaluates at
  run time, with the plain scalar loop emitted alongside as the fallback;
* everything else becomes an ordinary Python loop over the same expressions —
  still dispatch-free, which is what makes the compiled backend faster than
  the NumPy backend even on loops neither can batch;
* a ``ForType.PARALLEL`` loop becomes a nested closure ``_chunk_N(_lo, _hi)``
  whose body is the ordinary serial loop (batched or scalar, as above) over
  ``[_lo, _hi)``, reading the enclosing function's locals directly; it is
  handed to :meth:`~repro.codegen.parallel_runtime.ParallelRuntime.parallel_for`,
  which spreads the chunks over a shared thread pool sized by
  ``Target.threads`` (workers write disjoint slices of the shared flat
  buffers — the paper's model guarantees parallel iterations never overlap —
  so threads suffice and the output is bit-identical for every thread count).

Differences from the interpreter, by design:

* **No per-access bounds checks.**  Like the C it stands in for, the emitted
  code indexes buffers directly; an out-of-bounds access in a broken schedule
  wraps or raises ``IndexError`` instead of the interpreter's descriptive
  :class:`ExecutionError`.  Debug new schedules on ``interp``/``numpy``.
* **Listener opt-out.**  Generated code reports no instrumentation events
  (:attr:`CompiledExecutor.drives_listeners` is ``False``); counters observed
  through this backend read zero.  The machine model keeps using ``interp``.
* **Eager free-variable binding.**  Every free scope variable is read once at
  entry, so an unbound variable fails at the start of ``run()`` even if the
  interpreter would only have touched it inside a rarely-taken branch.

The generated source is cached on the :class:`LoweredPipeline` (one program
per lowering, which the :class:`~repro.pipeline.Pipeline` compile cache
already keys by schedule digest/sizes/target) and is exposed for debugging
through :meth:`CompiledPipeline.source`.
"""

from __future__ import annotations

import linecache
import math
import re
import sys
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.codegen.legality import LoopBatchInfo, analyze_batchable_loops
from repro.codegen.numpy_backend import _indices_unique
from repro.codegen.parallel_runtime import ParallelRuntime
from repro.compiler.lower import LoweredPipeline
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.names import NameIndex
from repro.ir.visitor import children_of
from repro.runtime.counters import ExecutionListener
from repro.runtime.executor import ExecutionError, Executor, _int_floor_div
from repro.types import Type

__all__ = [
    "CompiledExecutor",
    "CompiledProgram",
    "SourceCodegenError",
    "compile_lowered",
    "generate_source",
]


class SourceCodegenError(RuntimeError):
    """Raised when the code generator meets IR it cannot emit (unflattened
    storage, calls that should have lowered to loads, ...)."""


class _BatchAbort(Exception):
    """Internal: a batched region found a scatter it cannot prove disjoint."""


def _scope_get(scope: dict, name: str):
    try:
        return scope[name]
    except KeyError:
        raise ExecutionError(f"unbound variable {name!r}") from None


def _buffer_get(buffers: dict, name: str):
    try:
        return buffers[name]
    except KeyError:
        raise ExecutionError(f"unknown buffer {name!r}") from None


#: Names injected into the generated module's globals.
_GENERATED_GLOBALS = {
    "np": np,
    "_scope_get": _scope_get,
    "_buffer_get": _buffer_get,
    "_idiv": _int_floor_div,
    "_indices_unique": _indices_unique,
    "_BatchAbort": _BatchAbort,
    "ExecutionError": ExecutionError,
}

_INTRINSIC_FUNCS = {
    "sqrt": "np.sqrt",
    "exp": "np.exp",
    "log": "np.log",
    "sin": "np.sin",
    "cos": "np.cos",
    "floor": "np.floor",
    "ceil": "np.ceil",
    "round": "np.round",
    "abs": "np.abs",
    "pow": "np.power",
}

_ENTRY_NAME = "_pipeline"

def _sanitize(name: str) -> str:
    return re.sub(r"\W+", "_", name)


class _Value:
    """A generated expression: its code string plus whether it carries the
    batch (loop-iteration) axis.  Lane-axis width is static IR type info."""

    __slots__ = ("code", "aligned")

    def __init__(self, code: str, aligned: bool):
        self.code = code
        self.aligned = aligned


class _Emitter:
    """One pass over the lowered statement emitting the pipeline function."""

    def __init__(self, lowered: LoweredPipeline):
        self.lowered = lowered
        self.batch_info: Dict[int, LoopBatchInfo] = analyze_batchable_loops(lowered.stmt)
        self.lines: List[Tuple[int, str]] = []
        self.indent = 1
        self._counter = 0
        #: IR name -> (py name, aligned) for let/loop bindings in scope.
        self.env: Dict[str, Tuple[str, bool]] = {}
        #: Buffer name -> py local, for buffers allocated by the program.
        self.buf_env: Dict[str, str] = {}
        #: Buffers read/written but never allocated: bound in the prelude.
        self.extern_buffers: Dict[str, str] = {}
        #: Free scalar variables: bound from ``scope`` in the prelude.
        self.scope_vars: Dict[str, str] = {}
        #: numpy dtype constants used by casts/allocations.
        self.dtype_consts: Dict[str, str] = {}
        #: np.arange(k) constants used by ramps.
        self.arange_consts: Dict[int, str] = {}
        #: Store ids with an evaluated disjointness certificate (batch ctx).
        self._certified: Set[int] = set()
        self._in_batch = False

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _tmp(self, prefix: str = "_t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _line(self, code: str) -> None:
        self.lines.append((self.indent, code))

    def _dtype(self, type_: Type) -> str:
        key = str(type_.to_numpy_dtype())
        if key not in self.dtype_consts:
            self.dtype_consts[key] = f"_dty_{key}"
        return self.dtype_consts[key]

    def _arange(self, lanes: int) -> str:
        if lanes not in self.arange_consts:
            self.arange_consts[lanes] = f"_lanes{lanes}"
        return self.arange_consts[lanes]

    def _buffer(self, name: str) -> str:
        """The py local holding buffer ``name`` (prelude-bound if external)."""
        if name in self.buf_env:
            return self.buf_env[name]
        if name not in self.extern_buffers:
            # The index keeps distinct IR names distinct even when
            # _sanitize collapses them to the same identifier.
            self.extern_buffers[name] = \
                f"_in{len(self.extern_buffers)}_{_sanitize(name)}"
        return self.extern_buffers[name]

    @staticmethod
    def _is_array(e: E.Expr, value: _Value) -> bool:
        """Whether the runtime value is an ndarray (statically decidable: it
        carries the batch axis and/or a lane axis)."""
        return value.aligned or e.type.lanes > 1

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expr(self, e: E.Expr) -> _Value:
        if isinstance(e, E.IntImm):
            return _Value(repr(e.value), False)
        if isinstance(e, E.FloatImm):
            if math.isfinite(e.value):
                return _Value(repr(e.value), False)
            return _Value(f"float({str(e.value)!r})", False)
        if isinstance(e, E.Variable):  # covers lang Var/RVar subclasses
            return self._variable(e)
        if isinstance(e, E.Cast):
            return self._cast(e)
        if isinstance(e, E.Div):
            return self._div(e)
        if isinstance(e, E.Mod):
            return self._mod(e)
        if isinstance(e, (E.Min, E.Max)):
            return self._binary_call(e, "np.minimum" if isinstance(e, E.Min) else "np.maximum")
        if isinstance(e, (E.And, E.Or)):
            return self._binary_call(
                e, "np.logical_and" if isinstance(e, E.And) else "np.logical_or")
        if isinstance(e, E._BinaryOp):
            return self._binary_op(e)
        if isinstance(e, E.Not):
            a = self.expr(e.a)
            return _Value(f"np.logical_not({a.code})", a.aligned)
        if isinstance(e, E.Select):
            return self._select(e)
        if isinstance(e, E.Let):
            return self._let_expr(e)
        if isinstance(e, E.Ramp):
            return self._ramp(e)
        if isinstance(e, E.Broadcast):
            return self._broadcast(e)
        if isinstance(e, E.Load):
            return self._load(e)
        if isinstance(e, E.Call):
            return self._call(e)
        raise SourceCodegenError(f"cannot generate code for expression {type(e).__name__}")

    _BINARY_OPS = {E.Add: "+", E.Sub: "-", E.Mul: "*",
                   E.EQ: "==", E.NE: "!=", E.LT: "<", E.LE: "<=",
                   E.GT: ">", E.GE: ">="}

    def _binary_op(self, e: E._BinaryOp) -> _Value:
        op = self._BINARY_OPS.get(type(e))
        if op is None:
            raise SourceCodegenError(f"cannot generate code for {type(e).__name__}")
        a, b = self.expr(e.a), self.expr(e.b)
        return _Value(f"({a.code} {op} {b.code})", a.aligned or b.aligned)

    def _binary_call(self, e: E._BinaryOp, fn: str) -> _Value:
        a, b = self.expr(e.a), self.expr(e.b)
        return _Value(f"{fn}({a.code}, {b.code})", a.aligned or b.aligned)

    def _div(self, e: E.Div) -> _Value:
        a, b = self.expr(e.a), self.expr(e.b)
        aligned = a.aligned or b.aligned
        if e.type.is_float():
            return _Value(f"({a.code} / {b.code})", aligned)
        # Mirror the interpreter: floor_divide for array operands, the
        # int-floor helper (division by zero yields 0) for scalars.
        if self._is_array(e.a, a) or self._is_array(e.b, b):
            return _Value(f"np.floor_divide({a.code}, {b.code})", aligned)
        return _Value(f"_idiv({a.code}, {b.code})", aligned)

    def _mod(self, e: E.Mod) -> _Value:
        fn = "np.fmod" if e.type.is_float() else "np.mod"
        return self._binary_call(e, fn)

    def _variable(self, e: E.Variable) -> _Value:
        binding = self.env.get(e.name)
        if binding is not None:
            return _Value(binding[0], binding[1])
        py = self.scope_vars.get(e.name)
        if py is None:
            py = f"_s{len(self.scope_vars)}_{_sanitize(e.name)}"
            self.scope_vars[e.name] = py
        return _Value(py, False)

    def _cast(self, e: E.Cast) -> _Value:
        value = self.expr(e.value)
        dtype = self._dtype(e.type)
        if self._is_array(e.value, value):
            return _Value(f"({value.code}).astype({dtype})", value.aligned)
        return _Value(f"{dtype}.type({value.code})", value.aligned)

    def _select(self, e: E.Select) -> _Value:
        c = self.expr(e.condition)
        t = self.expr(e.true_value)
        f = self.expr(e.false_value)
        aligned = c.aligned or t.aligned or f.aligned
        if self._is_array(e.condition, c):
            return _Value(f"np.where({c.code}, {t.code}, {f.code})", aligned)
        return _Value(f"(({t.code}) if ({c.code}) else ({f.code}))", aligned)

    def _let_expr(self, e: E.Let) -> _Value:
        value = self.expr(e.value)
        py = self._tmp()
        self._line(f"{py} = {value.code}")
        saved = self.env.get(e.name)
        self.env[e.name] = (py, value.aligned)
        try:
            return self.expr(e.body)
        finally:
            if saved is None:
                self.env.pop(e.name, None)
            else:
                self.env[e.name] = saved

    def _ramp(self, e: E.Ramp) -> _Value:
        base = self.expr(e.base)
        stride = self.expr(e.stride)
        lanes = self._arange(e.lanes)
        if base.aligned:
            # Keep the batch axis (axis 0) and the lane axis (axis 1) apart.
            code = (f"(({base.code})[..., None] + "
                    f"np.asarray({stride.code})[..., None] * {lanes})")
        else:
            code = f"(({base.code}) + ({stride.code}) * {lanes})"
        return _Value(code, base.aligned or stride.aligned)

    def _broadcast(self, e: E.Broadcast) -> _Value:
        value = self.expr(e.value)
        if value.aligned:
            # A batched scalar lifts to (iterations, 1) so NumPy pairs the
            # batch axis with the lane axis of its siblings.
            return _Value(f"(({value.code})[:, None])", True)
        return _Value(f"np.full({e.lanes}, {value.code})", False)

    def _load(self, e: E.Load) -> _Value:
        buf = self._buffer(e.name)
        index = self.expr(e.index)
        return _Value(f"{buf}[{index.code}]", index.aligned)

    def _call(self, e: E.Call) -> _Value:
        if e.call_type != E.CallType.INTRINSIC:
            raise SourceCodegenError(
                f"call to {e.name!r} survived lowering; it should have become a Load"
            )
        if e.name == "likely":
            return self.expr(e.args[0])
        fn = _INTRINSIC_FUNCS.get(e.name)
        if fn is None:
            raise SourceCodegenError(f"unknown intrinsic {e.name!r}")
        args = [self.expr(a) for a in e.args]
        return _Value(f"{fn}({', '.join(a.code for a in args)})",
                      any(a.aligned for a in args))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def stmt(self, node: Optional[S.Stmt]) -> None:
        if node is None:
            return
        if isinstance(node, S.Block):
            for s in node.stmts:
                self.stmt(s)
            return
        if isinstance(node, S.LetStmt):
            value = self.expr(node.value)
            py = self._tmp()
            self._line(f"{py} = {value.code}")
            saved = self.env.get(node.name)
            self.env[node.name] = (py, value.aligned)
            try:
                self.stmt(node.body)
            finally:
                if saved is None:
                    self.env.pop(node.name, None)
                else:
                    self.env[node.name] = saved
            return
        if isinstance(node, S.ProducerConsumer):
            if node.is_producer:
                self._line(f"# produce {node.name}")
            self.stmt(node.body)
            return
        if isinstance(node, S.For):
            self._for(node)
            return
        if isinstance(node, S.Allocate):
            self._allocate(node)
            return
        if isinstance(node, S.Store):
            self._store(node)
            return
        if isinstance(node, S.IfThenElse):
            self._if(node)
            return
        if isinstance(node, S.AssertStmt):
            condition = self.expr(node.condition)
            if self._is_array(node.condition, condition):
                self._line(f"if not bool(np.all({condition.code})):")
            else:
                self._line(f"if not ({condition.code}):")
            self.indent += 1
            self._line(f"raise ExecutionError({node.message!r})")
            self.indent -= 1
            return
        if isinstance(node, S.Evaluate):
            value = self.expr(node.value)
            self._line(value.code)
            return
        if isinstance(node, (S.Realize, S.Provide)):
            raise SourceCodegenError(
                "the compiled backend requires flattened storage; run the flattening pass"
            )
        raise SourceCodegenError(f"cannot generate code for statement {type(node).__name__}")

    def _block(self, node: S.Stmt) -> None:
        """Emit a statement as an indented suite, padding empty suites."""
        mark = len(self.lines)
        self.indent += 1
        try:
            self.stmt(node)
            if not any(not code.startswith("#") for _, code in self.lines[mark:]):
                self._line("pass")
        finally:
            self.indent -= 1

    def _allocate(self, node: S.Allocate) -> None:
        size = self.expr(node.size)
        py = self._tmp(f"_b_{_sanitize(node.name)}_")
        # rt.alloc gives externally provided storage (the output buffer)
        # precedence, exactly as in the interpreter's Allocate handling.
        self._line(f"{py} = rt.alloc(buffers, {node.name!r}, {size.code}, "
                   f"{self._dtype(node.type)})")
        saved = self.buf_env.get(node.name)
        self.buf_env[node.name] = py
        try:
            self.stmt(node.body)
        finally:
            if saved is None:
                self.buf_env.pop(node.name, None)
            else:
                self.buf_env[node.name] = saved

    def _if(self, node: S.IfThenElse) -> None:
        condition = self.expr(node.condition)
        if self._is_array(node.condition, condition):
            raise SourceCodegenError(
                "vector guard conditions are not batched by the compiled backend "
                "(the loop should have taken the scalar path)"
            )
        self._line(f"if {condition.code}:")
        self._block(node.then_case)
        if node.else_case is not None:
            self._line("else:")
            self._block(node.else_case)

    def _store(self, node: S.Store) -> None:
        buf = self._buffer(node.name)
        index = self.expr(node.index)
        value = self.expr(node.value)
        if not self._in_batch or not self._is_array(node.index, index):
            if self._in_batch and self._is_array(node.value, value):
                # The batched index collapsed to one location but values
                # differ per iteration: scalar order ("last wins") cannot
                # survive a scatter.
                self._line(f"raise _BatchAbort({node.name!r})")
                return
            if self._is_array(node.value, value) and not self._is_array(node.index, index):
                # Scalar index, vector value: the interpreter stores the
                # lanes contiguously from the index.
                idx, val = self._tmp("_ix"), self._tmp("_sv")
                self._line(f"{idx} = {index.code}")
                self._line(f"{val} = {value.code}")
                self._line(f"{buf}[{idx}:{idx} + {val}.size] = {val}")
                return
            self._line(f"{buf}[{index.code}] = {value.code}")
            return
        py = self._tmp("_ix")
        self._line(f"{py} = {index.code}")
        if id(node) not in self._certified:
            self._line(f"if not _indices_unique({py}):")
            self.indent += 1
            self._line(f"raise _BatchAbort({node.name!r})")
            self.indent -= 1
        self._line(f"{buf}[{py}] = {value.code}")

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------
    def _for(self, node: S.For) -> None:
        mn_value = self.expr(node.min)
        ex_value = self.expr(node.extent)
        mn, ex = self._tmp("_mn"), self._tmp("_ex")
        self._line(f"{mn} = {mn_value.code}")
        self._line(f"{ex} = {ex_value.code}")
        if node.for_type == S.ForType.PARALLEL:
            # The body becomes a closure over one chunk [_lo, _hi): the
            # ordinary serial loop, reading the enclosing locals directly.
            fn = self._tmp(f"_chunk_{_sanitize(node.name)}_")
            self._line(f"def {fn}(_lo, _hi):")
            self.indent += 1
            chunk_ex = self._tmp("_ex")
            self._line(f"{chunk_ex} = _hi - _lo")
            self._serial_loop(node, "_lo", chunk_ex)
            self.indent -= 1
            self._line(f"rt.parallel_for({fn}, {mn}, {ex})")
            return
        self._serial_loop(node, mn, ex)

    def _serial_loop(self, node: S.For, mn: str, ex: str) -> None:
        info = self.batch_info.get(id(node))
        if info is not None and info.batchable and self._guards_allow_batching(node):
            self._batched_loop(node, info, mn, ex)
            return
        self._scalar_loop(node, mn, ex)

    def _scalar_loop(self, node: S.For, mn: str, ex: str) -> None:
        py = self._tmp(f"_v_{_sanitize(node.name)}_")
        self._line(f"# for {node.name} [{node.for_type.value}]")
        self._line(f"for {py} in range({mn}, {mn} + {ex}):")
        saved = self.env.get(node.name)
        self.env[node.name] = (py, False)
        try:
            self._block(node.body)
        finally:
            if saved is None:
                self.env.pop(node.name, None)
            else:
                self.env[node.name] = saved

    def _guards_allow_batching(self, node: S.For) -> bool:
        """Whether every guard in the body stays scalar under batching.

        The compiled backend does not emit masked sub-batches: a loop whose
        body guards on the loop variable (a GUARD_WITH_IF split tail) runs
        through the scalar path instead.
        """
        tainted = {node.name}
        index = NameIndex()
        ok = True

        def walk(n) -> None:
            nonlocal ok
            if n is None or not ok:
                return
            if isinstance(n, (S.LetStmt, E.Let)):
                walk(n.value)
                if not index.variables(n.value).isdisjoint(tainted):
                    tainted.add(n.name)
                walk(n.body)
                return
            if isinstance(n, S.IfThenElse):
                if not index.variables(n.condition).isdisjoint(tainted) \
                        or n.condition.type.lanes > 1:
                    ok = False
                    return
            for child in children_of(n):
                walk(child)

        walk(node.body)
        return ok

    def _emit_certificates(self, node: S.For, info: LoopBatchInfo,
                           ex: str) -> Tuple[str, Set[int], bool]:
        """Evaluate the loop's disjointness certificates into a gate variable.

        Returns ``(gate, certified_store_ids, needs_abort_fallback)``: the
        vector path runs only when ``gate`` is true; stores outside
        ``certified_store_ids`` carry a runtime uniqueness check that can
        abort the batch.
        """
        terms = [f"{ex} >= 2"]
        certified: Set[int] = set()
        for check in info.store_checks:
            coefficient = self.expr(check.coefficient)
            terms.append(f"int({coefficient.code}) != 0")
            certified.add(id(check.store))
        stores: List[S.Store] = []

        def collect(n) -> None:
            if isinstance(n, S.Store):
                stores.append(n)
            for child in children_of(n):
                collect(child)

        collect(node.body)
        needs_abort = any(id(s) not in certified for s in stores)
        gate = self._tmp("_vec")
        self._line(f"{gate} = {' and '.join(terms)}")
        return gate, certified, needs_abort

    def _vector_body(self, node: S.For, vec: str, certified: Set[int]) -> None:
        saved_env = self.env.get(node.name)
        saved_batch, saved_certified = self._in_batch, self._certified
        self.env[node.name] = (vec, True)
        self._in_batch, self._certified = True, certified
        try:
            self.stmt(node.body)
        finally:
            self._in_batch, self._certified = saved_batch, saved_certified
            if saved_env is None:
                self.env.pop(node.name, None)
            else:
                self.env[node.name] = saved_env

    def _batched_loop(self, node: S.For, info: LoopBatchInfo, mn: str, ex: str) -> None:
        self._line(f"# for {node.name} [batched]")
        gate, certified, needs_abort = self._emit_certificates(node, info, ex)
        vec = self._tmp(f"_v_{_sanitize(node.name)}_")
        done = self._tmp("_done") if needs_abort else None
        self._line(f"if {gate}:")
        self.indent += 1
        if needs_abort:
            self._line("try:")
            self.indent += 1
        self._line(f"{vec} = np.arange({mn}, {mn} + {ex})")
        self._vector_body(node, vec, certified)
        if needs_abort:
            self._line(f"{done} = True")
            self.indent -= 1
            self._line("except _BatchAbort:")
            self.indent += 1
            self._line(f"{done} = False")
            self.indent -= 1
        self.indent -= 1
        self._line("else:")
        self.indent += 1
        if needs_abort:
            self._line(f"{done} = False")
        else:
            self._scalar_loop(node, mn, ex)
        self.indent -= 1
        if needs_abort:
            # Replaying after a partial batch is safe: the abort fires at the
            # single store's uniqueness check, before that store commits (the
            # only load/store overlap legality admits — the same-index RMW —
            # requires the body to have no other store), so the scalar loop
            # starts from unmodified contents and rewrites every location in
            # the correct order.
            self._line(f"if not {done}:")
            self.indent += 1
            self._scalar_loop(node, mn, ex)
            self.indent -= 1

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def generate(self) -> str:
        self.stmt(self.lowered.stmt)
        body = self.lines
        self.lines = []
        self.indent = 0
        output = self.lowered.output.name
        self._line(f"# Python source compiled from pipeline {output!r}.")
        self._line("# Regenerated by repro.codegen.source_backend; inspect via")
        self._line("# CompiledPipeline.source().")
        for dtype, py in sorted(self.dtype_consts.items()):
            self._line(f"{py} = np.dtype({dtype!r})")
        for lanes, py in sorted(self.arange_consts.items()):
            self._line(f"{py} = np.arange({lanes})")
        self._line("")
        self._line(f"def {_ENTRY_NAME}(scope, buffers, rt):")
        self.indent = 1
        for name, py in self.scope_vars.items():
            self._line(f"{py} = _scope_get(scope, {name!r})")
        for name, py in self.extern_buffers.items():
            self._line(f"{py} = _buffer_get(buffers, {name!r})")
        header = self.lines
        if not body:
            body = [(1, "pass")]
        return "\n".join("    " * ind + code for ind, code in header + body) + "\n"


class CompiledProgram:
    """The generated source and its compiled entry point for one lowering."""

    __slots__ = ("source", "entry", "filename")

    def __init__(self, source: str, entry, filename: str):
        self.source = source
        self.entry = entry
        self.filename = filename


def generate_source(lowered: LoweredPipeline) -> str:
    """The generated Python source for a lowered pipeline (cached)."""
    return compile_lowered(lowered).source


def exec_source(source: str, filename: str) -> dict:
    """``compile()`` + ``exec()`` generated source, returning its namespace.

    Used by :func:`compile_lowered` here and by the persistent cache when it
    restores a program without relowering.  The source is registered with
    :mod:`linecache` so tracebacks through generated code show it.
    """
    namespace = dict(_GENERATED_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - own codegen
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace


def make_program(source: str, filename: str) -> CompiledProgram:
    """Build a :class:`CompiledProgram` from source text alone (no lowering)."""
    namespace = exec_source(source, filename)
    return CompiledProgram(source, namespace[_ENTRY_NAME], filename)


def compile_lowered(lowered: LoweredPipeline) -> CompiledProgram:
    """Generate, ``compile()`` and ``exec()`` the pipeline function (cached).

    The program is cached on the :class:`LoweredPipeline` itself: one
    generation per lowering, shared by every executor over it.  The pipeline
    compile cache already keys lowerings by (schedule digest, sizes, target,
    options), so this is the "compile once" of compile-once/run-many.
    """
    cached = getattr(lowered, "_compiled_program", None)
    if cached is not None:
        return cached
    # Inlined pipelines produce deep expression trees; emission recurses.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))
    source = _Emitter(lowered).generate()
    filename = f"<repro.compiled:{lowered.output.name}>"
    program = make_program(source, filename)
    lowered._compiled_program = program
    return program


class CompiledExecutor(Executor):
    """Runs a lowered pipeline through generated Python/NumPy source.

    Drop-in executor API (``bind``/``bind_input``/``provide_buffer``/``run``)
    but with no instrumentation: generated code reports no listener events
    (``drives_listeners`` is ``False``).  ``target.threads`` sizes the thread
    pool parallel loops run on; ``None``/``1`` executes them inline.
    """

    #: Listener opt-out marker: events are never delivered through this
    #: backend, so counters/cost models must use ``interp`` (or ``numpy``).
    drives_listeners = False

    def __init__(self, lowered: LoweredPipeline,
                 listeners: Iterable[ExecutionListener] = (),
                 target=None):
        super().__init__(lowered, listeners=listeners, target=target)
        self._program = compile_lowered(lowered)
        self._runtime = ParallelRuntime(getattr(target, "threads", None))

    @property
    def source(self) -> str:
        """The generated Python source (for debugging / inspection)."""
        return self._program.source

    def run(self) -> None:
        self._program.entry(self.scope, self.buffers, self._runtime)
