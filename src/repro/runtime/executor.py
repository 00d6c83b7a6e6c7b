"""A tree-walking interpreter for lowered pipelines.

The executor evaluates the fully lowered statement over numpy buffers.  It is
the reference backend: every schedule of a pipeline must produce bit-identical
output through it (the property the paper's compiler guarantees by
construction), and it drives the instrumentation listeners that feed the
machine model.

Buffers are stored flat.  The flat index convention matches the flattening
pass: dimension 0 is innermost (stride 1), so multi-dimensional numpy views
use Fortran ordering (``reshape(shape, order="F")``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.compiler.lower import LoweredPipeline
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.runtime.counters import ExecutionListener

__all__ = ["Executor", "ExecutionError", "build_eval_table"]


class ExecutionError(RuntimeError):
    """Raised when the interpreter encounters an unbound name or bad access."""


_INTRINSICS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "floor": np.floor,
    "ceil": np.ceil,
    "round": np.round,
    "abs": np.abs,
    "pow": np.power,
    "likely": lambda x: x,
}


#: Input marshal granularity: the source is copied this many bytes at a time
#: along its largest-stride axis, so a slab is still in L2 while it is
#: scattered into the destination (strip-mining the transposition) ...
_SLAB_BYTES = 256 * 1024
#: ... but in no fewer source rows than fill this many bytes: the slab's row
#: count is the length of each contiguous run it writes, and runs of under a
#: few cache lines are what makes a cache-cold transposition slow.
_SLAB_MIN_RUN_BYTES = 256


def _flat_fortran(array: np.ndarray) -> np.ndarray:
    """``array``'s elements as a flat buffer with dimension 0 at stride 1.

    An array that already is Fortran-contiguous is returned as a view (no
    copy; the kernels only read inputs).  Anything else is copied once into
    a fresh buffer, slab by slab — byte-identical to one whole-array
    transposing copy, several times faster at image sizes.
    """
    if array.flags.f_contiguous:
        return array.reshape(-1, order="F")
    flat = np.empty(array.size, dtype=array.dtype)
    dest = flat.reshape(array.shape, order="F")
    if array.nbytes <= _SLAB_BYTES:
        np.copyto(dest, array)
        return flat
    axis = max(range(array.ndim),
               key=lambda i: (array.shape[i] > 1, abs(array.strides[i])))
    rows = array.shape[axis]
    step = max(_SLAB_BYTES * rows // array.nbytes,
               _SLAB_MIN_RUN_BYTES // array.itemsize, 1)
    lead = (slice(None),) * axis
    for start in range(0, rows, step):
        slab = lead + (slice(start, start + step),)
        np.copyto(dest[slab], array[slab])
    return flat


class Executor:
    """Interprets a :class:`~repro.compiler.lower.LoweredPipeline`."""

    #: Whether this backend reports execution events to listeners.  The
    #: compiled backend opts out (generated code has no instrumentation).
    drives_listeners = True

    def __init__(self, lowered: LoweredPipeline,
                 listeners: Iterable[ExecutionListener] = (),
                 target=None):
        self.lowered = lowered
        self.listeners: List[ExecutionListener] = list(listeners)
        #: The resolved Target this executor was created for (may be None).
        #: The interpreter ignores vector_width/threads; subclasses may not.
        self.target = target
        self.scope: Dict[str, object] = {}
        self.buffers: Dict[str, np.ndarray] = {}
        self.buffer_types: Dict[str, np.dtype] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def bind(self, name: str, value) -> None:
        """Bind a free variable (output bounds, scalar parameters, ...)."""
        self.scope[name] = value

    def bind_input(self, name: str, array: np.ndarray) -> None:
        """Provide an input image (an ndarray) as a flat, x-fastest buffer:
        a view of ``array`` when it is already Fortran-contiguous, one
        slab-wise copy otherwise."""
        self.buffers[name] = _flat_fortran(array)
        self.buffer_types[name] = array.dtype
        stride = 1
        for i, extent in enumerate(array.shape):
            self.scope.setdefault(f"{name}.min.{i}", 0)
            self.scope.setdefault(f"{name}.extent.{i}", int(extent))
            self.scope.setdefault(f"{name}.stride.{i}", stride)
            stride *= int(extent)

    def provide_buffer(self, name: str, flat_array: np.ndarray) -> None:
        """Provide pre-allocated storage for a realized function (e.g. the output)."""
        self.buffers[name] = flat_array
        self.buffer_types[name] = flat_array.dtype

    def run(self) -> None:
        """Execute the lowered statement."""
        import sys

        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))
        self._execute(self.lowered.stmt)

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def _execute(self, stmt: S.Stmt) -> None:
        if stmt is None:
            return
        method = getattr(self, "_exec_" + type(stmt).__name__, None)
        if method is None:
            raise ExecutionError(f"cannot execute statement {type(stmt).__name__}")
        method(stmt)

    def _exec_Block(self, stmt: S.Block) -> None:
        for s in stmt.stmts:
            self._execute(s)

    def _exec_LetStmt(self, stmt: S.LetStmt) -> None:
        value = self._eval(stmt.value)
        saved = self.scope.get(stmt.name, _MISSING)
        self.scope[stmt.name] = value
        try:
            self._execute(stmt.body)
        finally:
            if saved is _MISSING:
                self.scope.pop(stmt.name, None)
            else:
                self.scope[stmt.name] = saved

    def _exec_ProducerConsumer(self, stmt: S.ProducerConsumer) -> None:
        if stmt.is_producer:
            for listener in self.listeners:
                listener.on_produce(stmt.name)
        self._execute(stmt.body)

    def _exec_For(self, stmt: S.For) -> None:
        mn = int(self._eval(stmt.min))
        extent = int(self._eval(stmt.extent))
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
        for listener in self.listeners:
            listener.on_loop_end(stmt.name, stmt.for_type, extent)

    def _exec_Allocate(self, stmt: S.Allocate) -> None:
        size = int(self._eval(stmt.size))
        dtype = stmt.type.to_numpy_dtype()
        preexisting = stmt.name in self.buffers
        if not preexisting:
            self.buffers[stmt.name] = np.zeros(max(size, 0), dtype=dtype)
            self.buffer_types[stmt.name] = dtype
            for listener in self.listeners:
                listener.on_allocate(stmt.name, size, dtype.itemsize)
        try:
            self._execute(stmt.body)
        finally:
            if not preexisting:
                for listener in self.listeners:
                    listener.on_free(stmt.name)
                # Internal buffers go out of scope; externally provided ones persist.
                del self.buffers[stmt.name]

    def _exec_Store(self, stmt: S.Store) -> None:
        buffer = self.buffers.get(stmt.name)
        if buffer is None:
            raise ExecutionError(f"store to unknown buffer {stmt.name!r}")
        index = self._eval(stmt.index)
        value = self._eval(stmt.value)
        lanes = stmt.value.type.lanes if stmt.value.type.lanes > 1 else 1
        if isinstance(index, np.ndarray):
            lanes = index.size
            idx_array = index.astype(np.intp)
            if idx_array.size and (idx_array.min() < 0 or idx_array.max() >= buffer.size):
                raise ExecutionError(
                    f"store to {stmt.name!r} out of bounds "
                    f"(index {int(idx_array.max())}, size {buffer.size})"
                )
            buffer[idx_array] = value
        else:
            idx = int(index)
            if idx < 0 or idx >= buffer.size:
                raise ExecutionError(
                    f"store to {stmt.name!r} out of bounds (index {idx}, size {buffer.size})"
                )
            if isinstance(value, np.ndarray) and value.ndim > 0:
                buffer[idx:idx + value.size] = value
                lanes = value.size
            else:
                buffer[idx] = value
                lanes = 1
        for listener in self.listeners:
            listener.on_store(stmt.name, index, lanes, buffer.dtype.itemsize)

    def _exec_IfThenElse(self, stmt: S.IfThenElse) -> None:
        condition = self._eval(stmt.condition)
        if bool(condition):
            self._execute(stmt.then_case)
        elif stmt.else_case is not None:
            self._execute(stmt.else_case)

    def _exec_AssertStmt(self, stmt: S.AssertStmt) -> None:
        if not bool(self._eval(stmt.condition)):
            raise ExecutionError(stmt.message)

    def _exec_Evaluate(self, stmt: S.Evaluate) -> None:
        self._eval(stmt.value)

    def _exec_Realize(self, stmt: S.Realize) -> None:
        # Realize nodes only survive when flattening is skipped (not the normal
        # path); treat them as allocations of the boxed region.
        raise ExecutionError(
            "the executor requires flattened storage; run the flattening pass"
        )

    def _exec_Provide(self, stmt: S.Provide) -> None:
        raise ExecutionError(
            "the executor requires flattened stores; run the flattening pass"
        )

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, e: E.Expr):
        kind = type(e).__name__
        method = self._EVAL_TABLE.get(kind)
        if method is None:
            raise ExecutionError(f"cannot evaluate expression {kind}")
        return method(self, e)

    def _eval_IntImm(self, e: E.IntImm):
        return e.value

    def _eval_FloatImm(self, e: E.FloatImm):
        return e.value

    def _eval_Variable(self, e: E.Variable):
        try:
            return self.scope[e.name]
        except KeyError:
            raise ExecutionError(f"unbound variable {e.name!r}") from None

    def _eval_Cast(self, e: E.Cast):
        value = self._eval(e.value)
        dtype = e.type.to_numpy_dtype()
        if isinstance(value, np.ndarray):
            return value.astype(dtype)
        return dtype.type(value)

    def _arith(self, lanes: int) -> None:
        for listener in self.listeners:
            listener.on_arith(1, lanes)

    def _lanes_of(self, value) -> int:
        return value.size if isinstance(value, np.ndarray) and value.ndim > 0 else 1

    def _eval_Add(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a + b

    def _eval_Sub(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a - b

    def _eval_Mul(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a * b

    def _eval_Div(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        if e.type.is_float():
            return a / b
        return np.floor_divide(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) \
            else _int_floor_div(a, b)

    def _eval_Mod(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        if e.type.is_float():
            return np.fmod(a, b)
        return np.mod(a, b)

    def _eval_Min(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return np.minimum(a, b)

    def _eval_Max(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return np.maximum(a, b)

    def _eval_EQ(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a == b

    def _eval_NE(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a != b

    def _eval_LT(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a < b

    def _eval_LE(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a <= b

    def _eval_GT(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a > b

    def _eval_GE(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        self._arith(max(self._lanes_of(a), self._lanes_of(b)))
        return a >= b

    def _eval_And(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        return np.logical_and(a, b)

    def _eval_Or(self, e):
        a, b = self._eval(e.a), self._eval(e.b)
        return np.logical_or(a, b)

    def _eval_Not(self, e):
        return np.logical_not(self._eval(e.a))

    def _eval_Select(self, e):
        condition = self._eval(e.condition)
        true_value = self._eval(e.true_value)
        false_value = self._eval(e.false_value)
        if isinstance(condition, np.ndarray):
            return np.where(condition, true_value, false_value)
        return true_value if bool(condition) else false_value

    def _eval_Let(self, e: E.Let):
        value = self._eval(e.value)
        saved = self.scope.get(e.name, _MISSING)
        self.scope[e.name] = value
        try:
            return self._eval(e.body)
        finally:
            if saved is _MISSING:
                self.scope.pop(e.name, None)
            else:
                self.scope[e.name] = saved

    def _eval_Ramp(self, e: E.Ramp):
        base = self._eval(e.base)
        stride = self._eval(e.stride)
        return base + stride * np.arange(e.lanes)

    def _eval_Broadcast(self, e: E.Broadcast):
        value = self._eval(e.value)
        if isinstance(value, np.ndarray) and value.ndim > 0:
            return value
        return np.full(e.lanes, value)

    def _eval_Load(self, e: E.Load):
        buffer = self.buffers.get(e.name)
        if buffer is None:
            raise ExecutionError(f"load from unknown buffer {e.name!r}")
        index = self._eval(e.index)
        if isinstance(index, np.ndarray):
            idx = index.astype(np.intp)
            if idx.size and (idx.min() < 0 or idx.max() >= buffer.size):
                raise ExecutionError(
                    f"load from {e.name!r} out of bounds "
                    f"(index {int(idx.max())}, size {buffer.size})"
                )
            value = buffer[idx]
            lanes = idx.size
        else:
            scalar_index = int(index)
            if scalar_index < 0 or scalar_index >= buffer.size:
                raise ExecutionError(
                    f"load from {e.name!r} out of bounds "
                    f"(index {scalar_index}, size {buffer.size})"
                )
            value = buffer[scalar_index]
            lanes = 1
        for listener in self.listeners:
            listener.on_load(e.name, index, lanes, buffer.dtype.itemsize)
        return value

    def _eval_Call(self, e: E.Call):
        if e.call_type == E.CallType.INTRINSIC:
            fn = _INTRINSICS.get(e.name)
            if fn is None:
                raise ExecutionError(f"unknown intrinsic {e.name!r}")
            args = [self._eval(a) for a in e.args]
            self._arith(max((self._lanes_of(a) for a in args), default=1))
            return fn(*args)
        raise ExecutionError(
            f"call to {e.name!r} survived lowering; it should have become a Load"
        )


def _int_floor_div(a, b):
    if b == 0:
        return 0
    # Exact in Python ints: a float quotient rounds past 2**53.
    return int(a) // int(b)


class _Missing:
    pass


_MISSING = _Missing()

def build_eval_table(cls) -> dict:
    """Map expression class names to ``cls``'s ``_eval_<Name>`` methods.

    Backends subclassing :class:`Executor` rebuild the table so their
    overrides take part in dispatch (dict lookup is measurably faster than
    per-node ``getattr``, which matters for the tree-walking interpreter).
    """
    table = {
        name[len("_eval_"):]: getattr(cls, name)
        for name in dir(cls)
        if name.startswith("_eval_")
    }
    # The front-end Var/RVar classes are Variable subclasses; route them the same way.
    table["Var"] = table["Variable"]
    table["RVar"] = table["Variable"]
    return table


Executor._EVAL_TABLE = build_eval_table(Executor)
