"""The native compile-to-C backend.

Where the ``compiled`` backend (:mod:`repro.codegen.source_backend`) emits
Python/NumPy source and pays interpreter dispatch never, this backend leaves
the host interpreter entirely: :func:`compile_lowered_native` walks the
lowered ``Stmt``/``Expr`` tree once and emits a **self-contained C translation
unit** for the whole pipeline — restrict-qualified flat buffers, the exact
loop bounds the existing inference produced, ``ForType.PARALLEL`` loops as
OpenMP parallel-for (serial when the toolchain has no OpenMP; bit-identical
either way) — builds it into a shared object through
:mod:`repro.codegen.c_toolchain`, and loads it with :mod:`ctypes`.

**Bit-exactness contract.**  The emitted C reproduces the interpreter's NumPy
semantics exactly, not approximately:

* every expression is materialized at its **runtime** type — the type the
  interpreter's NumPy values actually take, found by abstractly interpreting
  the tree under NEP-50 promotion over value *provenance* (weak Python
  scalar / strong NumPy scalar / ndarray: ``Broadcast`` strongifies via
  ``np.full``, ``Ramp`` is int64 ``np.arange`` arithmetic, ``min``/``max``/
  ``mod`` always return strong values, ...).  Each op computes at the
  promoted C type with an explicit outer cast, which reproduces NumPy's
  fixed-width wrapping (builds use ``-fwrapv``) and its late-rounding
  float64 intermediates bit-for-bit;
* integer division/modulo are *floored* with the divide-by-zero → 0
  convention, exactly as ``np.floor_divide``/``np.mod``.  A divisor that is
  a positive compile-time constant (after conversion to the operation's C
  type) is emitted inline: a shift or mask for a power of two, else a
  branch-free floor the C compiler strength-reduces, so loops over
  resampling index maps (``x / 2``, ``x % 2``) stay vectorizable.  Only
  variable, zero and negative divisors call the zero-testing helpers;
* ``Min``/``Max`` use helpers that propagate NaN from either side and return
  the second operand on ties — the empirically verified behaviour of
  ``np.minimum``/``np.maximum`` (including signed zeros);
* float arithmetic compiles with ``-ffp-contract=off`` and without
  ``-ffast-math``, so no FMA contraction or reassociation can change bits;
* ``sqrt``/``floor``/``ceil``/``round``/``abs`` map to the exactly-specified
  libm calls (``round`` is ``rint`` — NumPy rounds half to even); the
  transcendentals ``exp``/``log``/``sin``/``cos``/``pow`` — whose NumPy
  implementations are *not* bit-identical to libm — are routed through C
  function pointers back into NumPy itself (a ctypes callback per function
  and precision), so they are bit-identical by construction.  Pipelines only
  use them in small LUT builds, so the round trip is off the hot path.

``vectorize`` schedules arrive here already rewritten into wide expressions
(the vectorize pass erases the loop); vector-typed stores are emitted as
fixed-trip **lane loops** the C compiler auto-vectorizes (``#pragma omp
simd`` on provably disjoint ramp stores), which is the paper's "let the
backend pick the SIMD instructions" division of labour.

The generated source is deterministic for a given lowering (OpenMP pragmas
are always emitted and simply ignored by non-OpenMP builds), so its digest
with the build command (``Toolchain.build_digest``) names the on-disk ``.so``
blob next to the persistent-cache entry: a warm start loads the cached
shared object with zero lowerings *and* zero C-compiler invocations.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.codegen.c_toolchain import compile_shared_object, ensure_toolchain
from repro.compiler.lower import LoweredPipeline
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.visitor import children_of
from repro.runtime.counters import ExecutionListener
from repro.runtime.executor import ExecutionError, Executor
from repro.types import Type

__all__ = [
    "NativeCodegenError",
    "NativeExecutor",
    "NativeProgram",
    "compile_lowered_native",
    "generate_c_source",
    "restore_native_program",
]

ENTRY_SYMBOL = "repro_entry"
CALLBACK_SETTER_SYMBOL = "repro_set_callbacks"


class NativeCodegenError(RuntimeError):
    """Raised when the C code generator meets IR it cannot emit."""


# ---------------------------------------------------------------------------
# type mapping
# ---------------------------------------------------------------------------

_CTYPES = {
    ("int", 8): "int8_t", ("int", 16): "int16_t",
    ("int", 32): "int32_t", ("int", 64): "int64_t",
    ("uint", 8): "uint8_t", ("uint", 16): "uint16_t",
    ("uint", 32): "uint32_t", ("uint", 64): "uint64_t",
    ("float", 32): "float", ("float", 64): "double",
    ("bool", 8): "uint8_t",
}


def _ctype(type_: Type) -> str:
    ct = _CTYPES.get((type_.code, type_.bits))
    if ct is None:
        raise NativeCodegenError(
            f"native backend cannot represent type {type_} in C")
    return ct


#: Intrinsics with exactly-specified IEEE semantics: safe to call libm
#: directly (verified bit-identical to NumPy).  (f32 name, f64 name).
_LIBM_EXACT = {
    "sqrt": ("sqrtf", "sqrt"),
    "floor": ("floorf", "floor"),
    "ceil": ("ceilf", "ceil"),
    "round": ("rintf", "rint"),  # np.round == round-half-even == rint
}

#: Intrinsics whose NumPy implementation differs from libm in the last ulp:
#: routed through callbacks into NumPy itself.  Order defines callback-slot
#: numbering (per (name, bits) on first use).
_CALLBACK_FNS = ("exp", "log", "sin", "cos", "pow")


_RUNTIME_HELPERS = r"""
static inline int64_t repro_idiv_i64(int64_t a, int64_t b) {
    int64_t q;
    if (b == 0) return 0;
    q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static inline int64_t repro_imod_i64(int64_t a, int64_t b) {
    int64_t r;
    if (b == 0) return 0;
    r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
static inline uint64_t repro_udiv_u64(uint64_t a, uint64_t b) {
    return b == 0 ? 0 : a / b;
}
static inline uint64_t repro_umod_u64(uint64_t a, uint64_t b) {
    return b == 0 ? 0 : a % b;
}
/* np.minimum/np.maximum: NaN propagates from either operand; ties (incl.
 * signed zeros) return the second operand. */
static inline float repro_min_f32(float a, float b) {
    if (a != a) return a;
    if (b != b) return b;
    return a < b ? a : b;
}
static inline float repro_max_f32(float a, float b) {
    if (a != a) return a;
    if (b != b) return b;
    return a > b ? a : b;
}
static inline double repro_min_f64(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return a < b ? a : b;
}
static inline double repro_max_f64(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return a > b ? a : b;
}
static inline int64_t repro_min_i64(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t repro_max_i64(int64_t a, int64_t b) { return a > b ? a : b; }
static inline uint64_t repro_min_u64(uint64_t a, uint64_t b) { return a < b ? a : b; }
static inline uint64_t repro_max_u64(uint64_t a, uint64_t b) { return a > b ? a : b; }
/* np.abs on signed ints wraps at the operand width (|INT_MIN| == INT_MIN
 * after the caller's cast back); -fwrapv makes the negation defined. */
static inline int64_t repro_abs_i64(int64_t a) { return a < 0 ? -a : a; }
"""


def _sanitize(name: str) -> str:
    import re

    return re.sub(r"\W+", "_", name)


# ---------------------------------------------------------------------------
# runtime types
#
# The interpreter's semantics are NumPy's, which means each value's dtype is
# determined at *runtime* by NEP-50 promotion over the actual operand values,
# not by the IR node type: Python scalars (immediates, loop indices, let-bound
# Python values) are "weak" and adopt the dtype of strong operands; NumPy
# scalars and arrays are "strong" and promote conventionally; and crucially,
# the vector path's Broadcast (np.full) turns weak scalars into strong
# float64/int64 arrays, so vectorized float32 arithmetic against broadcast
# immediates is computed in float64 and rounded late.  To be bit-identical the
# C emitter abstractly interprets every expression to its runtime type and
# materializes each operation at exactly that dtype.
# ---------------------------------------------------------------------------

class _RT:
    """Abstract runtime type: ``arr`` = ndarray-valued; ``code`` is a dtype
    key (``i8``..``u64``, ``f32``/``f64``, ``b``) or a weak Python-scalar
    marker (``wi``/``wf``)."""

    __slots__ = ("arr", "code")

    def __init__(self, arr: bool, code: str):
        self.arr = arr
        self.code = code

    def __repr__(self):
        return f"_RT({self.arr}, {self.code!r})"


_CT_OF_CODE = {
    "wi": "int64_t", "wf": "double", "b": "uint8_t",
    "i8": "int8_t", "i16": "int16_t", "i32": "int32_t", "i64": "int64_t",
    "u8": "uint8_t", "u16": "uint16_t", "u32": "uint32_t", "u64": "uint64_t",
    "f32": "float", "f64": "double",
}

_NP_OF_CODE = {
    "b": np.bool_,
    "i8": np.int8, "i16": np.int16, "i32": np.int32, "i64": np.int64,
    "u8": np.uint8, "u16": np.uint16, "u32": np.uint32, "u64": np.uint64,
    "f32": np.float32, "f64": np.float64,
}

_CODE_OF_NP = {np.dtype(v).name: k for k, v in _NP_OF_CODE.items()}


def _code_of_type(t: Type) -> str:
    """The strong dtype key of an IR element type."""
    if t.code == "bool":
        return "b"
    if t.code == "float":
        return f"f{t.bits}"
    prefix = "i" if t.code == "int" else "u"
    return f"{prefix}{t.bits}"


def _ct(rt: _RT) -> str:
    return _CT_OF_CODE[rt.code]


def _is_weak(code: str) -> bool:
    return code in ("wi", "wf")


def _strong(code: str) -> str:
    """The dtype a weak Python scalar lands on when NumPy materializes it
    (np.full, np.minimum, np.mod, np.where...): int64 / float64."""
    return {"wi": "i64", "wf": "f64"}.get(code, code)


def _promote(a: _RT, b: _RT) -> _RT:
    """NEP-50 promotion of two runtime types (delegated to np.result_type;
    weak + weak stays weak, as Python scalar arithmetic does)."""
    arr = a.arr or b.arr
    if _is_weak(a.code) and _is_weak(b.code):
        return _RT(arr, "wf" if "wf" in (a.code, b.code) else "wi")

    def rep(code: str):
        if code == "wi":
            return 1
        if code == "wf":
            return 1.5
        return _NP_OF_CODE[code]

    result = np.result_type(rep(a.code), rep(b.code))
    return _RT(arr, _CODE_OF_NP[result.name])


def _positive_constant(e: E.Expr, code: str) -> Optional[int]:
    """The divisor ``e`` as C sees it after conversion to the operation's
    type (runtime dtype ``code``), when that is a compile-time constant > 0;
    else None.  Converting first matters: ``(int8_t)128`` is -128."""
    while isinstance(e, E.Broadcast):
        e = e.value
    if not isinstance(e, E.IntImm) or code == "b":
        return None
    info = np.iinfo(_NP_OF_CODE[_strong(code)])
    value = e.value & ((1 << info.bits) - 1)
    if value > info.max:
        value -= 1 << info.bits
    return value if value > 0 else None


class _Binding:
    """One in-scope IR name: a C scalar local or a per-lane array local."""

    __slots__ = ("cname", "rt", "is_lane_array")

    def __init__(self, cname: str, rt: _RT, is_lane_array: bool = False):
        self.cname = cname
        self.rt = rt
        self.is_lane_array = is_lane_array


class _CEmitter:
    """One pass over the lowered statement emitting the C translation unit."""

    def __init__(self, lowered: LoweredPipeline):
        self.lowered = lowered
        self.lines: List[Tuple[int, str]] = []
        self.indent = 1
        self._counter = 0
        #: IR name -> binding for let/loop variables in scope.
        self.env: Dict[str, _Binding] = {}
        #: Buffer name -> (slot index, C local name); order = discovery order.
        self.buffers: Dict[str, Tuple[int, str]] = {}
        #: Buffer name -> C element type (consistency-checked).
        self.buffer_ctypes: Dict[str, str] = {}
        #: Buffer names with at least one Allocate site (provision optional).
        self.allocated: set = set()
        #: Buffer names currently bound to a live C pointer (Allocate scopes
        #: + extern prelude); inner re-Allocates of a live name reuse it, as
        #: the interpreter does.
        self._live_buffers: Dict[str, str] = {}
        #: Free scalar IR name -> ("i"|"f", slot, C local name).
        self.scope_vars: Dict[str, Tuple[str, int, str]] = {}
        self._iscalars = 0
        self._fscalars = 0
        #: (fn name, bits) -> callback slot, in first-use order.
        self.callback_slots: Dict[Tuple[str, int], int] = {}
        self.assert_messages: List[str] = []
        #: Nesting depth of parallel loop bodies (asserts cannot `return`).
        self._parallel_depth = 0

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _tmp(self, prefix: str = "_t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _line(self, code: str) -> None:
        self.lines.append((self.indent, code))

    def _buffer_local(self, name: str, elem: str) -> str:
        """The C pointer local for buffer ``name`` (slot-registered)."""
        seen = self.buffer_ctypes.get(name)
        if seen is None:
            self.buffer_ctypes[name] = elem
        elif seen != elem:
            raise NativeCodegenError(
                f"buffer {name!r} accessed as both {seen} and {elem}")
        if name not in self.buffers:
            slot = len(self.buffers)
            self.buffers[name] = (slot, f"_b{slot}_{_sanitize(name)}")
        return self.buffers[name][1]

    def _scope_var(self, e: E.Variable) -> str:
        """Reference a free scalar: bound once in the entry prelude."""
        entry = self.scope_vars.get(e.name)
        if entry is None:
            if e.type.is_float():
                kind, slot = "f", self._fscalars
                self._fscalars += 1
            else:
                kind, slot = "i", self._iscalars
                self._iscalars += 1
            cname = f"_s{len(self.scope_vars)}_{_sanitize(e.name)}"
            entry = (kind, slot, cname)
            self.scope_vars[e.name] = entry
        return entry[2]

    def _callback(self, name: str, bits: int) -> str:
        key = (name, bits)
        if key not in self.callback_slots:
            self.callback_slots[key] = len(self.callback_slots)
        return f"repro_cb_{name}_f{bits}"

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expr(self, e: E.Expr, lane: Optional[str]) -> Tuple[str, _RT]:
        """Emit ``e`` as a C expression at exactly its *runtime* dtype.

        Returns ``(code, rt)`` where ``rt`` is the abstract runtime type the
        interpreter's value would have (see the module-level discussion):
        operands are converted at each operation to the NEP-50-promoted dtype
        and the operation computed there, exactly as NumPy does.  ``lane``
        names the active lane-loop index when emitting one lane of a vector
        expression (None in scalar context).  Expression-level ``Let``
        bindings emit prelude lines at the current position.
        """
        if isinstance(e, E.IntImm):
            if e.value == -(2**63):
                # INT64_MIN has no direct literal spelling in C.
                return "((int64_t)(-9223372036854775807LL - 1))", _RT(False, "wi")
            return f"((int64_t)({e.value}LL))", _RT(False, "wi")
        if isinstance(e, E.FloatImm):
            return f"((double)({_float_literal(e.value)}))", _RT(False, "wf")
        if isinstance(e, E.Variable):
            binding = self.env.get(e.name)
            if binding is not None:
                if binding.is_lane_array:
                    if lane is None:
                        raise NativeCodegenError(
                            f"vector let {e.name!r} referenced in scalar context")
                    return f"{binding.cname}[{lane}]", binding.rt
                return f"({binding.cname})", binding.rt
            # Free scalars arrive from Python as weak int/float values.
            code = "wf" if e.type.is_float() else "wi"
            return f"({self._scope_var(e)})", _RT(False, code)
        if isinstance(e, E.Cast):
            inner, ri = self.expr(e.value, lane)
            rt = _RT(ri.arr or e.type.lanes > 1, _code_of_type(e.type))
            if e.type.code == "bool":
                return f"((uint8_t)(({inner}) != 0))", rt
            return f"(({_ct(rt)})({inner}))", rt
        if isinstance(e, E.Div):
            return self._div(e, lane)
        if isinstance(e, E.Mod):
            return self._mod(e, lane)
        if isinstance(e, (E.Min, E.Max)):
            return self._minmax(e, lane)
        if isinstance(e, (E.Add, E.Sub, E.Mul)):
            op = {"Add": "+", "Sub": "-", "Mul": "*"}[type(e).__name__]
            (a, ra), (b, rb) = self.expr(e.a, lane), self.expr(e.b, lane)
            rt = _promote(ra, rb)
            ct = _ct(rt)
            # Outer cast enforces wrap at the promoted width (C's integer
            # promotion would otherwise compute uint8 + uint8 in int).
            return f"(({ct})((({ct})({a})) {op} (({ct})({b}))))", rt
        if isinstance(e, (E.And, E.Or)):
            # NumPy's logical_and/or evaluate both operands eagerly; C's
            # short-circuit is safe because lowered expressions are pure and
            # integer div/mod never traps (a zero divisor goes to a helper).
            # C truthiness (!= 0, NaN is true) matches np.logical_* exactly.
            (a, ra), (b, rb) = self.expr(e.a, lane), self.expr(e.b, lane)
            op = "&&" if isinstance(e, E.And) else "||"
            return f"((uint8_t)(({a}) {op} ({b})))", _RT(ra.arr or rb.arr, "b")
        if isinstance(e, E._CompareOp):
            op = {"EQ": "==", "NE": "!=", "LT": "<", "LE": "<=",
                  "GT": ">", "GE": ">="}[type(e).__name__]
            (a, ra), (b, rb) = self.expr(e.a, lane), self.expr(e.b, lane)
            rc = _promote(ra, rb)
            ct = _CT_OF_CODE[_strong(rc.code)]
            return (f"((uint8_t)((({ct})({a})) {op} (({ct})({b}))))",
                    _RT(rc.arr, "b"))
        if isinstance(e, E.Not):
            a, ra = self.expr(e.a, lane)
            return f"((uint8_t)(!({a})))", _RT(ra.arr, "b")
        if isinstance(e, E.Select):
            c, rc = self.expr(e.condition, lane)
            t, rt_ = self.expr(e.true_value, lane)
            f, rf = self.expr(e.false_value, lane)
            res = _promote(rt_, rf)
            if rc.arr:
                # np.where materializes weak scalars (2 -> int64).
                res = _RT(True, _strong(res.code))
            ct = _ct(res)
            return (f"(({ct})(({c}) ? (({ct})({t})) : (({ct})({f}))))", res)
        if isinstance(e, E.Let):
            return self._let_expr(e, lane)
        if isinstance(e, E.Ramp):
            return self._ramp(e, lane)
        if isinstance(e, E.Broadcast):
            inner, ri = self.expr(e.value, lane)
            if ri.arr:
                return inner, ri  # np returns already-wide values as-is
            rt = _RT(True, _strong(ri.code))  # np.full: weak -> i64/f64
            return f"(({_ct(rt)})({inner}))", rt
        if isinstance(e, E.Load):
            buf = self._buffer_local(e.name, _ctype(e.type.with_lanes(1)))
            index, ri = self.expr(e.index, lane)
            rt = _RT(ri.arr or e.type.lanes > 1, _code_of_type(e.type))
            return f"({buf}[(int64_t)({index})])", rt
        if isinstance(e, E.Call):
            return self._call(e, lane)
        raise NativeCodegenError(
            f"cannot generate C for expression {type(e).__name__}")

    def _div(self, e: E.Div, lane: Optional[str]) -> Tuple[str, _RT]:
        (a, ra), (b, rb) = self.expr(e.a, lane), self.expr(e.b, lane)
        rt = _promote(ra, rb)
        if e.type.is_float():
            ct = _ct(rt)
            return f"(({ct})((({ct})({a})) / (({ct})({b}))))", rt
        # np.floor_divide for array operands; the interpreter's scalar path
        # returns a plain Python int.  Both are exact floored division with
        # the divide-by-zero -> 0 convention.
        if not rt.arr:
            rt = _RT(False, "wi")
        ct = _CT_OF_CODE[rt.code]
        c = _positive_constant(e.b, rt.code)
        if c is not None:
            return self._floored_by_constant("/", a, ct, c), rt
        wide = _CT_OF_CODE[_strong(rt.code)]
        helper = "repro_udiv_u64" if wide.startswith("u") else "repro_idiv_i64"
        warg = "uint64_t" if wide.startswith("u") else "int64_t"
        return (f"(({ct}){helper}(({warg})(({ct})({a})), "
                f"({warg})(({ct})({b}))))", rt)

    def _mod(self, e: E.Mod, lane: Optional[str]) -> Tuple[str, _RT]:
        (a, ra), (b, rb) = self.expr(e.a, lane), self.expr(e.b, lane)
        # np.fmod / np.mod for scalars too: the result is always strong.
        rt = _promote(ra, rb)
        rt = _RT(rt.arr, _strong(rt.code))
        ct = _ct(rt)
        if e.type.is_float():
            fn = "fmodf" if rt.code == "f32" else "fmod"
            return f"(({ct})({fn}((({ct})({a})), (({ct})({b})))))", rt
        c = _positive_constant(e.b, rt.code)
        if c is not None:
            return self._floored_by_constant("%", a, ct, c), rt
        helper = "repro_umod_u64" if ct.startswith("u") else "repro_imod_i64"
        warg = "uint64_t" if ct.startswith("u") else "int64_t"
        return (f"(({ct}){helper}(({warg})(({ct})({a})), "
                f"({warg})(({ct})({b}))))", rt)

    def _floored_by_constant(self, op: str, a: str, ct: str, c: int) -> str:
        """Floored ``a // c`` (``op`` "/") or ``a % c`` (``op`` "%") at C
        type ``ct`` for a constant ``c > 0``, inline and without a zero test.

        A power of two is a shift or a mask: gcc's signed ``>>`` is
        arithmetic, so both floor for every two's-complement dividend,
        INT64_MIN included.  Unsigned operands need no correction.  A signed
        dividend by any other ``c`` truncates, then steps a negative
        remainder's quotient down by one and its remainder up by ``c``.
        """
        x = f"(({ct})({a}))"
        unsigned = ct.startswith("u")
        suffix = "ULL" if unsigned else "LL"
        if c & (c - 1) == 0:
            if op == "/":
                return f"(({ct})({x} >> {c.bit_length() - 1}))"
            return f"(({ct})({x} & {c - 1}{suffix}))"
        if unsigned:
            return f"(({ct})({x} {op} {c}{suffix}))"
        if op == "/":
            n = self._tmp("_n")
            self._line(f"const int64_t {n} = (int64_t){x};")
            return f"(({ct})(({n} / {c}LL) - (({n} % {c}LL) < 0)))"
        r = self._tmp("_r")
        self._line(f"const int64_t {r} = (int64_t){x} % {c}LL;")
        return f"(({ct})({r} + (({r} < 0) ? {c}LL : 0)))"

    def _minmax(self, e, lane: Optional[str]) -> Tuple[str, _RT]:
        (a, ra), (b, rb) = self.expr(e.a, lane), self.expr(e.b, lane)
        kind = "min" if isinstance(e, E.Min) else "max"
        rt = _promote(ra, rb)
        rt = _RT(rt.arr, _strong(rt.code))  # np.minimum is always strong
        ct = _ct(rt)
        if e.type.is_float():
            fn = f"repro_{kind}_f{32 if rt.code == 'f32' else 64}"
            return f"(({ct})({fn}((({ct})({a})), (({ct})({b})))))", rt
        helper_ct = "u64" if ct.startswith("u") else "i64"
        warg = "uint64_t" if ct.startswith("u") else "int64_t"
        return (f"(({ct})repro_{kind}_{helper_ct}(({warg})(({ct})({a})), "
                f"({warg})(({ct})({b}))))", rt)

    def _let_expr(self, e: E.Let, lane: Optional[str]) -> Tuple[str, _RT]:
        value, rv = self.expr(e.value, lane)
        cname = self._tmp("_t")
        self._line(f"const {_ct(rv)} {cname} = {value};")
        saved = self.env.get(e.name)
        self.env[e.name] = _Binding(cname, rv)
        try:
            return self.expr(e.body, lane)
        finally:
            if saved is None:
                self.env.pop(e.name, None)
            else:
                self.env[e.name] = saved

    def _ramp(self, e: E.Ramp, lane: Optional[str]) -> Tuple[str, _RT]:
        if lane is None:
            raise NativeCodegenError("Ramp outside a lane context")
        base, rbase = self.expr(e.base, None)
        stride, rstride = self.expr(e.stride, None)
        # The interpreter computes base + stride * np.arange(lanes) — two
        # NumPy ops against a strong int64 array; mirror both steps exactly.
        r1 = _promote(rstride, _RT(True, "i64"))
        ct1 = _ct(r1)
        step = f"(({ct1})((({ct1})({stride})) * (({ct1})({lane}))))"
        rt = _promote(rbase, r1)
        ct = _ct(rt)
        return f"(({ct})((({ct})({base})) + (({ct})({step}))))", rt

    def _call(self, e: E.Call, lane: Optional[str]) -> Tuple[str, _RT]:
        if e.call_type != E.CallType.INTRINSIC:
            raise NativeCodegenError(
                f"call to {e.name!r} survived lowering; it should have become a Load")
        if e.name == "likely":
            return self.expr(e.args[0], lane)
        emitted = [self.expr(a, lane) for a in e.args]
        (a, ra) = emitted[0]
        if e.name == "abs":
            rt = _RT(ra.arr, _strong(ra.code))
            ct = _ct(rt)
            if rt.code in ("f32", "f64"):
                fn = "fabsf" if rt.code == "f32" else "fabs"
                return f"(({ct})({fn}(({ct})({a}))))", rt
            if ct.startswith("u"):
                return f"({a})", rt  # unsigned abs is the identity
            return f"(({ct})repro_abs_i64((int64_t)(({ct})({a}))))", rt
        if e.name in _LIBM_EXACT:
            # np.sqrt(float32) stays float32; everything else (float64, weak
            # Python floats, stray ints) computes in double.
            f32 = ra.code == "f32"
            rt = _RT(ra.arr, "f32" if f32 else "f64")
            ct = _ct(rt)
            fn = _LIBM_EXACT[e.name][0 if f32 else 1]
            return f"(({ct})({fn}(({ct})({a}))))", rt
        if e.name in ("exp", "log", "sin", "cos"):
            f32 = ra.code == "f32"
            rt = _RT(ra.arr, "f32" if f32 else "f64")
            ct = _ct(rt)
            fn = self._callback(e.name, 32 if f32 else 64)
            return f"(({ct})({fn}(({ct})({a}))))", rt
        if e.name == "pow":
            (b, rb) = emitted[1]
            rp = _promote(ra, rb)
            rt = _RT(rp.arr, _strong(rp.code))
            if rt.code not in ("f32", "f64"):
                raise NativeCodegenError(
                    "pow on integer operands is not supported by the native "
                    "backend (lowering casts intrinsic arguments to float)")
            ct = _ct(rt)
            fn = self._callback("pow", 32 if rt.code == "f32" else 64)
            return f"(({ct})({fn}(({ct})({a}), ({ct})({b}))))", rt
        raise NativeCodegenError(f"unknown intrinsic {e.name!r}")

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
            self._let_stmt(node)
            return
        if isinstance(node, S.ProducerConsumer):
            if node.is_producer:
                self._line(f"/* produce {node.name} */")
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
            self._assert(node)
            return
        if isinstance(node, S.Evaluate):
            if node.value.type.lanes > 1:
                return  # pure vector expression: no effect, nothing to keep
            self._line(f"(void)({self.expr(node.value, None)[0]});")
            return
        if isinstance(node, (S.Realize, S.Provide)):
            raise NativeCodegenError(
                "the native backend requires flattened storage; run the "
                "flattening pass")
        raise NativeCodegenError(
            f"cannot generate C for statement {type(node).__name__}")

    def _let_stmt(self, node: S.LetStmt) -> None:
        lanes = node.value.type.lanes
        if lanes <= 1:
            value, rv = self.expr(node.value, None)
            cname = self._tmp(f"_v_{_sanitize(node.name)}_")
            self._line(f"const {_ct(rv)} {cname} = {value};")
            binding = _Binding(cname, rv)
        else:
            # A vectorized let: materialize all lanes into a stack array (at
            # the value's runtime dtype, like the interpreter's scope array)
            # so any statement in the body can read them per lane.  The array
            # declaration needs the runtime dtype, which only emitting the
            # value reveals — so stage the per-lane lines and splice them in
            # after the declaration and loop header.
            cname = self._tmp(f"_w_{_sanitize(node.name)}_")
            lvar = self._tmp("_l")
            start = len(self.lines)
            self.indent += 1
            value, rv = self.expr(node.value, lvar)
            self._line(f"{cname}[{lvar}] = {value};")
            self.indent -= 1
            staged = self.lines[start:]
            del self.lines[start:]
            elem_ct = _CT_OF_CODE[_strong(rv.code)]
            self._line(f"{elem_ct} {cname}[{lanes}];")
            self._line(f"for (int {lvar} = 0; {lvar} < {lanes}; ++{lvar}) {{")
            self.lines.extend(staged)
            self._line("}")
            binding = _Binding(cname, _RT(True, _strong(rv.code)),
                               is_lane_array=True)
        saved = self.env.get(node.name)
        self.env[node.name] = binding
        try:
            self.stmt(node.body)
        finally:
            if saved is None:
                self.env.pop(node.name, None)
            else:
                self.env[node.name] = saved

    def _for(self, node: S.For) -> None:
        mn = self._tmp("_mn")
        end = self._tmp("_end")
        self._line(f"const int64_t {mn} = "
                   f"(int64_t)({self.expr(node.min, None)[0]});")
        self._line(f"const int64_t {end} = {mn} + "
                   f"(int64_t)({self.expr(node.extent, None)[0]});")
        cname = self._tmp(f"_v_{_sanitize(node.name)}_")
        parallel = node.for_type == S.ForType.PARALLEL
        self._line(f"/* for {node.name} [{node.for_type.value}] */")
        if parallel:
            # Ignored (with serial semantics) when built without -fopenmp;
            # nested parallel regions run on one thread by default, matching
            # the thread runtime's nested-inline rule.
            self._line("#pragma omp parallel for schedule(static) "
                       "num_threads(_nt)")
        self._line(f"for (int64_t {cname} = {mn}; {cname} < {end}; ++{cname}) {{")
        self.indent += 1
        if parallel:
            self._parallel_depth += 1
        saved = self.env.get(node.name)
        self.env[node.name] = _Binding(cname, _RT(False, "wi"))
        try:
            self.stmt(node.body)
        finally:
            if saved is None:
                self.env.pop(node.name, None)
            else:
                self.env[node.name] = saved
            if parallel:
                self._parallel_depth -= 1
            self.indent -= 1
            self._line("}")
        if parallel and self._parallel_depth == 0 and self.assert_messages:
            self._line("if (_err != 0) return _err;")

    def _allocate(self, node: S.Allocate) -> None:
        elem_ct = _ctype(node.type.with_lanes(1))
        buf = self._buffer_local(node.name, elem_ct)
        self.allocated.add(node.name)
        if node.name in self._live_buffers:
            # Shadowing Allocate over a live buffer: the interpreter reuses
            # the existing storage (no re-zeroing); so do we.
            self.stmt(node.body)
            return
        slot = self.buffers[node.name][0]
        size = self._tmp("_sz")
        owned = self._tmp("_own")
        self._line(f"{{ /* allocate {node.name} */")
        self.indent += 1
        self._line(f"const int64_t {size} = "
                   f"(int64_t)({self.expr(node.size, None)[0]});")
        self._line(f"{elem_ct} * restrict {buf} = ({elem_ct} *)_bufs[{slot}];")
        self._line(f"const int {owned} = ({buf} == 0);")
        # calloc mirrors the interpreter's np.zeros for fresh allocations
        # (and re-zeroes on re-entry, since the block re-runs per iteration).
        self._line(f"if ({owned}) {buf} = ({elem_ct} *)calloc("
                   f"{size} > 0 ? (size_t){size} : 1, sizeof({elem_ct}));")
        self._line(f"if ({buf} == 0) {{ _err = -1; }} else {{")
        self.indent += 1
        self._live_buffers[node.name] = buf
        try:
            self.stmt(node.body)
        finally:
            del self._live_buffers[node.name]
            self.indent -= 1
            self._line("}")
            self._line(f"if ({owned} && {buf}) free({buf});")
            self.indent -= 1
            self._line("}")

    def _store(self, node: S.Store) -> None:
        elem_ct = _ctype(node.value.type.with_lanes(1))
        # The buffer's element type comes from its allocation / other
        # accesses; an assignment converts exactly as NumPy's does.
        buf_elem = self.buffer_ctypes.get(node.name, elem_ct)
        buf = self._buffer_local(node.name, buf_elem)
        lanes = max(node.index.type.lanes, node.value.type.lanes)
        if lanes <= 1:
            index = self.expr(node.index, None)[0]
            value = self.expr(node.value, None)[0]
            self._line(f"{buf}[(int64_t)({index})] = {value};")
            return
        lvar = self._tmp("_l")
        scalar_index = node.index.type.lanes <= 1
        if scalar_index:
            # Scalar index, vector value: lanes store contiguously from it.
            base = self._tmp("_ix")
            self._line(f"const int64_t {base} = "
                       f"(int64_t)({self.expr(node.index, None)[0]});")
        if self._simd_safe(node):
            self._line("#pragma omp simd")
        self._line(f"for (int {lvar} = 0; {lvar} < {lanes}; ++{lvar}) {{")
        self.indent += 1
        value = self.expr(node.value, lvar)[0]
        if scalar_index:
            self._line(f"{buf}[{base} + {lvar}] = {value};")
        else:
            index = self.expr(node.index, lvar)[0]
            self._line(f"{buf}[(int64_t)({index})] = {value};")
        self.indent -= 1
        self._line("}")

    def _simd_safe(self, node: S.Store) -> bool:
        """Whether a lane loop may carry ``#pragma omp simd``: the store
        index must be a non-degenerate ramp (lanes provably disjoint) and the
        value free of callbacks (which re-enter Python)."""
        index = node.index
        if not isinstance(index, E.Ramp):
            if index.type.lanes > 1:
                return False  # general scatter: duplicates possible
        has_call = False

        def walk(n) -> None:
            nonlocal has_call
            if has_call or n is None:
                return
            if isinstance(n, E.Call) and n.name in _CALLBACK_FNS:
                has_call = True
                return
            for child in children_of(n):
                walk(child)

        walk(node.value)
        return not has_call

    def _if(self, node: S.IfThenElse) -> None:
        if node.condition.type.lanes > 1:
            raise NativeCodegenError(
                "vector guard conditions cannot reach the native backend")
        self._line(f"if ({self.expr(node.condition, None)[0]}) {{")
        self.indent += 1
        self.stmt(node.then_case)
        self.indent -= 1
        if node.else_case is not None:
            self._line("} else {")
            self.indent += 1
            self.stmt(node.else_case)
            self.indent -= 1
        self._line("}")

    def _assert(self, node: S.AssertStmt) -> None:
        self.assert_messages.append(str(node.message))
        code = len(self.assert_messages)
        if node.condition.type.lanes > 1:
            raise NativeCodegenError(
                "vector assert conditions cannot reach the native backend")
        condition = self.expr(node.condition, None)[0]
        if self._parallel_depth:
            # Cannot return out of an OpenMP region; record and drain after.
            self._line(f"if (!({condition})) {{ _err = {code}; }}")
        else:
            self._line(f"if (!({condition})) return {code};")

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def generate(self) -> str:
        self.stmt(self.lowered.stmt)
        body = self.lines
        header: List[str] = []
        out = header.append
        output = getattr(self.lowered.output, "name", "pipeline")
        out(f"/* C source compiled from pipeline {output!r} by")
        out(" * repro.codegen.c_backend; inspect via CompiledPipeline.c_source().")
        out(" * Built with -fwrapv -ffp-contract=off (never -ffast-math):")
        out(" * output is bit-identical to the reference interpreter. */")
        out("#include <stdint.h>")
        out("#include <stdlib.h>")
        out("#include <math.h>")
        out(_RUNTIME_HELPERS)
        if self.callback_slots:
            out("/* NumPy transcendental callbacks (bit-identical by"
                " construction). */")
            for (name, bits), _slot in sorted(self.callback_slots.items(),
                                              key=lambda kv: kv[1]):
                ct = "float" if bits == 32 else "double"
                arity = 2 if name == "pow" else 1
                sig = ", ".join([ct] * arity)
                out(f"static {ct} (*repro_cb_{name}_f{bits})({sig});")
            out(f"void {CALLBACK_SETTER_SYMBOL}(void **fns) {{")
            for (name, bits), slot in sorted(self.callback_slots.items(),
                                             key=lambda kv: kv[1]):
                ct = "float" if bits == 32 else "double"
                arity = 2 if name == "pow" else 1
                sig = ", ".join([ct] * arity)
                out(f"    repro_cb_{name}_f{bits} = "
                    f"({ct} (*)({sig}))fns[{slot}];")
            out("}")
        out("")
        out(f"int64_t {ENTRY_SYMBOL}(void **_bufs, const int64_t *_iscalars,")
        out("                    const double *_fscalars, int64_t _nthreads) {")
        out("    int64_t _err = 0;")
        out("    int _nt = _nthreads > 0 ? (int)_nthreads : 1;")
        out("    (void)_err; (void)_nt; (void)_bufs;"
            " (void)_iscalars; (void)_fscalars;")
        for name, (kind, slot, cname) in self.scope_vars.items():
            source = f"_iscalars[{slot}]" if kind == "i" else f"_fscalars[{slot}]"
            ct = "int64_t" if kind == "i" else "double"
            out(f"    const {ct} {cname} = {source};")
        for name, (slot, cname) in self.buffers.items():
            if name in self.allocated:
                continue
            elem_ct = self.buffer_ctypes[name]
            out(f"    {elem_ct} * restrict {cname} = "
                f"({elem_ct} *)_bufs[{slot}];")
        rendered = [*header]
        rendered += ["    " * ind + code for ind, code in body]
        rendered.append("    return _err;")
        rendered.append("}")
        return "\n".join(rendered) + "\n"

    def metadata(self) -> Dict[str, object]:
        """Everything the runtime marshaling layer needs, JSON-serializable."""
        extern = [name for name in self.buffers if name not in self.allocated]
        iscalars = [None] * self._iscalars
        fscalars = [None] * self._fscalars
        for name, (kind, slot, _cname) in self.scope_vars.items():
            (iscalars if kind == "i" else fscalars)[slot] = name
        return {
            "buffer_order": list(self.buffers),
            "extern_buffers": extern,
            "iscalar_names": iscalars,
            "fscalar_names": fscalars,
            "assert_messages": list(self.assert_messages),
            "callback_slots": [[name, bits] for (name, bits), _slot in
                               sorted(self.callback_slots.items(),
                                      key=lambda kv: kv[1])],
        }


def _float_literal(value: float) -> str:
    import math

    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    text = repr(float(value))
    # repr() round-trips the exact double; C's correctly-rounded strtod
    # reproduces it.  Ensure it parses as a floating literal.
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


# ---------------------------------------------------------------------------
# callbacks into NumPy
# ---------------------------------------------------------------------------

_NP_FNS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
           "pow": np.power}


@functools.lru_cache(maxsize=None)
def _make_callback(name: str, bits: int):
    """The ctypes callback for one transcendental at one precision — one per
    process, never freed: ``repro_set_callbacks`` copies the raw function
    pointers into C statics shared by every load of that ``.so``, so a
    callback must outlive every program that was ever handed it."""
    np_type = np.float32 if bits == 32 else np.float64
    c_type = ctypes.c_float if bits == 32 else ctypes.c_double
    fn = _NP_FNS[name]
    if name == "pow":
        @ctypes.CFUNCTYPE(c_type, c_type, c_type)
        def callback(a, b):
            return float(fn(np_type(a), np_type(b)))
    else:
        @ctypes.CFUNCTYPE(c_type, c_type)
        def callback(x):
            return float(fn(np_type(x)))
    return callback


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

class NativeProgram:
    """One pipeline's C source, marshaling metadata, and loaded entry point."""

    def __init__(self, source: str, meta: Dict[str, object]):
        self.source = source
        self.buffer_order = [str(n) for n in meta["buffer_order"]]
        self.extern_buffers = set(str(n) for n in meta["extern_buffers"])
        self.iscalar_names = [str(n) for n in meta["iscalar_names"]]
        self.fscalar_names = [str(n) for n in meta["fscalar_names"]]
        self.assert_messages = [str(m) for m in meta["assert_messages"]]
        self.callback_slots = [(str(n), int(b)) for n, b in meta["callback_slots"]]
        #: Names the ``.so`` blob; set by the build (``Toolchain.build_digest``).
        self.digest: Optional[str] = None
        self.so_path: Optional[str] = None
        self._lib = None
        self._entry = None

    def metadata(self) -> Dict[str, object]:
        return {
            "buffer_order": list(self.buffer_order),
            "extern_buffers": sorted(self.extern_buffers),
            "iscalar_names": list(self.iscalar_names),
            "fscalar_names": list(self.fscalar_names),
            "assert_messages": list(self.assert_messages),
            "callback_slots": [[n, b] for n, b in self.callback_slots],
        }

    @property
    def loaded(self) -> bool:
        return self._entry is not None

    def load(self, so_path: str) -> "NativeProgram":
        """dlopen the built shared object and wire up callbacks."""
        lib = ctypes.CDLL(so_path)
        entry = getattr(lib, ENTRY_SYMBOL)
        entry.restype = ctypes.c_int64
        entry.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                          ctypes.POINTER(ctypes.c_int64),
                          ctypes.POINTER(ctypes.c_double),
                          ctypes.c_int64]
        if self.callback_slots:
            setter = getattr(lib, CALLBACK_SETTER_SYMBOL)
            setter.restype = None
            setter.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
            setter((ctypes.c_void_p * len(self.callback_slots))(
                *[ctypes.cast(_make_callback(name, bits), ctypes.c_void_p)
                  for name, bits in self.callback_slots]))
        self._lib = lib
        self._entry = entry
        self.so_path = so_path
        return self

    def run(self, buffers: Dict[str, np.ndarray], scope: Dict[str, object],
            threads: int) -> None:
        if self._entry is None:
            raise ExecutionError("native program has no loaded shared object")
        pointers = (ctypes.c_void_p * max(len(self.buffer_order), 1))()
        for slot, name in enumerate(self.buffer_order):
            array = buffers.get(name)
            if array is not None:
                pointers[slot] = array.ctypes.data
            elif name in self.extern_buffers:
                raise ExecutionError(f"unknown buffer {name!r}")
        ivalues = (ctypes.c_int64 * max(len(self.iscalar_names), 1))()
        for slot, name in enumerate(self.iscalar_names):
            if name not in scope:
                raise ExecutionError(f"unbound variable {name!r}")
            ivalues[slot] = int(scope[name])
        fvalues = (ctypes.c_double * max(len(self.fscalar_names), 1))()
        for slot, name in enumerate(self.fscalar_names):
            if name not in scope:
                raise ExecutionError(f"unbound variable {name!r}")
            fvalues[slot] = float(scope[name])
        code = self._entry(pointers, ivalues, fvalues, int(threads))
        if code < 0:
            raise ExecutionError("native pipeline: allocation failed")
        if code > 0:
            index = code - 1
            message = (self.assert_messages[index]
                       if index < len(self.assert_messages)
                       else f"native assertion {code} failed")
            raise ExecutionError(message)


# ---------------------------------------------------------------------------
# build / cache plumbing
# ---------------------------------------------------------------------------

_WORK_DIR: Optional[str] = None


def _work_dir() -> str:
    """A per-process scratch directory for freshly built shared objects
    (used when no persistent cache directory is configured)."""
    global _WORK_DIR
    if _WORK_DIR is None:
        import atexit
        import shutil

        _WORK_DIR = tempfile.mkdtemp(prefix="repro_native_")
        atexit.register(shutil.rmtree, _WORK_DIR, True)
    return _WORK_DIR


def generate_c_source(lowered: LoweredPipeline) -> Tuple[str, Dict[str, object]]:
    """Emit the C translation unit and its marshaling metadata.

    Pure codegen: needs no toolchain (OpenMP pragmas are always emitted; a
    non-OpenMP build ignores them with serial semantics), so the emitted C is
    inspectable on machines without a compiler.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))
    emitter = _CEmitter(lowered)
    source = emitter.generate()
    return source, emitter.metadata()


def _build_program(program: NativeProgram) -> NativeProgram:
    """Compile ``program.source`` (unless an identical build exists) and load."""
    program.digest = ensure_toolchain().build_digest(program.source)
    so_path = os.path.join(_work_dir(), f"{program.digest}.so")
    if not os.path.exists(so_path):
        compile_shared_object(program.source, so_path)
    return program.load(so_path)


def compile_lowered_native(lowered: LoweredPipeline) -> NativeProgram:
    """Generate, build, and load the native program for a lowering (cached).

    The program is cached on the :class:`LoweredPipeline` itself (one build
    per lowering; the Pipeline compile cache already keys lowerings by
    schedule digest/sizes/target/options).  Raises
    :class:`~repro.codegen.c_toolchain.ToolchainError` — one clear message,
    probe cached per process — when no C compiler is available.
    """
    cached = getattr(lowered, "_native_program", None)
    if cached is not None:
        return cached
    ensure_toolchain()
    source, meta = generate_c_source(lowered)
    program = _build_program(NativeProgram(source, meta))
    lowered._native_program = program
    return program


def restore_native_program(payload: Dict[str, object],
                           blob_path: Optional[str] = None) -> NativeProgram:
    """Rebuild a :class:`NativeProgram` from a persistent-cache payload.

    When ``blob_path`` (the cached ``.so``) exists it is loaded directly —
    zero C-compiler invocations; otherwise the stored C source is recompiled
    (zero lowerings, one compile).
    """
    program = NativeProgram(str(payload["source"]), payload["native_meta"])
    if blob_path and os.path.exists(blob_path):
        try:
            os.utime(blob_path)  # refresh blob recency for LRU eviction
        except OSError:
            pass
        return program.load(blob_path)
    return _build_program(program)


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------

class NativeExecutor(Executor):
    """Runs a lowered pipeline through compiled machine code.

    Drop-in executor API (``bind``/``bind_input``/``provide_buffer``/``run``)
    with no instrumentation — like the ``compiled`` backend,
    ``drives_listeners`` is ``False`` and generated code performs no
    per-access bounds checks.  ``target.threads`` sets the OpenMP team size
    for ``parallel`` loops (``None``/``1`` runs them serially — on one
    thread — with identical output).
    """

    drives_listeners = False

    def __init__(self, lowered: LoweredPipeline,
                 listeners: Iterable[ExecutionListener] = (),
                 target=None):
        super().__init__(lowered, listeners=listeners, target=target)
        self._program = compile_lowered_native(lowered)
        threads = getattr(target, "threads", None)
        self._threads = int(threads) if threads else 1

    @property
    def c_source(self) -> str:
        """The generated C source (for debugging / inspection)."""
        return self._program.source

    def run(self) -> None:
        self._program.run(self.buffers, self.scope, self._threads)
