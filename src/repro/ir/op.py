"""Smart constructors for IR expressions.

These helpers wrap Python numbers into immediates, apply the type promotion
rules from :mod:`repro.types`, and perform light constant folding so that
front-end code and compiler passes build reasonably compact trees.  The heavy
lifting of algebraic simplification lives in :mod:`repro.compiler.simplify`.
"""

from __future__ import annotations

import math
from typing import Optional, Type as PyType, Union

from repro.ir.expr import (
    Add,
    And,
    Broadcast,
    Call,
    CallType,
    Cast,
    Div,
    EQ,
    Expr,
    FloatImm,
    GE,
    GT,
    IntImm,
    LE,
    LT,
    Max,
    Min,
    Mod,
    Mul,
    NE,
    Not,
    Or,
    Select,
    Sub,
    Variable,
)
from repro.types import Bool, Float, Int, Type, promote

__all__ = [
    "as_expr",
    "const",
    "cast",
    "make_binary",
    "make_compare",
    "make_logical",
    "make_not",
    "make_select",
    "min_",
    "max_",
    "clamp",
    "likely",
    "is_const",
    "const_value",
    "euclidean_div",
    "euclidean_mod",
]

Number = Union[int, float, bool]


def as_expr(value: Union[Expr, Number], hint: Optional[Type] = None) -> Expr:
    """Wrap a Python number into an immediate; pass expressions through.

    Objects exposing an ``expr()`` method (scalar parameters) are converted via
    that method, so ``buf[x, y] * gain`` works with ``gain`` a :class:`Param`.
    """
    if isinstance(value, Expr):
        return value
    if hasattr(value, "expr") and callable(getattr(value, "expr")):
        return value.expr()
    if isinstance(value, bool):
        return IntImm(int(value), Bool())
    if isinstance(value, int):
        if hint is not None and not hint.is_float():
            return IntImm(value, hint.element_of())
        return IntImm(value)
    if isinstance(value, float):
        if hint is not None and hint.is_float():
            return FloatImm(value, hint.element_of())
        return FloatImm(value)
    raise TypeError(f"cannot convert {value!r} into an IR expression")


def const(value: Number, type: Optional[Type] = None) -> Expr:
    """An immediate of the given type (defaults to int32 / float32)."""
    if type is None:
        return as_expr(value)
    if type.is_float():
        return FloatImm(float(value), type.element_of())
    return IntImm(int(value), type.element_of())


def is_const(e: Expr) -> bool:
    """True if ``e`` is an integer or floating-point immediate."""
    return isinstance(e, (IntImm, FloatImm))


def const_value(e: Expr) -> Optional[Number]:
    """The Python value of an immediate, or None."""
    if isinstance(e, (IntImm, FloatImm)):
        return e.value
    return None


def euclidean_div(a: Number, b: Number) -> Number:
    """Integer division rounding toward negative infinity (Halide semantics)."""
    if b == 0:
        return 0
    return math.floor(a / b)


def euclidean_mod(a: Number, b: Number) -> Number:
    """Modulo matching :func:`euclidean_div` (result has the sign of ``b``)."""
    if b == 0:
        return 0
    return a - euclidean_div(a, b) * b


def cast(type: Type, value: Union[Expr, Number]) -> Expr:
    """Convert ``value`` to ``type``, folding casts of constants."""
    e = as_expr(value, hint=type)
    target = type.with_lanes(e.type.lanes) if type.lanes == 1 else type
    if e.type == target:
        return e
    if isinstance(e, IntImm):
        if target.is_float():
            return FloatImm(float(e.value), target)
        return IntImm(_wrap_int(int(e.value), target), target)
    if isinstance(e, FloatImm):
        if target.is_float():
            return FloatImm(e.value, target)
        return IntImm(_wrap_int(int(e.value), target), target)
    return Cast(target, e)


def _wrap_int(value: int, type: Type) -> int:
    """Wrap an integer into the representable range of ``type`` (two's complement)."""
    if type.is_bool():
        return 1 if value else 0
    bits = type.bits
    mask = (1 << bits) - 1
    value &= mask
    if type.is_int() and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _match(a: Expr, b: Expr):
    """Promote both operands to a common type, broadcasting scalars as needed."""
    t = promote(a.type, b.type)
    a = cast(t.element_of(), a) if a.type.element_of() != t.element_of() else a
    b = cast(t.element_of(), b) if b.type.element_of() != t.element_of() else b
    if t.lanes > 1:
        if a.type.lanes == 1:
            a = Broadcast(a, t.lanes)
        if b.type.lanes == 1:
            b = Broadcast(b, t.lanes)
    return a, b, t


_FOLDERS = {
    Add: lambda a, b: a + b,
    Sub: lambda a, b: a - b,
    Mul: lambda a, b: a * b,
    Div: None,  # handled specially (integer vs float)
    Mod: None,
    Min: min,
    Max: max,
}


def _operand(value, role: str = "an operand") -> Expr:
    """:func:`as_expr` for an operator's operand.  A Python ``bool`` is what
    ``a == b`` on Exprs gives (structural equality); taken as a constant it
    would silently fold the expression, so it is rejected."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError(
            f"{role} is a Python bool, not an Expr; `==`/`!=` on Exprs compare "
            "structure, so write a.eq(b) / a.ne(b) to compare values")
    return as_expr(value)


def make_binary(node_class: PyType, a, b) -> Expr:
    """Construct a binary arithmetic node with constant folding."""
    ea, eb = _operand(a), _operand(b)
    # Let numeric literals adopt the other operand's element type so that
    # e.g. ``x + 1`` with x float32 stays float32 rather than promoting.
    if is_const(ea) and not is_const(eb):
        ea = cast(eb.type.element_of(), ea) if _safe_literal_cast(ea, eb.type) else ea
    elif is_const(eb) and not is_const(ea):
        eb = cast(ea.type.element_of(), eb) if _safe_literal_cast(eb, ea.type) else eb
    ea, eb, t = _match(ea, eb)

    if is_const(ea) and is_const(eb):
        va, vb = const_value(ea), const_value(eb)
        if node_class is Div:
            if t.is_float():
                value = va / vb if vb != 0 else 0.0
            else:
                value = euclidean_div(va, vb)
            return const(value, t)
        if node_class is Mod:
            if t.is_float():
                value = math.fmod(va, vb) if vb != 0 else 0.0
            else:
                value = euclidean_mod(va, vb)
            return const(value, t)
        folder = _FOLDERS.get(node_class)
        if folder is not None:
            return const(folder(va, vb), t)

    # min/max of expressions whose difference is a known constant collapse to
    # one side.  Bounds inference chains min/max of shifted copies of the same
    # loop bounds through every producer-consumer edge; without this rule the
    # interval expressions grow exponentially with pipeline depth.
    if node_class in (Min, Max) and not (is_const(ea) and is_const(eb)):
        from repro.analysis.linear import constant_difference

        difference = constant_difference(ea, eb)
        if difference is not None:
            if node_class is Min:
                return ea if difference <= 0 else eb
            return ea if difference >= 0 else eb

    # Identity simplifications that keep lowering output readable.
    if node_class is Add:
        if _is_zero(ea):
            return eb
        if _is_zero(eb):
            return ea
    if node_class is Sub and _is_zero(eb):
        return ea
    if node_class is Mul:
        if _is_one(ea):
            return eb
        if _is_one(eb):
            return ea
        if _is_zero(ea) or _is_zero(eb):
            return const(0, t)
    if node_class is Div and _is_one(eb):
        return ea

    return node_class(ea, eb, t)


def _safe_literal_cast(literal: Expr, target: Type) -> bool:
    """Whether a literal may adopt ``target``'s element type without changing value."""
    value = const_value(literal)
    if target.is_float():
        return True
    if isinstance(value, float) and value != int(value):
        return False
    return target.min_value() <= value <= target.max_value()


def _is_zero(e: Expr) -> bool:
    return is_const(e) and const_value(e) == 0


def _is_one(e: Expr) -> bool:
    return is_const(e) and const_value(e) == 1


_COMPARE_FOLDERS = {
    EQ: lambda a, b: a == b,
    NE: lambda a, b: a != b,
    LT: lambda a, b: a < b,
    LE: lambda a, b: a <= b,
    GT: lambda a, b: a > b,
    GE: lambda a, b: a >= b,
}


def make_compare(node_class: PyType, a, b) -> Expr:
    """Construct a comparison node with constant folding."""
    ea, eb = as_expr(a), as_expr(b)
    if is_const(ea) and not is_const(eb) and _safe_literal_cast(ea, eb.type):
        ea = cast(eb.type.element_of(), ea)
    elif is_const(eb) and not is_const(ea) and _safe_literal_cast(eb, ea.type):
        eb = cast(ea.type.element_of(), eb)
    ea, eb, t = _match(ea, eb)
    if is_const(ea) and is_const(eb):
        folder = _COMPARE_FOLDERS[node_class]
        return const(int(folder(const_value(ea), const_value(eb))), Bool(t.lanes))
    return node_class(ea, eb, Bool(t.lanes))


def make_logical(node_class: PyType, a, b) -> Expr:
    """Construct a logical and/or node with constant folding."""
    ea, eb = _operand(a), _operand(b)
    if is_const(ea) and is_const(eb):
        va, vb = bool(const_value(ea)), bool(const_value(eb))
        value = (va and vb) if node_class is And else (va or vb)
        return const(int(value), Bool())
    if node_class is And:
        if _is_true(ea):
            return eb
        if _is_true(eb):
            return ea
        if _is_false(ea) or _is_false(eb):
            return const(0, Bool())
    else:
        if _is_false(ea):
            return eb
        if _is_false(eb):
            return ea
        if _is_true(ea) or _is_true(eb):
            return const(1, Bool())
    lanes = max(ea.type.lanes, eb.type.lanes)
    if lanes > 1:
        if ea.type.lanes == 1:
            ea = Broadcast(ea, lanes)
        if eb.type.lanes == 1:
            eb = Broadcast(eb, lanes)
    return node_class(ea, eb, Bool(lanes))


def _is_true(e: Expr) -> bool:
    return is_const(e) and bool(const_value(e))


def _is_false(e: Expr) -> bool:
    return is_const(e) and not bool(const_value(e))


def make_not(a) -> Expr:
    ea = as_expr(a)
    if is_const(ea):
        return const(int(not bool(const_value(ea))), Bool())
    if isinstance(ea, Not):
        return ea.a
    return Not(ea)


def make_select(condition, true_value, false_value) -> Expr:
    """Construct a select with type matching and constant-condition folding."""
    c = _operand(condition, "select() condition")
    tv, fv = as_expr(true_value), as_expr(false_value)
    if is_const(tv) and not is_const(fv) and _safe_literal_cast(tv, fv.type):
        tv = cast(fv.type.element_of(), tv)
    elif is_const(fv) and not is_const(tv) and _safe_literal_cast(fv, tv.type):
        fv = cast(tv.type.element_of(), fv)
    tv, fv, t = _match(tv, fv)
    if is_const(c):
        return tv if bool(const_value(c)) else fv
    lanes = max(c.type.lanes, t.lanes)
    if lanes > 1:
        if c.type.lanes == 1:
            c = Broadcast(c, lanes)
        if tv.type.lanes == 1:
            tv = Broadcast(tv, lanes)
        if fv.type.lanes == 1:
            fv = Broadcast(fv, lanes)
    return Select(c, tv, fv)


def min_(a, b) -> Expr:
    """Element-wise minimum."""
    return make_binary(Min, a, b)


def max_(a, b) -> Expr:
    """Element-wise maximum."""
    return make_binary(Max, a, b)


def clamp(value, low, high) -> Expr:
    """Clamp ``value`` into ``[low, high]``.

    As in the paper (Section 4.2), ``clamp`` both enforces and *declares* a
    bound, so interval analysis of a clamped expression yields ``[low, high]``.
    """
    return max_(min_(value, high), low)


def likely(value) -> Expr:
    """A hint that a boolean condition is expected to be true (kept for parity)."""
    e = as_expr(value)
    return Call(e.type, "likely", [e], CallType.INTRINSIC)
