"""Expression nodes of the IR.

Expressions are immutable trees.  Structural equality and hashing are defined
so that the simplifier and common-subexpression detection can compare
subtrees.  Python operator overloading on :class:`Expr` builds new IR nodes
(with light constant folding performed by :mod:`repro.ir.op`), which is what
makes the front-end DSL read like ordinary arithmetic.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple

from repro.types import Bool, Float, Int, Type

__all__ = [
    "Expr",
    "IntImm",
    "FloatImm",
    "Variable",
    "Cast",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Mod",
    "Min",
    "Max",
    "EQ",
    "NE",
    "LT",
    "LE",
    "GT",
    "GE",
    "And",
    "Or",
    "Not",
    "Select",
    "Load",
    "Ramp",
    "Broadcast",
    "Call",
    "CallType",
    "Let",
]


class Expr:
    """Base class of all expression nodes.

    Every expression carries a :class:`~repro.types.Type`.  Arithmetic and
    comparison operators are overloaded to construct IR nodes, so Python code
    such as ``in_[x - 1, y] + in_[x, y]`` builds the corresponding tree.
    """

    __slots__ = ("type",)

    type: Type

    # -- structural equality -------------------------------------------
    def _key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:  # structural equality
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    # -- arithmetic operators --------------------------------------------
    def __add__(self, other):
        return op.make_binary(Add, self, other)

    def __radd__(self, other):
        return op.make_binary(Add, other, self)

    def __sub__(self, other):
        return op.make_binary(Sub, self, other)

    def __rsub__(self, other):
        return op.make_binary(Sub, other, self)

    def __mul__(self, other):
        return op.make_binary(Mul, self, other)

    def __rmul__(self, other):
        return op.make_binary(Mul, other, self)

    def __truediv__(self, other):
        return op.make_binary(Div, self, other)

    def __rtruediv__(self, other):
        return op.make_binary(Div, other, self)

    def __floordiv__(self, other):
        return op.make_binary(Div, self, other)

    def __rfloordiv__(self, other):
        return op.make_binary(Div, other, self)

    def __mod__(self, other):
        return op.make_binary(Mod, self, other)

    def __rmod__(self, other):
        return op.make_binary(Mod, other, self)

    def __neg__(self):
        return op.make_binary(Sub, op.const(0, self.type), self)

    # -- comparisons (note: these intentionally shadow rich comparison) ---
    def eq(self, other):
        return op.make_compare(EQ, self, other)

    def ne(self, other):
        return op.make_compare(NE, self, other)

    def __lt__(self, other):
        return op.make_compare(LT, self, other)

    def __le__(self, other):
        return op.make_compare(LE, self, other)

    def __gt__(self, other):
        return op.make_compare(GT, self, other)

    def __ge__(self, other):
        return op.make_compare(GE, self, other)

    def __and__(self, other):
        return op.make_logical(And, self, other)

    def __rand__(self, other):
        return op.make_logical(And, other, self)

    def __or__(self, other):
        return op.make_logical(Or, self, other)

    def __ror__(self, other):
        return op.make_logical(Or, other, self)

    def __invert__(self):
        return op.make_not(self)

    def __repr__(self) -> str:
        from repro.ir.printer import pretty_print

        return pretty_print(self)

    def __bool__(self):
        raise TypeError(
            "IR expressions have no Python truth value; use repro.lang.select "
            "for conditionals inside pipeline definitions"
        )


class IntImm(Expr):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int, type: Optional[Type] = None):
        self.value = int(value)
        self.type = type if type is not None else Int(32)

    def _key(self):
        return (self.value, self.type)


class FloatImm(Expr):
    """A floating-point constant."""

    __slots__ = ("value",)

    def __init__(self, value: float, type: Optional[Type] = None):
        self.value = float(value)
        self.type = type if type is not None else Float(32)

    def _key(self):
        return (self.value, self.type)


class Variable(Expr):
    """A named scalar variable (a loop index, let binding, or parameter)."""

    __slots__ = ("name",)

    def __init__(self, name: str, type: Optional[Type] = None):
        self.name = name
        self.type = type if type is not None else Int(32)

    def _key(self):
        return (self.name, self.type)


class Cast(Expr):
    """Conversion of ``value`` to another type."""

    __slots__ = ("value",)

    def __init__(self, type: Type, value: Expr):
        self.type = type
        self.value = value

    def _key(self):
        return (self.type, self.value)


class _BinaryOp(Expr):
    __slots__ = ("a", "b")

    op_name = "?"

    def __init__(self, a: Expr, b: Expr, type: Optional[Type] = None):
        self.a = a
        self.b = b
        self.type = type if type is not None else a.type

    def _key(self):
        return (self.a, self.b, self.type)


class Add(_BinaryOp):
    op_name = "+"


class Sub(_BinaryOp):
    op_name = "-"


class Mul(_BinaryOp):
    op_name = "*"


class Div(_BinaryOp):
    """Division.  Integer division rounds toward negative infinity (like Halide)."""

    op_name = "/"


class Mod(_BinaryOp):
    """Modulo with the sign of the divisor (Euclidean-style, like Halide)."""

    op_name = "%"


class Min(_BinaryOp):
    op_name = "min"


class Max(_BinaryOp):
    op_name = "max"


class _CompareOp(_BinaryOp):
    def __init__(self, a: Expr, b: Expr, type: Optional[Type] = None):
        super().__init__(a, b, type if type is not None else Bool(a.type.lanes))


class EQ(_CompareOp):
    op_name = "=="


class NE(_CompareOp):
    op_name = "!="


class LT(_CompareOp):
    op_name = "<"


class LE(_CompareOp):
    op_name = "<="


class GT(_CompareOp):
    op_name = ">"


class GE(_CompareOp):
    op_name = ">="


class And(_CompareOp):
    op_name = "&&"


class Or(_CompareOp):
    op_name = "||"


class Not(Expr):
    """Logical negation."""

    __slots__ = ("a",)

    def __init__(self, a: Expr):
        self.a = a
        self.type = Bool(a.type.lanes)

    def _key(self):
        return (self.a,)


class Select(Expr):
    """``condition ? true_value : false_value`` evaluated without branching."""

    __slots__ = ("condition", "true_value", "false_value")

    def __init__(self, condition: Expr, true_value: Expr, false_value: Expr):
        self.condition = condition
        self.true_value = true_value
        self.false_value = false_value
        self.type = true_value.type

    def _key(self):
        return (self.condition, self.true_value, self.false_value)


class Load(Expr):
    """A load of ``type`` from a flat buffer at ``index``.

    Only appears after the flattening pass (Section 4.4); before that, reads
    from other stages are :class:`Call` nodes with multi-dimensional arguments.
    """

    __slots__ = ("name", "index")

    def __init__(self, type: Type, name: str, index: Expr):
        self.type = type
        self.name = name
        self.index = index

    def _key(self):
        return (self.type, self.name, self.index)


class Ramp(Expr):
    """The vector ``[base, base+stride, ..., base+(lanes-1)*stride]``."""

    __slots__ = ("base", "stride", "lanes")

    def __init__(self, base: Expr, stride: Expr, lanes: int):
        self.base = base
        self.stride = stride
        self.lanes = lanes
        self.type = base.type.with_lanes(lanes)

    def _key(self):
        return (self.base, self.stride, self.lanes)


class Broadcast(Expr):
    """A scalar value replicated across ``lanes`` vector lanes."""

    __slots__ = ("value", "lanes")

    def __init__(self, value: Expr, lanes: int):
        self.value = value
        self.lanes = lanes
        self.type = value.type.with_lanes(lanes)

    def _key(self):
        return (self.value, self.lanes)


class CallType(enum.Enum):
    """How a :class:`Call` is resolved.

    ``HALIDE`` calls read a value produced by another pipeline stage, ``IMAGE``
    calls read an input image, and ``INTRINSIC`` calls name a built-in pure
    math function (``sqrt``, ``exp``, ``floor``...).
    """

    HALIDE = "halide"
    IMAGE = "image"
    INTRINSIC = "intrinsic"
    EXTERN = "extern"


class Call(Expr):
    """A call: a point sample of a function, image, or intrinsic.

    ``target`` is an optional back-reference to the object being read (the
    :class:`repro.core.function.Function` for ``HALIDE`` calls, the buffer or
    image parameter for ``IMAGE`` calls).  It is carried along for the
    call-graph construction and the runtime, but does not participate in
    structural equality.
    """

    __slots__ = ("name", "args", "call_type", "target")

    def __init__(self, type: Type, name: str, args: Sequence[Expr], call_type: CallType,
                 target=None):
        self.type = type
        self.name = name
        self.args = tuple(args)
        self.call_type = call_type
        self.target = target

    def _key(self):
        return (self.type, self.name, self.args, self.call_type)


class Let(Expr):
    """``let name = value in body`` as an expression."""

    __slots__ = ("name", "value", "body")

    def __init__(self, name: str, value: Expr, body: Expr):
        self.name = name
        self.value = value
        self.body = body
        self.type = body.type

    def _key(self):
        return (self.name, self.value, self.body)


# ``op`` builds its constructors on the node classes above, so it is bound
# last; the operator methods look it up as a module global when called.
from repro.ir import op  # noqa: E402
