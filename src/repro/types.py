"""Scalar and vector types used throughout the Halide-style IR.

The paper's IR is typed: every expression has a scalar element type (signed or
unsigned integer, float, or boolean) and a number of vector lanes.  Lanes > 1
only appear after the vectorization pass replaces a vectorized loop index with
a ``Ramp`` node (Section 4.5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Type",
    "Int",
    "UInt",
    "Float",
    "Bool",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "BOOL",
]

_VALID_CODES = ("int", "uint", "float", "bool")


@dataclass(frozen=True)
class Type:
    """An element type plus a vector width (``lanes``).

    ``code`` is one of ``"int"``, ``"uint"``, ``"float"``, ``"bool"``.
    """

    code: str
    bits: int
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.code not in _VALID_CODES:
            raise ValueError(f"unknown type code {self.code!r}")
        if self.bits <= 0:
            raise ValueError("type must have a positive number of bits")
        if self.lanes <= 0:
            raise ValueError("type must have a positive number of lanes")

    # -- classification -------------------------------------------------
    def is_int(self) -> bool:
        return self.code == "int"

    def is_uint(self) -> bool:
        return self.code == "uint"

    def is_float(self) -> bool:
        return self.code == "float"

    def is_bool(self) -> bool:
        return self.code == "bool"

    def is_scalar(self) -> bool:
        return self.lanes == 1

    def is_vector(self) -> bool:
        return self.lanes > 1

    # -- derived types ---------------------------------------------------
    def with_lanes(self, lanes: int) -> "Type":
        """Return the same element type with a different vector width."""
        return self if lanes == self.lanes else Type(self.code, self.bits, lanes)

    def element_of(self) -> "Type":
        """Return the scalar element type."""
        return self if self.lanes == 1 else Type(self.code, self.bits, 1)

    # -- value ranges -----------------------------------------------------
    def min_value(self) -> float:
        """Smallest representable value of the element type."""
        if self.is_float():
            return float(np.finfo(self.to_numpy_dtype()).min)
        if self.is_uint() or self.is_bool():
            return 0
        return -(1 << (self.bits - 1))

    def max_value(self) -> float:
        """Largest representable value of the element type."""
        if self.is_float():
            return float(np.finfo(self.to_numpy_dtype()).max)
        if self.is_bool():
            return 1
        if self.is_uint():
            return (1 << self.bits) - 1
        return (1 << (self.bits - 1)) - 1

    def can_represent(self, other: "Type") -> bool:
        """True if every value of ``other`` is exactly representable in ``self``."""
        if self.is_float():
            if other.is_float():
                return self.bits >= other.bits
            return True
        if other.is_float():
            return False
        return self.min_value() <= other.min_value() and self.max_value() >= other.max_value()

    # -- numpy interop ----------------------------------------------------
    def to_numpy_dtype(self) -> np.dtype:
        """The numpy dtype of the scalar element type."""
        if self.is_bool():
            return np.dtype(np.bool_)
        if self.is_float():
            return np.dtype(f"float{self.bits}")
        if self.is_uint():
            return np.dtype(f"uint{self.bits}")
        return np.dtype(f"int{self.bits}")

    @staticmethod
    def from_numpy_dtype(dtype: np.dtype) -> "Type":
        """Map a numpy dtype to the corresponding scalar :class:`Type`."""
        dtype = np.dtype(dtype)
        if dtype.kind == "b":
            return Bool()
        if dtype.kind == "f":
            return Float(dtype.itemsize * 8)
        if dtype.kind == "u":
            return UInt(dtype.itemsize * 8)
        if dtype.kind == "i":
            return Int(dtype.itemsize * 8)
        raise ValueError(f"unsupported numpy dtype {dtype}")

    # -- display -----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        base = "bool" if self.is_bool() else f"{self.code}{self.bits}"
        if self.lanes == 1:
            return base
        return f"{base}x{self.lanes}"


def Int(bits: int = 32, lanes: int = 1) -> Type:
    """A signed integer type."""
    return Type("int", bits, lanes)


def UInt(bits: int = 32, lanes: int = 1) -> Type:
    """An unsigned integer type."""
    return Type("uint", bits, lanes)


def Float(bits: int = 32, lanes: int = 1) -> Type:
    """A floating point type."""
    return Type("float", bits, lanes)


def Bool(lanes: int = 1) -> Type:
    """A boolean type (stored as one byte)."""
    return Type("bool", 8, lanes)


INT32 = Int(32)
INT64 = Int(64)
FLOAT32 = Float(32)
FLOAT64 = Float(64)
UINT8 = UInt(8)
UINT16 = UInt(16)
UINT32 = UInt(32)
BOOL = Bool()


def promote(a: Type, b: Type) -> Type:
    """Usual-arithmetic-conversion style type promotion for binary operators.

    Mirrors Halide's ``match_types``: floats win over ints, wider wins over
    narrower, and signed wins over unsigned at equal width.  Vector widths must
    match (or one side must be scalar, which is broadcast).
    """
    lanes = max(a.lanes, b.lanes)
    if a.lanes != b.lanes and min(a.lanes, b.lanes) != 1:
        raise ValueError(f"cannot combine vectors of different widths: {a} vs {b}")

    if a.is_float() or b.is_float():
        bits = max(a.bits if a.is_float() else 0, b.bits if b.is_float() else 0)
        bits = max(bits, 32)
        return Float(bits, lanes)

    if a.is_bool() and b.is_bool():
        return Bool(lanes)
    if a.is_bool():
        return b.with_lanes(lanes)
    if b.is_bool():
        return a.with_lanes(lanes)

    bits = max(a.bits, b.bits)
    if a.is_int() or b.is_int():
        return Int(bits, lanes)
    return UInt(bits, lanes)
