"""Monotonicity analysis of expressions with respect to a variable.

The sliding-window optimization and storage folding (Section 4.3) both need to
know whether the required region of a producer marches monotonically as an
intervening serial loop advances.  This module provides a conservative
syntactic analysis sufficient for the affine index expressions that dominate
image processing pipelines.
"""

from __future__ import annotations

import enum

from repro.ir import expr as E
from repro.ir import op
from repro.ir.names import NameIndex

__all__ = ["Monotonic", "is_monotonic"]


class Monotonic(enum.Enum):
    CONSTANT = "constant"
    INCREASING = "increasing"
    DECREASING = "decreasing"
    UNKNOWN = "unknown"


def _unify(a: Monotonic, b: Monotonic) -> Monotonic:
    if a == Monotonic.CONSTANT:
        return b
    if b == Monotonic.CONSTANT:
        return a
    if a == b:
        return a
    return Monotonic.UNKNOWN


def _negate(m: Monotonic) -> Monotonic:
    if m == Monotonic.INCREASING:
        return Monotonic.DECREASING
    if m == Monotonic.DECREASING:
        return Monotonic.INCREASING
    return m


def is_monotonic(e: E.Expr, var: str) -> Monotonic:
    """How ``e`` varies as the variable ``var`` increases."""
    if isinstance(e, (E.IntImm, E.FloatImm)):
        return Monotonic.CONSTANT
    if isinstance(e, E.Variable):
        return Monotonic.INCREASING if e.name == var else Monotonic.CONSTANT
    if isinstance(e, E.Cast):
        return is_monotonic(e.value, var)
    if isinstance(e, E.Add):
        return _unify(is_monotonic(e.a, var), is_monotonic(e.b, var))
    if isinstance(e, E.Sub):
        return _unify(is_monotonic(e.a, var), _negate(is_monotonic(e.b, var)))
    if isinstance(e, E.Mul):
        ka = op.const_value(e.a)
        kb = op.const_value(e.b)
        if kb is not None:
            m = is_monotonic(e.a, var)
            return m if kb >= 0 else _negate(m)
        if ka is not None:
            m = is_monotonic(e.b, var)
            return m if ka >= 0 else _negate(m)
        ma, mb = is_monotonic(e.a, var), is_monotonic(e.b, var)
        if ma == Monotonic.CONSTANT and mb == Monotonic.CONSTANT:
            return Monotonic.CONSTANT
        return Monotonic.UNKNOWN
    if isinstance(e, E.Div):
        kb = op.const_value(e.b)
        if kb is not None and kb != 0:
            m = is_monotonic(e.a, var)
            return m if kb > 0 else _negate(m)
        if is_monotonic(e.a, var) == Monotonic.CONSTANT and is_monotonic(e.b, var) == Monotonic.CONSTANT:
            return Monotonic.CONSTANT
        return Monotonic.UNKNOWN
    if isinstance(e, (E.Min, E.Max)):
        return _unify(is_monotonic(e.a, var), is_monotonic(e.b, var))
    if isinstance(e, E.Select):
        if is_monotonic(e.condition, var) != Monotonic.CONSTANT:
            return Monotonic.UNKNOWN
        return _unify(is_monotonic(e.true_value, var), is_monotonic(e.false_value, var))
    if isinstance(e, E.Let):
        # Conservative: only handle lets whose value does not involve var.
        if is_monotonic(e.value, var) == Monotonic.CONSTANT:
            return is_monotonic(e.body, var)
        return Monotonic.UNKNOWN
    if isinstance(e, E.Call) and e.name == "likely":
        return is_monotonic(e.args[0], var)
    # Anything else (loads, data-dependent calls, mod): check whether var occurs at all.
    return Monotonic.UNKNOWN if var in NameIndex().variables(e) else Monotonic.CONSTANT
