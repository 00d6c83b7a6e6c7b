"""Definitions of pipeline stages: pure definitions, reduction domains, updates.

A stage has exactly one *pure* definition (a value for every point of an
infinite integer domain) and zero or more *update* definitions, which redefine
values at coordinates given by output-coordinate expressions, optionally
iterating over a bounded :class:`ReductionDomain` in lexicographic order
(Section 2, "Reduction functions").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ir import expr as E
from repro.ir import op
from repro.ir.names import NameIndex

__all__ = ["Definition", "UpdateDefinition", "ReductionDomain", "ReductionVariable"]


class ReductionVariable:
    """One dimension of a reduction domain."""

    __slots__ = ("name", "min", "extent")

    def __init__(self, name: str, min: E.Expr, extent: E.Expr):
        self.name = name
        self.min = op.as_expr(min)
        self.extent = op.as_expr(extent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RVar({self.name}: [{self.min!r}, {self.min!r}+{self.extent!r}))"


class ReductionDomain:
    """An ordered, bounded, multi-dimensional iteration domain."""

    def __init__(self, variables: Sequence[ReductionVariable]):
        self.variables: List[ReductionVariable] = list(variables)

    def __len__(self) -> int:
        return len(self.variables)

    def __iter__(self):
        return iter(self.variables)


class Definition:
    """A pure definition: argument names and the value expression."""

    def __init__(self, args: Sequence[str], value: E.Expr):
        self.args: List[str] = list(args)
        self.value: E.Expr = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Definition({self.args}, {self.value!r})"


class UpdateDefinition:
    """An update definition: LHS coordinate expressions, value, and reduction domain."""

    def __init__(self, args: Sequence[E.Expr], value: E.Expr,
                 rdom: Optional[ReductionDomain] = None):
        self.args: List[E.Expr] = [op.as_expr(a) for a in args]
        self.value: E.Expr = value
        self.rdom: Optional[ReductionDomain] = rdom

    def free_pure_vars(self, pure_args: Sequence[str]) -> List[str]:
        """Pure variables of the stage that appear free in this update.

        These become the outer loops of the update loop nest (e.g. ``cdf(ri) =
        cdf(ri-1) + hist(ri)`` has no free pure vars, whereas
        ``blur(x, y) = blur(x, y) + in(x, y + r)`` has both ``x`` and ``y``).
        """
        index = NameIndex()
        used = set().union(*(index.variables(e) for e in (*self.args, self.value)))
        return [a for a in pure_args if a in used]

    def __repr__(self) -> str:  # pragma: no cover
        return f"UpdateDefinition({self.args!r}, {self.value!r}, rdom={self.rdom})"
