"""The internal representation of one pipeline stage.

:class:`Function` is the compiler's view of a stage: its pure definition,
update definitions, and schedule.  The user-facing :class:`repro.lang.Func`
wraps a Function and provides the syntactic sugar (``f[x, y] = ...``,
``f.tile(...)``); the compiler and autotuner work exclusively on Functions,
mirroring the paper's front-end / compiler split.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.core.definition import Definition, ReductionDomain, UpdateDefinition
from repro.core.program_key import fold_definition
from repro.core.schedule import FuncSchedule, ScheduleError
from repro.ir import expr as E
from repro.types import Type

__all__ = ["Function", "DefinitionError"]


class DefinitionError(ValueError):
    """Raised for malformed stage definitions."""


class Function:
    """One stage of a pipeline: definitions plus a schedule."""

    def __init__(self, name: str):
        self.name = name
        self.definition: Optional[Definition] = None
        self.updates: List[UpdateDefinition] = []
        self.output_type: Optional[Type] = None
        self.schedule: Optional[FuncSchedule] = None
        #: Digest of every definition so far; keys the caches (``program_key``).
        self.digest: str = ""

    # ------------------------------------------------------------------
    # definition
    # ------------------------------------------------------------------
    def define(self, args: Sequence[str], value: E.Expr) -> None:
        if self.definition is not None:
            raise DefinitionError(
                f"function {self.name!r} already has a pure definition; further "
                "definitions must be updates over existing coordinates"
            )
        if len(set(args)) != len(args):
            raise DefinitionError(f"function {self.name!r} repeats an argument name: {list(args)}")
        self.definition = Definition(args, value)
        self.output_type = value.type
        self.schedule = FuncSchedule(args)
        self.digest = fold_definition(self.digest, self.definition.args, value)

    def define_update(self, args: Sequence[E.Expr], value: E.Expr,
                      rdom: Optional[ReductionDomain] = None) -> None:
        if self.definition is None:
            raise DefinitionError(
                f"function {self.name!r} needs a pure (initial value) definition "
                "before update definitions"
            )
        if len(args) != len(self.definition.args):
            raise DefinitionError(
                f"update of {self.name!r} has {len(args)} coordinates, "
                f"expected {len(self.definition.args)}"
            )
        from repro.ir import op

        if value.type != self.output_type:
            value = op.cast(self.output_type, value)
        self.updates.append(UpdateDefinition(args, value, rdom))
        self.digest = fold_definition(self.digest, self.updates[-1].args, value, rdom)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_pure_definition(self) -> bool:
        return self.definition is not None

    def has_updates(self) -> bool:
        return bool(self.updates)

    @property
    def args(self) -> List[str]:
        if self.definition is None:
            raise DefinitionError(f"function {self.name!r} is not defined yet")
        return self.definition.args

    def dimensions(self) -> int:
        return len(self.args)

    def all_values(self) -> Iterator[E.Expr]:
        """Every right-hand-side expression of this function (pure + updates),
        plus the update coordinate expressions (which may also call stages)."""
        if self.definition is not None:
            yield self.definition.value
        for update in self.updates:
            yield update.value
            for a in update.args:
                yield a

    def can_be_inlined(self) -> bool:
        """Only stages without update definitions may be inlined into callers."""
        return not self.has_updates()

    def validate_for_lowering(self) -> None:
        if self.definition is None:
            raise DefinitionError(f"function {self.name!r} was called but never defined")
        if self.schedule is None:
            raise DefinitionError(f"function {self.name!r} has no schedule")
        if self.schedule.is_inlined() and self.has_updates():
            raise ScheduleError(
                f"function {self.name!r} has update definitions and therefore cannot be "
                "inlined; give it a compute_at/compute_root level"
            )

    def copy_for_compilation(self, schedule: Optional[FuncSchedule] = None) -> "Function":
        """A compilation-private copy of this function.

        Lowering mutates definitions (inlining) and schedules (storage folds),
        so each compilation works on copies; the user's objects are never
        touched.  ``schedule`` optionally overrides the function's schedule —
        this is how the autotuner evaluates candidate schedules.
        """
        clone = Function(self.name)
        if self.definition is not None:
            clone.definition = Definition(list(self.definition.args), self.definition.value)
        clone.updates = [
            UpdateDefinition(list(u.args), u.value, u.rdom) for u in self.updates
        ]
        clone.output_type = self.output_type
        base = schedule if schedule is not None else self.schedule
        clone.schedule = base.copy() if base is not None else None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "undefined" if self.definition is None else f"{len(self.args)}-D"
        return f"Function({self.name!r}, {state}, updates={len(self.updates)})"
