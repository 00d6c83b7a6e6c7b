"""The central DSL object: :class:`Func`, a stage of an image processing pipeline.

A ``Func`` is defined once over pure variables (``f[x, y] = expr``), may be
extended with update definitions (reductions, scans, scatters), is scheduled
through chainable methods (``tile``, ``vectorize``, ``parallel``,
``compute_at``, ``store_at``...), and is executed with :meth:`Func.realize`.

The algorithm-side API and the schedule-side API live on the same object but
never interact: the schedule can only change *how* the pipeline runs, never
*what* it computes — the property the paper's split design guarantees.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np

from repro.core.function import Function
from repro.core.schedule import FluentDirectives
from repro.ir import op
from repro.ir.expr import Call, CallType, Expr
from repro.lang.rdom import RDom, RVar, rvars_in
from repro.lang.var import Var

__all__ = ["Func", "FuncRef"]

_counter = itertools.count()


class FuncRef(Expr):
    """A reference to a point of a Func (``f[x, y]``), usable inside expressions."""

    __slots__ = ("func", "args")

    def __init__(self, func: "Func", args: Sequence[Expr]):
        self.func = func
        self.args = tuple(op.as_expr(a) for a in args)
        function = func.function
        if function.has_pure_definition():
            self.type = function.output_type
        else:
            from repro.types import Int

            self.type = Int(32)

    def _key(self):
        return (self.func.name, self.args)

    def to_call(self) -> Call:
        """The IR call node this reference stands for."""
        function = self.func.function
        if not function.has_pure_definition():
            raise RuntimeError(
                f"function {self.func.name!r} is used before it is defined; "
                "give it a pure definition first"
            )
        return Call(function.output_type, function.name, self.args, CallType.HALIDE,
                    target=function)


def _lower_func_refs(e: Expr) -> Expr:
    """Replace :class:`FuncRef` nodes with IR calls throughout an expression."""
    from repro.ir.mutator import IRMutator

    class _Lower(IRMutator):
        def visit_FuncRef(self, node: FuncRef):
            call = node.to_call()
            args = [self.mutate(a) for a in call.args]
            return Call(call.type, call.name, args, call.call_type, target=call.target)

    return _Lower().mutate(op.as_expr(e))


class Func(FluentDirectives):
    """One stage of a pipeline (a wrapper around :class:`repro.core.function.Function`).

    The chainable scheduling methods (``split``, ``tile``, ``compute_at``, ...
    — one per row of :data:`repro.core.schedule.DIRECTIVES`) apply to this
    stage's :class:`~repro.core.schedule.FuncSchedule` and return the Func.
    """

    def __init__(self, name: Optional[str] = None):
        self.function = Function(name if name is not None else f"f{next(_counter)}")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.function.name

    @property
    def schedule(self):
        sched = self.function.schedule
        if sched is None:
            raise RuntimeError(f"function {self.name!r} must be defined before it is scheduled")
        return sched

    def defined(self) -> bool:
        return self.function.has_pure_definition()

    def dimensions(self) -> int:
        return self.function.dimensions()

    @property
    def args(self) -> List[str]:
        return self.function.args

    @property
    def output_type(self):
        return self.function.output_type

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Func({self.name!r})"

    # ------------------------------------------------------------------
    # definitions
    # ------------------------------------------------------------------
    def __getitem__(self, args) -> FuncRef:
        if not isinstance(args, tuple):
            args = (args,)
        return FuncRef(self, args)

    def __call__(self, *args) -> FuncRef:
        return self[args]

    def __setitem__(self, args, value) -> None:
        if not isinstance(args, tuple):
            args = (args,)
        value = _lower_func_refs(op.as_expr(value))

        is_pure_lhs = (
            all(isinstance(a, Var) and not isinstance(a, RVar) for a in args)
            and len({a.name for a in args}) == len(args)
        )
        if is_pure_lhs and not self.function.has_pure_definition():
            self.function.define([a.name for a in args], value)
            return

        # Anything else is an update definition.
        arg_exprs = [_lower_func_refs(op.as_expr(a)) for a in args]
        rvars = rvars_in(list(arg_exprs) + [value])
        rdom = None
        if rvars:
            domains = {id(v.domain): v.domain for v in rvars if v.domain is not None}
            if len(domains) > 1:
                raise ValueError(
                    f"update of {self.name!r} mixes reduction variables from different RDoms"
                )
            rdom = next(iter(domains.values())).domain if domains else None
        self.function.define_update(arg_exprs, value, rdom)

    # ------------------------------------------------------------------
    # scheduling: every directive method comes from FluentDirectives
    # ------------------------------------------------------------------
    def _directive(self, op: str, *args) -> "Func":
        self.schedule.apply(op, *args)
        return self

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def realize(self, sizes: Sequence[int], **kwargs) -> np.ndarray:
        """Compile and run the pipeline, returning the output as a numpy array.

        ``sizes`` gives the extent of each output dimension (width, height, ...).
        Keyword arguments are forwarded to :class:`repro.pipeline.Pipeline.realize`
        (notably ``schedule=`` for a :class:`~repro.core.Schedule` value and
        ``target=`` for a :class:`~repro.runtime.Target` / backend name).
        """
        from repro.pipeline import Pipeline

        return Pipeline(self).realize(sizes, **kwargs)

    def compile(self, sizes: Sequence[int], schedule=None, target=None, **kwargs):
        """Compile (without running) the pipeline rooted at this Func.

        Returns a reusable :class:`~repro.pipeline.CompiledPipeline`; see
        :meth:`repro.pipeline.Pipeline.compile`.  Note the returned object is
        compiled from a fresh Pipeline, so its cache is not shared — hold on
        to a :class:`~repro.pipeline.Pipeline` for compile-once/run-many use.
        """
        from repro.pipeline import Pipeline

        return Pipeline(self).compile(sizes, schedule=schedule, target=target, **kwargs)

    def compile_to_stmt(self, sizes: Optional[Sequence[int]] = None):
        """Lower the pipeline and return the IR statement (for inspection/tests)."""
        from repro.pipeline import Pipeline

        return Pipeline(self).lower(sizes)

    def print_loop_nest(self, sizes: Optional[Sequence[int]] = None) -> str:
        """A human-readable rendering of the synthesized loop nest."""
        from repro.ir.printer import pretty_print

        return pretty_print(self.compile_to_stmt(sizes))
