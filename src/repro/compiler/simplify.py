"""Algebraic simplification and dead-let elimination.

Bounds inference produces a lot of structurally redundant arithmetic
(``min(x + 1 - 1, x)``, ``(y * 4) / 4`` ...).  This pass performs the standard
constant folding and pattern-based rewrites the paper mentions in Section 4.6,
plus substitution of cheap let bindings and removal of unused ones, so the
backends see compact expressions.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.ir.mutator import IRMutator
from repro.ir.names import NameIndex

__all__ = ["simplify", "simplify_expr", "used_variables"]


def used_variables(node) -> Set[str]:
    """The set of variable names that occur anywhere in ``node``."""
    return set(NameIndex().variables(node))


def _is_cheap(e: E.Expr) -> bool:
    """Whether substituting a let value at every use is safe and profitable."""
    if isinstance(e, (E.IntImm, E.FloatImm, E.Variable)):
        return True
    if isinstance(e, (E.Add, E.Sub, E.Mul)):
        return (
            isinstance(e.a, (E.IntImm, E.FloatImm, E.Variable))
            and isinstance(e.b, (E.IntImm, E.FloatImm, E.Variable))
        )
    return False


class _Simplifier(IRMutator):
    def __init__(self, let_substitutions: Optional[Dict[str, E.Expr]] = None):
        self.lets: Dict[str, E.Expr] = dict(let_substitutions or {})
        self.names = NameIndex()

    # -- expressions --------------------------------------------------------
    def visit_Variable(self, node: E.Variable):
        return self.lets.get(node.name, node)

    def visit_Var(self, node):
        return self.lets.get(node.name, node)

    def visit_RVar(self, node):
        return self.lets.get(node.name, node)

    def _binary(self, node, ctor):
        a = self.mutate(node.a)
        b = self.mutate(node.b)
        return ctor(a, b)

    def visit_Add(self, node):
        result = self._binary(node, lambda a, b: op.make_binary(E.Add, a, b))
        return _rewrite_add(result)

    def visit_Sub(self, node):
        result = self._binary(node, lambda a, b: op.make_binary(E.Sub, a, b))
        return _rewrite_sub(result)

    def visit_Mul(self, node):
        return self._binary(node, lambda a, b: op.make_binary(E.Mul, a, b))

    def visit_Div(self, node):
        return self._binary(node, lambda a, b: op.make_binary(E.Div, a, b))

    def visit_Mod(self, node):
        return self._binary(node, lambda a, b: op.make_binary(E.Mod, a, b))

    def visit_Min(self, node):
        result = self._binary(node, op.min_)
        return _rewrite_minmax(result)

    def visit_Max(self, node):
        result = self._binary(node, op.max_)
        return _rewrite_minmax(result)

    def visit_EQ(self, node):
        return self._binary(node, lambda a, b: op.make_compare(E.EQ, a, b))

    def visit_NE(self, node):
        return self._binary(node, lambda a, b: op.make_compare(E.NE, a, b))

    def visit_LT(self, node):
        return self._binary(node, lambda a, b: op.make_compare(E.LT, a, b))

    def visit_LE(self, node):
        return self._binary(node, lambda a, b: op.make_compare(E.LE, a, b))

    def visit_GT(self, node):
        return self._binary(node, lambda a, b: op.make_compare(E.GT, a, b))

    def visit_GE(self, node):
        return self._binary(node, lambda a, b: op.make_compare(E.GE, a, b))

    def visit_And(self, node):
        return self._binary(node, lambda a, b: op.make_logical(E.And, a, b))

    def visit_Or(self, node):
        return self._binary(node, lambda a, b: op.make_logical(E.Or, a, b))

    def visit_Not(self, node):
        return op.make_not(self.mutate(node.a))

    def visit_Select(self, node):
        return op.make_select(
            self.mutate(node.condition),
            self.mutate(node.true_value),
            self.mutate(node.false_value),
        )

    def visit_Cast(self, node):
        return op.cast(node.type, self.mutate(node.value))

    def visit_Let(self, node: E.Let):
        value = self.mutate(node.value)
        if _is_cheap(value):
            saved = self.lets.get(node.name)
            self.lets[node.name] = value
            body = self.mutate(node.body)
            if saved is None:
                self.lets.pop(node.name, None)
            else:
                self.lets[node.name] = saved
            return body
        body = self.mutate(node.body)
        if node.name not in self.names.variables(body):
            return body
        return E.Let(node.name, value, body)

    # -- statements ----------------------------------------------------------
    def visit_LetStmt(self, node: S.LetStmt):
        value = self.mutate(node.value)
        body = self.mutate(node.body)
        if node.name not in self.names.variables(body):
            return body
        return S.LetStmt(node.name, value, body)

    def visit_For(self, node: S.For):
        mn = self.mutate(node.min)
        extent = self.mutate(node.extent)
        body = self.mutate(node.body)
        extent_value = op.const_value(extent)
        if extent_value is not None and extent_value <= 0:
            return S.Evaluate(op.const(0))
        if extent_value == 1 and node.for_type in (S.ForType.SERIAL, S.ForType.UNROLLED):
            from repro.compiler.substitute import substitute_name

            return self.mutate(substitute_name(body, node.name, mn))
        return S.For(node.name, mn, extent, node.for_type, body)

    def visit_IfThenElse(self, node: S.IfThenElse):
        cond = self.mutate(node.condition)
        value = op.const_value(cond)
        if value is not None:
            return self.mutate(node.then_case if value else node.else_case)
        return S.IfThenElse(cond, self.mutate(node.then_case), self.mutate(node.else_case))


def _rewrite_add(e: E.Expr) -> E.Expr:
    """Fold nested constant offsets: ``(x + a) + b -> x + (a + b)``."""
    if isinstance(e, E.Add) and op.is_const(e.b) and isinstance(e.a, E.Add) and op.is_const(e.a.b):
        return op.make_binary(E.Add, e.a.a, op.make_binary(E.Add, e.a.b, e.b))
    if isinstance(e, E.Add) and op.is_const(e.b) and isinstance(e.a, E.Sub) and op.is_const(e.a.b):
        return op.make_binary(E.Add, e.a.a, op.make_binary(E.Sub, e.b, e.a.b))
    return e


def _rewrite_sub(e: E.Expr) -> E.Expr:
    """Fold ``(x + a) - b`` and ``x - x`` style patterns."""
    if isinstance(e, E.Sub):
        if e.a == e.b:
            return op.const(0, e.type)
        if op.is_const(e.b) and isinstance(e.a, E.Add) and op.is_const(e.a.b):
            return op.make_binary(E.Add, e.a.a, op.make_binary(E.Sub, e.a.b, e.b))
    return e


def _rewrite_minmax(e: E.Expr) -> E.Expr:
    """Collapse ``min(x, x)``, ``min(min(x, a), b)`` with constant a/b, etc."""
    if isinstance(e, (E.Min, E.Max)):
        if e.a == e.b:
            return e.a
        ctor = op.min_ if isinstance(e, E.Min) else op.max_
        if op.is_const(e.b) and isinstance(e.a, type(e)) and op.is_const(e.a.b):
            return ctor(e.a.a, ctor(e.a.b, e.b))
    return e


def simplify(node, let_substitutions: Optional[Dict[str, E.Expr]] = None):
    """Simplify a statement or expression tree."""
    return _Simplifier(let_substitutions).mutate(node)


def simplify_expr(e: E.Expr, let_substitutions: Optional[Dict[str, E.Expr]] = None) -> E.Expr:
    """Simplify an expression (alias of :func:`simplify` for readability)."""
    return _Simplifier(let_substitutions).mutate(e)
