"""Sliding-window optimization (Section 4.3 of the paper).

When a function is *stored* at a loop level above the level at which it is
*computed*, with an intervening serial loop, successive iterations of that
loop can reuse values computed by earlier iterations.  This pass shrinks the
per-iteration computed region to exclude everything already computed: the new
minimum of the sliding dimension becomes ``max(old_min, old_max@(prev
iteration) + 1)``, guarded so that the first iteration still computes the full
warm-up region.

It is this transformation that trades parallelism (the intervening loop must
stay serial) for reuse (no recomputation of shared values).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.monotonic import Monotonic, is_monotonic
from repro.compiler.simplify import simplify_expr
from repro.compiler.substitute import substitute_name
from repro.core.function import Function
from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.ir.mutator import IRMutator
from repro.ir.visitor import children_of

__all__ = ["sliding_window"]


def _contains_produce(node, name: str) -> bool:
    if isinstance(node, S.ProducerConsumer) and node.is_producer and node.name == name:
        return True
    # Produce nodes are statements, and no statement sits inside an expression.
    return any(_contains_produce(child, name)
               for child in children_of(node) if isinstance(child, S.Stmt))


class _SlidingWindow(IRMutator):
    def __init__(self, env: Dict[str, Function]):
        self.env = env
        #: func name -> loop name along which its computation slides.
        self.slides: Dict[str, str] = {}

    def visit_Realize(self, node: S.Realize):
        body = self.mutate(node.body)
        func = self.env.get(node.name)
        if func is not None:
            body = self._slide_realization(func, body)
        if body is node.body:
            return node
        return S.Realize(node.name, node.type, node.bounds, body)

    def _slide_realization(self, func: Function, body: S.Stmt) -> S.Stmt:
        """Find the innermost serial loop between the Realize and the produce of func."""
        loop = _innermost_candidate_loop(body, func.name)
        if loop is None:
            return body
        rewriter = _RewriteComputeLets(func, loop)
        result = rewriter.mutate(body)
        if rewriter.applied:
            self.slides[func.name] = loop.name
        return result


def _innermost_candidate_loop(node, func_name: str, current: Optional[S.For] = None):
    """The innermost serial For containing the produce of ``func_name`` but not inside it."""
    if isinstance(node, S.ProducerConsumer) and node.is_producer and node.name == func_name:
        return current
    if isinstance(node, S.For):
        if not _contains_produce(node.body, func_name):
            return None
        candidate = node if node.for_type == S.ForType.SERIAL else current
        return _innermost_candidate_loop(node.body, func_name, candidate)
    if isinstance(node, (S.LetStmt, S.Realize, S.Allocate, S.ProducerConsumer)):
        return _innermost_candidate_loop(node.body, func_name, current)
    if isinstance(node, S.IfThenElse):
        return _innermost_candidate_loop(node.then_case, func_name, current)
    if isinstance(node, S.Block):
        for s in node.stmts:
            if _contains_produce(s, func_name):
                return _innermost_candidate_loop(s, func_name, current)
        return None
    return None


class _RewriteComputeLets(IRMutator):
    """Apply the sliding rewrite to the compute-site lets of one function."""

    def __init__(self, func: Function, loop: S.For):
        self.func = func
        self.loop = loop
        self.applied = False

    def visit_Block(self, node: S.Block):
        return S.Block([self.mutate(s) for s in node.stmts])

    def visit_LetStmt(self, node: S.LetStmt):
        if self.applied:
            return node
        # Look for the cluster of lets <f>.<dim>.min / .max / .extent wrapping
        # the produce of `func`, then rewrite the min of the first dimension
        # whose required region moves monotonically with the loop variable.
        cluster, inner_body = _collect_let_cluster(node)
        if not _contains_produce(inner_body, self.func.name):
            return S.LetStmt(node.name, node.value, self.mutate(node.body))
        values = dict(cluster)
        rewritten = False
        for dim in self.func.args:
            min_name = f"{self.func.name}.{dim}.min"
            max_name = f"{self.func.name}.{dim}.max"
            if min_name not in values or max_name not in values:
                continue
            # Bounds inference emits unsimplified interval arithmetic (e.g.
            # ``(t + ((t - t) + 1)) - 1``); the monotonic analysis only sees
            # the linear structure after simplification.
            old_min = simplify_expr(values[min_name])
            old_max = simplify_expr(values[max_name])
            if is_monotonic(old_min, self.loop.name) != Monotonic.INCREASING:
                continue
            if is_monotonic(old_max, self.loop.name) != Monotonic.INCREASING:
                continue
            prev_max = substitute_name(old_max, self.loop.name,
                                       E.Variable(self.loop.name) - 1)
            new_min = op.make_select(
                E.Variable(self.loop.name) <= self.loop.min,
                old_min,
                op.max_(old_min, prev_max + 1),
            )
            values[min_name] = new_min
            rewritten = True
            break
        if not rewritten:
            return S.LetStmt(node.name, node.value, self.mutate(node.body))
        self.applied = True
        body = self.mutate(inner_body)
        for name, value in reversed(cluster):
            body = S.LetStmt(name, values.get(name, value), body)
        return body


def _collect_let_cluster(node: S.LetStmt):
    """Collect a maximal chain of consecutive LetStmts, returning (bindings, body)."""
    bindings = []
    current = node
    while isinstance(current, S.LetStmt):
        bindings.append((current.name, current.value))
        current = current.body
    return bindings, current


def sliding_window(stmt: S.Stmt, env: Dict[str, Function]):
    """Apply the sliding-window optimization across the whole pipeline.

    Returns ``(stmt, slides)`` where ``slides`` maps each function whose
    computation now slides to the loop it slides along (the loop that must
    remain serial — the parallelism the optimization trades away).
    """
    pass_ = _SlidingWindow(env)
    result = pass_.mutate(stmt)
    return result, pass_.slides
