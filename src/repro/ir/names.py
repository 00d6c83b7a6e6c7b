"""Which names occur below an IR node, answered from a per-node memo.

Passes keep asking "is this variable read under this node?" (is a let dead?)
and "does this subtree call or provide Func f?" (must bounds inference look
here?).  A fresh walk per question makes a pass quadratic in the depth of
nested lets and stages; a :class:`NameIndex` summarises each node once, from
its children's summaries.  The memo is keyed on node identity and keeps the
node alive, so a recycled ``id`` cannot alias another node.  Make one index
per pass invocation, so it never outlives the IR it describes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.visitor import children_of

__all__ = ["NameIndex"]

_EMPTY: FrozenSet[str] = frozenset()


def _union(acc: FrozenSet[str], more: FrozenSet[str]) -> FrozenSet[str]:
    # Reuse an operand that already holds the union, so a chain of nodes over
    # the same names shares one set instead of a copy per node.
    if acc >= more:
        return acc
    return more if more >= acc else acc | more


class NameIndex:
    """Memoised per-node name sets for one pass invocation."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: Dict[int, Tuple[object, FrozenSet[str], FrozenSet[str]]] = {}

    def variables(self, node) -> FrozenSet[str]:
        """Names of every ``Variable`` (``Var``, ``RVar`` ...) under ``node``;
        let and loop names count only where a ``Variable`` reads them."""
        return self._entry(node)[1]

    def funcs(self, node) -> FrozenSet[str]:
        """Names of the Funcs and images called (``HALIDE``/``IMAGE`` calls) or
        provided under ``node``."""
        return self._entry(node)[2]

    def _entry(self, node):
        entry = self._memo.get(id(node))
        if entry is not None:
            return entry
        variables = funcs = _EMPTY
        if isinstance(node, E.Variable):
            variables = frozenset((node.name,))
        for child in children_of(node):
            if child is not None:
                _, child_variables, child_funcs = self._entry(child)
                variables = _union(variables, child_variables)
                funcs = _union(funcs, child_funcs)
        if isinstance(node, S.Provide) or (
                isinstance(node, E.Call) and node.call_type in (E.CallType.HALIDE,
                                                                E.CallType.IMAGE)):
            funcs = _union(funcs, frozenset((node.name,)))
        entry = self._memo[id(node)] = (node, variables, funcs)
        return entry
