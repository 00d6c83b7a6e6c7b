"""Required-region ("box") computation over statements and expressions.

Bounds inference (Section 4.2) needs to know, for each function, the
axis-aligned bounding box of the coordinates at which it is accessed within a
region of the program.  :func:`box_touched` walks a statement or expression,
binding loop variables and let bindings to intervals as it descends, and
unions the interval bounds of every call-site argument list.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.interval import Interval, bounds_of_expr_in_scope, interval_union
from repro.analysis.scope import Scope
from repro.ir import expr as E
from repro.ir import stmt as S
from repro.ir.names import NameIndex
from repro.ir.visitor import children_of

__all__ = ["Box", "box_touched", "box_union"]


class Box:
    """A multi-dimensional axis-aligned region: one :class:`Interval` per dimension."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[Interval]):
        self.intervals = list(intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, i: int) -> Interval:
        return self.intervals[i]

    def __iter__(self):
        return iter(self.intervals)

    def is_empty(self) -> bool:
        return len(self.intervals) == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Box({self.intervals!r})"


def box_union(a: Optional[Box], b: Optional[Box]) -> Optional[Box]:
    """Union two boxes dimension-wise (either may be None, meaning empty)."""
    if a is None:
        return b
    if b is None:
        return a
    if len(a) != len(b):
        raise ValueError(f"cannot union boxes of different dimensionality: {len(a)} vs {len(b)}")
    return Box([interval_union(x, y) for x, y in zip(a.intervals, b.intervals)])


def box_touched(
    node,
    func_name: str,
    scope: Optional[Scope] = None,
    consider_calls: bool = True,
    consider_provides: bool = False,
) -> Optional[Box]:
    """The box of coordinates of ``func_name`` touched anywhere inside ``node``.

    Returns ``None`` if the function is not accessed at all.  Loop variables
    and let bindings encountered while descending are bound to intervals, so
    the resulting bounds are expressions only of variables defined *outside*
    ``node`` (which is exactly what the caller wants to inject as a preamble).
    """
    collector = _BoxCollector({func_name}, scope or Scope(), consider_calls, consider_provides,
                              NameIndex())
    collector.walk(node)
    return collector.boxes.get(func_name)


class _LetInterval:
    """The interval of a let's value, computed when the walk first reads it.

    Most lets a walk passes on its way to a call are never read by it.  The
    value's variables are looked up in a snapshot of the scope taken at the
    let, so the interval is the one an eager computation there would give.
    """

    __slots__ = ("_value", "_scope", "_interval")

    def __init__(self, value: E.Expr, scope: Scope, index: NameIndex):
        self._value = value
        self._scope: Scope = Scope()
        for name in index.variables(value):
            bound = scope.get(name)
            if bound is not None:
                self._scope.push(name, bound)
        self._interval: Optional[Interval] = None

    def __getattr__(self, attr):  # ``min`` / ``max``: compute on first read
        if self._interval is None:
            self._interval = bounds_of_expr_in_scope(self._value, self._scope)
            self._scope = None
        return getattr(self._interval, attr)


class _BoxCollector:
    """One walk that records the boxes of ``names``.

    ``index`` answers which Funcs and variables occur below a node, so the
    walk skips every subtree that touches none of ``names``, binds no let or
    loop variable its body does not mention, and computes a let's interval
    only when it is read.  Callers that make many walks over overlapping IR
    share one index.
    """

    def __init__(self, names, scope: Scope, consider_calls: bool, consider_provides: bool,
                 index: NameIndex):
        self.names = names
        self.scope = scope
        self.consider_calls = consider_calls
        self.consider_provides = consider_provides
        self.index = index
        self.boxes: Dict[str, Box] = {}

    def _record(self, name: str, args: Sequence[E.Expr]) -> None:
        intervals = [bounds_of_expr_in_scope(a, self.scope) for a in args]
        box = Box(intervals)
        existing = self.boxes.get(name)
        self.boxes[name] = box if existing is None else box_union(existing, box)

    def _walk_bound(self, name: str, body, interval_of) -> None:
        """Walk ``body`` with ``name`` bound to ``interval_of()``, if the body reads it."""
        if self.names.isdisjoint(self.index.funcs(body)):
            return
        if name in self.index.variables(body):
            with self.scope.bound(name, interval_of()):
                self.walk(body)
        else:
            self.walk(body)

    def _loop_interval(self, node: S.For):
        lo = bounds_of_expr_in_scope(node.min, self.scope)
        hi = bounds_of_expr_in_scope(node.extent, self.scope)
        if lo.min is not None and hi.max is not None:
            return Interval(lo.min, lo.max + hi.max - 1 if lo.max is not None else None)
        return Interval.everything()

    def walk(self, node) -> None:
        if node is None or self.names.isdisjoint(self.index.funcs(node)):
            return
        if isinstance(node, E.Call):
            if (
                self.consider_calls
                and node.call_type in (E.CallType.HALIDE, E.CallType.IMAGE)
                and node.name in self.names
            ):
                self._record(node.name, node.args)
            for a in node.args:
                self.walk(a)
            return
        if isinstance(node, (E.Let, S.LetStmt)):
            self.walk(node.value)
            self._walk_bound(node.name, node.body,
                             lambda: _LetInterval(node.value, self.scope, self.index))
            return
        if isinstance(node, S.For):
            self.walk(node.min)
            self.walk(node.extent)
            self._walk_bound(node.name, node.body, lambda: self._loop_interval(node))
            return
        if isinstance(node, S.Provide):
            if self.consider_provides and node.name in self.names:
                self._record(node.name, node.args)
            for a in node.args:
                self.walk(a)
            self.walk(node.value)
            return
        if isinstance(node, (E.Expr, S.Stmt)):
            for child in children_of(node):
                self.walk(child)
            return
        raise TypeError(f"unexpected node {type(node).__name__}")
