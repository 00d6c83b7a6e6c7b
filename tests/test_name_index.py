"""The per-node name memo (``repro.ir.names.NameIndex``) keeps every pass's semantics.

Simplification, bounds inference and storage folding answer "which names
occur below this node?" from one memo per pass instead of a walk per query.
These tests pin that the answers, and what the passes do with them, are the
ones the per-query walks gave.
"""

import numpy as np
import pytest

from repro.analysis.bounds import _BoxCollector, box_touched
from repro.analysis.interval import bounds_of_expr_in_scope
from repro.analysis.monotonic import Monotonic, is_monotonic
from repro.analysis.scope import Scope
from repro.compiler.simplify import simplify, used_variables
from repro.core.schedule import ScheduleError
from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.ir.names import NameIndex
from repro.ir.visitor import children_of
from repro.lang import Buffer, Func, RDom, Var, repeat_edge
from repro.pipeline import Pipeline
from repro.types import Float, Int

x, y, n = E.Variable("x"), E.Variable("y"), E.Variable("n")


def _reference_variables(node):
    """Every Variable name under ``node``, by a fresh walk (the old definition)."""
    if isinstance(node, E.Variable):
        return {node.name}
    names = set()
    for child in children_of(node):
        names |= _reference_variables(child)
    return names


def _serial(name, extent, body, lo=0):
    return S.For(name, op.as_expr(lo), op.as_expr(extent), S.ForType.SERIAL, body)


class TestVariables:
    def test_shadowed_let_name_counts_as_a_use(self):
        inner = E.Let("t", x + 1, E.Variable("t") * 2)
        outer = E.Let("t", y, inner + E.Variable("t"))
        index = NameIndex()
        assert index.variables(outer) == {"t", "x", "y"} == _reference_variables(outer)
        assert used_variables(outer) == {"t", "x", "y"}

    def test_var_and_rvar_are_variables(self):
        r = RDom(0, 4, name="nr")
        e = Var("vx") + r.x * Var("vy")
        assert NameIndex().variables(e) == {"vx", "vy", r.x.name}
        assert used_variables(e) == _reference_variables(e)

    def test_name_only_in_a_loop_bound(self):
        store = S.Store("buf", op.as_expr(1), E.Variable("i"))
        stmt = S.LetStmt("n", y + 3, S.For("i", op.as_expr(0), n, S.ForType.SERIAL, store))
        index = NameIndex()
        assert "n" in index.variables(stmt.body)
        assert index.variables(stmt) == {"n", "i", "y"} == _reference_variables(stmt)
        # The let survives simplification: its only use is the loop bound.
        assert isinstance(simplify(stmt), S.LetStmt)

    def test_dead_let_is_dropped_even_when_its_value_shadows(self):
        stmt = S.LetStmt("a", E.Variable("a") + x,
                         S.Store("buf", op.as_expr(1), op.as_expr(0)))
        assert NameIndex().variables(stmt) == {"a", "x"}
        assert simplify(stmt) == stmt.body

    def test_funcs_are_halide_and_image_calls_and_provides(self):
        read = E.Call(Float(32), "g", [x], E.CallType.HALIDE)
        image = E.Call(Float(32), "img", [y], E.CallType.IMAGE)
        intrinsic = E.Call(Float(32), "sqrt", [read], E.CallType.INTRINSIC)
        stmt = S.Provide("f", intrinsic + image, [x])
        index = NameIndex()
        assert index.funcs(stmt) == {"f", "g", "img"}
        assert index.variables(stmt) == {"x", "y"}
        assert index.funcs(intrinsic) == {"g"}

    def test_memo_answers_from_the_same_set(self):
        e = (x + y) * (x - 1)
        index = NameIndex()
        assert index.variables(e) is index.variables(e)
        # A new tree over an already summarised subtree reuses its set.
        assert index.variables(E.Mul(e, op.as_expr(2))) is index.variables(e)

    def test_recycled_ids_do_not_alias(self):
        # Each node is dropped after its query; without the memo holding the
        # node, the next one could be allocated at the same id and read the
        # previous answer.
        index = NameIndex()
        for i in range(200):
            assert index.variables(E.Variable(f"v{i}", Int(32)) + 1) == {f"v{i}"}


def _provide_nest(index_expr):
    """for x in [0, 10): for yy in [2, 5): f(index_expr, yy) = 0"""
    provide = S.Provide("f", op.as_expr(0.0), [index_expr, E.Variable("yy")])
    return _serial("x", 10, _serial("yy", 3, provide, lo=2))


class TestBoxTouched:
    def _assert_box(self, box, expected):
        assert box is not None and len(box) == len(expected)
        for interval, (lo, hi) in zip(box, expected):
            assert op.const_value(interval.min) == lo
            assert op.const_value(interval.max) == hi

    def test_provide_only_subtree(self):
        stmt = _provide_nest(x + 1)
        self._assert_box(box_touched(stmt, "f", consider_provides=True), [(1, 10), (2, 4)])
        assert box_touched(stmt, "f") is None  # calls only: nothing reads f
        assert box_touched(stmt, "g", consider_provides=True) is None

    def test_shared_index_matches_a_fresh_one(self):
        stmt = _provide_nest(x + 1)
        other = S.Block([_provide_nest(x), S.Provide("g", op.as_expr(0.0), [y, y])])
        shared = NameIndex()
        for node in (other, stmt, stmt):
            collector = _BoxCollector({"f"}, Scope(), True, True, shared)
            collector.walk(node)
            fresh = box_touched(node, "f", consider_provides=True)
            assert [(i.min, i.max) for i in collector.boxes["f"]] == \
                [(i.min, i.max) for i in fresh]
        assert box_touched(other, "g", consider_provides=True) is not None

    def test_let_interval_sees_the_scope_of_its_let(self):
        # The let reads the outer x; the loop below it rebinds x.  Reading the
        # let's interval inside the loop must still give the point 2*x of the
        # outer x, as an eager computation at the let would.
        read = E.Call(Float(32), "f", [E.Variable("a"), x], E.CallType.HALIDE)
        stmt = S.LetStmt("a", x * 2, _serial("x", 4, S.Evaluate(read)))
        box = box_touched(stmt, "f")
        eager = bounds_of_expr_in_scope(x * 2, Scope())
        assert box[0].min == eager.min and box[0].max == eager.max

    def test_let_read_by_a_call_is_bound(self):
        read = E.Call(Float(32), "f", [x], E.CallType.HALIDE)
        box = box_touched(S.LetStmt("x", y, S.Evaluate(read)), "f")
        assert box[0].min == y and box[0].max == y
        box = box_touched(S.LetStmt("unread", y, S.Evaluate(read)), "f")
        assert box[0].min == x and box[0].max == x


class TestOtherQueries:
    """Analyses that asked the same question with their own walk now ask the index."""

    def test_is_monotonic_sees_var_and_rvar_under_an_opaque_node(self):
        # A Mod is opaque to the analysis: it only asks whether the variable
        # occurs.  A front-end Var is a Variable too.
        vx = Var("mx")
        assert is_monotonic(vx % 3, "mx") == Monotonic.UNKNOWN
        assert is_monotonic(vx % 3, "other") == Monotonic.CONSTANT
        r = RDom(0, 4, name="mr")
        assert is_monotonic(r.x % 3, r.x.name) == Monotonic.UNKNOWN

    def test_free_pure_vars_of_an_update(self):
        vx, vy = Var("x"), Var("y")
        f = Func("fp")
        f[vx, vy] = vx * 1.0
        r = RDom(0, 3, name="fr")
        f[vx, 0] = f[vx, 0] + r.x
        update = f.function.updates[0]
        assert update.free_pure_vars(["x", "y"]) == ["x"]

    def test_rdom_outer_rejects_bounds_on_a_pure_var(self):
        vx = Var("x")
        f = Func("ro")
        f[vx] = vx * 1.0
        r = RDom(0, vx + 1, name="rr")
        f[vx] = f[vx] + r.x
        f.rdom_outer()
        with pytest.raises(ScheduleError, match=r"depending on pure variable\(s\) \['x'\]"):
            Pipeline(f).lower([8])


# -- forced storage_fold diagnostics ------------------------------------------

def _chain(reversed_read=False):
    buf = Buffer(np.zeros((24, 16), dtype=np.float32), name="ni_in")
    clamped = repeat_edge(buf, name="ni_clamped")
    vx, vy = Var("x"), Var("y")
    producer, consumer = Func("ni_producer"), Func("ni_consumer")
    producer[vx, vy] = clamped[vx, vy - 1] + clamped[vx, vy + 1]
    if reversed_read:
        consumer[vx, vy] = producer[vx, 15 - vy]
    else:
        consumer[vx, vy] = producer[vx, vy - 1] + producer[vx, vy] + producer[vx, vy + 1]
    return producer, consumer


_FOLD = "storage_fold('y', {}) on 'ni_producer': "
FOLD_ERRORS = {
    "factor_smaller_than_window": (
        lambda p, c: p.store_root().compute_at(c, Var("y")).storage_fold("y", 2), False,
        _FOLD.format(2) + "each iteration touches 3 entries of 'y', which do not fit "
                          "in a fold of 2"),
    "parallel_consumer_loop": (
        lambda p, c: (c.parallel(Var("y")),
                      p.store_root().compute_at(c, Var("y")).storage_fold("y", 4)), False,
        _FOLD.format(4) + "a parallel loop sits between the storage and the computation, "
                          "so folded values could be overwritten while other iterations "
                          "still need them"),
    "non_marching_window": (
        lambda p, c: p.store_root().compute_at(c, Var("y")).storage_fold("y", 16), True,
        _FOLD.format(16) + "the window of 'y' does not march monotonically along an "
                           "enclosing serial loop, so folding would overwrite values "
                           "still needed"),
    "stored_at_compute_level": (
        lambda p, c: p.compute_root().storage_fold("y", 4), False,
        _FOLD.format(4) + "each iteration touches 18 entries of 'y', which do not fit "
                          "in a fold of 4"),
    "zero_factor": (
        lambda p, c: p.store_root().compute_at(c, Var("y")).storage_fold("y", 0), False,
        _FOLD.format(0) + "fold factor must be >= 1"),
    "fold_on_output": (
        lambda p, c: (p.compute_root(), c.storage_fold("y", 4)), False,
        "storage_fold on 'ni_consumer': the output buffer is provided by the caller "
        "and cannot be folded"),
    "fold_on_inlined": (
        lambda p, c: p.storage_fold("y", 4), False,
        "storage_fold on 'ni_producer': the function is inlined and has no storage "
        "to fold"),
    "unknown_dimension": (
        lambda p, c: p.store_root().compute_at(c, Var("y")).storage_fold("z", 4), False,
        "storage_fold on 'ni_producer': no dimension 'z' (its dimensions are ['x', 'y'])"),
}


@pytest.mark.parametrize("case", sorted(FOLD_ERRORS))
def test_forced_fold_diagnostics_are_unchanged(case):
    schedule, reversed_read, message = FOLD_ERRORS[case]
    producer, consumer = _chain(reversed_read)
    schedule(producer, consumer)
    with pytest.raises(ScheduleError) as info:
        Pipeline(consumer).lower([24, 16])
    assert str(info.value) == message


def test_forced_fold_along_x_still_applies():
    producer, consumer = _chain()
    producer.store_root().compute_at(consumer, Var("x")).storage_fold("x", 4)
    assert Pipeline(consumer).lower([24, 16]).folds == {"ni_producer": {"x": 4}}
