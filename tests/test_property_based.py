"""Property-based tests (hypothesis) for core invariants.

* interval analysis is sound: the computed interval contains every value the
  expression takes over sampled assignments;
* the simplifier preserves semantics;
* euclidean division/modulo in the IR match the executor's semantics;
* arbitrary (valid) schedules of the two-stage blur never change its output —
  the paper's central guarantee, checked over a randomized schedule space.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.interval import Interval, bounds_of_expr_in_scope
from repro.analysis.scope import Scope
from repro.compiler.simplify import simplify_expr
from repro.ir import expr as E
from repro.ir import op
from repro.types import Int


# ---------------------------------------------------------------------------
# expression generators
# ---------------------------------------------------------------------------

_VARIABLES = ("a", "b", "c")


def _leaf():
    return st.one_of(
        st.integers(min_value=-20, max_value=20).map(lambda v: op.const(v)),
        st.sampled_from(_VARIABLES).map(lambda n: E.Variable(n, Int(32))),
    )


def _expr(depth: int):
    if depth == 0:
        return _leaf()
    sub = _expr(depth - 1)
    binary = st.sampled_from([E.Add, E.Sub, E.Mul, E.Min, E.Max])
    return st.one_of(
        _leaf(),
        st.tuples(binary, sub, sub).map(lambda t: op.make_binary(t[0], t[1], t[2])),
        st.tuples(sub, sub, sub).map(
            lambda t: op.make_select(op.make_compare(E.LT, t[0], t[1]), t[1], t[2])
        ),
    )


def _evaluate(e: E.Expr, env: dict):
    """Direct recursive evaluation used as the ground truth for properties."""
    if isinstance(e, (E.IntImm, E.FloatImm)):
        return e.value
    if isinstance(e, E.Variable):
        return env[e.name]
    if isinstance(e, E.Add):
        return _evaluate(e.a, env) + _evaluate(e.b, env)
    if isinstance(e, E.Sub):
        return _evaluate(e.a, env) - _evaluate(e.b, env)
    if isinstance(e, E.Mul):
        return _evaluate(e.a, env) * _evaluate(e.b, env)
    if isinstance(e, E.Min):
        return min(_evaluate(e.a, env), _evaluate(e.b, env))
    if isinstance(e, E.Max):
        return max(_evaluate(e.a, env), _evaluate(e.b, env))
    if isinstance(e, E.Div):
        divisor = _evaluate(e.b, env)
        return op.euclidean_div(_evaluate(e.a, env), divisor)
    if isinstance(e, E.Mod):
        return op.euclidean_mod(_evaluate(e.a, env), _evaluate(e.b, env))
    if isinstance(e, E.Select):
        return (_evaluate(e.true_value, env) if _evaluate(e.condition, env)
                else _evaluate(e.false_value, env))
    if isinstance(e, (E.LT, E.LE, E.GT, E.GE, E.EQ, E.NE)):
        a, b = _evaluate(e.a, env), _evaluate(e.b, env)
        return {E.LT: a < b, E.LE: a <= b, E.GT: a > b, E.GE: a >= b,
                E.EQ: a == b, E.NE: a != b}[type(e)]
    if isinstance(e, E.Cast):
        return _evaluate(e.value, env)
    raise NotImplementedError(type(e).__name__)


values = st.integers(min_value=-10, max_value=10)


class TestIntervalSoundness:
    @settings(max_examples=200, deadline=None)
    @given(e=_expr(3), a=values, b=values, c=values)
    def test_interval_contains_all_values(self, e, a, b, c):
        scope = Scope()
        bounds = {"a": (min(a, 0), max(a, 0) + 5), "b": (b, b + 3), "c": (c, c)}
        for name, (lo, hi) in bounds.items():
            scope.push(name, Interval(op.const(lo), op.const(hi)))
        interval = bounds_of_expr_in_scope(e, scope)
        # Sample assignments inside the declared variable ranges.
        rng = np.random.default_rng(abs(hash((a, b, c))) % (2 ** 32))
        for _ in range(5):
            env = {name: int(rng.integers(lo, hi + 1)) for name, (lo, hi) in bounds.items()}
            value = _evaluate(e, env)
            if interval.min is not None:
                assert _evaluate(interval.min, env) <= value
            if interval.max is not None:
                assert value <= _evaluate(interval.max, env)

    @settings(max_examples=200, deadline=None)
    @given(e=_expr(3), a=values, b=values, c=values)
    def test_simplify_preserves_value(self, e, a, b, c):
        env = {"a": a, "b": b, "c": c}
        assert _evaluate(simplify_expr(e), env) == _evaluate(e, env)


class TestDivModProperties:
    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(-1000, 1000), b=st.integers(-50, 50).filter(lambda v: v != 0))
    def test_euclidean_div_mod_identity(self, a, b):
        quotient = op.euclidean_div(a, b)
        remainder = op.euclidean_mod(a, b)
        assert quotient * b + remainder == a
        if b > 0:
            assert 0 <= remainder < b
        else:
            assert b < remainder <= 0

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(-100, 100), b=st.integers(1, 16))
    def test_folded_div_matches_python(self, a, b):
        folded = op.const_value(op.as_expr(a) / b)
        assert folded == a // b  # Python floor-division for positive divisors


class TestScheduleInvariance:
    """Random valid schedules of the blur never change its output."""

    @pytest.fixture(scope="class")
    def blur_data(self):
        from repro.apps import make_blur
        from repro.reference import blur_ref

        image = np.random.default_rng(99).random((32, 20)).astype(np.float32)
        return image, blur_ref(image)

    @settings(max_examples=12, deadline=None)
    @given(
        tile_x=st.sampled_from([4, 8, 16]),
        tile_y=st.sampled_from([4, 8, 16]),
        vector_width=st.sampled_from([1, 4]),
        producer_choice=st.sampled_from(["inline", "root", "at_tile", "at_row", "sliding"]),
        parallel_outer=st.booleans(),
    )
    def test_random_blur_schedules_are_correct(self, blur_data, tile_x, tile_y,
                                               vector_width, producer_choice,
                                               parallel_outer):
        from repro.apps import make_blur
        from repro.lang import Var

        image, reference = blur_data
        app = make_blur(image)
        blur_x, blur_y = app.funcs["blur_x"], app.funcs["blur_y"]
        x, y, xo, yo, xi, yi = (Var(n) for n in ("x", "y", "xo", "yo", "xi", "yi"))

        blur_y.tile(x, y, xo, yo, xi, yi, tile_x, tile_y)
        if vector_width > 1:
            blur_y.vectorize(xi, vector_width)
        if parallel_outer:
            blur_y.parallel(yo)

        if producer_choice == "root":
            blur_x.compute_root()
        elif producer_choice == "at_tile":
            blur_x.compute_at(blur_y, xo)
        elif producer_choice == "at_row":
            blur_x.compute_at(blur_y, yi)
        elif producer_choice == "sliding":
            blur_x.store_root().compute_at(blur_y, yo)

        result = app.compile().run()
        assert np.allclose(result, reference, atol=1e-4)
