"""Tests for IR smart constructors: wrapping, promotion, constant folding."""

import pytest

from repro.ir import expr as E
from repro.ir import op
from repro.types import Bool, Float, Int, UInt


class TestWrapping:
    def test_int_literal(self):
        e = op.as_expr(3)
        assert isinstance(e, E.IntImm) and e.value == 3

    def test_float_literal(self):
        e = op.as_expr(2.5)
        assert isinstance(e, E.FloatImm) and e.value == 2.5

    def test_expr_passthrough(self):
        x = E.Variable("x")
        assert op.as_expr(x) is x

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            op.as_expr("hello")


class TestConstantFolding:
    def test_add(self):
        assert op.const_value(op.as_expr(2) + 3) == 5

    def test_mul(self):
        assert op.const_value(op.as_expr(4) * 5) == 20

    def test_sub_to_negative(self):
        assert op.const_value(op.as_expr(2) - 7) == -5

    def test_int_division_floors(self):
        assert op.const_value(op.as_expr(-7) / 2) == -4

    def test_int_mod_sign_of_divisor(self):
        assert op.const_value(op.as_expr(-7) % 4) == 1

    def test_min_max(self):
        assert op.const_value(op.min_(3, 8)) == 3
        assert op.const_value(op.max_(3, 8)) == 8

    def test_compare(self):
        assert op.const_value(op.make_compare(E.LT, op.as_expr(1), op.as_expr(2))) == 1

    def test_select_constant_condition(self):
        result = op.make_select(op.as_expr(True), 10, 20)
        assert op.const_value(result) == 10

    def test_select_rejects_python_bool_condition(self):
        # `k == 3` on an Expr is structural equality: a Python bool that
        # would fold the select to one branch without a word.
        k = E.Variable("k")
        assert (k % 4 == 3) is False
        with pytest.raises(TypeError, match=r"a\.eq\(b\) / a\.ne\(b\)"):
            op.make_select(k % 4 == 3, k, 0)
        assert isinstance(op.make_select((k % 4).eq(3), k, 0), E.Select)

    def test_operators_reject_python_bool_operands(self):
        # The same trap in arithmetic and logic: `x + (x == 3)` built `x` and
        # `(x % 2 == 1) & (x < 3)` built the constant 0.
        x = E.Variable("x")
        for build in (lambda: x + (x == 3), lambda: (x == 3) * x,
                      lambda: (x % 2 == 1) & (x < 3), lambda: (x < 3) | (x == 1),
                      lambda: op.max_(x, x != 3)):
            with pytest.raises(TypeError, match=r"a\.eq\(b\) / a\.ne\(b\)"):
                build()
        assert isinstance(x + x.eq(3), E.Add)
        assert isinstance((x % 2).eq(1) & (x < 3), E.And)


class TestIdentities:
    def test_add_zero(self):
        x = E.Variable("x")
        assert (x + 0) is x
        assert (0 + x) is x

    def test_mul_one(self):
        x = E.Variable("x")
        assert (x * 1) is x

    def test_mul_zero(self):
        x = E.Variable("x")
        assert op.const_value(x * 0) == 0

    def test_sub_zero(self):
        x = E.Variable("x")
        assert (x - 0) is x

    def test_div_one(self):
        x = E.Variable("x")
        assert (x / 1) is x


class TestTypePromotion:
    def test_literal_adopts_float_type(self):
        x = E.Variable("x", Float(32))
        e = x + 1
        assert e.type == Float(32)

    def test_int_plus_float_promotes(self):
        x = E.Variable("x", Int(32))
        y = E.Variable("y", Float(32))
        assert (x + y).type == Float(32)

    def test_uint8_plus_int32(self):
        x = E.Variable("x", UInt(8))
        y = E.Variable("y", Int(32))
        assert (x + y).type == Int(32)

    def test_comparison_is_bool(self):
        x = E.Variable("x")
        assert (x < 3).type.is_bool()


class TestCast:
    def test_cast_folds_int_constant(self):
        e = op.cast(Float(32), op.as_expr(3))
        assert isinstance(e, E.FloatImm) and e.value == 3.0

    def test_cast_wraps_uint8(self):
        e = op.cast(UInt(8), op.as_expr(300))
        assert op.const_value(e) == 44

    def test_cast_no_op(self):
        x = E.Variable("x", Int(32))
        assert op.cast(Int(32), x) is x

    def test_cast_float_to_int_truncates(self):
        assert op.const_value(op.cast(Int(32), op.as_expr(3.9))) == 3


class TestClamp:
    def test_clamp_structure(self):
        x = E.Variable("x")
        e = op.clamp(x, 0, 10)
        assert isinstance(e, E.Max)

    def test_clamp_constant(self):
        assert op.const_value(op.clamp(op.as_expr(15), 0, 10)) == 10
        assert op.const_value(op.clamp(op.as_expr(-5), 0, 10)) == 0


class TestLogical:
    def test_and_folding(self):
        assert op.const_value(op.make_logical(E.And, op.as_expr(True), op.as_expr(False))) == 0

    def test_or_identity(self):
        x = E.Variable("b", Bool())
        assert op.make_logical(E.Or, x, op.as_expr(False)) is x

    def test_not_of_not(self):
        x = E.Variable("b", Bool())
        assert op.make_not(op.make_not(x)) is x


class TestStructuralEquality:
    def test_equal_trees(self):
        x = E.Variable("x")
        assert (x + 1) == (E.Variable("x") + 1)

    def test_unequal_trees(self):
        x = E.Variable("x")
        assert (x + 1) != (x + 2)

    def test_hashable(self):
        x = E.Variable("x")
        assert hash(x + 1) == hash(E.Variable("x") + 1)

    def test_no_truth_value(self):
        x = E.Variable("x")
        with pytest.raises(TypeError):
            bool(x < 3)


@pytest.mark.parametrize("first", ["repro.ir.op", "repro.ir.expr"])
def test_operators_work_whichever_module_is_imported_first(first):
    """``expr`` binds ``op`` at the bottom of its module; a fresh interpreter
    importing either module first still gets working operators."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import {first}; "
            "from repro.ir.expr import Variable; x = Variable('x'); "
            "print(repr(x + 1), repr(-x), repr(~(x < 2)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "(x + 1) (0 - x) !((x < 2))"
