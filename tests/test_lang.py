"""Tests for the front-end DSL: Func definitions, updates, buffers, builtins."""

import numpy as np
import pytest

from repro.core.function import DefinitionError
from repro.lang import (
    Buffer,
    Func,
    ImageParam,
    Param,
    RDom,
    Var,
    cast,
    clamp,
    maximum,
    select,
    sum_,
)
from repro.types import Float, Int, UInt

from _image_assertions import assert_images_close


class TestDefinitions:
    def test_pure_definition(self):
        x, y = Var("x"), Var("y")
        f = Func("def_f")
        f[x, y] = x + y
        assert f.defined()
        assert f.args == ["x", "y"]
        assert f.dimensions() == 2

    def test_output_type_from_value(self):
        x = Var("x")
        f = Func("def_float")
        f[x] = cast(Float(32), x) * 0.5
        assert f.output_type.is_float()

    def test_redefinition_with_same_vars_is_update(self):
        x = Var("x")
        f = Func("def_update")
        f[x] = 0
        f[x] = f[x] + 1
        assert f.function.has_updates()

    def test_update_before_pure_definition_rejected(self):
        x = Var("x")
        f = Func("def_bad")
        with pytest.raises(DefinitionError):
            f[x + 1] = 0

    def test_duplicate_arg_names_rejected(self):
        x = Var("x")
        f = Func("def_dup")
        with pytest.raises(DefinitionError):
            f[x, x] = 0

    def test_call_before_definition_rejected(self):
        f = Func("def_undefined")
        x = Var("x")
        ref = f[x]
        with pytest.raises(RuntimeError):
            ref.to_call()

    def test_realize_simple(self):
        x, y = Var("x"), Var("y")
        f = Func("def_grad")
        f[x, y] = x + 2 * y
        result = f.realize([4, 3])
        expected = np.add.outer(np.arange(4), 2 * np.arange(3))
        assert np.array_equal(result, expected)


class TestBuffers:
    def test_buffer_read(self, tiny_image):
        buf = Buffer(tiny_image, name="tb")
        x, y = Var("x"), Var("y")
        f = Func("buf_copy")
        f[x, y] = buf[x, y] * 2.0
        assert_images_close(f.realize([12, 8]), tiny_image * 2.0)

    def test_buffer_wrong_dims(self, tiny_image):
        buf = Buffer(tiny_image)
        with pytest.raises(IndexError):
            buf[Var("x")]

    def test_buffer_geometry(self, tiny_image):
        buf = Buffer(tiny_image)
        assert buf.width() == 12 and buf.height() == 8 and buf.channels() == 1

    def test_image_param(self, tiny_image):
        param = ImageParam(Float(32), 2, name="ipar")
        param.set(tiny_image)
        x, y = Var("x"), Var("y")
        f = Func("param_copy")
        f[x, y] = param[x, y] + 1.0
        assert_images_close(f.realize([12, 8]), tiny_image + 1.0)

    def test_image_param_wrong_dtype(self, tiny_image):
        param = ImageParam(UInt(8), 2)
        with pytest.raises(TypeError):
            param.set(tiny_image)

    def test_scalar_param(self, tiny_image):
        buf = Buffer(tiny_image, name="spin")
        gain = Param(Float(32), name="gain")
        x, y = Var("x"), Var("y")
        f = Func("gain_f")
        f[x, y] = buf[x, y] * gain
        from repro.pipeline import Pipeline

        result = Pipeline(f).compile([12, 8]).run(params={"gain": 3.0})
        assert_images_close(result, tiny_image * 3.0)


_PARAM_BACKENDS = ["interp", "compiled", pytest.param("native", marks=pytest.mark.native)]


class TestParamValidation:
    """``params=`` is checked once, against the algorithm's declared Params,
    so every backend computes with the same value or rejects it the same way."""

    @staticmethod
    def _func():
        x = Var("x")
        k = Param(Int(32), name="k")
        f = Func("param_check")
        f[x] = x * k
        return f

    def _compiled(self, target):
        return self._func().compile([4], target=target)

    @pytest.mark.parametrize("target", _PARAM_BACKENDS)
    def test_integral_values_bind_exactly(self, target):
        compiled = self._compiled(target)
        for value, factor in ((3, 3), (2.0, 2), (np.int64(-1), -1)):
            result = compiled.run(params={"k": value})
            assert result.dtype == np.int32
            assert np.array_equal(result, np.arange(4) * factor)

    @pytest.mark.parametrize("target", _PARAM_BACKENDS)
    def test_inexact_value_is_a_type_error(self, target):
        with pytest.raises(TypeError, match="param 'k'"):
            self._compiled(target).run(params={"k": 2.7})

    @pytest.mark.parametrize("target", _PARAM_BACKENDS)
    def test_out_of_range_value_is_a_value_error(self, target):
        with pytest.raises(ValueError, match="param 'k'"):
            self._compiled(target).run(params={"k": 2 ** 40})

    @pytest.mark.parametrize("target", _PARAM_BACKENDS)
    def test_unknown_name_lists_declared_params(self, target):
        with pytest.raises(ValueError, match=r"unknown param 'gain'.*\['k'\]"):
            self._compiled(target).run(params={"gain": 1.0})

    def test_restored_program_checks_params(self, tmp_path):
        """The declared Params travel in the persistent-cache payload, so a
        warm restore (no lowering, no walk of the algorithm) checks them too."""
        from repro.pipeline import Pipeline

        Pipeline(self._func(), disk_cache=tmp_path).compile([4], target="compiled")
        warm = Pipeline(self._func(), disk_cache=tmp_path)
        compiled = warm.compile([4], target="compiled")
        assert warm.disk_cache_info().lowerings == 0
        assert np.array_equal(compiled.run(params={"k": 2}), np.arange(4) * 2)
        with pytest.raises(TypeError, match="param 'k'"):
            compiled.run(params={"k": 2.5})

    def test_reduction_variables_are_not_params(self, uint8_image):
        from repro.apps import make_histogram_equalize

        compiled = make_histogram_equalize(uint8_image).compile()
        with pytest.raises(ValueError, match="declares no params"):
            compiled.run(params={"k": 1})


class TestReductions:
    def test_sum_over_rdom(self, tiny_image):
        buf = Buffer(tiny_image, name="rsum_in")
        x, y = Var("x"), Var("y")
        r = RDom(0, 3, name="r3")
        f = Func("rsum")
        f[x, y] = sum_(buf[clamp(x + r.x, 0, 11), y])
        result = f.realize([10, 8])
        padded = tiny_image
        expected = padded[0:10] + padded[1:11] + padded[2:12]
        assert_images_close(result, expected)

    def test_maximum(self, tiny_image):
        buf = Buffer(tiny_image, name="rmax_in")
        x, y = Var("x"), Var("y")
        r = RDom(0, 8, name="rmax_r")
        f = Func("rmax")
        f[x, y] = maximum(buf[x, clamp(r.x, 0, 7)])
        result = f.realize([12, 1])
        expected = tiny_image.max(axis=1, keepdims=True)
        assert_images_close(result, expected)

    def test_histogram_scatter(self, uint8_image):
        buf = Buffer(uint8_image, name="hist_in")
        i = Var("i")
        r = RDom(0, 20, 0, 12, name="hist_r")
        hist = Func("hist_t")
        hist[i] = 0
        hist[cast(Int(32), buf[r.x, r.y])] += 1
        result = hist.realize([256])
        expected = np.bincount(uint8_image.ravel(), minlength=256)
        assert np.array_equal(result, expected)

    def test_scan(self):
        i = Var("i")
        r = RDom(1, 9, name="scan_r")
        f = Func("scan_f")
        f[i] = 1
        f[r.x] = f[r.x - 1] * 2
        result = f.realize([10])
        assert np.array_equal(result, 2 ** np.arange(10))

    def test_mixed_rdoms_rejected(self):
        x = Var("x")
        r1, r2 = RDom(0, 4), RDom(0, 4)
        f = Func("mixed")
        f[x] = 0
        with pytest.raises(ValueError):
            f[x] = f[x] + r1.x + r2.x

    def test_rdom_accessors(self):
        r = RDom(0, 4, 1, 5, name="racc")
        assert r.x.name == "racc.x"
        assert r.y.name == "racc.y"
        assert len(r) == 2
        with pytest.raises(ValueError):
            RDom(0)


class TestBuiltins:
    def test_select(self, tiny_image):
        buf = Buffer(tiny_image, name="sel_in")
        x, y = Var("x"), Var("y")
        f = Func("sel_f")
        f[x, y] = select(buf[x, y] > 0.5, 1.0, 0.0)
        expected = (tiny_image > 0.5).astype(np.float32)
        assert_images_close(f.realize([12, 8]), expected)

    def test_clamp_cast(self, tiny_image):
        buf = Buffer(tiny_image, name="cc_in")
        x, y = Var("x"), Var("y")
        f = Func("cc_f")
        f[x, y] = cast(UInt(8), clamp(buf[x, y] * 255.0, 0.0, 255.0))
        result = f.realize([12, 8])
        assert result.dtype == np.uint8
        expected = np.clip(tiny_image * 255.0, 0, 255).astype(np.uint8)
        assert np.abs(result.astype(int) - expected.astype(int)).max() <= 1

    def test_math_intrinsics(self, tiny_image):
        from repro.lang import exp, log, sqrt

        buf = Buffer(tiny_image + 0.5, name="math_in")
        x, y = Var("x"), Var("y")
        f = Func("math_f")
        f[x, y] = sqrt(buf[x, y]) + exp(buf[x, y]) + log(buf[x, y])
        expected = np.sqrt(tiny_image + 0.5) + np.exp(tiny_image + 0.5) + np.log(tiny_image + 0.5)
        assert_images_close(f.realize([12, 8]), expected, tolerance=1e-3)


class TestBoundaryConditions:
    def test_repeat_edge(self, tiny_image):
        from repro.lang import repeat_edge

        buf = Buffer(tiny_image, name="re_in")
        wrapper = repeat_edge(buf)
        x, y = Var("x"), Var("y")
        f = Func("re_f")
        f[x, y] = wrapper[x - 3, y]
        result = f.realize([5, 8])
        # x - 3 for x in [0, 5) is -3..1, clamped to rows 0, 0, 0, 0, 1.
        expected = np.stack([tiny_image[0]] * 4 + [tiny_image[1]], axis=0)
        assert_images_close(result, expected)

    def test_constant_exterior(self, tiny_image):
        from repro.lang import constant_exterior

        buf = Buffer(tiny_image, name="ce_in")
        wrapper = constant_exterior(buf, 0.0)
        x, y = Var("x"), Var("y")
        f = Func("ce_f")
        f[x, y] = wrapper[x - 1, y]
        result = f.realize([3, 8])
        assert np.all(result[0] == 0.0)
        assert_images_close(result[1:], tiny_image[:2])

    def test_mirror_image(self, tiny_image):
        from repro.lang import mirror_image

        buf = Buffer(tiny_image, name="mi_in")
        wrapper = mirror_image(buf)
        x, y = Var("x"), Var("y")
        f = Func("mi_f")
        f[x, y] = wrapper[x - 2, y]
        result = f.realize([2, 8])
        assert_images_close(result[0], tiny_image[1])
        assert_images_close(result[1], tiny_image[0])
