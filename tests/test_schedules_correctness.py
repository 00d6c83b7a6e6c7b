"""The central guarantee of the paper: the schedule cannot change the result.

Every named schedule of the two-stage blur (Figures 2-4), plus a collection of
more adversarial hand-written schedules, must produce output identical to the
reference implementation.
"""

import numpy as np
import pytest

from repro.apps import make_blur, BLUR_SCHEDULES
from repro.lang import Buffer, Func, Var, repeat_edge
from repro.reference import blur_ref

from _image_assertions import assert_images_close


@pytest.fixture(scope="module")
def blur_image():
    return np.random.default_rng(7).random((40, 28)).astype(np.float32)


@pytest.fixture(scope="module")
def blur_reference(blur_image):
    return blur_ref(blur_image)


@pytest.mark.parametrize("schedule_name", sorted(BLUR_SCHEDULES))
def test_named_blur_schedules_match_reference(schedule_name, blur_image, blur_reference):
    result = make_blur(blur_image).compile(schedule_name).run()
    assert_images_close(result, blur_reference)


class TestCustomSchedules:
    """Hand-written schedules exercising specific compiler paths."""

    def _build(self, image):
        return make_blur(image)

    def test_odd_tile_size_rounds_up(self, blur_image, blur_reference):
        # 40x28 is not a multiple of 16x12: exercises the round-up path.
        app = self._build(blur_image)
        blur_x, blur_y = app.funcs["blur_x"], app.funcs["blur_y"]
        x, y, xo, yo, xi, yi = (Var(n) for n in ("x", "y", "xo", "yo", "xi", "yi"))
        blur_y.tile(x, y, xo, yo, xi, yi, 16, 12)
        blur_x.compute_at(blur_y, xo)
        assert_images_close(app.compile().run(), blur_reference)

    def test_column_major_traversal(self, blur_image, blur_reference):
        app = self._build(blur_image)
        blur_y = app.funcs["blur_y"]
        blur_y.reorder(Var("y"), Var("x"))
        app.funcs["blur_x"].compute_at(blur_y, Var("x"))
        assert_images_close(app.compile().run(), blur_reference)

    def test_unrolled_inner_loop(self, blur_image, blur_reference):
        app = self._build(blur_image)
        blur_y = app.funcs["blur_y"]
        blur_y.unroll(Var("x"), 4)
        assert_images_close(app.compile().run(), blur_reference)

    def test_vectorized_wider_than_stencil(self, blur_image, blur_reference):
        app = self._build(blur_image)
        app.funcs["blur_y"].vectorize(Var("x"), 8)
        app.funcs["blur_x"].compute_root().vectorize(Var("x"), 8)
        assert_images_close(app.compile().run(), blur_reference)

    def test_store_root_compute_at_x(self, blur_image, blur_reference):
        # Sliding along the innermost loop instead of scanlines.
        app = self._build(blur_image)
        blur_y = app.funcs["blur_y"]
        app.funcs["blur_x"].store_root().compute_at(blur_y, Var("x"))
        assert_images_close(app.compile().run(), blur_reference)

    def test_nested_splits(self, blur_image, blur_reference):
        app = self._build(blur_image)
        blur_y = app.funcs["blur_y"]
        x, xo, xi, xoo, xoi = (Var(n) for n in ("x", "xo", "xi", "xoo", "xoi"))
        blur_y.split(x, xo, xi, 8).split(xo, xoo, xoi, 2)
        app.funcs["blur_x"].compute_at(blur_y, xoi)
        assert_images_close(app.compile().run(), blur_reference)

    def test_parallel_outer_serial_inner(self, blur_image, blur_reference):
        app = self._build(blur_image)
        blur_y = app.funcs["blur_y"]
        y, yo, yi = Var("y"), Var("yo"), Var("yi")
        blur_y.split(y, yo, yi, 4).parallel(yo)
        app.funcs["blur_x"].compute_at(blur_y, yo)
        assert_images_close(app.compile().run(), blur_reference)

    def test_gpu_style_tiling(self, blur_image, blur_reference):
        app = self._build(blur_image)
        blur_y = app.funcs["blur_y"]
        x, y, xi, yi = Var("x"), Var("y"), Var("xi"), Var("yi")
        blur_y.gpu_tile(x, y, xi, yi, 8, 8)
        app.funcs["blur_x"].compute_at(blur_y, Var("x_blk"))
        assert_images_close(app.compile().run(), blur_reference)

    def test_different_output_sizes(self, blur_image):
        # Realizing a sub-region must agree with the full-image reference.
        reference = blur_ref(blur_image)
        result = self._build(blur_image).compile("tiled", [17, 13]).run()
        assert_images_close(result, reference[:17, :13])


class TestThreeStagePipeline:
    """A three-stage chain with mixed per-stage schedules."""

    def _make(self, image):
        buf = Buffer(image, name="three_in")
        clamped = repeat_edge(buf, name="three_clamped")
        x, y = Var("x"), Var("y")
        stage1, stage2, stage3 = Func("three_s1"), Func("three_s2"), Func("three_s3")
        stage1[x, y] = (clamped[x - 1, y] + clamped[x + 1, y]) * 0.5
        stage2[x, y] = (stage1[x, y - 1] + stage1[x, y + 1]) * 0.5
        stage3[x, y] = stage2[x, y] - clamped[x, y]
        return stage1, stage2, stage3

    def _reference(self, image):
        padded = np.pad(image, 2, mode="edge")
        s1 = (padded[:-2, :] + padded[2:, :]) * np.float32(0.5)          # width+2 x height+4
        s2 = (s1[:, :-2] + s1[:, 2:]) * np.float32(0.5)
        s2 = s2[1:-1, 1:-1]
        return s2 - image

    @pytest.mark.parametrize("strategy", ["all_root", "all_inline", "mixed", "sliding_chain"])
    def test_three_stage(self, blur_image, strategy):
        stage1, stage2, stage3 = self._make(blur_image)
        if strategy == "all_root":
            stage1.compute_root()
            stage2.compute_root()
        elif strategy == "mixed":
            x, y, xo, yo, xi, yi = (Var(n) for n in ("x", "y", "xo", "yo", "xi", "yi"))
            stage3.tile(x, y, xo, yo, xi, yi, 8, 8).parallel(yo)
            stage2.compute_at(stage3, xo)
            stage1.compute_root().vectorize(Var("x"), 4)
        elif strategy == "sliding_chain":
            y = Var("y")
            stage2.store_root().compute_at(stage3, y)
            stage1.store_root().compute_at(stage3, y)
        result = stage3.realize([40, 28])
        expected = self._reference(blur_image)
        assert_images_close(result, expected)
