"""The rasterization app: ordered alpha blending, bit-identical everywhere.

The contract under test:

* **Reference parity** — every named schedule, on every backend (interpreter,
  NumPy, compiled at 1 and 4 threads, native at 1 and 4 threads), produces
  output bit-identical to the scalar reference ``rasterize_ref`` — including
  ``parallel_tiles``, whose ``rdom_outer`` directive hoists the primitive
  loop outermost and runs the per-primitive image sweep as parallel tiles.
* **Order sensitivity** — the blend ``dst * (1 - a) + src * a`` depends on
  primitive order, so the oracle genuinely pins the executors' iteration
  order (reversing the list changes the image).
* **Soundness validation** — ``rdom_outer`` on the blend is legal because the
  update references ``image`` only at its own point; the lowering proves it
  by compiling, and the hoisted nest shape is visible in the loop order.
"""

from __future__ import annotations

import numpy as np
import pytest

from _image_assertions import assert_images_identical
from repro.apps import default_primitives, make_rasterize
from repro.reference import rasterize_ref
from repro.runtime.target import Target

WIDTH, HEIGHT = 20, 14

SCHEDULES = ("breadth_first", "tiled", "parallel_tiles")

PORTABLE_TARGETS = [
    pytest.param("interp", id="interp"),
    pytest.param("numpy", id="numpy"),
    pytest.param(Target("compiled", threads=1), id="compiled-t1"),
    pytest.param(Target("compiled", threads=4), id="compiled-t4"),
]

NATIVE_TARGETS = [
    pytest.param(Target("native", threads=1), id="native-t1",
                 marks=pytest.mark.native),
    pytest.param(Target("native", threads=4), id="native-t4",
                 marks=pytest.mark.native),
]


@pytest.fixture(scope="module")
def prims():
    return default_primitives(WIDTH, HEIGHT)


@pytest.fixture(scope="module")
def app(prims):
    return make_rasterize(WIDTH, HEIGHT, prims)


@pytest.fixture(scope="module")
def reference(prims):
    return rasterize_ref(WIDTH, HEIGHT, prims)


class TestMetadata:
    def test_schedule_family(self, app):
        assert set(app.schedules) == set(SCHEDULES)

    def test_rejects_malformed_primitive_list(self):
        with pytest.raises(ValueError, match="shape"):
            make_rasterize(8, 8, np.zeros((3, 5), dtype=np.float32))

    def test_parallel_tiles_uses_rdom_outer(self, app):
        described = app.named_schedule("parallel_tiles").describe()
        assert "rdom_outer" in described


class TestReferenceParity:
    @pytest.mark.parametrize("target", PORTABLE_TARGETS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_bit_identical(self, app, reference, schedule, target):
        out = app.compile(schedule, target=target).run()
        assert out.dtype == np.float32
        assert_images_identical(out, reference)

    @pytest.mark.parametrize("target", NATIVE_TARGETS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_bit_identical_native(self, app, reference, schedule, target):
        out = app.compile(schedule, target=target).run()
        assert_images_identical(out, reference)


class TestBlendSemantics:
    def test_primitive_order_is_observable(self, prims):
        forward = make_rasterize(WIDTH, HEIGHT, prims).compile(target="interp").run()
        reversed_ = make_rasterize(WIDTH, HEIGHT, prims[::-1]).compile(
            target="interp").run()
        assert not np.array_equal(forward, reversed_)

    def test_opaque_primitive_overwrites(self):
        prim = np.array([[0.0, 0.0, 64.0, 64.0, 0.25, 1.0]], dtype=np.float32)
        out = make_rasterize(8, 8, prim).compile(target="interp").run()
        assert np.all(out == np.float32(0.25))

    def test_zero_alpha_leaves_background(self):
        prim = np.array([[0.0, 0.0, 64.0, 64.0, 0.9, 0.0]], dtype=np.float32)
        out = make_rasterize(8, 8, prim).compile(target="interp").run()
        assert_images_identical(out, rasterize_ref(8, 8, prim))
        xi = np.arange(8)[:, None]
        yi = np.arange(8)[None, :]
        background = ((xi + yi) % 8).astype(np.float32) / np.float32(8.0)
        assert_images_identical(out, np.ascontiguousarray(
            np.broadcast_to(background, (8, 8))))

    def test_fractional_coverage_is_partial(self):
        # A half-pixel-wide box blends at half strength on its column.
        prim = np.array([[2.0, 0.0, 2.5, 64.0, 1.0, 1.0]], dtype=np.float32)
        out = make_rasterize(8, 8, prim).compile(target="interp").run()
        ref = rasterize_ref(8, 8, prim)
        assert_images_identical(out, ref)
        xi = np.arange(8)[:, None]
        yi = np.arange(8)[None, :]
        background = np.broadcast_to(
            ((xi + yi) % 8).astype(np.float32) / np.float32(8.0), (8, 8))
        expected_col = background[2, :] * np.float32(0.5) + np.float32(0.5)
        assert np.array_equal(out[2, :], expected_col)
        assert np.array_equal(out[4, :], background[4, :])


class TestRdomOuterLowering:
    def test_primitive_loop_is_hoisted(self, app):
        from repro.ir.printer import pretty_print

        lowered = app.pipeline().lower([WIDTH, HEIGHT],
                                       schedule=app.named_schedule("parallel_tiles"))
        nest = pretty_print(lowered.stmt)
        r_at = nest.index("image.s1.r")
        y_at = nest.index("image.s1.y")
        x_at = nest.index("image.s1.x")
        assert r_at < y_at < x_at
