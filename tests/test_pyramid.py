"""The resampling-pyramid app: clamped gather loads, bit-identical everywhere.

The contract under test:

* **Reference parity** — every named schedule, on every backend (interpreter,
  NumPy, compiled at 1 and 4 threads, native at 1 and 4 threads), produces
  output bit-identical to the scalar reference ``pyramid_ref``, including
  ``per_level`` (each level's x-pass computed inside its y-pass's scanline
  loop — bounds inference must derive the producer footprint from the
  *computed, clamped* gather coordinates).
* **Rate geometry** — level sizes follow the rational 3/2 decimation, and a
  constant image passes through the whole down/up chain unchanged (the
  two-tap weights always sum to one).
"""

from __future__ import annotations

import numpy as np
import pytest

from _image_assertions import assert_images_identical
from repro.apps import make_pyramid, pyramid_level_sizes, pyramid_schedules
from repro.reference import pyramid_ref
from repro.runtime.target import Target

WIDTH, HEIGHT, LEVELS = 21, 17, 2

SCHEDULES = ("breadth_first", "inline", "per_level", "parallel_rows")

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
def image():
    return np.random.default_rng(11).random((WIDTH, HEIGHT)).astype(np.float32)


@pytest.fixture(scope="module")
def app(image):
    return make_pyramid(image, levels=LEVELS)


@pytest.fixture(scope="module")
def reference(image):
    return pyramid_ref(image, levels=LEVELS)


class TestMetadata:
    def test_schedule_family(self, app):
        assert set(app.schedules) == set(SCHEDULES) == \
            set(pyramid_schedules(LEVELS))

    def test_stage_names_cover_every_level(self, app):
        expected = set()
        for level in range(1, LEVELS + 1):
            expected |= {f"down{level}_x", f"down{level}_y",
                         f"up{level}_x", f"up{level}_y"}
        assert set(app.funcs) == expected

    def test_level_sizes_follow_the_rational_rate(self):
        sizes = pyramid_level_sizes(21, 17, 2)
        assert sizes == [(21, 17), (14, 12), (10, 8)]
        for (w0, h0), (w1, h1) in zip(sizes, sizes[1:]):
            assert w1 == (w0 * 2 + 2) // 3 and h1 == (h0 * 2 + 2) // 3


class TestReferenceParity:
    @pytest.mark.parametrize("target", PORTABLE_TARGETS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_bit_identical(self, app, reference, schedule, target):
        out = app.compile(schedule, target=target).run()
        assert out.dtype == np.float32
        assert out.shape == (WIDTH, HEIGHT)
        assert_images_identical(out, reference)

    @pytest.mark.parametrize("target", NATIVE_TARGETS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_bit_identical_native(self, app, reference, schedule, target):
        out = app.compile(schedule, target=target).run()
        assert_images_identical(out, reference)


class TestResamplingSemantics:
    def test_constant_image_is_preserved(self):
        # Two-tap weights (1 - f) + f sum to one, and the clamp never reads
        # outside the level, so a constant image survives the whole chain.
        # A property of the algorithm, not of a backend (every backend is
        # bit-identical to the interpreter, TestReferenceParity).
        constant = np.full((18, 15), 0.625, dtype=np.float32)
        out = make_pyramid(constant, levels=LEVELS).compile(target="compiled").run()
        assert np.array_equal(out, constant)

    def test_different_levels_change_the_result(self, image, reference):
        # ``reference`` is the two-level result, which every schedule and
        # backend reproduces bit for bit (TestReferenceParity).
        one = make_pyramid(image, levels=1).compile(target="interp").run()
        assert one.shape == reference.shape == image.shape
        assert not np.array_equal(one, reference)
        assert_images_identical(one, pyramid_ref(image, levels=1))

    def test_gather_footprint_is_inferable_per_scanline(self, app):
        # per_level computes each x-pass inside its consumer's scanline loop:
        # lowering succeeds only if bounds inference derives the clamped
        # gather window, and the result stays bit-identical (checked above).
        lowered = app.pipeline().lower([WIDTH, HEIGHT],
                                       schedule=app.named_schedule("per_level"))
        from repro.ir.printer import pretty_print

        nest = pretty_print(lowered.stmt)
        assert "down1_x" in nest and "up1_x" in nest
