"""End-to-end tests for the paper's applications against the expert references.

Each application is built in the DSL, run under at least two schedules, and
compared against its numpy reference.  Where the reference clamps pyramid
levels at their own edges (interpolate, local Laplacian), the comparison crops
the documented margin.
"""

import inspect

import numpy as np
import pytest

from repro.apps import (
    make_bilateral_grid,
    make_blur,
    make_camera_pipe,
    make_histogram_equalize,
    make_interpolate,
    make_local_laplacian,
    make_unsharp,
)
from repro.reference import (
    bilateral_grid_ref,
    blur_ref,
    camera_pipe_ref,
    histogram_equalize_ref,
    interpolate_ref,
    local_laplacian_ref,
    unsharp_ref,
)

from _image_assertions import assert_images_close


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(2024)


class TestBlurApp:
    def test_metadata(self, module_rng):
        app = make_blur(module_rng.random((16, 12)).astype(np.float32))
        assert app.algorithm_lines == 2
        assert set(app.schedules) >= {"breadth_first", "tiled", "sliding_window"}

    def test_matches_reference(self, module_rng):
        image = module_rng.random((32, 20)).astype(np.float32)
        app = make_blur(image)
        assert_images_close(app.compile("tuned").run(), blur_ref(image))


class TestUnsharpApp:
    @pytest.mark.parametrize("schedule", ["breadth_first", "tuned"])
    def test_matches_reference(self, module_rng, schedule):
        image = module_rng.random((32, 24)).astype(np.float32)
        app = make_unsharp(image, strength=1.5)
        assert_images_close(app.compile(schedule).run(), unsharp_ref(image, 1.5), tolerance=1e-3)


class TestHistogramEqualizeApp:
    @pytest.mark.parametrize("schedule", ["breadth_first", "tuned"])
    def test_matches_reference(self, module_rng, schedule):
        image = (module_rng.random((24, 18)) * 256).astype(np.uint8)
        app = make_histogram_equalize(image)
        assert_images_close(app.compile(schedule).run(), histogram_equalize_ref(image),
                            tolerance=1e-3)

    def test_output_is_monotone_in_input(self, module_rng):
        image = (module_rng.random((16, 12)) * 256).astype(np.uint8)
        app = make_histogram_equalize(image)
        result = app.compile("breadth_first").run()
        flat_in = image.ravel()
        flat_out = result.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= -1e-3)


class TestBilateralGridApp:
    @pytest.mark.parametrize("schedule", ["breadth_first", "tuned"])
    def test_matches_reference(self, module_rng, schedule):
        image = module_rng.random((24, 16)).astype(np.float32)
        app = make_bilateral_grid(image, s_sigma=8, r_sigma=0.2)
        reference = bilateral_grid_ref(image, 8, 0.2)
        assert_images_close(app.compile(schedule).run(), reference, tolerance=1e-3)

    def test_smooths_but_preserves_range(self, module_rng):
        image = module_rng.random((24, 16)).astype(np.float32)
        app = make_bilateral_grid(image, s_sigma=8, r_sigma=0.2)
        result = app.compile("breadth_first").run()
        assert result.min() >= -1e-3 and result.max() <= 1.0 + 1e-3
        assert result.std() <= image.std() + 1e-3


class TestCameraPipeApp:
    def test_matches_reference(self, module_rng):
        raw = (module_rng.random((48, 40)) * 1024).astype(np.uint16)
        app = make_camera_pipe(raw)
        result = app.compile("breadth_first", [40, 32, 3]).run()
        reference = camera_pipe_ref(raw, 40, 32)
        assert_images_close(result[2:-2, 2:-2], reference[2:-2, 2:-2], tolerance=1e-2)

    def test_tuned_schedule_matches_naive(self, module_rng):
        raw = (module_rng.random((48, 40)) * 1024).astype(np.uint16)
        naive = make_camera_pipe(raw).compile("breadth_first", [32, 24, 3]).run()
        tuned = make_camera_pipe(raw).compile("tuned", [32, 24, 3]).run()
        assert_images_close(tuned, naive)

    def test_output_in_display_range(self, module_rng):
        raw = (module_rng.random((48, 40)) * 1024).astype(np.uint16)
        result = make_camera_pipe(raw).compile("breadth_first", [32, 24, 3]).run()
        assert result.min() >= 0.0 and result.max() <= 255.0

    def test_figure6_complexity(self, module_rng):
        from repro.metrics import analyze_pipeline

        raw = (module_rng.random((48, 40)) * 1024).astype(np.uint16)
        stats = analyze_pipeline(make_camera_pipe(raw).output, name="camera_pipe")
        assert stats.num_functions >= 15
        assert stats.num_stencils >= 8
        assert stats.structure() in ("complex", "very complex")


class TestInterpolateApp:
    def test_matches_reference_interior(self, module_rng):
        rgba = module_rng.random((32, 24, 4)).astype(np.float32)
        rgba[:, :, 3] = (module_rng.random((32, 24)) > 0.5).astype(np.float32)
        app = make_interpolate(rgba, levels=3)
        result = app.compile("breadth_first", [32, 24, 3]).run()
        reference = interpolate_ref(rgba, levels=3)
        margin = 8
        assert_images_close(result[margin:-margin, margin:-margin],
                            reference[margin:-margin, margin:-margin], tolerance=1e-3)

    def test_fills_holes(self, module_rng):
        rgba = np.zeros((32, 24, 4), dtype=np.float32)
        rgba[8, 8] = [1.0, 0.5, 0.25, 1.0]
        app = make_interpolate(rgba, levels=3)
        result = app.compile("breadth_first", [32, 24, 3]).run()
        # The lone valid pixel's color must leak into its (previously empty) neighbours.
        assert result[9, 8, 0] > 0.0

    def test_schedules_agree(self, module_rng):
        rgba = module_rng.random((24, 16, 4)).astype(np.float32)
        naive = make_interpolate(rgba, levels=3).compile("breadth_first", [24, 16, 3]).run()
        tuned = make_interpolate(rgba, levels=3).compile("tuned", [24, 16, 3]).run()
        assert_images_close(naive, tuned)


class TestLocalLaplacianApp:
    def test_matches_reference_interior(self, module_rng):
        image = module_rng.random((48, 32)).astype(np.float32)
        app = make_local_laplacian(image, levels=3, intensity_levels=4)
        result = app.compile("breadth_first").run()
        reference = local_laplacian_ref(image, levels=3, intensity_levels=4)
        margin = 12
        assert_images_close(result[margin:-margin, margin:-margin],
                            reference[margin:-margin, margin:-margin], tolerance=1e-3)

    def test_identity_parameters_approximately_preserve_image(self, module_rng):
        image = module_rng.random((32, 24)).astype(np.float32) * 0.8 + 0.1
        app = make_local_laplacian(image, levels=2, intensity_levels=4,
                                   alpha=0.0, beta=1.0)
        result = app.compile("breadth_first").run()
        interior = (slice(8, -8), slice(8, -8))
        assert np.abs(result[interior] - image[interior]).mean() < 0.05

    def test_stage_count_scales_with_levels(self, module_rng):
        from repro.metrics import analyze_pipeline

        image = module_rng.random((32, 24)).astype(np.float32)
        small = analyze_pipeline(make_local_laplacian(image, levels=2, intensity_levels=4).output)
        large = analyze_pipeline(make_local_laplacian(image, levels=4, intensity_levels=8).output)
        assert large.num_functions > small.num_functions
        assert large.num_functions >= 30


def _gray(shape=(16, 12)):
    return np.random.default_rng(7).random(shape).astype(np.float32)


@pytest.mark.parametrize("make, reference, factor", [
    (lambda: make_blur(_gray()), blur_ref, 2),
    (lambda: make_bilateral_grid(_gray()), bilateral_grid_ref, 2),
    (lambda: make_camera_pipe((_gray((24, 20)) * 1024).astype(np.uint16)),
     camera_pipe_ref, 1),
    (lambda: make_interpolate(np.dstack([_gray()] * 4), levels=3),
     interpolate_ref, 2),
    (lambda: make_local_laplacian(_gray(), levels=3, intensity_levels=4),
     local_laplacian_ref, 2),
], ids=["blur", "bilateral_grid", "camera_pipe", "interpolate", "local_laplacian"])
def test_algorithm_is_shorter_than_the_reference(make, reference, factor):
    """Figure 7's code-size claim: the algorithm is at most half the length
    of the reference implementation's module, except the camera pipe, whose
    demosaic arithmetic both spell out (never longer there)."""
    reference_lines = len(inspect.getsource(inspect.getmodule(reference)).splitlines())
    assert make().algorithm_lines * factor <= reference_lines
