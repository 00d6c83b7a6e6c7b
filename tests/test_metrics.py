"""Tests for pipeline statistics (Figure 6) and trade-off metrics (Figure 3)."""

import numpy as np
import pytest

from repro.apps import (
    BLUR_SCHEDULES,
    make_bilateral_grid,
    make_blur,
    make_camera_pipe,
    make_histogram_equalize,
    make_local_laplacian,
)
from repro.metrics import analyze_pipeline, measure_tradeoffs
from repro.lang import Buffer, Func, Var


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(11).random((64, 48)).astype(np.float32)


class TestPipelineStats:
    def test_blur_counts(self, image):
        app = make_blur(image)
        stats = analyze_pipeline(app.output, name="blur")
        # input wrapper + blur_x + blur_y
        assert stats.num_functions == 3
        assert stats.num_stencils == 2
        assert stats.num_reductions == 0
        assert stats.structure() == "simple"

    def test_histogram_counts(self):
        image8 = (np.random.default_rng(0).random((24, 16)) * 255).astype(np.uint8)
        app = make_histogram_equalize(image8)
        stats = analyze_pipeline(app.output)
        assert stats.num_reductions == 2          # histogram and cdf
        assert stats.num_data_dependent >= 1      # the CDF lookup

    def test_depth(self, image):
        app = make_blur(image)
        stats = analyze_pipeline(app.output)
        assert stats.depth == 3  # blur_y -> blur_x -> clamped input

    def test_as_row_keys(self, image):
        row = analyze_pipeline(make_blur(image).output).as_row()
        assert {"pipeline", "functions", "stencils", "structure"} <= set(row)

    def test_figure6_graph_complexity_ordering(self):
        """Figure 6: blur < bilateral grid < camera pipe <= local Laplacian
        in function count; the grid has the scatter reduction and blur none;
        stencils dominate the local Laplacian."""
        rng = np.random.default_rng(20130616)
        gray = rng.random((32, 24)).astype(np.float32)
        raw = (rng.random((48, 40)) * 1024).astype(np.uint16)
        stats = {name: analyze_pipeline(app.output, name=name) for name, app in [
            ("blur", make_blur(rng.random((128, 96)).astype(np.float32))),
            ("bilateral_grid", make_bilateral_grid(gray)),
            ("camera_pipe", make_camera_pipe(raw)),
            ("local_laplacian", make_local_laplacian(gray, levels=4,
                                                     intensity_levels=8)),
        ]}
        functions = {name: s.num_functions for name, s in stats.items()}
        assert functions["blur"] <= 3
        assert functions["blur"] < functions["bilateral_grid"] < \
            functions["camera_pipe"] <= functions["local_laplacian"]
        assert stats["bilateral_grid"].num_reductions >= 1
        assert stats["blur"].num_reductions == 0
        assert stats["local_laplacian"].num_stencils >= \
            0.5 * functions["local_laplacian"]


@pytest.fixture(scope="module")
def tradeoffs(image):
    """Memoised ``measure_tradeoffs`` of one named blur schedule at the
    image's size; work amplification is relative to breadth-first, as in
    Figure 3 (one interpreter run per schedule for the whole module)."""
    app, reports = make_blur(image), {}

    def report(strategy):
        if strategy not in reports:
            baseline = None if strategy == "breadth_first" else \
                report("breadth_first").total_ops
            reports[strategy] = measure_tradeoffs(
                app.pipeline(), app.default_size,
                schedule=BLUR_SCHEDULES[strategy], baseline_ops=baseline)
        return reports[strategy]

    return report


class TestTradeoffMetrics:
    def test_breadth_first_has_high_span_and_reuse_distance(self, image, tradeoffs):
        report = tradeoffs("breadth_first")
        pixels = image.shape[0] * image.shape[1]
        assert report.span > pixels / 4          # nearly all pixels independent
        assert report.max_reuse_distance > pixels  # values written long before read

    def test_full_fusion_amplifies_work(self, tradeoffs):
        fused = tradeoffs("full_fusion")
        assert fused.work_amplification > 1.3
        assert fused.max_reuse_distance == 0     # nothing stored and re-read

    def test_sliding_window_limits_span_but_not_work(self, tradeoffs):
        baseline, sliding = tradeoffs("breadth_first"), tradeoffs("sliding_window")
        assert sliding.work_amplification < 1.1
        assert sliding.span < baseline.span / 8
        assert sliding.max_reuse_distance < baseline.max_reuse_distance

    def test_tiled_balances_all_three(self, tradeoffs):
        baseline, tiled = tradeoffs("breadth_first"), tradeoffs("tiled_novec")
        assert 1.0 <= tiled.work_amplification < 1.5
        assert tiled.max_reuse_distance < baseline.max_reuse_distance
        assert tiled.span > baseline.span / 64

    def test_sliding_within_tiles_regains_span(self, tradeoffs):
        assert tradeoffs("sliding_in_tiles").span > tradeoffs("sliding_window").span

    def test_footprint_smaller_with_folding(self, tradeoffs):
        assert tradeoffs("sliding_window").peak_footprint_bytes < \
            tradeoffs("breadth_first").peak_footprint_bytes


class TestStaticTotalOps:
    """`static_total_ops` is the static fast path for the Figure 3
    work-amplification column: identical to what TradeoffMetrics counts."""

    @pytest.mark.parametrize("strategy", ["breadth_first", "full_fusion",
                                          "sliding_window", "tiled"])
    def test_matches_interpreted_count(self, image, tradeoffs, strategy):
        from repro.metrics import static_total_ops

        app = make_blur(image)
        assert static_total_ops(app.pipeline(), app.default_size,
                                schedule=BLUR_SCHEDULES[strategy]) == \
            tradeoffs(strategy).total_ops

    def test_work_amplification_from_static_counts(self, image):
        from repro.metrics import static_total_ops

        size = [image.shape[0], image.shape[1]]
        baseline = static_total_ops(
            make_blur(image).pipeline(), size,
            schedule=BLUR_SCHEDULES["breadth_first"])
        fused = static_total_ops(
            make_blur(image).pipeline(), size,
            schedule=BLUR_SCHEDULES["full_fusion"])
        assert fused / baseline > 1.3
