"""Tests for pipeline statistics (Figure 6) and trade-off metrics (Figure 3)."""

import numpy as np
import pytest

from repro.apps import BLUR_SCHEDULES, make_blur, make_histogram_equalize
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


class TestTradeoffMetrics:
    def test_breadth_first_has_high_span_and_reuse_distance(self, image):
        app = make_blur(image)
        report = measure_tradeoffs(app.pipeline(), app.default_size,
                                   schedule=BLUR_SCHEDULES["breadth_first"])
        pixels = image.shape[0] * image.shape[1]
        assert report.span > pixels / 4          # nearly all pixels independent
        assert report.max_reuse_distance > pixels  # values written long before read

    def test_full_fusion_amplifies_work(self, image):
        baseline = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["breadth_first"])
        fused = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["full_fusion"],
            baseline_ops=baseline.total_ops)
        assert fused.work_amplification > 1.3
        assert fused.max_reuse_distance == 0     # nothing stored and re-read

    def test_sliding_window_limits_span_but_not_work(self, image):
        baseline = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["breadth_first"])
        sliding = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["sliding_window"],
            baseline_ops=baseline.total_ops)
        assert sliding.work_amplification < 1.1
        assert sliding.span < baseline.span / 8
        assert sliding.max_reuse_distance < baseline.max_reuse_distance

    def test_tiled_balances_all_three(self, image):
        baseline = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["breadth_first"])
        tiled = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["tiled_novec"],
            baseline_ops=baseline.total_ops)
        assert 1.0 <= tiled.work_amplification < 1.5
        assert tiled.max_reuse_distance < baseline.max_reuse_distance
        assert tiled.span > baseline.span / 64

    def test_footprint_smaller_with_folding(self, image):
        root = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["breadth_first"])
        sliding = measure_tradeoffs(
            make_blur(image).pipeline(), [image.shape[0], image.shape[1]],
            schedule=BLUR_SCHEDULES["sliding_window"])
        assert sliding.peak_footprint_bytes < root.peak_footprint_bytes


class TestStaticTotalOps:
    """`static_total_ops` is the static fast path for the Figure 3
    work-amplification column: identical to what TradeoffMetrics counts."""

    @pytest.mark.parametrize("strategy", ["breadth_first", "full_fusion",
                                          "sliding_window", "tiled"])
    def test_matches_interpreted_count(self, image, strategy):
        from repro.metrics import static_total_ops

        app, schedule = make_blur(image), BLUR_SCHEDULES[strategy]
        dynamic = measure_tradeoffs(app.pipeline(), app.default_size, schedule=schedule)
        assert static_total_ops(app.pipeline(), app.default_size,
                                schedule=schedule) == dynamic.total_ops

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
