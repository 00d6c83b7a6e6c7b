"""Tests for the machine model's cost estimates."""

import numpy as np
import pytest

from repro.apps import (
    make_bilateral_grid,
    make_blur,
    make_camera_pipe,
    make_interpolate,
    make_local_laplacian,
)
from repro.compiler import LoweringOptions
from repro.machine import GPU_LIKE, SMALL_CACHE_CPU, XEON_W3520, estimate_cost
from repro.metrics import measure_tradeoffs
from repro.runtime.counters import Counters


# ---------------------------------------------------------------------------
# The cost model, and the paper's schedule comparisons under it: Figure 4 /
# Section 3.1, the pass ablations, and Figure 7's x86 and GPU blocks.
# ---------------------------------------------------------------------------

def _paper_app(name):
    """(app, sizes): the 128x96 blur or one of the reduced-scale
    applications the comparisons run on."""
    rng = np.random.default_rng(20130616)
    blur_image = rng.random((128, 96)).astype(np.float32)
    gray = rng.random((32, 24)).astype(np.float32)
    raw = (rng.random((48, 40)) * 1024).astype(np.uint16)
    rgba = rng.random((32, 24, 4)).astype(np.float32)
    rgba[:, :, 3] = (rng.random((32, 24)) > 0.5).astype(np.float32)
    return {
        "blur": lambda: (make_blur(blur_image), [128, 96]),
        "bilateral_grid": lambda: (make_bilateral_grid(gray), [32, 24]),
        "camera_pipe": lambda: (make_camera_pipe(raw), [32, 24, 3]),
        "interpolate": lambda: (make_interpolate(rgba, levels=3), [32, 24, 3]),
        "local_laplacian": lambda: (make_local_laplacian(
            gray, levels=3, intensity_levels=4), [32, 24]),
    }[name]()


def _cost(app_name, schedule, profile, disabled=None):
    """The report of one (app, named schedule, profile), optionally with one
    lowering pass disabled."""
    app, sizes = _paper_app(app_name)
    return estimate_cost(
        app.pipeline(), sizes, schedule=app.named_schedule(schedule),
        options=LoweringOptions(**{disabled: False}) if disabled else None,
        profile=profile)


@pytest.fixture(scope="module")
def blur_tradeoffs():
    """Memoised ``measure_tradeoffs`` of the tuned 128x96 blur, optionally
    with one lowering pass disabled."""
    reports = {}

    def report(disabled=None):
        if disabled not in reports:
            app, sizes = _paper_app("blur")
            reports[disabled] = measure_tradeoffs(
                app.pipeline(), sizes, schedule=app.named_schedule("tuned"),
                options=LoweringOptions(**{disabled: False}) if disabled else None)
        return reports[disabled]

    return report


def _ms(app_name, schedule, profile, disabled=None):
    return _cost(app_name, schedule, profile, disabled).milliseconds


class TestCostModel:
    @pytest.fixture(scope="class")
    def image(self):
        return np.random.default_rng(3).random((96, 64)).astype(np.float32)

    def test_tiled_beats_breadth_first(self):
        breadth = _cost("blur", "breadth_first", SMALL_CACHE_CPU)
        tiled = _cost("blur", "tiled", SMALL_CACHE_CPU)
        assert tiled.cycles < breadth.cycles

    def test_parallelism_reduces_cycles(self, image):
        app = make_blur(image)
        serial = estimate_cost(app.pipeline(), app.default_size, profile=XEON_W3520)
        parallel = estimate_cost(app.pipeline(), app.default_size,
                                 schedule=app.named_schedule("tiled"), profile=XEON_W3520)
        assert parallel.cycles < serial.cycles

    def test_report_fields(self):
        report = _cost("blur", "tiled", SMALL_CACHE_CPU)
        data = report.as_dict()
        assert data["cycles"] > 0
        assert data["milliseconds"] > 0
        assert data["l1_hits"] + data["l1_misses"] > 0
        assert report.ops > 0

    def test_gpu_profile_rewards_gpu_schedule(self):
        gpu_cost = _cost("blur", "gpu", GPU_LIKE)
        serial_on_gpu = _cost("blur", "breadth_first", GPU_LIKE)
        assert gpu_cost.cycles < serial_on_gpu.cycles


class TestScheduleSpace:
    """Figure 4 / Section 3.1: the blur schedule space at 128x96 on the
    cache-starved profile, which magnifies the bandwidth effect."""

    STRATEGIES = ("breadth_first", "full_fusion", "sliding_window", "tiled",
                  "sliding_in_tiles", "tuned")

    @pytest.mark.parametrize("strategy", ["tiled", "tuned"])
    def test_locality_schedules_beat_breadth_first_3x(self, strategy):
        breadth = _ms("blur", "breadth_first", SMALL_CACHE_CPU)
        assert breadth / _ms("blur", strategy, SMALL_CACHE_CPU) > 3.0

    @pytest.mark.parametrize("other", ["full_fusion", "sliding_window"])
    def test_tiled_beats_pure_fusion_and_pure_sliding(self, other):
        assert _ms("blur", "tiled", SMALL_CACHE_CPU) < \
            _ms("blur", other, SMALL_CACHE_CPU)

    #: How the trace-driven cache simulator, the estimator before the static
    #: model, ranked these strategies: the tiled family first (within a few
    #: percent of each other here, so unordered), then this tail.
    SIMULATED_TOP3 = {"tiled", "tuned", "sliding_in_tiles"}
    SIMULATED_TAIL = ["sliding_window", "breadth_first", "full_fusion"]

    def test_static_model_agrees_with_simulation(self):
        """Counts equal the interpreter's on every strategy, and the cycle
        ranking is the one the simulation recorded."""
        app, sizes = _paper_app("blur")
        pipeline = app.pipeline()
        cycles = {}
        for strategy in self.STRATEGIES:
            schedule = app.named_schedule(strategy)
            report = estimate_cost(pipeline, sizes, schedule=schedule,
                                   profile=SMALL_CACHE_CPU)
            counters = Counters()
            pipeline.compile(sizes, schedule=schedule, target="interp").run(
                listeners=[counters])
            assert (report.ops, report.loads, report.stores) == \
                (counters.arith_ops, counters.loads, counters.stores), strategy
            cycles[strategy] = report.cycles
        order = sorted(self.STRATEGIES, key=cycles.get)
        assert set(order[:3]) == self.SIMULATED_TOP3, order
        assert order[3:] == self.SIMULATED_TAIL, order


class TestPassAblations:
    """Disabling one lowering pass on the tuned 128x96 blur costs what the
    paper says the pass buys."""

    def test_sliding_window_avoids_recomputation(self, blur_tradeoffs):
        assert blur_tradeoffs("sliding_window").total_ops >= \
            blur_tradeoffs().total_ops

    def test_storage_folding_shrinks_the_footprint(self, blur_tradeoffs):
        assert blur_tradeoffs("storage_folding").peak_footprint_bytes >= \
            blur_tradeoffs().peak_footprint_bytes

    def test_vectorization_reduces_model_time(self):
        assert _ms("blur", "tuned", SMALL_CACHE_CPU, "vectorize") >= \
            _ms("blur", "tuned", SMALL_CACHE_CPU) * 0.99

    def test_all_passes_beat_breadth_first(self):
        assert _ms("blur", "tuned", SMALL_CACHE_CPU) < \
            _ms("blur", "breadth_first", SMALL_CACHE_CPU)


class TestFigure7:
    """Figure 7 under the model: tuned beats breadth-first on the x86
    profile for every application, and the GPU mapping pays on GPU_LIKE."""

    @pytest.mark.parametrize("app_name, floor", [
        ("blur", 1.2), ("bilateral_grid", 1.0), ("camera_pipe", 1.0),
        ("interpolate", 1.0), ("local_laplacian", 1.0)])
    def test_tuned_beats_breadth_first_on_x86(self, app_name, floor):
        speedup = _ms(app_name, "breadth_first", XEON_W3520) / \
            _ms(app_name, "tuned", XEON_W3520)
        assert speedup > 1.0 and speedup >= floor, speedup

    # Blur's row is TestCostModel.test_gpu_profile_rewards_gpu_schedule.  The
    # bilateral grid at this tiny grid size is bound by its serial scatter
    # plus launch overhead; it need only stay in the same ballpark.
    @pytest.mark.parametrize("app_name, floor", [
        ("interpolate", 1.0), ("bilateral_grid", 0.5)])
    def test_gpu_schedule_beats_naive_on_gpu(self, app_name, floor):
        speedup = _ms(app_name, "breadth_first", GPU_LIKE) / \
            _ms(app_name, "gpu", GPU_LIKE)
        assert speedup > floor, speedup

    def test_gpu_beats_tuned_cpu_on_blur(self):
        assert _ms("blur", "tuned", XEON_W3520) / \
            _ms("blur", "gpu", GPU_LIKE) > 1.0
