"""Tests for the machine model: cache simulator and cost model."""

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
from repro.machine import (
    CacheSimulator,
    CostModel,
    GPU_LIKE,
    SMALL_CACHE_CPU,
    XEON_W3520,
    estimate_cost,
)
from repro.machine.cache import CacheLevel
from repro.metrics import measure_tradeoffs
from repro.runtime.counters import Counters


class TestCacheLevel:
    def test_repeated_access_hits(self):
        cache = CacheLevel(size_bytes=1024, line_bytes=64, associativity=2)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(32)  # same line

    def test_capacity_eviction(self):
        cache = CacheLevel(size_bytes=128, line_bytes=64, associativity=1)
        cache.access(0)          # set 0
        cache.access(128)        # maps to set 0, evicts line 0
        assert not cache.access(0)

    def test_lru_within_set(self):
        cache = CacheLevel(size_bytes=256, line_bytes=64, associativity=2)
        cache.access(0)
        cache.access(256)        # same set, second way
        cache.access(0)          # touch line 0 -> 256 becomes LRU
        cache.access(512)        # evicts 256
        assert cache.access(0)
        assert not cache.access(256)


class TestCacheSimulator:
    def test_distinct_buffers_do_not_alias(self):
        sim = CacheSimulator(l1_size=1024, l2_size=4096)
        sim.register_buffer("a", 100)
        sim.register_buffer("b", 100)
        assert sim.address_of("a", 0, 4) != sim.address_of("b", 0, 4)

    def test_streaming_misses(self):
        sim = CacheSimulator(l1_size=512, l2_size=1024, line_bytes=64)
        sim.register_buffer("a", 1 << 20)
        misses_before = sim.stats.l2_misses
        for i in range(0, 100000, 16):   # one access per line
            sim.access("a", i, 4)
        assert sim.stats.l2_misses > misses_before

    def test_small_working_set_hits(self):
        sim = CacheSimulator(l1_size=32 * 1024, l2_size=1 << 20)
        sim.register_buffer("a", 1024)
        for _sweep in range(4):
            for i in range(256):
                sim.access("a", i, 4)
        stats = sim.stats
        assert stats.l1_hits > stats.l1_misses


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


@pytest.fixture(scope="module")
def cost():
    """Memoised dynamic-model report of one (app, named schedule, profile),
    optionally with one lowering pass disabled: each comparison below reads
    one ``estimate_cost`` interpreter run, shared by every test that asks."""
    reports = {}

    def report(app_name, schedule, profile, disabled=None):
        key = (app_name, schedule, profile.name, disabled)
        if key not in reports:
            app, sizes = _paper_app(app_name)
            reports[key] = estimate_cost(
                app.pipeline(), sizes, schedule=app.named_schedule(schedule),
                options=LoweringOptions(**{disabled: False}) if disabled else None,
                profile=profile)
        return reports[key]

    return report


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


def _ms(cost, app_name, schedule, profile, disabled=None):
    return cost(app_name, schedule, profile, disabled).milliseconds


class TestCostModel:
    @pytest.fixture(scope="class")
    def image(self):
        return np.random.default_rng(3).random((96, 64)).astype(np.float32)

    def test_tiled_beats_breadth_first(self, cost):
        breadth = cost("blur", "breadth_first", SMALL_CACHE_CPU)
        tiled = cost("blur", "tiled", SMALL_CACHE_CPU)
        assert tiled.cycles < breadth.cycles

    def test_parallelism_reduces_cycles(self, image):
        app = make_blur(image)
        serial = estimate_cost(app.pipeline(), app.default_size, profile=XEON_W3520)
        parallel = estimate_cost(app.pipeline(), app.default_size,
                                 schedule=app.named_schedule("tiled"), profile=XEON_W3520)
        assert parallel.cycles < serial.cycles

    def test_report_fields(self, cost):
        report = cost("blur", "tiled", SMALL_CACHE_CPU)
        data = report.as_dict()
        assert data["cycles"] > 0
        assert data["milliseconds"] > 0
        assert data["l1_hits"] + data["l1_misses"] > 0
        assert report.ops > 0

    def test_gpu_profile_rewards_gpu_schedule(self, cost):
        gpu_cost = cost("blur", "gpu", GPU_LIKE)
        serial_on_gpu = cost("blur", "breadth_first", GPU_LIKE)
        assert gpu_cost.cycles < serial_on_gpu.cycles

    def test_cost_model_listener_composes_with_counters(self, image):
        app = make_blur(image)
        model, counters = CostModel(SMALL_CACHE_CPU), Counters()
        app.compile("tiled").run(listeners=[model, counters])
        assert model.report().cycles > 0
        assert counters.arith_ops > 0


class TestScheduleSpace:
    """Figure 4 / Section 3.1: the blur schedule space at 128x96 on the
    cache-starved profile, which magnifies the bandwidth effect."""

    STRATEGIES = ("breadth_first", "full_fusion", "sliding_window", "tiled",
                  "sliding_in_tiles", "tuned")

    @pytest.mark.parametrize("strategy", ["tiled", "tuned"])
    def test_locality_schedules_beat_breadth_first_3x(self, cost, strategy):
        breadth = _ms(cost, "blur", "breadth_first", SMALL_CACHE_CPU)
        assert breadth / _ms(cost, "blur", strategy, SMALL_CACHE_CPU) > 3.0

    @pytest.mark.parametrize("other", ["full_fusion", "sliding_window"])
    def test_tiled_beats_pure_fusion_and_pure_sliding(self, cost, other):
        assert _ms(cost, "blur", "tiled", SMALL_CACHE_CPU) < \
            _ms(cost, "blur", other, SMALL_CACHE_CPU)

    def test_static_model_agrees_with_simulation(self, cost):
        """Identical counts on every strategy; the tiled family fills the
        top three (its members are within a few percent of each other here,
        so the estimators may permute them) and the tail order is equal."""
        app, sizes = _paper_app("blur")
        dynamic, static = {}, {}
        for strategy in self.STRATEGIES:
            dynamic[strategy] = cost("blur", strategy, SMALL_CACHE_CPU)
            static[strategy] = estimate_cost(
                app.pipeline(), sizes, schedule=app.named_schedule(strategy),
                profile=SMALL_CACHE_CPU, mode="static")
            assert (static[strategy].ops, static[strategy].loads,
                    static[strategy].stores) == \
                (dynamic[strategy].ops, dynamic[strategy].loads,
                 dynamic[strategy].stores), strategy
        dynamic_order = sorted(self.STRATEGIES, key=lambda s: dynamic[s].cycles)
        static_order = sorted(self.STRATEGIES, key=lambda s: static[s].cycles)
        assert set(static_order[:3]) == set(dynamic_order[:3]), \
            (static_order, dynamic_order)
        assert static_order[3:] == dynamic_order[3:], (static_order, dynamic_order)


class TestPassAblations:
    """Disabling one lowering pass on the tuned 128x96 blur costs what the
    paper says the pass buys."""

    def test_sliding_window_avoids_recomputation(self, blur_tradeoffs):
        assert blur_tradeoffs("sliding_window").total_ops >= \
            blur_tradeoffs().total_ops

    def test_storage_folding_shrinks_the_footprint(self, blur_tradeoffs):
        assert blur_tradeoffs("storage_folding").peak_footprint_bytes >= \
            blur_tradeoffs().peak_footprint_bytes

    def test_vectorization_reduces_model_time(self, cost):
        assert _ms(cost, "blur", "tuned", SMALL_CACHE_CPU, "vectorize") >= \
            _ms(cost, "blur", "tuned", SMALL_CACHE_CPU) * 0.99

    def test_all_passes_beat_breadth_first(self, cost):
        assert _ms(cost, "blur", "tuned", SMALL_CACHE_CPU) < \
            _ms(cost, "blur", "breadth_first", SMALL_CACHE_CPU)


class TestFigure7:
    """Figure 7 under the model: tuned beats breadth-first on the x86
    profile for every application, and the GPU mapping pays on GPU_LIKE."""

    @pytest.mark.parametrize("app_name, floor", [
        ("blur", 1.2), ("bilateral_grid", 1.0), ("camera_pipe", 1.0),
        ("interpolate", 1.0), ("local_laplacian", 1.0)])
    def test_tuned_beats_breadth_first_on_x86(self, cost, app_name, floor):
        speedup = _ms(cost, app_name, "breadth_first", XEON_W3520) / \
            _ms(cost, app_name, "tuned", XEON_W3520)
        assert speedup > 1.0 and speedup >= floor, speedup

    # Blur's row is TestCostModel.test_gpu_profile_rewards_gpu_schedule.  The
    # bilateral grid at this tiny grid size is bound by its serial scatter
    # plus launch overhead; it need only stay in the same ballpark.
    @pytest.mark.parametrize("app_name, floor", [
        ("interpolate", 1.0), ("bilateral_grid", 0.5)])
    def test_gpu_schedule_beats_naive_on_gpu(self, cost, app_name, floor):
        speedup = _ms(cost, app_name, "breadth_first", GPU_LIKE) / \
            _ms(cost, app_name, "gpu", GPU_LIKE)
        assert speedup > floor, speedup

    def test_gpu_beats_tuned_cpu_on_blur(self, cost):
        assert _ms(cost, "blur", "tuned", XEON_W3520) / \
            _ms(cost, "blur", "gpu", GPU_LIKE) > 1.0
