"""Tests for the machine model: cache simulator and cost model."""

import numpy as np
import pytest

from repro.apps import make_blur
from repro.machine import (
    CacheSimulator,
    CostModel,
    GPU_LIKE,
    SMALL_CACHE_CPU,
    XEON_W3520,
    estimate_cost,
)
from repro.machine.cache import CacheLevel
from repro.lang import Buffer, Func, Var
from repro.pipeline import Pipeline
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


class TestCostModel:
    def _blur_cost(self, image, schedule, profile=SMALL_CACHE_CPU):
        app = make_blur(image)
        return estimate_cost(app.pipeline(), app.default_size,
                             schedule=app.named_schedule(schedule), profile=profile)

    @pytest.fixture(scope="class")
    def image(self):
        return np.random.default_rng(3).random((96, 64)).astype(np.float32)

    def test_tiled_beats_breadth_first(self, image):
        breadth = self._blur_cost(image, "breadth_first")
        tiled = self._blur_cost(image, "tiled")
        assert tiled.cycles < breadth.cycles

    def test_parallelism_reduces_cycles(self, image):
        app = make_blur(image)
        serial = estimate_cost(app.pipeline(), app.default_size, profile=XEON_W3520)
        parallel = estimate_cost(app.pipeline(), app.default_size,
                                 schedule=app.named_schedule("tiled"), profile=XEON_W3520)
        assert parallel.cycles < serial.cycles

    def test_report_fields(self, image):
        report = self._blur_cost(image, "tiled")
        data = report.as_dict()
        assert data["cycles"] > 0
        assert data["milliseconds"] > 0
        assert data["l1_hits"] + data["l1_misses"] > 0
        assert report.ops > 0

    def test_gpu_profile_rewards_gpu_schedule(self, image):
        gpu_cost = self._blur_cost(image, "gpu", profile=GPU_LIKE)
        serial_on_gpu = self._blur_cost(image, "breadth_first", profile=GPU_LIKE)
        assert gpu_cost.cycles < serial_on_gpu.cycles

    def test_cost_model_listener_composes_with_counters(self, image):
        app = make_blur(image)
        model, counters = CostModel(SMALL_CACHE_CPU), Counters()
        app.compile("tiled").run(listeners=[model, counters])
        assert model.report().cycles > 0
        assert counters.arith_ops > 0
