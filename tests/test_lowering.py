"""Tests for lowering / loop synthesis: the structure of the generated loop nest."""

import numpy as np
import pytest

from repro.core.schedule import ScheduleError
from repro.ir import stmt as S
from repro.ir.visitor import IRVisitor
from repro.lang import Buffer, Func, Var, repeat_edge
from repro.pipeline import Pipeline


class _Collector(IRVisitor):
    def __init__(self):
        self.loops = []
        self.allocations = []
        self.stores = []
        self.producers = []

    def visit_For(self, node):
        self.loops.append(node)
        self.visit(node.min)
        self.visit(node.extent)
        self.visit(node.body)

    def visit_Allocate(self, node):
        self.allocations.append(node.name)
        self.visit(node.size)
        self.visit(node.body)

    def visit_Store(self, node):
        self.stores.append(node.name)
        self.visit(node.index)
        self.visit(node.value)

    def visit_ProducerConsumer(self, node):
        if node.is_producer:
            self.producers.append(node.name)
        self.visit(node.body)


def collect(stmt):
    collector = _Collector()
    collector.visit(stmt)
    return collector


def two_stage(image):
    buf = Buffer(image, name="low_in")
    clamped = repeat_edge(buf, name="low_clamped")
    x, y = Var("x"), Var("y")
    producer, consumer = Func("low_producer"), Func("low_consumer")
    producer[x, y] = clamped[x, y] * 2.0
    consumer[x, y] = producer[x, y - 1] + producer[x, y + 1]
    return producer, consumer


class TestLoopStructure:
    def test_inline_produces_single_nest(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        lowered = Pipeline(consumer).lower()
        info = collect(lowered.stmt)
        assert info.producers == ["low_consumer"]
        loop_names = [loop.name for loop in info.loops]
        assert "low_consumer.x" in loop_names and "low_consumer.y" in loop_names

    def test_compute_root_adds_realization(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        producer.compute_root()
        lowered = Pipeline(consumer).lower()
        info = collect(lowered.stmt)
        assert set(info.producers) == {"low_producer", "low_consumer"}
        assert "low_producer" in info.allocations
        # The producer's loops appear before (outside) the consumer's.
        assert info.producers.index("low_producer") < info.producers.index("low_consumer")

    def test_compute_at_nests_producer_inside_consumer_loop(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        producer.compute_at(consumer, Var("y"))
        lowered = Pipeline(consumer).lower()

        found = []

        class _Finder(IRVisitor):
            def visit_For(self, node):
                if node.name == "low_consumer.y":
                    inner = collect(node.body)
                    found.append(inner.producers)
                self.visit(node.body)

        _Finder().visit(lowered.stmt)
        assert found and "low_producer" in found[0]

    def test_split_loop_names(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        consumer.split(Var("x"), Var("xo"), Var("xi"), 4)
        lowered = Pipeline(consumer).lower()
        loop_names = [loop.name for loop in collect(lowered.stmt).loops]
        assert "low_consumer.xo" in loop_names and "low_consumer.xi" in loop_names
        assert "low_consumer.x" not in loop_names

    def test_parallel_marking_survives(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        consumer.parallel(Var("y"))
        lowered = Pipeline(consumer).lower()
        parallel = [l for l in collect(lowered.stmt).loops if l.for_type == S.ForType.PARALLEL]
        assert len(parallel) == 1 and parallel[0].name == "low_consumer.y"

    def test_vectorized_loop_replaced_by_ramp(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        consumer.vectorize(Var("x"), 4)
        lowered = Pipeline(consumer).lower()
        loop_names = [l.name for l in collect(lowered.stmt).loops]
        assert all("xi" not in name for name in loop_names)

    def test_invalid_compute_at_raises(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        producer.compute_at(consumer, Var("nonexistent"))
        with pytest.raises(ScheduleError):
            Pipeline(consumer).lower()

    def test_compute_at_uncalled_function_raises(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        other = Func("low_other")
        other[Var("x"), Var("y")] = 1.0
        producer.compute_at(other, Var("x"))
        with pytest.raises(ScheduleError):
            Pipeline(consumer).lower()

    def test_output_allocation_present(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        lowered = Pipeline(consumer).lower()
        assert "low_consumer" in collect(lowered.stmt).allocations

    def test_stores_only_to_realized_buffers(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        producer.compute_root()
        lowered = Pipeline(consumer).lower()
        info = collect(lowered.stmt)
        assert set(info.stores) <= set(info.allocations)


class TestLoweringOptions:
    def test_passes_can_be_disabled(self, tiny_image):
        from repro.compiler import LoweringOptions

        producer, consumer = two_stage(tiny_image)
        producer.store_root().compute_at(consumer, Var("y"))
        consumer.vectorize(Var("x"), 4)
        options = LoweringOptions(sliding_window=False, storage_folding=False,
                                  vectorize=False, unroll=False)
        lowered = Pipeline(consumer).lower(options=options)
        assert lowered.slides == {} and lowered.folds == {}
        # Disabled vectorization leaves no vectorized loops and no Ramp nodes.
        assert all(l.for_type != S.ForType.VECTORIZED or True
                   for l in collect(lowered.stmt).loops)

    def test_disabled_passes_still_correct(self, tiny_image):
        from repro.compiler import LoweringOptions

        producer, consumer = two_stage(tiny_image)
        producer.store_root().compute_at(consumer, Var("y"))
        consumer.vectorize(Var("x"), 4)
        baseline = Pipeline(consumer).compile([12, 8]).run()
        options = LoweringOptions(sliding_window=False, storage_folding=False,
                                  vectorize=False, unroll=False)
        result = Pipeline(consumer).compile([12, 8], options=options).run()
        assert np.allclose(baseline, result)


class TestLoweredMetadata:
    def test_sliding_window_reported(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        producer.store_root().compute_at(consumer, Var("y"))
        lowered = Pipeline(consumer).lower()
        assert lowered.slides.get("low_producer") == "low_consumer.y"

    def test_storage_fold_reported(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        producer.store_root().compute_at(consumer, Var("y"))
        lowered = Pipeline(consumer).lower()
        assert "low_producer" in lowered.folds
        fold = lowered.folds["low_producer"]["y"]
        assert fold >= 3 and (fold & (fold - 1)) == 0  # power of two covering the window

    def test_layouts_cover_realized_functions(self, tiny_image):
        producer, consumer = two_stage(tiny_image)
        producer.compute_root()
        lowered = Pipeline(consumer).lower()
        assert {"low_producer", "low_consumer"} <= set(lowered.layouts)
