"""Direct unit tests for the sliding-window and storage-folding passes.

These complement the behavioral checks in test_compiler_passes.py with
pass-level assertions: what slides, which fold factors are chosen, the exact
footprint of folded rings (via the runtime memory counters, including the
per-Func ``peak_allocated_by_buffer`` breakdown), and the full set of
``ScheduleError`` diagnostics a forced ``storage_fold`` can raise.
"""

import numpy as np
import pytest

from repro.core.schedule import ScheduleError
from repro.lang import Buffer, Func, Var, repeat_edge
from repro.pipeline import Pipeline
from repro.runtime.counters import Counters

SIZES = [24, 16]
ITEM = np.dtype(np.float32).itemsize


@pytest.fixture
def stencil_image():
    return (np.arange(24 * 16, dtype=np.float32).reshape(24, 16) * 0.25) - 30.0


def _chain(image, reversed_read=False):
    """input -> producer (vertical stencil) -> consumer (3-tap over producer)."""
    buf = Buffer(image, name="ss_in")
    clamped = repeat_edge(buf, name="ss_clamped")
    x, y = Var("x"), Var("y")
    producer, consumer = Func("ss_producer"), Func("ss_consumer")
    producer[x, y] = clamped[x, y - 1] + clamped[x, y + 1]
    if reversed_read:
        consumer[x, y] = producer[x, 15 - y]
    else:
        consumer[x, y] = producer[x, y - 1] + producer[x, y] + producer[x, y + 1]
    return producer, consumer


class TestSlidingWindowPass:
    def test_slides_records_producer_and_consumer_loop(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.store_root().compute_at(consumer, Var("y"))
        lowered = Pipeline(consumer).lower(SIZES)
        assert lowered.slides == {"ss_producer": "ss_consumer.y"}

    def test_no_slide_without_store_compute_separation(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.compute_at(consumer, Var("y"))
        assert Pipeline(consumer).lower(SIZES).slides == {}

    def test_non_monotonic_window_does_not_slide(self, stencil_image):
        producer, consumer = _chain(stencil_image, reversed_read=True)
        producer.store_root().compute_at(consumer, Var("y"))
        lowered = Pipeline(consumer).lower(SIZES)
        assert "ss_producer" not in lowered.slides

    def test_sliding_output_matches_breadth_first(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.compute_root()
        expected = Pipeline(consumer).compile(SIZES).run()
        producer2, consumer2 = _chain(stencil_image)
        producer2.store_root().compute_at(consumer2, Var("y"))
        got = Pipeline(consumer2).compile(SIZES).run()
        assert got.tobytes() == expected.tobytes()


class TestAutomaticFolding:
    def test_auto_fold_factor_is_power_of_two_covering_window(self, stencil_image):
        # The consumer touches a 3-row window of the producer per iteration;
        # the automatic fold rounds up to the next power of two.
        producer, consumer = _chain(stencil_image)
        producer.store_root().compute_at(consumer, Var("y"))
        lowered = Pipeline(consumer).lower(SIZES)
        assert lowered.folds == {"ss_producer": {"y": 4}}

    def test_auto_fold_peak_matches_ring_size(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.store_root().compute_at(consumer, Var("y"))
        counters = Counters()
        Pipeline(consumer).compile(SIZES).run(listeners=[counters])
        assert counters.peak_allocated_by_buffer["ss_producer"] == SIZES[0] * 4 * ITEM

    def test_per_buffer_breakdown_at_root(self, stencil_image):
        # At compute_root the producer holds the consumer's full vertical
        # footprint (height + one row of stencil slack on each side).
        producer, consumer = _chain(stencil_image)
        producer.compute_root()
        counters = Counters()
        Pipeline(consumer).compile(SIZES).run(listeners=[counters])
        peaks = counters.peak_allocated_by_buffer
        assert peaks["ss_producer"] == SIZES[0] * (SIZES[1] + 2) * ITEM
        assert counters.peak_allocated_bytes >= max(peaks.values())


class TestForcedFolding:
    def test_exact_non_power_of_two_factor_applied(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.store_root().compute_at(consumer, Var("y")).storage_fold("y", 3)
        lowered = Pipeline(consumer).lower(SIZES)
        assert lowered.folds == {"ss_producer": {"y": 3}}

    def test_forced_fold_output_and_footprint(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.compute_root()
        expected = Pipeline(consumer).compile(SIZES).run()

        producer2, consumer2 = _chain(stencil_image)
        producer2.store_root().compute_at(consumer2, Var("y")).storage_fold("y", 3)
        counters = Counters()
        output = Pipeline(consumer2).compile(SIZES).run(listeners=[counters])
        assert output.tobytes() == expected.tobytes()
        # The ring holds exactly 3 rows — tighter than the automatic pow2 fold.
        assert counters.peak_allocated_by_buffer["ss_producer"] == SIZES[0] * 3 * ITEM

    def test_factor_smaller_than_window_raises(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.store_root().compute_at(consumer, Var("y")).storage_fold("y", 2)
        with pytest.raises(ScheduleError, match="do not fit"):
            Pipeline(consumer).lower(SIZES)

    def test_parallel_consumer_loop_raises(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        consumer.parallel(Var("y"))
        producer.store_root().compute_at(consumer, Var("y")).storage_fold("y", 4)
        with pytest.raises(ScheduleError, match="parallel"):
            Pipeline(consumer).lower(SIZES)

    def test_non_marching_window_raises(self, stencil_image):
        producer, consumer = _chain(stencil_image, reversed_read=True)
        producer.store_root().compute_at(consumer, Var("y")).storage_fold("y", 16)
        with pytest.raises(ScheduleError, match="march"):
            Pipeline(consumer).lower(SIZES)

    def test_fold_on_output_raises(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.compute_root()
        consumer.storage_fold("y", 4)
        with pytest.raises(ScheduleError, match="output"):
            Pipeline(consumer).lower(SIZES)

    def test_fold_on_inlined_func_raises(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.storage_fold("y", 4)  # producer stays inlined (the default)
        with pytest.raises(ScheduleError, match="inlined"):
            Pipeline(consumer).lower(SIZES)

    def test_fold_on_unknown_dimension_raises(self, stencil_image):
        producer, consumer = _chain(stencil_image)
        producer.store_root().compute_at(consumer, Var("y")).storage_fold("z", 4)
        with pytest.raises(ScheduleError):
            Pipeline(consumer).lower(SIZES)

    def test_forced_fold_parity_across_backends(self, stencil_image):
        results = []
        for target in ("interp", "numpy", "compiled"):
            producer, consumer = _chain(stencil_image)
            producer.store_root().compute_at(consumer, Var("y")).storage_fold("y", 3)
            results.append(Pipeline(consumer).compile(SIZES, target=target).run())
        assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()
