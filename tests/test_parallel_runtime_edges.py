"""Edge cases of the multi-core parallel runtime the fuzzer's generator hits.

Two layers:

* the runtime primitives directly — ``chunk_bounds`` partitioning and
  ``parallel_for`` dispatch for zero extents, extents smaller than the chunk
  count, non-divisible extents, and nested parallel loops;
* whole pipelines — parallel schedules over tiny/awkward output sizes must be
  bit-identical at threads 1, 2 and 4 (each element is written by exactly one
  iteration regardless of how iterations are grouped into chunks).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.codegen.parallel_runtime import CHUNKS_PER_WORKER, ParallelRuntime, chunk_bounds
from repro.core.pipeline_schedule import Schedule
from repro.lang import Buffer, Func, Var
from repro.pipeline import Pipeline
from repro.runtime.target import Target


# ---------------------------------------------------------------------------
# chunk_bounds partitioning
# ---------------------------------------------------------------------------

class TestChunkBounds:
    @pytest.mark.parametrize("mn, extent, chunks", [
        (0, 1, 4), (0, 3, 4), (0, 4, 4), (0, 5, 4), (0, 13, 4),
        (-7, 13, 4), (5, 1, 16), (0, 100, 7), (3, 2, 2),
    ])
    def test_partition_is_exact_and_contiguous(self, mn, extent, chunks):
        bounds = chunk_bounds(mn, extent, chunks)
        assert bounds[0][0] == mn
        assert bounds[-1][1] == mn + extent
        for (lo_a, hi_a), (lo_b, _) in zip(bounds, bounds[1:]):
            assert hi_a == lo_b          # contiguous, no gaps or overlaps
        assert all(hi > lo for lo, hi in bounds)  # never an empty chunk
        assert len(bounds) == min(chunks, extent)

    def test_zero_extent_yields_single_empty_range(self):
        assert chunk_bounds(0, 0, 4) == [(0, 0)]


# ---------------------------------------------------------------------------
# parallel_for dispatch
# ---------------------------------------------------------------------------

def _record_coverage(runtime: ParallelRuntime, mn: int, extent: int):
    covered = []
    lock = threading.Lock()

    def body(lo, hi):
        with lock:
            covered.append((lo, hi))

    runtime.parallel_for(body, mn, extent)
    return sorted(covered)


class TestParallelFor:
    @pytest.mark.parametrize("threads", [None, 1, 2, 4])
    def test_zero_extent_never_calls_body(self, threads):
        assert _record_coverage(ParallelRuntime(threads), 0, 0) == []
        assert _record_coverage(ParallelRuntime(threads), 5, -3) == []

    @pytest.mark.parametrize("threads", [None, 1, 2, 4])
    @pytest.mark.parametrize("extent", [1, 2, 3, 7, 16, 100])
    def test_every_iteration_covered_exactly_once(self, threads, extent):
        covered = _record_coverage(ParallelRuntime(threads), 3, extent)
        flat = [i for lo, hi in covered for i in range(lo, hi)]
        assert sorted(flat) == list(range(3, 3 + extent))
        if threads in (None, 1) or extent == 1:
            assert covered == [(3, 3 + extent)]  # one inline call, no chunking

    def test_extent_smaller_than_chunk_count(self):
        # threads * CHUNKS_PER_WORKER chunks are requested; with extent 2 only
        # 2 non-empty chunks may exist.
        covered = _record_coverage(ParallelRuntime(4), 0, 2)
        assert len(covered) == 2
        assert covered == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("threads", [2, 4])
    def test_nested_parallel_runs_inline_without_deadlock(self, threads):
        runtime = ParallelRuntime(threads)
        cells = []
        lock = threading.Lock()

        def outer(lo, hi):
            for i in range(lo, hi):
                def inner(jlo, jhi, i=i):
                    with lock:
                        cells.extend((i, j) for j in range(jlo, jhi))
                runtime.parallel_for(inner, 0, 5)

        runtime.parallel_for(outer, 0, 8)
        assert sorted(cells) == [(i, j) for i in range(8) for j in range(5)]

    def test_worker_exception_propagates(self):
        runtime = ParallelRuntime(4)

        def body(lo, hi):
            if lo >= 8:
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            runtime.parallel_for(body, 0, 16)


# ---------------------------------------------------------------------------
# whole pipelines: bit-identical across thread counts on awkward extents
# ---------------------------------------------------------------------------

def _two_stage_pipeline():
    # Input reads are clamped (the apps' boundary idiom): split rounding may
    # over-require producer regions beyond the input extent.
    from repro.lang import clamp

    rng = np.random.default_rng(77)
    image = Buffer(rng.random((19, 11)).astype(np.float32), name="in")
    x, y = Var("x"), Var("y")
    f, g = Func("f"), Func("g")
    f[x, y] = image[clamp(x, 0, 18), clamp(y, 0, 10)] * 2.0 + 1.0
    g[x, y] = f[x, y] + f[x, y] * 0.5
    return g


def _realize_all_threads(output, sizes, schedule):
    pipeline = Pipeline(output)
    results = {}
    for threads in (1, 2, 4):
        results[threads] = pipeline.compile(
            sizes, schedule=schedule, target=Target("compiled", threads=threads)).run()
    reference = pipeline.compile(sizes, schedule=schedule, target="interp").run()
    return reference, results


@pytest.mark.parametrize("sizes", [[1, 1], [3, 2], [5, 3], [19, 11]])
def test_parallel_output_tiny_extents_bit_identical(sizes):
    """Parallel y-loops whose extent is below / not divisible by the chunk
    count (threads * CHUNKS_PER_WORKER) must not change a single byte."""
    schedule = (Schedule().func("f").compute_root()
                .func("g").parallel("y").schedule)
    reference, results = _realize_all_threads(_two_stage_pipeline(), sizes, schedule)
    for threads, out in results.items():
        assert out.tobytes() == reference.tobytes(), f"threads={threads}"


@pytest.mark.parametrize("sizes", [[4, 4], [7, 5], [19, 11]])
def test_nested_parallel_loops_bit_identical(sizes):
    """Both tile loops parallel: the inner PARALLEL loop runs inline inside
    pool workers (nested submission would deadlock a bounded pool)."""
    schedule = (Schedule().func("f").compute_root()
                .func("g")
                .split("x", "xo", "xi", 4)
                .split("y", "yo", "yi", 4)
                .reorder("xi", "yi", "xo", "yo")
                .parallel("yo").parallel("xo").schedule)
    reference, results = _realize_all_threads(_two_stage_pipeline(), sizes, schedule)
    for threads, out in results.items():
        assert out.tobytes() == reference.tobytes(), f"threads={threads}"


@pytest.mark.parametrize("sizes", [[2, 2], [13, 7]])
def test_parallel_producer_consumer_chain_bit_identical(sizes):
    """compute_at producer under a parallel consumer loop: per-iteration
    allocations must stay private to each worker."""
    schedule = (Schedule().func("g").parallel("y")
                .func("f").compute_at("g", "y").store_at("g", "y").schedule)
    reference, results = _realize_all_threads(_two_stage_pipeline(), sizes, schedule)
    for threads, out in results.items():
        assert out.tobytes() == reference.tobytes(), f"threads={threads}"


def test_serial_producer_feeding_parallel_consumer():
    """A compute_root stage written serially must be visible, complete, to
    every chunk of the parallel consumer loop."""
    schedule = (Schedule().func("f").compute_root()
                .func("g").split("y", "yo", "yi", 4).parallel("yo").schedule)
    reference, results = _realize_all_threads(_two_stage_pipeline(), [19, 11], schedule)
    for threads, out in results.items():
        assert out.tobytes() == reference.tobytes(), f"threads={threads}"


def test_parallel_loop_with_split_guard_tail_bit_identical():
    """GUARD_WITH_IF split tail on a parallel loop at a non-divisible extent."""
    from repro.core.split import TailStrategy

    schedule = (Schedule().func("f").compute_root()
                .func("g")
                .split("y", "yo", "yi", 4, tail=TailStrategy.GUARD_WITH_IF)
                .parallel("yo").schedule)
    reference, results = _realize_all_threads(_two_stage_pipeline(), [19, 11], schedule)
    for threads, out in results.items():
        assert out.tobytes() == reference.tobytes(), f"threads={threads}"
