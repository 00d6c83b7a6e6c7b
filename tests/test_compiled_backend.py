"""The compile-to-Python source backend and the multi-core parallel runtime.

The contract under test:

* **Three-way parity** — for every application and every named schedule, the
  ``compiled`` backend produces output bit-identical to both the scalar
  interpreter and the NumPy backend (no tolerance).
* **Determinism under threads** — every parallel schedule produces identical
  bytes run twice with ``threads=4``, and identical bytes to the serial
  (``threads=1``) run: parallel iterations write disjoint slices, so chunking
  cannot change any value.
* **Target plumbing** — ``Target.threads`` reaches the runtime's pool sizing
  and participates in the compile cache key.
* **Instrumentation** — the compiled backend opts out of listeners; the NumPy
  backend's batched-attempt abort path no longer double-counts events.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from _image_assertions import assert_images_identical
from repro.apps import (
    make_bilateral_grid,
    make_blur,
    make_camera_pipe,
    make_histogram_equalize,
    make_interpolate,
    make_local_laplacian,
    make_unsharp,
)
from repro.codegen import CompiledExecutor, NumpyExecutor, ParallelRuntime
from repro.codegen.parallel_runtime import chunk_bounds
from repro.core.split import TailStrategy
from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.runtime import Counters, backend_names, create_executor, get_backend
from repro.runtime.executor import Executor
from repro.runtime.target import Target
from repro.types import Float, Int


def _app_cases():
    """Every paper application, built over small seeded inputs.

    Each maker seeds its own generator so repeated calls build identical
    inputs (schedules mutate Funcs, so tests construct apps fresh)."""
    def blur():
        rng = np.random.default_rng(1)
        return make_blur(rng.random((32, 20)).astype(np.float32)), None

    def unsharp():
        rng = np.random.default_rng(2)
        return make_unsharp(rng.random((24, 18)).astype(np.float32), strength=1.5), None

    def hist():
        rng = np.random.default_rng(3)
        return make_histogram_equalize((rng.random((20, 14)) * 256).astype(np.uint8)), None

    def bilateral():
        rng = np.random.default_rng(4)
        return make_bilateral_grid(rng.random((16, 12)).astype(np.float32),
                                   s_sigma=8, r_sigma=0.2), None

    def camera():
        rng = np.random.default_rng(5)
        return make_camera_pipe((rng.random((32, 24)) * 1024).astype(np.uint16)), [24, 16, 3]

    def interpolate():
        rng = np.random.default_rng(6)
        rgba = rng.random((16, 12, 4)).astype(np.float32)
        rgba[:, :, 3] = (rgba[:, :, 3] > 0.5).astype(np.float32)
        return make_interpolate(rgba, levels=2), [16, 12, 3]

    def local_laplacian():
        rng = np.random.default_rng(7)
        return make_local_laplacian(rng.random((24, 16)).astype(np.float32),
                                    levels=2, intensity_levels=4), None

    return {
        "blur": blur,
        "unsharp": unsharp,
        "histogram_equalize": hist,
        "bilateral_grid": bilateral,
        "camera_pipe": camera,
        "interpolate": interpolate,
        "local_laplacian": local_laplacian,
    }


def _parity_cases():
    for name, maker in _app_cases().items():
        app, _ = maker()
        for schedule in sorted(app.schedules):
            yield pytest.param(name, schedule, id=f"{name}-{schedule}")


@functools.lru_cache(maxsize=None)
def _interp_reference(app_name, schedule):
    """The interpreter's output for one app x named schedule, computed once
    per session: the parity oracle of every backend's suite."""
    app, sizes = _app_cases()[app_name]()
    reference = app.compile(schedule, sizes, target="interp").run()
    reference.setflags(write=False)
    return reference


# ---------------------------------------------------------------------------
# three-way parity: every app x every named schedule, bit-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("app_name, schedule", _parity_cases())
def test_three_way_backend_parity(app_name, schedule):
    app, sizes = _app_cases()[app_name]()
    reference = _interp_reference(app_name, schedule)
    via_numpy = app.compile(schedule, sizes, target="numpy").run()
    via_compiled = app.compile(schedule, sizes, target="compiled").run()
    assert_images_identical(via_numpy, reference)
    assert_images_identical(via_compiled, reference)


def test_guarded_split_tail_parity():
    """GUARD_WITH_IF split tails take the compiled backend's scalar path;
    output must still match the interpreter exactly."""
    rng = np.random.default_rng(2)
    app = make_unsharp(rng.random((24, 18)).astype(np.float32), strength=1.5)
    output = app.output.function
    innermost = output.args[0]
    schedule = app.named_schedule("breadth_first").with_directives(
        output.name, ("split", innermost, f"{innermost}_o", f"{innermost}_i", 5,
                      TailStrategy.GUARD_WITH_IF.value))

    reference = app.compile(schedule, target="interp").run()
    via_compiled = app.compile(schedule, target="compiled").run()
    assert_images_identical(via_compiled, reference)


# ---------------------------------------------------------------------------
# determinism: parallel schedules, repeated runs, thread counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("app_name", sorted(_app_cases()))
def test_parallel_schedules_are_deterministic(app_name):
    """Every named schedule with a parallel loop yields identical bytes run
    twice at ``threads=4``, and identical bytes to the ``threads=1`` run."""
    maker = _app_cases()[app_name]
    app, sizes = maker()
    pipeline = app.pipeline()
    parallel_schedules = []
    for schedule in sorted(app.schedules):
        compiled = app.compile(schedule=schedule, sizes=sizes,
                               target=Target("compiled", threads=4))
        if "parallel_for" not in compiled.source():
            continue
        parallel_schedules.append(schedule)
        first = compiled.run()
        second = compiled.run()
        serial = app.compile(schedule, sizes,
                             target=Target("compiled", threads=1)).run()
        assert first.tobytes() == second.tobytes(), \
            f"{app_name}/{schedule}: threads=4 runs differ"
        assert_images_identical(serial, first)
    # Every app names at least one parallel schedule (the tuned one).
    assert parallel_schedules, f"{app_name} has no parallel named schedule"
    assert pipeline.cache_info().currsize > 0


# ---------------------------------------------------------------------------
# Target plumbing: threads reach the runtime and key the compile cache
# ---------------------------------------------------------------------------

def test_threads_key_the_compile_cache():
    rng = np.random.default_rng(1)
    app = make_blur(rng.random((16, 12)).astype(np.float32))
    pipeline = app.pipeline()
    schedule = app.named_schedule("tuned")
    one = pipeline.compile(app.default_size, schedule=schedule,
                           target=Target("compiled", threads=1))
    four = pipeline.compile(app.default_size, schedule=schedule,
                            target=Target("compiled", threads=4))
    assert one is not four, "threads=1 and threads=4 must not share a cache entry"
    assert pipeline.cache_info().misses >= 2
    again = pipeline.compile(app.default_size, schedule=schedule,
                             target=Target("compiled", threads=4))
    assert again is four
    assert pipeline.cache_info().hits >= 1


def test_create_executor_forwards_target_threads():
    rng = np.random.default_rng(1)
    app = make_blur(rng.random((12, 8)).astype(np.float32))
    lowered = app.pipeline().lower(sizes=app.default_size,
                                   schedule=app.named_schedule("tuned"))
    executor = create_executor(lowered, target=Target("compiled", threads=3))
    assert isinstance(executor, CompiledExecutor)
    assert executor._runtime.threads == 3
    assert executor.target.threads == 3
    serial = create_executor(lowered, target=Target("compiled"))
    assert serial._runtime.threads is None


def test_backend_registry_has_compiled():
    assert "compiled" in backend_names()
    assert get_backend("compiled") is CompiledExecutor


# ---------------------------------------------------------------------------
# generated source: exposed, cached, readable
# ---------------------------------------------------------------------------

def test_compiled_pipeline_exposes_source():
    rng = np.random.default_rng(1)
    app = make_blur(rng.random((16, 12)).astype(np.float32))
    compiled = app.compile(schedule="tuned", target=Target("compiled", threads=2))
    source = compiled.source()
    assert "def _pipeline(scope, buffers, rt):" in source
    assert "parallel_for" in source            # the .parallel("yo") loop
    assert "np.arange" in source               # a batched whole-array loop
    assert "# produce blur_y" in source        # readable stage markers
    # The source is generated once per lowering and cached.
    assert compiled.source() is source
    # Any target can render the source; only "compiled" executes it.
    via_numpy = app.compile(schedule="tuned", target="numpy")
    assert "def _pipeline" in via_numpy.source()


# ---------------------------------------------------------------------------
# listener opt-out (compiled) and abort-path totals (numpy, regression)
# ---------------------------------------------------------------------------

def test_compile_generates_source_eagerly():
    """pipeline.compile(target='compiled') must pay codegen up front, so
    timed run() regions (evaluator, benchmarks) never include it."""
    rng = np.random.default_rng(1)
    app = make_blur(rng.random((12, 8)).astype(np.float32))
    compiled = app.compile(schedule="breadth_first", target="compiled")
    assert getattr(compiled.lowered, "_compiled_program", None) is not None


def test_explicit_listeners_warn_under_compiled():
    rng = np.random.default_rng(1)
    app = make_blur(rng.random((12, 8)).astype(np.float32))
    compiled = app.compile(schedule="breadth_first", target="compiled")
    with pytest.warns(RuntimeWarning, match="does not drive instrumentation"):
        compiled.run(listeners=[Counters()])


def test_compiled_backend_drives_no_listeners():
    assert CompiledExecutor.drives_listeners is False
    assert Executor.drives_listeners is True
    rng = np.random.default_rng(1)
    app = make_blur(rng.random((12, 8)).astype(np.float32))
    counters = Counters()
    with pytest.warns(RuntimeWarning, match="does not drive instrumentation"):
        output = app.compile("breadth_first", target="compiled").run(listeners=[counters])
    reference = app.compile("breadth_first", target="interp").run()
    assert_images_identical(output, reference)
    assert counters.arith_ops == 0  # opt-out: no events delivered


def _scatter_with_duplicates():
    """A batchable loop whose scatter indices collide at run time: the
    batched attempt aborts and replays through the scalar path."""
    x = E.Variable("x", Int(32))
    index = E.Load(Int(32), "idx", x)
    body = S.Store("out", E.Cast(Float(32), x), index)
    loop = S.For("x", op.const(0), op.const(8), S.ForType.SERIAL, body)
    lowered = SimpleNamespace(stmt=loop, output=SimpleNamespace(name="out"))
    idx = np.array([0, 1, 2, 2, 3, 4, 5, 6], dtype=np.int32)  # 2 collides
    return lowered, idx


def _run_scatter(executor_class, **kwargs):
    lowered, idx = _scatter_with_duplicates()
    counters = Counters()
    executor = executor_class(lowered, listeners=[counters], **kwargs)
    out = np.zeros(8, dtype=np.float32)
    executor.provide_buffer("idx", idx)
    executor.provide_buffer("out", out)
    executor.run()
    return out, counters


def test_numpy_abort_path_is_bit_identical_and_counts_once():
    """Regression: the batched store-check abort used to double-count
    listener events (batched attempt + scalar replay).  Totals must now
    match the interpreter exactly on the abort path."""
    reference, interp_counters = _run_scatter(Executor)
    output, numpy_counters = _run_scatter(NumpyExecutor)
    # Scalar order: the last duplicate index wins.
    assert reference[2] == 3.0
    assert np.array_equal(output, reference)
    assert numpy_counters.summary() == interp_counters.summary()


def test_compiled_abort_path_matches_interpreter():
    """The compiled backend's emitted uniqueness check must abort the batched
    region and fall back to the scalar loop, preserving store order."""
    reference, _ = _run_scatter(Executor)
    output, _ = _run_scatter(CompiledExecutor)
    assert np.array_equal(output, reference)


# ---------------------------------------------------------------------------
# parallel runtime unit behavior
# ---------------------------------------------------------------------------

def test_chunk_bounds_cover_range_exactly():
    for mn, extent, chunks in [(0, 10, 3), (-5, 17, 4), (2, 3, 8), (0, 1, 4)]:
        bounds = chunk_bounds(mn, extent, chunks)
        assert bounds[0][0] == mn
        assert bounds[-1][1] == mn + extent
        assert all(lo < hi for lo, hi in bounds)
        assert all(prev[1] == nxt[0] for prev, nxt in zip(bounds, bounds[1:]))


def test_parallel_for_executes_every_iteration_once():
    out = np.zeros(23, dtype=np.int64)

    def body(lo, hi):
        out[lo:hi] += np.arange(lo, hi)

    ParallelRuntime(threads=4).parallel_for(body, 0, 23)
    assert np.array_equal(out, np.arange(23))


def test_parallel_for_serial_fallbacks():
    calls = []

    def body(lo, hi):
        calls.append((lo, hi))

    ParallelRuntime(threads=None).parallel_for(body, 3, 5)
    ParallelRuntime(threads=1).parallel_for(body, 0, 4)
    assert calls == [(3, 8), (0, 4)]  # one inline call each, no chunking


def test_nested_parallel_for_runs_inline():
    """Nested parallel loops must not resubmit to the bounded pool (deadlock
    hazard); the inner loop runs serially on the worker thread."""
    out = np.zeros((8, 8), dtype=np.int64)
    rt = ParallelRuntime(threads=2)

    def outer(lo, hi):
        for i in range(lo, hi):
            def inner(ilo, ihi, i=i):
                out[i, ilo:ihi] = 1
            rt.parallel_for(inner, 0, 8)

    rt.parallel_for(outer, 0, 8)
    assert out.all()


def test_parallel_for_propagates_exceptions():
    def body(lo, hi):
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        ParallelRuntime(threads=2).parallel_for(body, 0, 8)
