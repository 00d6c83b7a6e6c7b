"""Figure 3: the locality / parallelism / redundant-work trade-off for the blur,
plus the backend parity/speedup check for the vectorized NumPy backend.

The paper quantifies five schedules of the two-stage blur by span (available
parallelism), maximum reuse distance (locality) and work amplification
(redundant recomputation).  This benchmark reproduces those three columns with
the instrumented executor; absolute values differ (smaller image, ops counted
by the interpreter), but the qualitative pattern must match:

* breadth-first: huge span, huge reuse distance, amplification 1.0;
* full fusion: huge span, zero reuse distance, amplification ~2x;
* sliding window: span collapses to ~one scanline, amplification 1.0;
* tiled: amplification slightly above 1, reuse distance ~one tile;
* sliding within tiles: amplification slightly above 1, span ~strips.
"""

import time

import numpy as np
import pytest

from repro.apps import make_blur
from repro.metrics import measure_tradeoffs

from conftest import print_table, run_once

STRATEGIES = ["breadth_first", "full_fusion", "sliding_window", "tiled_novec",
              "sliding_in_tiles"]


@pytest.mark.figure("fig3")
def test_fig3_blur_tradeoff_table(benchmark, blur_image):
    size = [blur_image.shape[0], blur_image.shape[1]]

    def measure_all():
        # One un-mutated algorithm graph; every schedule is applied
        # non-destructively as first-class Schedule data.
        app = make_blur(blur_image)
        pipeline = app.pipeline()
        rows = []
        baseline_ops = None
        for strategy in STRATEGIES:
            schedule = app.named_schedule(strategy)
            report = measure_tradeoffs(pipeline, size, schedule=schedule,
                                       baseline_ops=baseline_ops)
            if baseline_ops is None:
                baseline_ops = report.total_ops
                report.work_amplification = 1.0
            rows.append({
                "strategy": strategy,
                "span": report.span,
                "max_reuse_distance": report.max_reuse_distance,
                "work_amplification": report.work_amplification,
            })
        return rows

    rows = run_once(benchmark, measure_all)
    print_table("Figure 3: two-stage blur trade-offs",
                rows, ["strategy", "span", "max_reuse_distance", "work_amplification"])

    by_name = {r["strategy"]: r for r in rows}
    # Shape checks mirroring the paper's table.
    assert by_name["full_fusion"]["work_amplification"] > 1.3
    assert by_name["full_fusion"]["max_reuse_distance"] == 0
    assert by_name["sliding_window"]["work_amplification"] < 1.1
    assert by_name["sliding_window"]["span"] < by_name["breadth_first"]["span"] / 8
    assert 1.0 <= by_name["tiled_novec"]["work_amplification"] < 1.5
    assert by_name["tiled_novec"]["max_reuse_distance"] < \
        by_name["breadth_first"]["max_reuse_distance"]
    assert by_name["sliding_in_tiles"]["span"] > by_name["sliding_window"]["span"]


@pytest.mark.figure("fig3")
def test_fig3_numpy_backend_parity_and_speedup(benchmark, blur_image):
    """The vectorized NumPy backend must be bit-identical and >=10x faster.

    This is the repo's backend-parity gate: CI runs it on every PR.  The
    breadth-first schedule is the best case for batching (dense innermost
    loops over the whole image); the margin over 10x is large enough
    (~40-70x) that shared-runner timing noise does not matter.
    """
    size = [blur_image.shape[0], blur_image.shape[1]]

    def compare_backends():
        app = make_blur(blur_image)
        start = time.perf_counter()
        reference = app.compile("breadth_first", size, target="interp").run()
        interp_seconds = time.perf_counter() - start
        start = time.perf_counter()
        output = app.compile("breadth_first", size, target="numpy").run()
        numpy_seconds = time.perf_counter() - start
        return reference, output, interp_seconds, numpy_seconds

    reference, output, interp_seconds, numpy_seconds = run_once(benchmark, compare_backends)
    speedup = interp_seconds / max(numpy_seconds, 1e-9)
    print_table(
        "Figure 3 backend check: two-stage blur, breadth-first schedule",
        [{"backend": "interp", "seconds": interp_seconds, "speedup": 1.0},
         {"backend": "numpy", "seconds": numpy_seconds, "speedup": speedup}],
        ["backend", "seconds", "speedup"],
    )
    assert output.dtype == reference.dtype
    assert np.array_equal(output, reference), \
        "numpy backend output differs from the interpreter"
    assert speedup >= 10.0, \
        f"numpy backend is only {speedup:.1f}x faster than the interpreter"


@pytest.mark.figure("fig3")
def test_fig3_compiled_backend_parity_and_speedup(benchmark, blur_image):
    """The compiled (generated-source) backend must be bit-identical to the
    interpreter and beat the NumPy backend.

    This extends the backend-parity gate to the third backend: generated
    straight-line Python/NumPy code runs the same whole-array operations as
    the NumPy backend without any per-run tree walking, which is worth
    ~3-6x on the blur sweep (the 1.5x floor leaves room for runner noise).
    Measured at threads=1 so the margin is pure codegen, not parallelism.
    """
    from repro.runtime import Target

    size = [blur_image.shape[0], blur_image.shape[1]]

    def compare_backends():
        app = make_blur(blur_image)
        pipeline = app.pipeline()
        rows = {}
        reference = None
        for name, target in [("interp", Target("interp")),
                             ("numpy", Target("numpy")),
                             ("compiled", Target("compiled", threads=1))]:
            compiled = pipeline.compile(size, schedule=app.named_schedule("breadth_first"),
                                        target=target)
            if name != "interp":
                compiled.run()  # warm outside the timed run (interp is too slow to warm)
            start = time.perf_counter()
            output = compiled.run()
            rows[name] = time.perf_counter() - start
            if reference is None:
                reference = output
            else:
                assert output.dtype == reference.dtype
                assert np.array_equal(output, reference), \
                    f"{name} backend output differs from the interpreter"
        return reference, rows

    _, seconds = run_once(benchmark, compare_backends)
    vs_interp = seconds["interp"] / max(seconds["compiled"], 1e-9)
    vs_numpy = seconds["numpy"] / max(seconds["compiled"], 1e-9)
    print_table(
        "Figure 3 backend check: compiled backend, breadth-first schedule",
        [{"backend": name, "seconds": s} for name, s in seconds.items()],
        ["backend", "seconds"],
    )
    assert vs_interp >= 10.0, \
        f"compiled backend is only {vs_interp:.1f}x faster than the interpreter"
    assert vs_numpy >= 1.5, \
        f"compiled backend is only {vs_numpy:.2f}x faster than the numpy backend"
