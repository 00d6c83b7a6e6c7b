"""Wall-clock backend gates: every faster backend is bit-identical to the
slower one it replaces, and faster by a floor well below its usual margin.

* NumPy >= 10x the interpreter on the breadth-first 128x96 blur, compile
  included (typically ~40-70x);
* compiled (threads=1) >= 10x the interpreter and >= 1.5x NumPy, each timed
  on one run after a warm-up run (typically 3-6x NumPy);
* native (threads=1) >= 5x compiled (threads=1), as the geometric mean over
  every named blur schedule of the median of 5 runs (typically ~100x);
* 4 threads never change a byte, and cost at most 2.5x serial on the
  compiled thread pool (speedup > 0.4, typically ~1x) whatever the cores.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _image_assertions import assert_images_identical
from repro.apps import BLUR_SCHEDULES, make_blur
from repro.runtime import Target

#: The Figure 3 blur size.
SHAPE = (128, 96)
#: The thread-scaling blur size, and the parallel schedules it times.
SCALING_SHAPE = (384, 384)
SCALING_SCHEDULES = ("tuned", "sliding_in_tiles")


def _image(shape):
    return np.random.default_rng(20130616).random(shape).astype(np.float32)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_numpy_and_compiled_beat_the_interpreter():
    app = make_blur(_image(SHAPE))
    schedule = app.named_schedule("breadth_first")

    def compiled_for(target):
        return app.pipeline().compile(list(SHAPE), schedule=schedule,
                                      target=target)

    interp, interp_compile_s = _timed(lambda: compiled_for(Target("interp")))
    reference, interp_run_s = _timed(interp.run)
    numpy_backend, numpy_compile_s = _timed(lambda: compiled_for(Target("numpy")))
    via_numpy, numpy_first_s = _timed(numpy_backend.run)
    _, numpy_warm_s = _timed(numpy_backend.run)
    compiled = compiled_for(Target("compiled", threads=1))
    compiled.run()
    via_compiled, compiled_warm_s = _timed(compiled.run)

    assert_images_identical(via_numpy, reference)
    assert_images_identical(via_compiled, reference)
    cold_numpy = (interp_compile_s + interp_run_s) / \
        (numpy_compile_s + numpy_first_s)
    assert cold_numpy >= 10.0, f"numpy is only {cold_numpy:.1f}x the interpreter"
    vs_interp = interp_run_s / compiled_warm_s
    assert vs_interp >= 10.0, f"compiled is only {vs_interp:.1f}x the interpreter"
    vs_numpy = numpy_warm_s / compiled_warm_s
    assert vs_numpy >= 1.5, f"compiled is only {vs_numpy:.2f}x numpy"


def _median_run_seconds(compiled, repeats=5):
    return float(np.median([_timed(compiled.run)[1] for _ in range(repeats)]))


@pytest.mark.native
def test_native_beats_compiled_5x_across_the_blur_schedules():
    app = make_blur(_image(SHAPE))
    pipeline = app.pipeline()
    speedups = {}
    for name in BLUR_SCHEDULES:
        schedule = app.named_schedule(name)
        seconds = {}
        for backend in ("compiled", "native"):
            compiled = pipeline.compile(list(SHAPE), schedule=schedule,
                                        target=Target(backend, threads=1))
            seconds[backend] = _median_run_seconds(compiled)
        speedups[name] = seconds["compiled"] / seconds["native"]
    geomean = float(np.exp(np.log(list(speedups.values())).mean()))
    assert geomean >= 5.0, f"native geomean {geomean:.2f}x: {speedups}"


@pytest.mark.parametrize("backend", [
    "compiled", pytest.param("native", marks=pytest.mark.native)])
def test_threads_change_no_byte_and_cost_little(backend):
    app = make_blur(_image(SCALING_SHAPE))
    pipeline = app.pipeline()
    for name in SCALING_SCHEDULES:
        schedule = app.named_schedule(name)
        reference = pipeline.compile(
            list(SCALING_SHAPE), schedule=schedule,
            target=Target("compiled", threads=1)).run()
        seconds = {}
        for workers in (1, 2, 4):
            compiled = pipeline.compile(list(SCALING_SHAPE), schedule=schedule,
                                        target=Target(backend, threads=workers))
            compiled.run()  # warm the pool outside the timed run
            output, seconds[workers] = _timed(compiled.run)
            assert output.tobytes() == reference.tobytes(), \
                f"{name}: {backend} threads={workers} differs from serial"
        if backend == "compiled":
            speedup = seconds[1] / seconds[4]
            assert speedup > 0.4, f"{name}: 4 threads cost {1 / speedup:.1f}x serial"
