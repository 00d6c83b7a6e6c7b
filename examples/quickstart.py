"""Quickstart: the two-stage blur of Section 3.1 and a first taste of scheduling.

Run with:  python examples/quickstart.py
"""

import time

import numpy as np

from repro.lang import Buffer, Func, Var, repeat_edge
from repro.machine import XEON_W3520, estimate_cost
from repro.pipeline import Pipeline


def main() -> None:
    # --- the algorithm: what to compute -----------------------------------
    rng = np.random.default_rng(0)
    image = rng.random((256, 192)).astype(np.float32)

    input_buffer = Buffer(image, name="input")
    clamped = repeat_edge(input_buffer)          # boundary condition as a stage

    x, y = Var("x"), Var("y")
    blur_x, blur_y = Func("blur_x"), Func("blur_y")
    blur_x[x, y] = (clamped[x - 1, y] + clamped[x, y] + clamped[x + 1, y]) / 3.0
    blur_y[x, y] = (blur_x[x, y - 1] + blur_x[x, y] + blur_x[x, y + 1]) / 3.0

    # --- a first schedule: how to compute it --------------------------------
    xo, yo, xi, yi = Var("xo"), Var("yo"), Var("xi"), Var("yi")
    blur_y.tile(x, y, xo, yo, xi, yi, 32, 32).parallel(yo).vectorize(xi, 4)
    blur_x.compute_at(blur_y, xo).vectorize(x, 4)

    # --- run it --------------------------------------------------------------
    result = blur_y.realize([64, 48])
    print("output shape:", result.shape)
    print("output mean :", float(result.mean()))

    # --- pick a backend -------------------------------------------------------
    # The same lowered pipeline can run on the scalar interpreter ("interp",
    # the default) or the vectorized NumPy backend ("numpy"), which batches
    # innermost loops into whole-array operations.  Output is bit-identical.
    pipeline = Pipeline(blur_y)
    start = time.perf_counter()
    interp_result = pipeline.compile([256, 192], target="interp").run()
    interp_seconds = time.perf_counter() - start
    start = time.perf_counter()
    numpy_result = pipeline.compile([256, 192], target="numpy").run()
    numpy_seconds = time.perf_counter() - start
    assert np.array_equal(interp_result, numpy_result)
    print(f"\ninterp backend: {interp_seconds * 1000:.1f} ms, "
          f"numpy backend: {numpy_seconds * 1000:.1f} ms "
          f"({interp_seconds / numpy_seconds:.0f}x faster, bit-identical)")

    # --- inspect what the compiler generated ---------------------------------
    print("\nSynthesized loop nest (truncated):")
    nest = Pipeline(blur_y).print_loop_nest()
    print("\n".join(nest.splitlines()[:25]))

    # --- estimate performance on the modelled machine -------------------------
    report = estimate_cost(Pipeline(blur_y), [64, 48], profile=XEON_W3520)
    print(f"\nMachine-model estimate on {report.profile_name}: "
          f"{report.milliseconds:.3f} ms ({report.cycles:.0f} cycles)")


if __name__ == "__main__":
    main()
