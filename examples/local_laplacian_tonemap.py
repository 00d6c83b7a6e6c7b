"""Tone-map an image with local Laplacian filters (the paper's flagship pipeline).

Builds the multi-pyramid, data-dependent pipeline of Figure 1, runs it with
the naive and the tuned schedule, verifies they agree, and compares their
machine-model cost.

Run with:  python examples/local_laplacian_tonemap.py
"""

import numpy as np

from repro.apps import make_local_laplacian
from repro.machine import XEON_W3520, estimate_cost
from repro.metrics import analyze_pipeline


def make_test_image(width: int = 64, height: int = 48) -> np.ndarray:
    """A synthetic HDR-ish test image: a bright window over a dark gradient."""
    ys, xs = np.meshgrid(np.linspace(0, 1, height), np.linspace(0, 1, width))
    image = 0.15 * xs + 0.05 * ys
    image[width // 4: width // 2, height // 4: height // 2] += 0.7
    noise = np.random.default_rng(7).normal(0, 0.02, size=image.shape)
    return np.clip(image + noise, 0.0, 1.0).astype(np.float32)


def main() -> None:
    image = make_test_image()
    levels, intensity_levels = 3, 4

    app = make_local_laplacian(image, levels=levels, intensity_levels=intensity_levels,
                               alpha=1.0, beta=0.6)
    stats = analyze_pipeline(app.output, name="local_laplacian")
    print(f"pipeline: {stats.num_functions} functions, {stats.num_stencils} stencils, "
          f"structure: {stats.structure()}")

    # One algorithm graph, two schedules applied non-destructively.
    naive, tuned = app.named_schedule("breadth_first"), app.named_schedule("tuned")
    out_naive = app.compile(naive).run()
    out_tuned = app.compile(tuned).run()
    print("outputs agree:", bool(np.allclose(out_naive, out_tuned, atol=1e-4)))
    print(f"input  contrast (std): {image.std():.4f}")
    print(f"output contrast (std): {out_tuned.std():.4f}")

    cost_naive = estimate_cost(app.pipeline(), app.default_size, schedule=naive,
                               profile=XEON_W3520)
    cost_tuned = estimate_cost(app.pipeline(), app.default_size, schedule=tuned,
                               profile=XEON_W3520)
    print(f"machine model, naive schedule: {cost_naive.milliseconds:.2f} ms")
    print(f"machine model, tuned schedule: {cost_tuned.milliseconds:.2f} ms "
          f"({cost_naive.milliseconds / cost_tuned.milliseconds:.2f}x faster)")


if __name__ == "__main__":
    main()
