"""Process synthetic raw sensor data through the camera pipeline.

Demonstrates a "complex" graph (Figure 6): hot-pixel suppression, demosaicking
through a web of interleaved stencils, color correction, and a tone curve
applied through a LUT — then shows how the tuned schedule fuses that web into
tiles of the output.

Run with:  python examples/camera_pipeline.py
"""

import numpy as np

from repro.apps import make_camera_pipe
from repro.machine import XEON_W3520, estimate_cost
from repro.metrics import analyze_pipeline


def make_synthetic_raw(width: int = 64, height: int = 48) -> np.ndarray:
    """A synthetic GR/BG Bayer mosaic of a color gradient scene."""
    xs, ys = np.meshgrid(np.arange(width), np.arange(height), indexing="ij")
    red = 400.0 + 500.0 * xs / width
    green = 300.0 + 400.0 * ys / height
    blue = 600.0 - 300.0 * xs / width
    raw = np.empty((width, height), dtype=np.float64)
    is_red = (xs % 2 == 1) & (ys % 2 == 0)
    is_blue = (xs % 2 == 0) & (ys % 2 == 1)
    raw[:] = green
    raw[is_red] = red[is_red]
    raw[is_blue] = blue[is_blue]
    rng = np.random.default_rng(11)
    raw += rng.normal(0, 5.0, raw.shape)
    # A few hot pixels for the suppression stage to clean up.
    hot = rng.integers(0, raw.size, 10)
    raw.ravel()[hot] = 1023
    return np.clip(raw, 0, 1023).astype(np.uint16)


def main() -> None:
    raw = make_synthetic_raw()
    out_size = [raw.shape[0] - 8, raw.shape[1] - 8, 3]

    app = make_camera_pipe(raw, color_temp=4500.0, gamma=2.2, contrast=40.0)
    stats = analyze_pipeline(app.output, name="camera_pipe")
    print(f"pipeline: {stats.num_functions} functions, {stats.num_stencils} stencils, "
          f"{stats.num_data_dependent} data-dependent stages")

    # One algorithm graph (default parameters), two schedules applied
    # non-destructively.
    camera = make_camera_pipe(raw)
    naive, tuned = camera.named_schedule("breadth_first"), camera.named_schedule("tuned")
    rgb_naive = camera.compile(naive, out_size).run()
    rgb_tuned = camera.compile(tuned, out_size).run()
    print("schedules agree:", bool(np.allclose(rgb_naive, rgb_tuned, atol=1e-3)))
    print("output range   :", float(rgb_tuned.min()), "to", float(rgb_tuned.max()))

    cost_naive = estimate_cost(camera.pipeline(), out_size, schedule=naive,
                               profile=XEON_W3520)
    cost_tuned = estimate_cost(camera.pipeline(), out_size, schedule=tuned,
                               profile=XEON_W3520)
    print(f"machine model, breadth-first: {cost_naive.milliseconds:.2f} ms")
    print(f"machine model, tiled+fused  : {cost_tuned.milliseconds:.2f} ms "
          f"({cost_naive.milliseconds / cost_tuned.milliseconds:.2f}x)")


if __name__ == "__main__":
    main()
