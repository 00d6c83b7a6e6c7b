"""Figure 7 (x86 block): tuned Halide schedules versus baselines, per application.

The paper compares autotuned Halide implementations to expert hand-written C /
SSE implementations: Halide is 1.2x - 4.4x faster while being several times
shorter.  In this reproduction the role of the expert implementation is played
by the numpy references (for the lines-of-code comparison and as correctness
oracles), and the performance comparison is made under the abstract machine
model between the *naive breadth-first* schedule and the *tuned* schedule of
each application — the shape that must hold is that the tuned schedule wins on
every application, by a sizable factor on the stencil-dominated ones.
"""

import inspect

import pytest

from repro.apps import (
    make_bilateral_grid,
    make_blur,
    make_camera_pipe,
    make_interpolate,
    make_local_laplacian,
)
from repro import reference as reference_package
from repro.machine import XEON_W3520, estimate_cost

from conftest import print_table, run_once


def _reference_lines(module_name: str) -> int:
    module = getattr(reference_package, module_name)
    return len(inspect.getsource(inspect.getmodule(module)).splitlines())


@pytest.mark.figure("fig7_x86")
def test_fig7_x86_tuned_vs_naive(benchmark, blur_image, small_gray, raw_image, rgba_image):
    cases = [
        ("blur", lambda: make_blur(blur_image), None, "blur_ref"),
        ("bilateral_grid", lambda: make_bilateral_grid(small_gray), None, "bilateral_grid_ref"),
        ("camera_pipe", lambda: make_camera_pipe(raw_image), [32, 24, 3], "camera_pipe_ref"),
        ("interpolate", lambda: make_interpolate(rgba_image, levels=3), [32, 24, 3],
         "interpolate_ref"),
        ("local_laplacian", lambda: make_local_laplacian(small_gray, levels=3,
                                                         intensity_levels=4), None,
         "local_laplacian_ref"),
    ]

    def measure_all():
        rows = []
        for name, make, size, ref_name in cases:
            app = make()
            sizes = size if size is not None else app.default_size
            naive = estimate_cost(app.pipeline(), sizes, profile=XEON_W3520,
                                  schedule=app.named_schedule("breadth_first"))
            tuned = estimate_cost(app.pipeline(), sizes, profile=XEON_W3520,
                                  schedule=app.named_schedule("tuned"))
            rows.append({
                "pipeline": name,
                "naive_model_ms": naive.milliseconds,
                "tuned_model_ms": tuned.milliseconds,
                "speedup": naive.milliseconds / tuned.milliseconds,
                "lines_halide": app.algorithm_lines,
                "lines_reference": _reference_lines(ref_name),
            })
        return rows

    rows = run_once(benchmark, measure_all)
    print_table("Figure 7 (x86): tuned schedule vs naive baseline (machine model)",
                rows, ["pipeline", "naive_model_ms", "tuned_model_ms", "speedup",
                       "lines_halide", "lines_reference"])

    by_name = {r["pipeline"]: r for r in rows}
    # The tuned schedule wins on every application (the paper's headline shape).
    for name, row in by_name.items():
        assert row["speedup"] > 1.0, f"{name}: tuned schedule should beat breadth-first"
    # Stencil-dominated pipelines gain the most (blur >= 1.2x as in the paper).
    assert by_name["blur"]["speedup"] >= 1.2
    # The algorithm description is never longer than the reference implementation,
    # and is several times shorter for the stencil pipelines.  (The camera pipe's
    # line count is dominated by the demosaic arithmetic, which both versions
    # must spell out, so its ratio is closer to 1 — the paper reports 2x there.)
    for row in rows:
        assert row["lines_halide"] <= row["lines_reference"]
    for name in ("blur", "bilateral_grid", "interpolate", "local_laplacian"):
        assert by_name[name]["lines_halide"] * 2 <= by_name[name]["lines_reference"]
