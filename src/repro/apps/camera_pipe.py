"""A camera raw-processing pipeline (the Frankencamera-style pipeline of the paper).

The pipeline turns raw Bayer-mosaic sensor data into a color image:

  hot-pixel suppression -> deinterleave into the four Bayer planes ->
  demosaic (interpolate the two missing colors at every site, a web of small
  interleaved stencils) -> color-correction matrix -> gamma curve applied
  through a look-up table (a data-dependent gather).

The demosaicking alone contributes over a dozen interdependent stencil stages,
which is what makes the camera pipeline the paper's example of a "complex"
graph (Figure 6: 32 functions, 22 stencils).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.common import AppPipeline
from repro.core.pipeline_schedule import Schedule, as_schedule
from repro.lang import Buffer, Func, RDom, Var, cast, clamp, repeat_edge, select
from repro.types import Float, Int, UInt

__all__ = ["make_camera_pipe"]


def _breadth_first_schedule(funcs: Dict[str, Func]) -> Schedule:
    s = Schedule()
    for name, func in funcs.items():
        if name not in ("processed",) and not name.endswith("_clamped"):
            s = s.func(func.name).compute_root()
    return as_schedule(s)


def _tuned_schedule(funcs: Dict[str, Func]) -> Schedule:
    """Fuse the demosaic web into strips of output scanlines, as the paper's tuner does.

    Blocks of scanlines are distributed across threads; the whole chain from
    hot-pixel suppression through color correction is computed per strip (good
    producer-consumer locality), the LUT is computed once at the root.
    """
    s = (Schedule()
         .func("processed").split("y", "yo", "yi", 8).parallel("yo").vectorize("x", 4)
         .func("corrected").compute_at("processed", "yo").vectorize("x", 4))
    for name in ("demosaic_r", "demosaic_g", "demosaic_b"):
        s = s.func(funcs[name].name).compute_at("processed", "yo").vectorize("x", 4)
    for name in ("g_at_r", "g_at_b", "r_at_gr", "b_at_gr", "r_at_gb", "b_at_gb",
                 "r_at_b", "b_at_r"):
        s = s.func(funcs[name].name).compute_at("processed", "yo")
    s = (s.func("denoised").compute_at("processed", "yo").vectorize("x", 4)
         .func("curve").compute_root()
         # Channels inside the strip: its demosaic is computed once, not per c.
         .func("processed").reorder("xo", "yi", "c", "yo"))
    return as_schedule(s)


def make_camera_pipe(raw: np.ndarray, color_temp: float = 3700.0, gamma: float = 2.2,
                     contrast: float = 50.0, name: str = "camera_pipe") -> AppPipeline:
    """Build the camera pipeline over a uint16 Bayer raw image of shape (width, height).

    The Bayer pattern is GR/BG: green at (even, even) and (odd, odd), red at
    (odd, even), blue at (even, odd).
    """
    raw = np.ascontiguousarray(raw, dtype=np.uint16)
    width, height = raw.shape
    input_buffer = Buffer(raw, name="raw_input")
    clamped = repeat_edge(input_buffer, name="raw_clamped")

    x, y, c, i = Var("x"), Var("y"), Var("c"), Var("i")

    # --- hot pixel suppression -------------------------------------------------
    from repro.lang import max_ as emax

    denoised = Func("denoised")
    as_int = cast(Int(32), clamped[x, y])
    neighbor_max = cast(
        Int(32),
        emax(emax(clamped[x - 2, y], clamped[x + 2, y]),
             emax(clamped[x, y - 2], clamped[x, y + 2])),
    )
    denoised[x, y] = clamp(as_int, 0, neighbor_max)

    # --- deinterleave the Bayer planes ------------------------------------------
    g_gr = Func("g_gr")   # green on the red rows
    r_r = Func("r_r")     # red
    b_b = Func("b_b")     # blue
    g_gb = Func("g_gb")   # green on the blue rows
    g_gr[x, y] = denoised[2 * x, 2 * y]
    r_r[x, y] = denoised[2 * x + 1, 2 * y]
    b_b[x, y] = denoised[2 * x, 2 * y + 1]
    g_gb[x, y] = denoised[2 * x + 1, 2 * y + 1]

    # --- demosaic: interpolate the missing colors --------------------------------
    # Green at red and blue sites (average of the four neighbours).
    g_at_r = Func("g_at_r")
    g_at_r[x, y] = (g_gr[x, y] + g_gr[x + 1, y] + g_gb[x, y] + g_gb[x, y - 1]) / 4
    g_at_b = Func("g_at_b")
    g_at_b[x, y] = (g_gb[x, y] + g_gb[x - 1, y] + g_gr[x, y] + g_gr[x, y + 1]) / 4

    # Red and blue at the green sites (average of the two nearest samples).
    r_at_gr = Func("r_at_gr")
    r_at_gr[x, y] = (r_r[x - 1, y] + r_r[x, y]) / 2
    b_at_gr = Func("b_at_gr")
    b_at_gr[x, y] = (b_b[x, y - 1] + b_b[x, y]) / 2
    r_at_gb = Func("r_at_gb")
    r_at_gb[x, y] = (r_r[x, y] + r_r[x, y + 1]) / 2
    b_at_gb = Func("b_at_gb")
    b_at_gb[x, y] = (b_b[x, y] + b_b[x + 1, y]) / 2

    # Red at blue sites and blue at red sites (average of the four diagonals).
    r_at_b = Func("r_at_b")
    r_at_b[x, y] = (r_r[x - 1, y] + r_r[x, y] + r_r[x - 1, y + 1] + r_r[x, y + 1]) / 4
    b_at_r = Func("b_at_r")
    b_at_r[x, y] = (b_b[x, y - 1] + b_b[x, y] + b_b[x + 1, y - 1] + b_b[x + 1, y]) / 4

    # Reassemble full-resolution R, G, B planes from the 2x2 Bayer quads.
    half_x, half_y = x / 2, y / 2
    is_red_col = (x % 2).eq(1)
    is_blue_row = (y % 2).eq(1)

    demosaic_g = Func("demosaic_g")
    demosaic_g[x, y] = select(
        is_red_col & ~is_blue_row, g_at_r[half_x, half_y],
        select(~is_red_col & is_blue_row, g_at_b[half_x, half_y],
               select(~is_red_col & ~is_blue_row, g_gr[half_x, half_y],
                      g_gb[half_x, half_y])),
    )
    demosaic_r = Func("demosaic_r")
    demosaic_r[x, y] = select(
        is_red_col & ~is_blue_row, r_r[half_x, half_y],
        select(~is_red_col & ~is_blue_row, r_at_gr[half_x, half_y],
               select(is_red_col & is_blue_row, r_at_gb[half_x, half_y],
                      r_at_b[half_x, half_y])),
    )
    demosaic_b = Func("demosaic_b")
    demosaic_b[x, y] = select(
        ~is_red_col & is_blue_row, b_b[half_x, half_y],
        select(~is_red_col & ~is_blue_row, b_at_gr[half_x, half_y],
               select(is_red_col & is_blue_row, b_at_gb[half_x, half_y],
                      b_at_r[half_x, half_y])),
    )

    # --- color correction matrix ---------------------------------------------------
    # A fixed matrix blended by color temperature (simplified from the original).
    alpha = (color_temp - 3200.0) / (7000.0 - 3200.0)

    def blend(a, b):
        return a * alpha + b * (1.0 - alpha)

    matrix = [
        [blend(1.6697, 2.2997), blend(-0.2693, -0.4478), blend(-0.4004, 0.1706), blend(-42.4346, -39.0923)],
        [blend(-0.3576, -0.3826), blend(1.0615, 1.5906), blend(1.5949, -0.2080), blend(-37.1158, -25.4311)],
        [blend(-0.2175, -0.0888), blend(-1.8751, -0.7344), blend(6.9640, 2.2832), blend(-26.6970, -20.0826)],
    ]

    corrected = Func("corrected")
    rgb = [cast(Float(32), demosaic_r[x, y]), cast(Float(32), demosaic_g[x, y]),
           cast(Float(32), demosaic_b[x, y])]
    corrected[x, y, c] = select(
        c.eq(0), matrix[0][0] * rgb[0] + matrix[0][1] * rgb[1] + matrix[0][2] * rgb[2] + matrix[0][3],
        select(c.eq(1),
               matrix[1][0] * rgb[0] + matrix[1][1] * rgb[1] + matrix[1][2] * rgb[2] + matrix[1][3],
               matrix[2][0] * rgb[0] + matrix[2][1] * rgb[1] + matrix[2][2] * rgb[2] + matrix[2][3]),
    )

    # --- gamma curve through a LUT (data-dependent gather) ---------------------------
    lut_size = 1024
    curve = Func("curve")
    value = cast(Float(32), i) / float(lut_size - 1)
    # Gamma curve with a simple contrast S-curve, expressed with the pow intrinsic.
    from repro.lang import pow_

    gamma_curve = pow_(value, 1.0 / gamma)
    s_curve = gamma_curve * (1.0 + contrast / 100.0) - (contrast / 200.0)
    curve[i] = clamp(s_curve * 255.0, 0.0, 255.0)

    processed = Func("processed")
    scaled = clamp(corrected[x, y, c] * (float(lut_size - 1) / 1023.0), 0.0, float(lut_size - 1))
    processed[x, y, c] = curve[cast(Int(32), scaled)]

    funcs = {
        "raw_clamped": clamped,
        "denoised": denoised,
        "g_gr": g_gr, "r_r": r_r, "b_b": b_b, "g_gb": g_gb,
        "g_at_r": g_at_r, "g_at_b": g_at_b,
        "r_at_gr": r_at_gr, "b_at_gr": b_at_gr,
        "r_at_gb": r_at_gb, "b_at_gb": b_at_gb,
        "r_at_b": r_at_b, "b_at_r": b_at_r,
        "demosaic_r": demosaic_r, "demosaic_g": demosaic_g, "demosaic_b": demosaic_b,
        "corrected": corrected, "curve": curve, "processed": processed,
    }
    return AppPipeline(
        name=name,
        output=processed,
        funcs=funcs,
        algorithm_lines=123,
        schedules={
            "breadth_first": _breadth_first_schedule(funcs),
            "tuned": _tuned_schedule(funcs),
        },
        default_size=[width - 4, height - 4, 3],
    )
