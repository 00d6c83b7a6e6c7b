"""The paper's example applications, written in the DSL.

Each module exposes a ``make_*`` constructor returning an :class:`AppPipeline`
(the output Func, the dictionary of stages so schedules can reach them, and
metadata such as the algorithm's line count), plus named schedules — first
class, serializable :class:`~repro.core.Schedule` data (naive breadth-first,
hand-tuned, GPU-style) swept by the benchmarks and compiled by name
(``app.compile(name)``) without touching the app's Funcs.
"""

from repro.apps.common import AppPipeline, downsample_2d, resample_axis, upsample_2d
from repro.apps.blur import make_blur, BLUR_SCHEDULES
from repro.apps.histogram_equalize import make_histogram_equalize, HISTOGRAM_SCHEDULES
from repro.apps.unsharp import make_unsharp, UNSHARP_SCHEDULES
from repro.apps.bilateral_grid import make_bilateral_grid, BILATERAL_GRID_SCHEDULES
from repro.apps.camera_pipe import make_camera_pipe
from repro.apps.interpolate import make_interpolate
from repro.apps.local_laplacian import make_local_laplacian
from repro.apps.video import make_video, video_schedules
from repro.apps.rasterize import make_rasterize, default_primitives, RASTERIZE_SCHEDULES
from repro.apps.pyramid import make_pyramid, pyramid_level_sizes, pyramid_schedules

__all__ = [
    "AppPipeline",
    "downsample_2d",
    "resample_axis",
    "upsample_2d",
    "make_blur",
    "BLUR_SCHEDULES",
    "make_histogram_equalize",
    "HISTOGRAM_SCHEDULES",
    "make_unsharp",
    "UNSHARP_SCHEDULES",
    "make_bilateral_grid",
    "BILATERAL_GRID_SCHEDULES",
    "make_camera_pipe",
    "make_interpolate",
    "make_local_laplacian",
    "make_video",
    "video_schedules",
    "make_rasterize",
    "default_primitives",
    "RASTERIZE_SCHEDULES",
    "make_pyramid",
    "pyramid_level_sizes",
    "pyramid_schedules",
]
