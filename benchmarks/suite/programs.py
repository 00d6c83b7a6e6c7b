"""The benchmark's input programs and the four workloads built from them.

A program is one (app, schedule, size).  Every workload takes its programs
through the same life cycle — build, cold compile, warm restore, LRU hit, run —
and differs in which programs it holds and where its timed window goes, so
every end-to-end and per-layer metric is defined on every workload while each
workload still stresses different layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import apps, reference
from repro.reference.interpolate_ref import interpolate_margin
from repro.reference.local_laplacian_ref import local_laplacian_margin

__all__ = ["App", "APPS", "Program", "Workload", "workloads", "small_programs"]

FULL = (1536, 1024)
#: The --quick size: the smallest that leaves an interior inside
#: local_laplacian's 48-pixel reference margin.
QUICK = (160, 128)
SMALL = (128, 96)
VIDEO = (320, 240)
VIDEO_FRAMES = 240


def _gray(rng, w, h):
    return rng.random((w, h), dtype=np.float32)


def _bytes(rng, w, h):
    return rng.integers(0, 256, (w, h), dtype=np.uint8)


def _raw(rng, w, h):
    return rng.integers(0, 1024, (w + 4, h + 4), dtype=np.uint16)


def _rgba(rng, w, h):
    image = rng.random((w, h, 4), dtype=np.float32)
    image[:, :, 3] = rng.random((w, h)) > 0.5
    return image


def _clip(rng, w, h, frames=VIDEO_FRAMES):
    return rng.random((w, h, frames), dtype=np.float32)


def _make_video(chunk):
    # make_video binds a zero placeholder itself; frames arrive per chunk
    # through realize_stream, so only the spatial shape is used here.
    return lambda shaped: apps.make_video(shaped.shape[0], shaped.shape[1], chunk=chunk)


@dataclass(frozen=True)
class App:
    """How to build one app, feed it, and check it (tolerances and valid-region
    margins are those of ``tests/test_apps.py``)."""

    make: Callable
    input_name: str
    make_input: Callable
    channels: int = 0
    #: ``reference(input, w, h)``; ``None`` marks a compile-and-identity-only app.
    reference: Optional[Callable] = None
    margin: int = 0
    tolerance: float = 1e-4
    #: Share of pixels that may miss ``tolerance``, and by how much at most.
    rare: float = 0.0
    rare_tolerance: float = 0.0

    def sizes(self, w: int, h: int) -> List[int]:
        return [w, h, self.channels] if self.channels else [w, h]


APPS: Dict[str, App] = {
    "blur": App(apps.make_blur, "input", _gray,
                reference=lambda a, w, h: reference.blur_ref(a)),
    "unsharp": App(apps.make_unsharp, "unsharp_input", _gray, tolerance=1e-3,
                   reference=lambda a, w, h: reference.unsharp_ref(a, 1.5)),
    "histogram_equalize": App(apps.make_histogram_equalize, "heq_input", _bytes,
                              tolerance=1e-3,
                              reference=lambda a, w, h: reference.histogram_equalize_ref(a)),
    "pyramid": App(apps.make_pyramid, "input", _gray, tolerance=0.0,
                   reference=lambda a, w, h: reference.pyramid_ref(a, levels=2)),
    "local_laplacian": App(apps.make_local_laplacian, "ll_input", _gray,
                           margin=local_laplacian_margin(4), tolerance=1e-3,
                           reference=lambda a, w, h: reference.local_laplacian_ref(a)),
    # About 1 pixel in 10^5 lands within float rounding of a tone-curve LUT
    # boundary and reads the neighbouring entry (47 of 4.7 M values at 1 MP,
    # up to one LUT step of 1.45 in 255); the 40x32 image of tests/test_apps.py never hits one.
    "camera_pipe": App(apps.make_camera_pipe, "raw_input", _raw, channels=3,
                       margin=2, tolerance=1e-2, rare=1e-4, rare_tolerance=1.5,
                       reference=lambda a, w, h: reference.camera_pipe_ref(a, w, h)),
    "interpolate": App(apps.make_interpolate, "interp_input", _rgba, channels=3,
                       margin=interpolate_margin(4), tolerance=1e-3,
                       reference=lambda a, w, h: reference.interpolate_ref(a)),
    # Its NumPy reference takes ~26 s at 1 MP: outputs are checked for
    # bit-identity between the cold-compiled and the restored program only.
    "bilateral_grid": App(apps.make_bilateral_grid, "bg_input", _gray),
    # Streamed, never run() call by call; bit-identical to video_ref by contract.
    "video": App(_make_video(8), "frames", _clip, channels=8, tolerance=0.0,
                 reference=lambda a, w, h: reference.video_ref(a)),
    "video_chunk1": App(_make_video(1), "frames", partial(_clip, frames=48), channels=1,
                        tolerance=0.0,
                        reference=lambda a, w, h: reference.video_ref(a)),
}


@dataclass(frozen=True)
class Program:
    app: str
    schedule: str
    width: int
    height: int
    #: Inputs rotated per call; the first output for each is checked against
    #: the reference, every later one against that verified output.
    inputs: int = 2

    @property
    def label(self) -> str:
        return f"{self.app}/{self.schedule}@{self.width}x{self.height}"

    @property
    def streamed(self) -> bool:
        return self.app.startswith("video")

    @property
    def spec(self) -> App:
        return APPS[self.app]


@dataclass(frozen=True)
class Workload:
    name: str
    programs: Tuple[Program, ...]
    #: Cold rounds (fresh apps, empty cache, every program compiled) inside
    #: the timed window, on top of the set-up's two.
    window_rounds: int
    #: The series whose traced/untraced medians give ``trace.overhead_pct``.
    main: str
    #: Also push the frames through ``realize_batch`` and ``realize_stream``.
    small_calls: bool = False


def small_programs(quick: bool) -> Tuple[Program, ...]:
    """The small-call programs: 64 frames of blur/tuned 128x96, and the video
    app streamed in chunks of 8 (240 frames) and of 1 (48 frames)."""
    vw, vh = SMALL if quick else VIDEO
    return (Program("blur", "tuned", *SMALL, inputs=64),
            Program("video", "streaming", vw, vh, inputs=1),
            Program("video_chunk1", "streaming", vw, vh, inputs=1))


def workloads(quick: bool) -> Dict[str, Workload]:
    """The four workloads (``BENCHMARK.json`` records why each was chosen);
    ``quick`` shrinks the 1 MP images to 160x128."""
    w, h = QUICK if quick else FULL

    def programs(*pairs, inputs=2):
        return tuple(Program(app, schedule, w, h, inputs) for app, schedule in pairs)

    table = [
        Workload(
            "stencil_1mp",
            programs(("blur", "tuned"), ("unsharp", "tuned"),
                     ("histogram_equalize", "tuned"), ("pyramid", "per_level")),
            window_rounds=6, main="run"),
        Workload(
            "deep_1mp",
            programs(("local_laplacian", "tuned"), ("camera_pipe", "tuned"),
                     ("interpolate", "tuned")),
            window_rounds=2, main="run"),
        Workload(
            "compile_sweep",
            programs(("local_laplacian", "tuned"), ("camera_pipe", "tuned"),
                     ("bilateral_grid", "tuned"), ("interpolate", "tuned"), inputs=1),
            window_rounds=2, main="cold"),
        Workload(
            "small_frames",
            small_programs(quick)[:2],
            window_rounds=6, main="run", small_calls=True),
    ]
    return {workload.name: workload for workload in table}
