"""Shared building blocks for the example applications.

``downsample_2d`` / ``upsample_2d`` implement the [1 3 3 1] resampling kernels
shown in Figure 1 of the paper (the DOWN/UP boxes of the local Laplacian
pipeline), and :class:`AppPipeline` is the uniform wrapper the benchmarks and
examples consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.pipeline_schedule import Schedule, ScheduleBuilder, as_schedule
from repro.lang import Func, Var, cast, clamp
from repro.pipeline import CompiledPipeline, Pipeline
from repro.types import Float

__all__ = ["AppPipeline", "downsample_2d", "upsample_2d", "resample_axis"]


@dataclass
class AppPipeline:
    """An application: its output stage, all named stages, and metadata."""

    name: str
    output: Func
    #: All stages by name, so schedules can address them.
    funcs: Dict[str, Func]
    #: Number of lines of algorithm code (the Figure 7 "lines Halide" column).
    algorithm_lines: int = 0
    #: Named schedules, as first-class :class:`Schedule` data.
    schedules: Dict[str, Union[Schedule, ScheduleBuilder]] = field(default_factory=dict)
    #: Default realization sizes used by tests and benchmarks.
    default_size: Optional[List[int]] = None

    def __post_init__(self):
        #: One long-lived Pipeline per app, so its compilation cache is
        #: shared by every compile() call on this AppPipeline.
        self._pipeline = Pipeline(self.output)

    def pipeline(self) -> Pipeline:
        return self._pipeline

    # ------------------------------------------------------------------
    # schedules
    # ------------------------------------------------------------------
    def named_schedule(self, name: str) -> Schedule:
        """One of the named schedules, as first-class :class:`Schedule` data."""
        if name not in self.schedules:
            raise KeyError(f"app {self.name!r} has no schedule {name!r}; "
                           f"available: {sorted(self.schedules)}")
        return as_schedule(self.schedules[name])

    def _coerce_schedule(self, schedule):
        """Accept a schedule name, Schedule data, or None."""
        if isinstance(schedule, str) and not schedule.lstrip().startswith("{"):
            # A plain string is a named schedule (JSON text passes through).
            return self.named_schedule(schedule)
        return schedule

    # ------------------------------------------------------------------
    # compilation / execution
    # ------------------------------------------------------------------
    def compile(self, schedule=None, sizes=None, target=None,
                options=None) -> CompiledPipeline:
        """Compile the app under a schedule name (or Schedule value) and target.

        Non-destructive: the app's Funcs are not mutated, so many schedules
        can be compiled (and their CompiledPipelines held) concurrently from
        this one algorithm graph.  Without ``schedule``, the schedules set
        directly on the app's Funcs are used.  ``sizes`` defaults to
        :attr:`default_size`.
        """
        sizes = sizes if sizes is not None else self.default_size
        return self.pipeline().compile(sizes, schedule=self._coerce_schedule(schedule),
                                       target=target, options=options)


def downsample_2d(source: Func, name: str) -> Func:
    """Downsample by 2x in both dimensions with the [1 3 3 1] kernel of Figure 1.

    The result at (x, y) draws from source pixels around (2x, 2y).  Extra
    dimensions of ``source`` (e.g. the intensity-level dimension of the local
    Laplacian pyramids) are passed through unchanged.
    """
    x, y = Var("x"), Var("y")
    extra = [Var(f"e{i}") for i in range(max(0, source.dimensions() - 2))]
    downx = Func(f"{name}_downx")
    downy = Func(f"{name}_downy")
    downx[(x, y, *extra)] = (
        source[(2 * x - 1, y, *extra)]
        + 3.0 * source[(2 * x, y, *extra)]
        + 3.0 * source[(2 * x + 1, y, *extra)]
        + source[(2 * x + 2, y, *extra)]
    ) / 8.0
    downy[(x, y, *extra)] = (
        downx[(x, 2 * y - 1, *extra)]
        + 3.0 * downx[(x, 2 * y, *extra)]
        + 3.0 * downx[(x, 2 * y + 1, *extra)]
        + downx[(x, 2 * y + 2, *extra)]
    ) / 8.0
    return downy


def resample_axis(source, name: str, num: int, den: int, src_size: int,
                  axis: int = 0) -> Func:
    """Resample one axis of a 2-D stage by the (possibly non-integer) rate
    ``num / den`` with a clamped two-tap gather.

    The result at coordinate ``c`` reads ``source`` at the *computed*
    coordinate ``clamp((c * num) / den, 0, src_size - 1)`` and the next
    sample, linearly interpolated by the exact fractional part
    ``((c * num) % den) / den``.  ``source`` may be a :class:`~repro.lang.Func`
    or a :class:`~repro.lang.Buffer`; ``src_size`` is its extent along
    ``axis`` (clamp bounds must be build-time constants, which is what makes
    the gather's footprint inferable).
    """
    x, y = Var("x"), Var("y")
    f = Func(name)
    c = x if axis == 0 else y
    scaled = c * int(num)
    base = scaled / int(den)
    frac = cast(Float(32), scaled % int(den)) / float(den)
    hi = int(src_size) - 1

    def at(coord):
        return (coord, y) if axis == 0 else (x, coord)

    a = source[at(clamp(base, 0, hi))]
    b = source[at(clamp(base + 1, 0, hi))]
    f[x, y] = a * (1.0 - frac) + b * frac
    return f


def upsample_2d(source: Func, name: str) -> Func:
    """Upsample by 2x in both dimensions with linear interpolation ([1 3 3 1] / 4)."""
    x, y = Var("x"), Var("y")
    extra = [Var(f"e{i}") for i in range(max(0, source.dimensions() - 2))]
    upx = Func(f"{name}_upx")
    upy = Func(f"{name}_upy")
    upx[(x, y, *extra)] = 0.25 * source[((x // 2) - 1 + 2 * (x % 2), y, *extra)] + \
        0.75 * source[(x // 2, y, *extra)]
    upy[(x, y, *extra)] = 0.25 * upx[(x, (y // 2) - 1 + 2 * (y % 2), *extra)] + \
        0.75 * upx[(x, y // 2, *extra)]
    return upy
