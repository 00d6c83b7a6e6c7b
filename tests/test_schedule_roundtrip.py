"""Schedule round-tripping: for every app x named schedule, the serialized
first-class Schedule must reproduce scheduling the Funcs directly, bit-for-bit.

The pipeline under test:

    mutation path:  schedule_funcs(make_app(), name).compile(target="compiled")
    value path:     Schedule.from_funcs(mutated funcs) -> JSON ->
                    Schedule.from_json -> fresh_app.pipeline()
                    .compile(schedule=..., target=backend)

For each backend the value path must emit the mutation path's program text:
``source()`` renders the lowered statement every backend executes, so
identical text is a stronger check than equal output.  Both paths then run
on ``compiled`` (once per app x schedule) and must agree bit for bit —
schedules are data, and serialization must not change what (or how)
anything computes.
"""

import functools

import numpy as np
import pytest

from repro import Schedule, Target
from repro.apps import (
    make_bilateral_grid,
    make_blur,
    make_camera_pipe,
    make_histogram_equalize,
    make_interpolate,
    make_local_laplacian,
    make_unsharp,
)

from conftest import schedule_funcs


def _blur():
    rng = np.random.default_rng(11)
    return make_blur(rng.random((24, 16)).astype(np.float32))


def _unsharp():
    rng = np.random.default_rng(12)
    return make_unsharp(rng.random((16, 12)).astype(np.float32), strength=1.5)


def _histogram():
    rng = np.random.default_rng(13)
    return make_histogram_equalize((rng.random((16, 12)) * 256).astype(np.uint8))


def _bilateral():
    rng = np.random.default_rng(14)
    return make_bilateral_grid(rng.random((16, 16)).astype(np.float32),
                               s_sigma=8, r_sigma=0.2)


def _camera():
    rng = np.random.default_rng(15)
    return make_camera_pipe((rng.random((24, 16)) * 1024).astype(np.uint16))


def _interpolate():
    rng = np.random.default_rng(16)
    rgba = rng.random((16, 12, 4)).astype(np.float32)
    rgba[:, :, 3] = (rng.random((16, 12)) > 0.5).astype(np.float32)
    return make_interpolate(rgba, levels=2)


def _local_laplacian():
    rng = np.random.default_rng(17)
    return make_local_laplacian(rng.random((24, 16)).astype(np.float32),
                                levels=2, intensity_levels=4)


_MAKERS = {
    "blur": _blur,
    "unsharp": _unsharp,
    "histogram_equalize": _histogram,
    "bilateral_grid": _bilateral,
    "camera_pipe": _camera,
    "interpolate": _interpolate,
    "local_laplacian": _local_laplacian,
}


def _cases():
    for app_name, maker in _MAKERS.items():
        for schedule_name in sorted(maker().schedules):
            for backend in ("interp", "numpy"):
                yield pytest.param(app_name, schedule_name, backend,
                                   id=f"{app_name}-{schedule_name}-{backend}")


@functools.lru_cache(maxsize=None)
def _mutated(app_name, schedule_name):
    """The mutation path on ``compiled``: its schedule, source and output."""
    mutated = schedule_funcs(_MAKERS[app_name](), schedule_name)
    compiled = mutated.compile(target="compiled")
    return Schedule.from_funcs(mutated.funcs), compiled.source(), compiled.run()


def _replay(app_name, schedule_name, target):
    """The value path: the captured schedule through JSON, replayed on a
    fresh, un-mutated algorithm graph, non-destructively."""
    captured = _mutated(app_name, schedule_name)[0]
    restored = Schedule.from_json(captured.to_json())
    assert restored == captured and restored.digest() == captured.digest()
    fresh = _MAKERS[app_name]()
    return fresh.pipeline().compile(fresh.default_size, schedule=restored,
                                    target=target)


@functools.lru_cache(maxsize=None)
def _replayed_output(app_name, schedule_name):
    return _replay(app_name, schedule_name, "compiled").run()


@pytest.mark.parametrize("app_name, schedule_name, backend", _cases())
def test_schedule_round_trip_is_bit_identical(app_name, schedule_name, backend):
    _, source, reference = _mutated(app_name, schedule_name)
    replayed = _replay(app_name, schedule_name, Target(backend=backend))
    assert replayed.source() == source, (
        f"{schedule_name!r} for {backend!r}: the serialized schedule lowers to "
        "a different program than the mutation-based path")
    output = _replayed_output(app_name, schedule_name)
    assert output.dtype == reference.dtype
    assert np.array_equal(output, reference), (
        f"{schedule_name!r} on 'compiled': serialized-schedule output differs "
        "from the mutation-based path"
    )


@pytest.mark.parametrize("app_name", sorted(_MAKERS))
def test_named_schedules_are_first_class_data(app_name):
    """Every named app schedule is Schedule data and survives dict/JSON
    round trips."""
    app = _MAKERS[app_name]()
    for name in app.schedules:
        schedule = app.named_schedule(name)
        assert isinstance(schedule, Schedule)
        assert Schedule.from_json(schedule.to_json()) == schedule


# ---------------------------------------------------------------------------
# generated (fuzz) schedules: round-trip must hold off the beaten path too
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fuzz_pipeline_and_schedules(pipeline_seed):
    """10 generated schedules over one generated pipeline, built lazily and
    cached: generation costs up to ~25 symbolic lowerings per schedule draw,
    which must not be paid at collection time (or twice across the two
    tests)."""
    from repro.fuzz import generate_pipeline, generate_schedules

    built = generate_pipeline(pipeline_seed)
    return built, generate_schedules(built, pipeline_seed, count=10)


_FUZZ_PIPELINE_SEEDS = (101, 202, 303, 404, 505)


@pytest.mark.parametrize("pipeline_seed", _FUZZ_PIPELINE_SEEDS)
@pytest.mark.parametrize("index", range(10))
def test_generated_schedule_json_roundtrip_digest_stable(pipeline_seed, index):
    """to_json -> from_json is the identity (digest included) for schedules
    nobody wrote by hand: reorders, guarded tails, odd factors and all."""
    _, schedules = _fuzz_pipeline_and_schedules(pipeline_seed)
    schedule = schedules[index]
    restored = Schedule.from_json(schedule.to_json())
    assert restored == schedule
    assert restored.digest() == schedule.digest()
    # A second round trip through plain dicts stays stable too.
    assert Schedule.from_dict(restored.to_dict()).digest() == schedule.digest()


@pytest.mark.parametrize("pipeline_seed", _FUZZ_PIPELINE_SEEDS)
def test_generated_schedule_roundtrip_realize_identical(pipeline_seed):
    """The restored schedule emits the original's program text and realizes
    bit-identically on ``compiled`` (fresh Pipeline per side, so nothing is
    shared via the compile cache)."""
    from repro.pipeline import Pipeline

    built, schedules = _fuzz_pipeline_and_schedules(pipeline_seed)
    sizes = [9, 6]
    for schedule in schedules:
        restored = Schedule.from_json(schedule.to_json())
        a, b = (Pipeline(built.output).compile(sizes, schedule=s, target="compiled")
                for s in (schedule, restored))
        assert a.source() == b.source()
        a, b = a.run(), b.run()
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
