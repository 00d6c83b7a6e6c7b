"""The native compile-to-C backend.

The contract under test:

* **Bit-identical parity** — for every application and every named schedule,
  ``Target("native")`` produces output bit-identical to the scalar
  interpreter (no tolerance; the C emitter reproduces NumPy's runtime
  promotion semantics exactly).
* **Determinism under threads** — parallel schedules produce identical bytes
  run twice at ``threads=4`` and identical bytes to the serial run: OpenMP
  chunking cannot change any value.
* **Warm starts** — a fresh Pipeline over the same persistent cache loads
  the stored ``.so`` with zero lowerings *and* zero C-compiler invocations;
  an evicted blob degrades to recompiling the stored C source (still zero
  lowerings).
* **Toolchain UX** — a missing compiler raises one clear, actionable
  :class:`~repro.codegen.c_toolchain.ToolchainError` at ``compile()`` time.
* **Streaming** — ``realize_stream`` works unchanged on the native backend
  (window-2 video app, bit-identical to the scalar reference).

Everything that needs a working C compiler is marked ``@pytest.mark.native``
and auto-skips (via ``conftest``) when none is on PATH; the toolchain-UX and
pure-codegen tests run everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from _image_assertions import assert_images_identical
from repro.apps import make_blur, make_video
from repro.apps.video import DEFAULT_WINDOW
from repro.codegen import c_toolchain
from repro.codegen.c_backend import NativeExecutor, generate_c_source
from repro.codegen.c_toolchain import ToolchainError
from repro.pipeline import Pipeline
from repro.reference import video_ref
from repro.runtime import backend_names, create_executor, get_backend
from repro.runtime.target import Target
from repro.streaming import realize_stream

from test_compiled_backend import _app_cases, _interp_reference, _parity_cases

pytestmark = []  # per-test marks below; module stays importable everywhere


# ---------------------------------------------------------------------------
# parity: every app x every named schedule, bit-identical to the interpreter
# ---------------------------------------------------------------------------

@pytest.mark.native
@pytest.mark.parametrize("app_name, schedule", _parity_cases())
def test_native_parity_with_interpreter(app_name, schedule):
    app, sizes = _app_cases()[app_name]()
    reference = _interp_reference(app_name, schedule)
    via_native = app.compile(schedule, sizes, target=Target("native")).run()
    assert_images_identical(via_native, reference)


@pytest.mark.native
@pytest.mark.parametrize("app_name", sorted(_app_cases()))
def test_native_parallel_schedules_are_deterministic(app_name):
    """Identical bytes across repeated threads=4 runs and vs threads=1."""
    maker = _app_cases()[app_name]
    app, sizes = maker()
    for schedule in sorted(app.schedules):
        compiled = app.compile(schedule=schedule, sizes=sizes,
                               target=Target("native", threads=4))
        first = compiled.run()
        second = compiled.run()
        serial = app.compile(schedule, sizes,
                             target=Target("native", threads=1)).run()
        assert first.tobytes() == second.tobytes(), \
            f"{app_name}/{schedule}: threads=4 runs differ"
        assert_images_identical(serial, first)


# ---------------------------------------------------------------------------
# streaming: realize_stream unchanged on native (window-2 video app)
# ---------------------------------------------------------------------------

@pytest.mark.native
def test_native_streaming_parity_window2():
    rng = np.random.default_rng(42)
    width, height = 16, 12
    frames = (rng.random((width, height, 10)) * 4.0).astype(np.float32)
    assert DEFAULT_WINDOW == 2  # the paper's two-frame temporal window
    app = make_video(width, height, chunk=4)
    compiled = app.compile("streaming_folded", target=Target("native"))
    out = list(realize_stream(compiled, frames))
    got = np.stack(out, axis=2)
    assert got.tobytes() == video_ref(frames, DEFAULT_WINDOW).tobytes()


# ---------------------------------------------------------------------------
# persistent cache: warm starts load machine code, degrade gracefully
# ---------------------------------------------------------------------------

def _blur_app():
    rng = np.random.default_rng(1)
    return make_blur(rng.random((32, 20)).astype(np.float32))


@pytest.mark.native
def test_warm_start_zero_lowerings_zero_compiles(tmp_path):
    app = _blur_app()
    cold = Pipeline(app.output, disk_cache=tmp_path)
    sched = app.named_schedule("tuned")
    reference = cold.compile([32, 20], schedule=sched, target="interp").run()
    out = cold.compile([32, 20], schedule=sched, target=Target("native")).run()
    assert_images_identical(out, reference)
    assert cold.disk_cache_info().stores >= 2  # JSON entry + .so blob
    assert any(p.suffix == ".so" for p in tmp_path.iterdir())

    before = c_toolchain.compile_count
    warm = Pipeline(_blur_app().output, disk_cache=tmp_path)
    out2 = warm.compile([32, 20], schedule=sched, target=Target("native")).run()
    assert_images_identical(out2, reference)
    assert warm._lowerings == 0, "warm start must not lower"
    assert c_toolchain.compile_count == before, "warm start must not compile"
    assert warm.disk_cache_info().hits == 1


@pytest.mark.native
def test_evicted_blob_degrades_to_source_recompile(tmp_path):
    app = _blur_app()
    sched = app.named_schedule("tuned")
    cold = Pipeline(app.output, disk_cache=tmp_path)
    reference = cold.compile([32, 20], schedule=sched, target=Target("native")).run()
    for blob in tmp_path.glob("*.so"):
        blob.unlink()
    # Also clear the per-process scratch dir: in a real warm start the new
    # process has an empty one, and a lingering same-digest .so there would
    # (correctly) satisfy the rebuild without invoking the compiler.
    import pathlib

    from repro.codegen import c_backend
    if c_backend._WORK_DIR:
        for blob in pathlib.Path(c_backend._WORK_DIR).glob("*.so"):
            blob.unlink()

    before = c_toolchain.compile_count
    warm = Pipeline(_blur_app().output, disk_cache=tmp_path)
    out = warm.compile([32, 20], schedule=sched, target=Target("native")).run()
    assert_images_identical(out, reference)
    assert warm._lowerings == 0, "stored C source must rebuild without lowering"
    assert c_toolchain.compile_count == before + 1


@pytest.mark.native
def test_dropping_a_restored_pipeline_leaves_its_sibling_callable(tmp_path):
    """Two restores of one cached ``.so`` share a library handle, hence its
    C-side table of transcendental callbacks; the table must stay valid when
    the restore that filled it last is garbage-collected."""
    import gc

    from repro.lang import Buffer, Func, Var, exp, pow_

    image = np.random.default_rng(8).random((16, 12)).astype(np.float32)

    def build():
        source = Buffer(image, name="cb_in")
        x, y = Var("x"), Var("y")
        curve = Func("cb_curve")
        curve[x, y] = exp(source[x, y]) + pow_(source[x, y], 2.5)
        return Pipeline(curve, disk_cache=tmp_path)

    reference = build().compile([16, 12], target="interp").run()
    build().compile([16, 12], target=Target("native"))  # cold: fills the cache
    first = build().compile([16, 12], target=Target("native"))
    second = build().compile([16, 12], target=Target("native"))
    assert first is not second
    assert first.lowered._native_program.callback_slots
    assert_images_identical(second.run(), reference)
    del second
    gc.collect()
    assert_images_identical(first.run(), reference)


@pytest.mark.native
def test_threads_key_the_native_compile_cache(tmp_path):
    app = _blur_app()
    pipeline = Pipeline(app.output, disk_cache=tmp_path)
    sched = app.named_schedule("tuned")
    one = pipeline.compile([32, 20], schedule=sched,
                           target=Target("native", threads=1))
    four = pipeline.compile([32, 20], schedule=sched,
                            target=Target("native", threads=4))
    assert one is not four
    again = pipeline.compile([32, 20], schedule=sched,
                             target=Target("native", threads=4))
    assert again is four


# ---------------------------------------------------------------------------
# toolchain UX: one clear error at compile() time, probe cached per process
# ---------------------------------------------------------------------------

def test_missing_toolchain_raises_one_clear_error(monkeypatch):
    monkeypatch.setenv(c_toolchain.CC_ENV_VAR, "/nonexistent/cc-for-test")
    c_toolchain.reset_probe_cache()
    try:
        app = _blur_app()
        with pytest.raises(ToolchainError, match="needs a C compiler"):
            app.compile(schedule="tuned", target=Target("native"))
        # The message carries the fix, not a subprocess traceback.
        with pytest.raises(ToolchainError, match=r"apt-get install gcc|REPRO_CC"):
            app.compile(schedule="breadth_first", target=Target("native"))
        assert not c_toolchain.toolchain_available()
    finally:
        c_toolchain.reset_probe_cache()  # do not poison other tests


def test_codegen_needs_no_toolchain():
    """The C source is inspectable on machines without any compiler."""
    app = _blur_app()
    lowered = app.pipeline().lower(sizes=[32, 20],
                                   schedule=app.named_schedule("tuned"))
    source, meta = generate_c_source(lowered)
    assert "repro_entry" in source
    assert "#pragma omp parallel for" in source   # always emitted
    assert "/* produce blur_y */" in source       # readable stage markers
    assert "restrict" in source
    assert "blur_y" in meta["buffer_order"]


def test_compiled_pipeline_exposes_c_source():
    app = _blur_app()
    compiled = app.compile(schedule="tuned", target="interp")
    source = compiled.c_source()
    assert "repro_entry" in source
    assert "int64_t" in source


# ---------------------------------------------------------------------------
# registry / Target plumbing
# ---------------------------------------------------------------------------

def test_backend_registry_has_native():
    assert "native" in backend_names()
    assert get_backend("native") is NativeExecutor


@pytest.mark.native
def test_create_executor_forwards_native_threads():
    app = _blur_app()
    lowered = app.pipeline().lower(sizes=[32, 20],
                                   schedule=app.named_schedule("tuned"))
    executor = create_executor(lowered, target=Target("native", threads=3))
    assert isinstance(executor, NativeExecutor)
    assert executor._threads == 3
    assert NativeExecutor.drives_listeners is False


@pytest.mark.native
def test_native_compile_is_eager():
    """compile(target='native') pays codegen + cc up front, so timed run()
    regions never include them."""
    app = _blur_app()
    compiled = app.compile(schedule="tuned", target=Target("native"))
    program = getattr(compiled.lowered, "_native_program", None)
    assert program is not None and program.loaded
