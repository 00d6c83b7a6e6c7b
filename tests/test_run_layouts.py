"""The data movement of one ``run()``: marshal once, never transpose twice.

The contract under test:

* **Layout never changes a bit** — the same pixels handed over as a C-order
  array, an F-order array, a non-contiguous slice, a negatively-strided view
  or a read-only array give bit-identical output on every backend.
* **Inputs move at most once** — an F-contiguous input is bound as a view
  (zero copies) and left untouched; anything else is copied once, slab by
  slab, into the kernels' x-fastest layout.
* **Results come back in the kernel's layout** — a fresh F-contiguous array
  of exactly ``sizes`` per call, never shared between calls, also when the
  schedule rounded the allocation up; ``realize_batch`` and
  ``realize_stream`` go through the same path.
* **The front door checks dtype and rank** — one ``TypeError`` naming the
  argument on every backend, instead of reinterpreting memory.

Native cells are marked ``@pytest.mark.native`` and auto-skip (via
``conftest``) without a C toolchain.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from _image_assertions import assert_images_identical
from repro.apps import make_blur, make_interpolate, make_video
from repro.runtime import create_executor
from repro.runtime.executor import _SLAB_BYTES, _flat_fortran
from repro.runtime.target import Target
from repro.streaming import realize_stream

BACKENDS = [
    pytest.param("interp", id="interp"),
    pytest.param("compiled", id="compiled"),
    pytest.param("native", id="native", marks=pytest.mark.native),
]


def _blur():
    """(app, sizes, input name, C-order input); 24x20 under 64x32 tiles, so
    the allocation is rounded up."""
    image = np.random.default_rng(1).random((24, 20)).astype(np.float32)
    return make_blur(image), [24, 20], "input", image


def _interpolate():
    rgba = np.random.default_rng(6).random((16, 12, 4)).astype(np.float32)
    rgba[:, :, 3] = (rgba[:, :, 3] > 0.5).astype(np.float32)
    return make_interpolate(rgba, levels=2), [16, 12, 3], "interp_input", rgba


APPS = {"blur": _blur, "interpolate": _interpolate}


def _sliced(image: np.ndarray) -> np.ndarray:
    big = np.zeros((2 * image.shape[0], image.shape[1] + 2) + image.shape[2:],
                   dtype=image.dtype)
    view = big[::2, 1:-1]
    view[...] = image
    return view


def _read_only(image: np.ndarray) -> np.ndarray:
    frozen = image.copy()
    frozen.setflags(write=False)
    return frozen


LAYOUTS = {
    "c_order": np.ascontiguousarray,
    "f_order": np.asfortranarray,
    "sliced": _sliced,
    "negative_strides": lambda image: np.ascontiguousarray(image[::-1, ::-1])[::-1, ::-1],
    "read_only": _read_only,
    "read_only_f_order": lambda image: _read_only(np.asfortranarray(image)),
}


def _compile(app, sizes, backend):
    return app.compile("tuned", sizes=sizes, target=Target(backend))


# ---------------------------------------------------------------------------
# the marshal itself
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape, dtype", [
    ((400, 300), np.float32),      # 480 KB: several slabs
    ((120, 80, 4), np.float64),    # rank 3, several slabs
    ((1, 400, 200), np.float32),   # the largest-stride axis has a single row
    ((24, 20), np.uint8),          # under one slab: a single copy
])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_flat_fortran_matches_a_whole_array_transpose(shape, dtype, layout):
    image = (np.random.default_rng(0).random(shape) * 200).astype(dtype)
    assert (image.nbytes > _SLAB_BYTES) == (shape != (24, 20))
    array = LAYOUTS[layout](image)
    before = array.copy()
    flat = _flat_fortran(array)
    assert flat.dtype == array.dtype and flat.ndim == 1
    assert flat.tobytes() == image.tobytes(order="F")
    assert np.shares_memory(flat, array) == array.flags.f_contiguous
    assert np.array_equal(array, before)


# ---------------------------------------------------------------------------
# layouts x backends: bit-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_every_input_layout_is_bit_identical(app_name, backend):
    app, sizes, name, image = APPS[app_name]()
    # Today's output: the interpreter over the app's own bound Buffer.
    reference = app.realize(sizes, schedule="tuned", target="interp")
    compiled = _compile(app, sizes, backend)
    for layout, make in LAYOUTS.items():
        array = make(image)
        before = array.copy()
        output = compiled.run(inputs={name: array})
        assert_images_identical(output, reference)
        assert output.flags.f_contiguous and output.flags.writeable, layout
        assert list(output.shape) == sizes
        assert np.array_equal(array, before), f"{layout}: run() changed its input"


@pytest.mark.native
def test_layouts_above_one_slab_match_the_compiled_backend():
    image = np.random.default_rng(2).random((384, 256)).astype(np.float32)
    assert image.nbytes > _SLAB_BYTES
    app = make_blur(image)
    reference = _compile(app, [384, 256], "compiled").run()
    native = _compile(app, [384, 256], "native")
    for make in LAYOUTS.values():
        assert_images_identical(native.run(inputs={"input": make(image)}), reference)


# ---------------------------------------------------------------------------
# zero-copy binding, fresh results
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_f_order_input_is_bound_without_a_copy(backend):
    app, sizes, name, image = _blur()
    compiled = _compile(app, sizes, backend)
    f_order = np.asfortranarray(image)
    executor = create_executor(compiled.lowered, listeners=(), target=compiled.target)
    compiled._bind_all(executor, None, {name: f_order})
    assert np.shares_memory(executor.buffers[name], f_order)
    executor = create_executor(compiled.lowered, listeners=(), target=compiled.target)
    compiled._bind_all(executor, None, {name: image})
    assert not np.shares_memory(executor.buffers[name], image)
    assert executor.buffers[name].tobytes() == f_order.tobytes(order="F")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sizes", [[24, 20], [64, 32]],
                         ids=["rounded_up", "exact_tiles"])
def test_consecutive_results_do_not_share_memory(backend, sizes):
    """Both result paths — the compacted window (24x20 under 64x32 tiles)
    and the output buffer itself (64x32) — hand out a fresh array per call."""
    image = np.random.default_rng(3).random(tuple(sizes)).astype(np.float32)
    compiled = _compile(make_blur(image), sizes, backend)
    assert (compiled._rounded_shape == sizes) == (sizes == [64, 32])
    first = compiled.run()
    kept = first.copy()
    second = compiled.run()
    assert not np.shares_memory(first, second)
    assert list(first.shape) == sizes and first.flags.f_contiguous
    second[...] = -1.0
    assert np.array_equal(first, kept)
    assert np.array_equal(compiled.run(), kept)


# ---------------------------------------------------------------------------
# batch and stream go through the same path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_realize_batch_equals_sequential_runs(backend):
    app, sizes, name, image = _blur()
    compiled = _compile(app, sizes, backend)
    rng = np.random.default_rng(4)
    frames = [make(rng.random(image.shape).astype(np.float32))
              for make in LAYOUTS.values()]
    sequential = [compiled.run(inputs={name: frame}) for frame in frames]
    batched = compiled.realize_batch([{name: frame} for frame in frames])
    assert len(batched) == len(sequential)
    for got, expected in zip(batched, sequential):
        assert_images_identical(got, expected)
        assert got.flags.f_contiguous
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(batched) for b in batched[i + 1:])


@pytest.mark.parametrize("backend", BACKENDS)
def test_realize_stream_equals_sequential_runs(backend):
    width, height, chunk, window = 16, 12, 4, 2
    clip = np.random.default_rng(5).random((width, height, 10)).astype(np.float32)
    compiled = make_video(width, height, chunk=chunk).compile(
        "streaming_folded", target=Target(backend))
    streamed = list(realize_stream(compiled, clip))
    assert len(streamed) == clip.shape[2]
    assert all(frame.flags.f_contiguous and frame.shape == (width, height)
               for frame in streamed)
    assert not np.shares_memory(streamed[0], streamed[1])

    # The same chunks, assembled by hand and pushed through run().
    padded = np.concatenate([clip[:, :, :1]] * window + [clip]
                            + [clip[:, :, -1:]] * chunk, axis=2)
    sequential = []
    for start in range(0, clip.shape[2], chunk):
        out = compiled.run(inputs={"frames": padded[:, :, start:start + chunk + window]})
        sequential.extend(out[:, :, i] for i in range(chunk))
    for got, expected in zip(streamed, sequential):
        assert_images_identical(got, expected)


# ---------------------------------------------------------------------------
# the front door
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_wrong_dtype_or_rank_is_one_type_error(backend):
    app, sizes, name, image = _blur()
    compiled = _compile(app, sizes, backend)
    with pytest.raises(TypeError, match=r"'input'.*float32.*float64"):
        compiled.run(inputs={name: image.astype(np.float64)})
    with pytest.raises(TypeError, match=r"'input'.*2-dimensional.*3 dimensions"):
        compiled.run(inputs={name: image[:, :, None]})
    with pytest.raises(TypeError, match=r"'input'"):
        compiled.realize_batch([{name: image}, {name: image.astype(np.int32)}])
    with pytest.raises(ValueError, match="compiled for shape"):
        compiled.run(inputs={name: image[:-1]})


def test_array_likes_are_converted_once():
    app, sizes, name, image = _blur()
    compiled = _compile(app, sizes, "compiled")

    class ArrayLike:
        conversions = 0

        def __array__(self, dtype=None, copy=None):
            ArrayLike.conversions += 1
            return image

    output = compiled.run(inputs={name: ArrayLike()})
    assert ArrayLike.conversions == 1
    assert_images_identical(output, compiled.run(inputs={name: image}))


# ---------------------------------------------------------------------------
# no second output-sized copy
# ---------------------------------------------------------------------------

@pytest.mark.native
def test_run_allocates_one_marshal_and_one_output():
    """NumPy reports its buffers to tracemalloc; the native kernel's
    intermediates are C ``calloc``s it does not see.  So the traced peak of
    a ``run()`` is exactly its marshal copy plus its output."""
    width, height = 512, 384
    image = np.random.default_rng(7).random((width, height)).astype(np.float32)
    compiled = _compile(make_blur(image), [width, height], "native")
    assert compiled._rounded_shape == [width, height]
    f_order = np.asfortranarray(image)
    compiled.run(inputs={"input": image})  # warm: imports, ctypes, caches
    slack = 64 * 1024

    def peak(array) -> int:
        tracemalloc.start()
        try:
            compiled.run(inputs={"input": array})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(image) <= 2 * image.nbytes + slack
    assert peak(f_order) <= image.nbytes + slack
