"""`realize_stream`: run a compiled pipeline over an unbounded frame sequence.

A pipeline with a scheduled time dimension is compiled once for a small
*chunk* of that dimension; the input image carries ``history`` extra frames
of temporal context in front of each chunk (the temporal window of the
algorithm).  Streaming then advances a rolling buffer:

    input buffer (chunk + history frames along t)
    [ f(-H) ... f(-1) | f(0) f(1) ... f(C-1) ]
      ^- history: last H frames of the      ^- the chunk: C new frames
         previous chunk (at stream start,
         the first frame repeated)

Each chunk run is independent of every other — the history is carried in
the *input*, never read back from an output — which gives two properties
for free: results are bit-identical regardless of execution order, and
chunk ``t+1`` can overlap chunk ``t`` on a worker pool (software
pipelining) whenever the target asks for parallelism.

Inside a chunk, the sliding-window and storage-folding passes do the
paper's work: intermediates scheduled with ``store_root`` +
``compute_at(out, t)`` (optionally with an explicit ``storage_fold``) keep
only a temporal-window-sized ring of planes live, so peak intermediate
memory is O(window), not O(frames) — asserted through the memory counters.

The temporal boundary condition is *repeat-edge in time*: at stream start
the history is prefilled with the first frame, and a final partial chunk
is padded with the last frame (only the valid frames are yielded).  A
per-frame ``realize`` with the same convention produces bit-identical
output, which is what the parity tests assert.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

import numpy as np

from repro.runtime.backend import get_backend
from repro.runtime.counters import Counters
from repro.streaming.memory import static_peak_bytes

__all__ = ["StreamError", "StreamStats", "realize_stream"]


class StreamError(ValueError):
    """A frame stream cannot be run against this compiled pipeline."""


@dataclass
class StreamStats:
    """Filled in by :func:`realize_stream` (pass an instance via ``stats=``)."""

    frames_in: int = 0
    frames_out: int = 0
    chunks: int = 0
    history: int = 0
    chunk_frames: int = 0
    pipeline_depth: int = 1
    #: Max over chunk runs of the measured intermediate-allocation peak
    #: (exact under interp/numpy, which drive the listeners; 0 under the
    #: uninstrumented compiled backend — see static_peak_bytes).
    peak_intermediate_bytes: int = 0
    #: Same, broken down per buffer (per Func storage).
    peak_by_buffer: Dict[str, int] = field(default_factory=dict)
    #: Static worst-case intermediate peak from the lowered tree; valid for
    #: every backend, None if the lowering was not fully specialized.
    static_peak_bytes: Optional[int] = None


def _frame_iter(frames, time_axis: int, ndim: int) -> Iterator[np.ndarray]:
    """Iterate frames: an ndarray is split along the time axis."""
    if isinstance(frames, np.ndarray) and frames.ndim == ndim:
        for i in range(frames.shape[time_axis]):
            index = tuple(i if d == time_axis else slice(None)
                          for d in range(ndim))
            yield frames[index]
        return
    for frame in frames:
        yield np.asarray(frame)


def _pick_input(compiled, input_name: Optional[str]) -> str:
    images = compiled._images
    if input_name is not None:
        if input_name not in images:
            raise StreamError(
                f"no input image named {input_name!r} "
                f"(pipeline reads {sorted(images)!r})")
        return input_name
    ndim = len(compiled.sizes)
    candidates = [name for name, shape in compiled._baked_shapes.items()
                  if name in images and shape is not None and len(shape) == ndim]
    if len(candidates) == 1:
        return candidates[0]
    if len(images) == 1:
        return next(iter(images))
    raise StreamError(
        f"cannot infer which input image carries the frame stream "
        f"(pipeline reads {sorted(images)!r}); pass input_name=")


def realize_stream(compiled, frames, *,
                   input_name: Optional[str] = None,
                   time_var: Optional[str] = None,
                   history: Optional[int] = None,
                   params: Optional[Dict[str, object]] = None,
                   extra_inputs: Optional[Dict[str, np.ndarray]] = None,
                   pipeline_depth: Optional[int] = None,
                   stats: Optional[StreamStats] = None) -> Iterator[np.ndarray]:
    """Stream ``frames`` through a :class:`~repro.pipeline.CompiledPipeline`.

    Yields one output frame (an array without the time axis) per input
    frame, in order.  ``frames`` is an iterable of per-frame arrays or a
    single array whose ``time_var`` axis is the frame index.

    The pipeline must have been compiled with the streamed input's time
    extent equal to ``chunk + history`` where ``chunk`` is the compiled
    output extent of ``time_var``; ``history`` (the temporal window) is
    inferred from that difference, or passed explicitly when the input's
    shape was not baked at compile time.

    ``pipeline_depth`` > 1 overlaps that many chunk executions on a thread
    pool (chunks are mutually independent, so output is bit-identical to
    the sequential order); the default is 2 when the target requests any
    parallelism, 1 otherwise.
    """
    dims = list(compiled._dim_names)
    if time_var is None:
        time_var = "t" if "t" in dims else dims[-1]
    if time_var not in dims:
        raise StreamError(
            f"output has no dimension {time_var!r} (dimensions: {dims!r})")
    t_axis = dims.index(time_var)
    ndim = len(dims)
    chunk = int(compiled.sizes[t_axis])

    name = _pick_input(compiled, input_name)
    baked = compiled._baked_shapes.get(name)
    if baked is not None:
        if len(baked) != ndim:
            raise StreamError(
                f"input image {name!r} has {len(baked)} dimensions but the "
                f"output has {ndim}; a streamed input must share the output's "
                f"dimensionality (with the time axis extended by the history)")
        inferred = baked[t_axis] - chunk
        if history is not None and int(history) != inferred:
            raise StreamError(
                f"history={history} conflicts with the compiled shapes: input "
                f"{name!r} carries {baked[t_axis]} frames per chunk of {chunk} "
                f"(history {inferred})")
        history = inferred
        spatial = tuple(s for d, s in enumerate(baked) if d != t_axis)
    else:
        if history is None:
            raise StreamError(
                f"input image {name!r} was not bound at compile time, so the "
                f"temporal history cannot be inferred; pass history=")
        spatial = None
    history = int(history)
    if history < 0:
        raise StreamError(
            f"input {name!r} carries fewer frames ({chunk + history}) than "
            f"the compiled chunk ({chunk}); it cannot be streamed")

    dtype = compiled._images[name].type.to_numpy_dtype()

    if stats is None:
        stats = StreamStats()
    stats.history = history
    stats.chunk_frames = chunk
    target = compiled.target
    if pipeline_depth is None:
        pipeline_depth = 2 if (target.threads or 1) > 1 else 1
    depth = max(1, int(pipeline_depth))
    stats.pipeline_depth = depth
    stats.static_peak_bytes, _ = static_peak_bytes(compiled.lowered)
    # Only backends that drive listeners can measure per-chunk peaks; the
    # others run with no listener at all (no warning, no per-chunk cost).
    counted = getattr(get_backend(target.backend), "drives_listeners", True)

    source = _frame_iter(frames, t_axis, ndim)

    def check(frame: np.ndarray) -> np.ndarray:
        if frame.ndim != ndim - 1:
            raise StreamError(
                f"stream frames must have {ndim - 1} dimensions "
                f"(the output without {time_var!r}); got shape {frame.shape}")
        if spatial is not None and tuple(frame.shape) != spatial:
            raise StreamError(
                f"frame shape {tuple(frame.shape)} does not match the "
                f"compiled spatial shape {spatial}")
        return np.asarray(frame, dtype=dtype)

    def plane(i: int) -> tuple:
        return tuple(i if d == t_axis else slice(None) for d in range(ndim))

    def assemble(seq: list) -> np.ndarray:
        """One chunk's input, built directly in the x-fastest layout the
        kernels read, so binding it copies nothing."""
        shape = list(seq[0].shape)
        shape.insert(t_axis, len(seq))
        block = np.empty(shape, dtype=dtype, order="F")
        for i, frame in enumerate(seq):
            np.copyto(block[plane(i)], frame)
        return block

    def chunks() -> Iterator[tuple]:
        """(input_array, valid_frame_count) per chunk, carrying history."""
        hist: list = []
        while True:
            got = []
            for frame in source:
                got.append(check(frame))
                if len(got) == chunk:
                    break
            if not got:
                return
            stats.frames_in += len(got)
            if not hist:
                hist = [got[0]] * history       # repeat-edge at stream start
            pad = [got[-1]] * (chunk - len(got))  # repeat-edge at stream end
            block = assemble(hist + got + pad)
            # The next chunk's history: this one's last planes, already in
            # the layout they will be copied into.
            hist = [block[plane(i)] for i in range(chunk, chunk + history)]
            yield block, len(got)

    def run_chunk(input_array: np.ndarray):
        counters = Counters() if counted else None
        output = compiled.run(params=params,
                              inputs={**(extra_inputs or {}), name: input_array},
                              listeners=(counters,) if counted else ())
        return output, counters

    def emit(output: np.ndarray, counters, valid: int) -> Iterator[np.ndarray]:
        stats.chunks += 1
        if counters is not None:
            stats.peak_intermediate_bytes = max(
                stats.peak_intermediate_bytes, counters.peak_allocated_bytes)
            for buf, peak in counters.peak_allocated_by_buffer.items():
                stats.peak_by_buffer[buf] = max(
                    stats.peak_by_buffer.get(buf, 0), peak)
        for i in range(valid):
            stats.frames_out += 1
            yield output[plane(i)].copy(order="F")

    if depth == 1:
        for input_array, valid in chunks():
            output, counters = run_chunk(input_array)
            yield from emit(output, counters, valid)
        return

    # Software pipelining: keep up to `depth` chunk runs in flight.  Chunks
    # are independent (history travels in the inputs), so overlapping them
    # cannot change any result — only the wall-clock.
    pool = ThreadPoolExecutor(max_workers=depth,
                              thread_name_prefix="repro-stream")
    try:
        inflight: deque = deque()
        for input_array, valid in chunks():
            inflight.append((pool.submit(run_chunk, input_array), valid))
            while len(inflight) >= depth:
                future, head_valid = inflight.popleft()
                output, counters = future.result()
                yield from emit(output, counters, head_valid)
        while inflight:
            future, head_valid = inflight.popleft()
            output, counters = future.result()
            yield from emit(output, counters, head_valid)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
