"""The streaming video runtime: `realize_stream` over bounded-memory chunks.

The acceptance properties of the subsystem:

* streaming is *bit-identical* to the scalar reference (and hence to a
  per-frame realize) on all three backends, for any chunking of the stream,
  including partial final chunks;
* peak intermediate memory is constant in the number of frames streamed
  (asserted through the runtime memory counters at 64 vs 256+ frames), and
  under a folded schedule equals exactly the temporal ring;
* software pipelining (`pipeline_depth` > 1) changes only wall-clock, never
  a single byte of output.
"""

import warnings

import numpy as np
import pytest

from repro.apps import make_video
from repro.apps.video import DEFAULT_WINDOW
from repro.reference import video_ref
from repro.runtime import Target
from repro.streaming import StreamError, StreamStats, realize_stream

WIDTH, HEIGHT = 16, 12
ITEM = np.dtype(np.float32).itemsize


@pytest.fixture(scope="module")
def module_rng():
    return np.random.default_rng(42)


def _frames(rng, count):
    return (rng.random((WIDTH, HEIGHT, count)) * 4.0).astype(np.float32)


def _stream_all(compiled, frames, **kwargs):
    out = list(realize_stream(compiled, frames, **kwargs))
    return np.stack(out, axis=2) if out else np.empty((WIDTH, HEIGHT, 0))


#: Temporal windows swept by the parity and memory tests.
WINDOWS = (1, 2, 4)


class TestStreamParity:
    @pytest.mark.parametrize("target", [
        "interp", "numpy", "compiled",
        pytest.param(Target("compiled", threads=2), id="compiled-t2"),
        pytest.param("native", marks=pytest.mark.native),
        pytest.param(Target("native", threads=2), id="native-t2",
                     marks=pytest.mark.native)])
    def test_bit_identical_to_reference_all_backends(self, module_rng, target):
        frames = _frames(module_rng, 10)  # chunk=4: two full chunks + a tail
        for window in WINDOWS:
            app = make_video(WIDTH, HEIGHT, chunk=4, window=window)
            expected = video_ref(frames, window).tobytes()
            for schedule in ("breadth_first", "streaming", "streaming_folded"):
                got = _stream_all(app.compile(schedule, target=target), frames)
                assert got.tobytes() == expected, (schedule, window)

    def test_chunking_does_not_change_output(self, module_rng):
        # chunk=1 is per-frame realize; chunk=5 covers full + partial chunks.
        frames = _frames(module_rng, 12)
        per_frame = _stream_all(
            make_video(WIDTH, HEIGHT, chunk=1).compile("streaming_folded",
                                                       target="numpy"),
            frames)
        chunked = _stream_all(
            make_video(WIDTH, HEIGHT, chunk=5).compile("streaming_folded",
                                                       target="numpy"),
            frames)
        assert per_frame.tobytes() == chunked.tobytes()

    @pytest.mark.parametrize("schedule",
                             ["breadth_first", "streaming", "streaming_folded",
                              "streaming_parallel"])
    def test_all_named_schedules_agree(self, module_rng, schedule):
        frames = _frames(module_rng, 7)
        app = make_video(WIDTH, HEIGHT, chunk=4)
        compiled = app.compile(schedule, target="interp")
        got = _stream_all(compiled, frames)
        assert got.tobytes() == video_ref(frames, DEFAULT_WINDOW).tobytes()

    def test_accepts_frame_iterables(self, module_rng):
        frames = _frames(module_rng, 6)
        compiled = make_video(WIDTH, HEIGHT, chunk=4).compile(
            "streaming_folded", target="numpy")
        from_array = _stream_all(compiled, frames)
        from_iter = _stream_all(
            compiled, (frames[:, :, i] for i in range(frames.shape[2])))
        assert from_array.tobytes() == from_iter.tobytes()


class TestBoundedMemory:
    def _peaks(self, frames, schedule="streaming_folded", chunk=8,
               window=DEFAULT_WINDOW, target="numpy"):
        compiled = make_video(WIDTH, HEIGHT, chunk=chunk,
                              window=window).compile(schedule, target=target)
        stats = StreamStats()
        got = _stream_all(compiled, frames, stats=stats)
        assert got.tobytes() == video_ref(frames, window).tobytes(), \
            f"{schedule}/window={window}: output differs from reference"
        return stats

    def test_peak_is_constant_in_stream_length(self, module_rng):
        short = self._peaks(_frames(module_rng, 64))
        long = self._peaks(_frames(module_rng, 280))
        assert long.frames_out == 280
        assert long.peak_intermediate_bytes == short.peak_intermediate_bytes
        assert long.peak_by_buffer == short.peak_by_buffer

    def test_folded_ring_is_exactly_window_plus_one(self, module_rng):
        for window in WINDOWS:
            stats = self._peaks(_frames(module_rng, 32), window=window)
            assert stats.peak_by_buffer["denoise_xy"] == \
                WIDTH * HEIGHT * (window + 1) * ITEM

    def test_static_peak_matches_measured_peak(self, module_rng):
        # The static analysis covers the uninstrumented compiled backend;
        # it must agree with what the listeners measure on both
        # instrumented backends (one 8-frame chunk on the slow interpreter:
        # the peak is the same for any stream length, as tested above).
        for target, count in (("numpy", 24), ("interp", 8)):
            for window in WINDOWS:
                for schedule in ("breadth_first", "streaming", "streaming_folded"):
                    stats = self._peaks(_frames(module_rng, count),
                                        schedule=schedule, window=window,
                                        target=target)
                    assert stats.static_peak_bytes == \
                        stats.peak_intermediate_bytes, (target, window, schedule)

    @pytest.mark.parametrize("target", [
        "compiled", pytest.param("native", marks=pytest.mark.native)])
    def test_uninstrumented_backend_streams_without_warnings(self, module_rng, target):
        """A backend that drives no listeners streams with none attached:
        no RuntimeWarning per chunk, measured peaks stay zero, and the
        static peak is the memory witness."""
        frames = _frames(module_rng, 9)
        compiled = make_video(WIDTH, HEIGHT, chunk=2).compile(
            "streaming_folded", target=target)
        stats = StreamStats()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _stream_all(compiled, frames, stats=stats)
        assert got.tobytes() == video_ref(frames, DEFAULT_WINDOW).tobytes()
        assert stats.chunks == 5
        assert stats.peak_intermediate_bytes == 0 and stats.peak_by_buffer == {}
        assert stats.static_peak_bytes == self._peaks(frames, chunk=2).peak_intermediate_bytes

    def test_streaming_beats_breadth_first_memory(self, module_rng):
        frames = _frames(module_rng, 32)
        for window in WINDOWS:
            folded = self._peaks(frames, window=window)
            breadth = self._peaks(frames, schedule="breadth_first", window=window)
            assert folded.peak_intermediate_bytes < \
                breadth.peak_intermediate_bytes, window

    def test_stats_bookkeeping(self, module_rng):
        stats = self._peaks(_frames(module_rng, 19), chunk=8)
        assert (stats.frames_in, stats.frames_out) == (19, 19)
        assert stats.chunks == 3  # 8 + 8 + padded 3
        assert stats.history == DEFAULT_WINDOW
        assert stats.chunk_frames == 8


class TestPipelining:
    def test_overlapped_chunks_are_bit_identical(self, module_rng):
        frames = _frames(module_rng, 22)
        app = make_video(WIDTH, HEIGHT, chunk=4)
        compiled = app.compile("streaming_parallel",
                               target=Target("compiled", threads=2))
        sequential = _stream_all(compiled, frames, pipeline_depth=1)
        overlapped = _stream_all(compiled, frames, pipeline_depth=3)
        assert sequential.tobytes() == overlapped.tobytes()
        assert sequential.tobytes() == \
            video_ref(frames, DEFAULT_WINDOW).tobytes()

    def test_depth_defaults_follow_target(self, module_rng):
        frames = _frames(module_rng, 8)
        app = make_video(WIDTH, HEIGHT, chunk=4)
        serial_stats, parallel_stats = StreamStats(), StreamStats()
        list(realize_stream(app.compile("streaming_folded", target="numpy"),
                            frames, stats=serial_stats))
        list(realize_stream(
            app.compile("streaming_parallel",
                        target=Target("numpy", threads=2)),
            frames, stats=parallel_stats))
        assert serial_stats.pipeline_depth == 1
        assert parallel_stats.pipeline_depth == 2


class TestStreamErrors:
    def _compiled(self):
        return make_video(WIDTH, HEIGHT, chunk=4).compile(
            "streaming_folded", target="numpy")

    def test_wrong_frame_shape(self, module_rng):
        bad = [np.zeros((WIDTH + 1, HEIGHT), dtype=np.float32)]
        with pytest.raises(StreamError, match="spatial shape"):
            list(realize_stream(self._compiled(), bad))

    def test_wrong_frame_rank(self):
        bad = [np.zeros((WIDTH,), dtype=np.float32)]
        with pytest.raises(StreamError, match="dimensions"):
            list(realize_stream(self._compiled(), bad))

    def test_unknown_input_name(self, module_rng):
        with pytest.raises(StreamError, match="no input image named"):
            list(realize_stream(self._compiled(), _frames(module_rng, 4),
                                input_name="nope"))

    def test_unknown_time_var(self, module_rng):
        with pytest.raises(StreamError, match="no dimension"):
            list(realize_stream(self._compiled(), _frames(module_rng, 4),
                                time_var="z"))

    def test_conflicting_history(self, module_rng):
        with pytest.raises(StreamError, match="history"):
            list(realize_stream(self._compiled(), _frames(module_rng, 4),
                                history=DEFAULT_WINDOW + 1))

    def test_empty_stream_yields_nothing(self):
        stats = StreamStats()
        assert list(realize_stream(self._compiled(), [], stats=stats)) == []
        assert stats.chunks == 0
