"""Serving demo: compile once, answer a stream of image requests.

A serving process looks nothing like a benchmark loop: it restarts often
(deploys, autoscaling), answers requests one at a time or in small batches,
and cares about tail latency as much as throughput.  This demo wires the
pieces the runtime provides for that shape:

* **persistent compile cache** — set ``REPRO_CACHE_DIR`` (or pass
  ``--cache-dir``) and the compiled program is stored on disk; the *next*
  process restores it without lowering anything (``disk_cache_info()``
  shows ``lowerings=0`` on a warm start);
* **batched execution** — ``CompiledPipeline.realize_batch`` runs a group
  of requests through one dispatch, amortizing bind/launch overhead;
* **parallel workers** — ``Target(threads=N)`` chunks parallel loops (and
  batch items) over a thread pool.

Run it twice with a cache directory to see the warm start:

    REPRO_CACHE_DIR=/tmp/repro-cache python examples/serving_demo.py
    REPRO_CACHE_DIR=/tmp/repro-cache python examples/serving_demo.py

``--stream`` switches the demo from request/response to *video streaming*:
the temporal denoise + tonemap app is compiled once per named schedule and a
synthetic frame sequence flows through
:func:`repro.streaming.realize_stream`, printing frames/sec and the peak
intermediate memory (measured and static) each schedule holds — the folded
schedules stay at a window-sized ring no matter how many frames pass.

Options: ``--requests N --batch B --workers W``; ``--stream [--frames N]``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline_schedule import Schedule
from repro.lang import Buffer, Func, ImageParam, Var, clamp
from repro.pipeline import Pipeline
from repro.runtime.disk_cache import CACHE_DIR_ENV_VAR
from repro.runtime.target import Target
from repro.types import Float

SHAPE = (320, 240)


def build_service():
    """The served pipeline: a 3x3 separable blur over a per-request frame."""
    width, height = SHAPE
    x, y = Var("x"), Var("y")
    frame = ImageParam(Float(32), 2, name="frame")
    bx, out = Func("demo_bx"), Func("demo_out")
    bx[x, y] = (frame[clamp(x - 1, 0, width - 1), y] + frame[x, y]
                + frame[clamp(x + 1, 0, width - 1), y]) / 3.0
    out[x, y] = (bx[x, clamp(y - 1, 0, height - 1)] + bx[x, y]
                 + bx[x, clamp(y + 1, 0, height - 1)]) / 3.0
    schedule = (Schedule().func("demo_bx").compute_root()
                .func("demo_out").parallel("y").schedule)
    # Bind a placeholder frame so the serving shape is baked at compile time;
    # real frames arrive per request and are validated against it.
    frame.set(Buffer(np.zeros(SHAPE, dtype=np.float32, order="F"), name="frame"))
    return out, schedule


def stream_demo(frames_count: int, workers: int) -> int:
    """Feed a synthetic frame sequence through realize_stream per schedule."""
    from repro.apps import make_video
    from repro.apps.video import DEFAULT_WINDOW
    from repro.reference import video_ref
    from repro.streaming import StreamStats, realize_stream

    width, height, chunk = 160, 120, 8
    app = make_video(width, height, chunk=chunk)
    rng = np.random.default_rng(7)
    frames = (rng.random((width, height, frames_count)) * 4.0).astype(np.float32)
    expected = video_ref(frames, DEFAULT_WINDOW)

    print(f"streaming {frames_count} frames of {width}x{height} "
          f"(chunk={chunk}, window={DEFAULT_WINDOW}) on the compiled backend")
    for schedule in ("breadth_first", "streaming", "streaming_folded",
                     "streaming_parallel"):
        target = Target("compiled", threads=workers) \
            if schedule == "streaming_parallel" else Target("compiled")
        compiled = app.compile(schedule, target=target)
        stats = StreamStats()
        start = time.perf_counter()
        out = [frame for frame in realize_stream(compiled, frames, stats=stats)]
        elapsed = time.perf_counter() - start
        assert np.stack(out, axis=2).tobytes() == expected.tobytes(), schedule
        peak = stats.static_peak_bytes
        print(f"  {schedule:<20} {len(out) / elapsed:9.1f} frames/sec   "
              f"peak intermediates {peak:>8d} B   "
              f"depth={stats.pipeline_depth}  (bit-identical to reference)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--batch", type=int, default=8,
                        help="requests per realize_batch dispatch (1 = serial)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--cache-dir", default=None,
                        help=f"persistent compile cache directory "
                             f"(default: ${CACHE_DIR_ENV_VAR} when set)")
    parser.add_argument("--stream", action="store_true",
                        help="stream video frames through realize_stream "
                             "instead of serving image requests")
    parser.add_argument("--frames", type=int, default=64,
                        help="frame count for --stream mode")
    args = parser.parse_args(argv)

    if args.stream:
        return stream_demo(args.frames, args.workers)

    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV_VAR)
    output, schedule = build_service()
    pipeline = Pipeline(output, disk_cache=cache_dir)
    target = Target("compiled", threads=args.workers)

    start = time.perf_counter()
    compiled = pipeline.compile(list(SHAPE), schedule=schedule, target=target)
    compile_ms = (time.perf_counter() - start) * 1e3
    info = pipeline.disk_cache_info()
    if cache_dir is None:
        print(f"compiled in {compile_ms:.1f} ms "
              f"(no cache dir: set {CACHE_DIR_ENV_VAR} to persist)")
    elif info.lowerings == 0:
        print(f"WARM start: program restored from {cache_dir} in "
              f"{compile_ms:.1f} ms — zero lowerings ({info})")
    else:
        print(f"COLD start: compiled in {compile_ms:.1f} ms and stored to "
              f"{cache_dir} ({info}); run again for the warm path")

    # The request stream: fresh frames, answered in groups of --batch.
    rng = np.random.default_rng(7)
    requests = [
        {"frame": np.asfortranarray(rng.random(SHAPE).astype(np.float32))}
        for _ in range(args.requests)
    ]
    compiled.run(inputs=requests[0])  # warm the worker pool outside timing

    latencies = []
    served = 0
    stream_start = time.perf_counter()
    for lo in range(0, len(requests), args.batch):
        group = requests[lo:lo + args.batch]
        start = time.perf_counter()
        results = (compiled.realize_batch(group) if len(group) > 1
                   else [compiled.run(inputs=group[0])])
        elapsed = time.perf_counter() - start
        latencies.extend([elapsed * 1e3] * len(group))
        served += len(results)
    total = time.perf_counter() - stream_start

    lat = np.asarray(latencies)
    print(f"served {served} requests in {total * 1e3:.0f} ms "
          f"({served / total:.1f} images/sec) using "
          f"workers={args.workers} batch={args.batch}")
    print(f"request latency: p50 {np.percentile(lat, 50):.2f} ms, "
          f"p99 {np.percentile(lat, 99):.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
