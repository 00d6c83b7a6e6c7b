"""Serving-shaped benchmark: throughput and latency of compile-once/run-many.

A serving deployment compiles a pipeline once and then answers a stream of
requests, each carrying a fresh input image.  This benchmark measures that
shape end to end across every dispatch mode the runtime offers:

* ``serial``       — one request at a time, loop-level parallelism off;
* ``thread``       — loop-level thread parallelism inside each request;
* ``batch-thread`` — batch-level parallelism via
  ``CompiledPipeline.realize_batch`` (one dispatch per request group,
  loop-level parallelism disabled inside items).

Every mode must be **bit-identical** to the serial reference — asserted, not
recorded.  Throughput (images/sec) and per-request latency (p50/p99 ms) are
recorded per row along with the dispatch mode, worker count, and the
machine's ``cpu_count`` — on a single-core runner every parallel mode
legitimately measures ~1x or below (dispatch overhead with nowhere to run).

A ``warm_start`` section runs this same script twice as a subprocess with a
shared ``REPRO_CACHE_DIR`` (``--warm-probe`` mode) and asserts the second
process restores its program from the persistent cache with **zero
lowerings**.

The artifact is written to ``BENCH_serving.json`` in the repository root; CI
uploads it per PR, and the in-tree snapshot is refreshed by re-running this
script locally and committing the result.

Run with:  python benchmarks/bench_serving.py [--quick] [--out BENCH_serving.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.core.pipeline_schedule import Schedule  # noqa: E402
from repro.lang import Buffer, Func, ImageParam, Var, clamp  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.runtime.target import Target  # noqa: E402
from repro.types import Float  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"

#: (image shape, request count, batch size) per profile.
PROFILES = {
    "full": ((384, 256), 24, 6),
    "quick": ((48, 32), 8, 4),
}


def build_serving_pipeline(shape):
    """A 3x3 separable blur over a per-request input frame.

    The intermediate is computed at root and the output row loop is parallel,
    so loop-level parallel modes have real work to chunk.
    """
    width, height = shape
    x, y = Var("x"), Var("y")
    frame = ImageParam(Float(32), 2, name="frame")
    bx, out = Func("serve_bx"), Func("serve_out")
    cx = lambda e: clamp(e, 0, width - 1)  # noqa: E731
    cy = lambda e: clamp(e, 0, height - 1)  # noqa: E731
    bx[x, y] = (frame[cx(x - 1), y] + frame[cx(x), y] + frame[cx(x + 1), y]) / 3.0
    out[x, y] = (bx[x, cy(y - 1)] + bx[x, cy(y)] + bx[x, cy(y + 1)]) / 3.0
    schedule = (Schedule().func("serve_bx").compute_root()
                .func("serve_out").parallel("y").schedule)
    # Bind a zero frame so lowering bakes the serving shape; per-request
    # frames arrive through ``inputs`` and must match it (checked at bind).
    frame.set(Buffer(np.zeros(shape, dtype=np.float32, order="F"), name="frame"))
    return out, schedule


def request_stream(shape, count):
    rng = np.random.default_rng(20130616)
    return [
        {"frame": np.asfortranarray(rng.random(shape).astype(np.float32))}
        for _ in range(count)
    ]


def percentile_ms(latencies, q):
    return float(np.percentile(np.asarray(latencies) * 1e3, q))


def run_per_request(compiled, requests):
    """One compiled.run() per request; returns (outputs, per-request seconds)."""
    outputs, latencies = [], []
    for inputs in requests:
        start = time.perf_counter()
        outputs.append(compiled.run(inputs=inputs))
        latencies.append(time.perf_counter() - start)
    return outputs, latencies


def run_batched(compiled, requests, batch_size):
    """realize_batch over request groups; a request's latency is its batch's
    wall time (every item completes when the dispatch completes)."""
    outputs, latencies = [], []
    for lo in range(0, len(requests), batch_size):
        group = requests[lo:lo + batch_size]
        start = time.perf_counter()
        outputs.extend(compiled.realize_batch(group))
        latencies.extend([time.perf_counter() - start] * len(group))
    return outputs, latencies


def measure(config, pipeline, sizes, schedule, requests, batch_size):
    target = config["target"]
    compiled = pipeline.compile(sizes, schedule=schedule, target=target)
    # Warm everything once outside the timed region: worker pools spin up,
    # caches fill.
    compiled.run(inputs=requests[0])
    started = time.perf_counter()
    if config["batched"]:
        outputs, latencies = run_batched(compiled, requests, batch_size)
    else:
        outputs, latencies = run_per_request(compiled, requests)
    elapsed = time.perf_counter() - started
    row = {
        "config": config["name"],
        "backend": target.backend,
        "workers": target.threads or 1,
        "batch_size": batch_size if config["batched"] else 1,
        "requests": len(requests),
        "images_per_sec": len(requests) / max(elapsed, 1e-9),
        "p50_ms": percentile_ms(latencies, 50),
        "p99_ms": percentile_ms(latencies, 99),
        "cpu_count": os.cpu_count(),
    }
    return row, outputs


def serving_configs(workers):
    return [
        {"name": "serial", "target": Target("compiled", threads=1),
         "batched": False},
        {"name": "thread", "target": Target("compiled", threads=workers),
         "batched": False},
        {"name": "batch-thread", "target": Target("compiled", threads=workers),
         "batched": True},
    ]


# ---------------------------------------------------------------------------
# warm-start probe (run as a subprocess, twice, against one cache dir)
# ---------------------------------------------------------------------------

def warm_probe(shape, sizes):
    """Compile under REPRO_CACHE_DIR and report the disk-cache counters."""
    output, schedule = build_serving_pipeline(shape)
    pipeline = Pipeline(output)
    compiled = pipeline.compile(sizes, schedule=schedule, target="compiled")
    checksum = float(compiled.run(inputs=request_stream(shape, 1)[0]).sum())
    info = pipeline.disk_cache_info()._asdict()
    info["checksum"] = checksum
    print(json.dumps(info))


def measure_warm_start(profile):
    shape, _, _ = PROFILES[profile]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory(prefix="repro-serving-cache-") as cache_dir:
        env["REPRO_CACHE_DIR"] = cache_dir
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--warm-probe", "--profile", profile],
                capture_output=True, text=True, env=env, check=True,
                timeout=300)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    cold, warm = runs
    assert cold["lowerings"] >= 1 and cold["stores"] >= 1, cold
    assert warm["lowerings"] == 0, \
        f"warm start re-lowered: {warm}"
    assert warm["hits"] >= 1 and warm["checksum"] == cold["checksum"], warm
    return {"cold": cold, "warm": warm}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for CI smoke runs")
    parser.add_argument("--profile", choices=tuple(PROFILES), default=None,
                        help="explicit profile (overrides --quick)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--warm-probe", action="store_true",
                        help=argparse.SUPPRESS)  # internal subprocess mode
    args = parser.parse_args(argv)
    profile = args.profile or ("quick" if args.quick else "full")
    shape, request_count, batch_size = PROFILES[profile]
    sizes = list(shape)

    if args.warm_probe:
        warm_probe(shape, sizes)
        return 0

    output, schedule = build_serving_pipeline(shape)
    pipeline = Pipeline(output)
    requests = request_stream(shape, request_count)

    rows, reference = [], None
    for config in serving_configs(args.workers):
        row, outputs = measure(config, pipeline, sizes, schedule,
                               requests, batch_size)
        if reference is None:
            reference = outputs
        else:
            for index, (got, want) in enumerate(zip(outputs, reference)):
                assert got.tobytes() == want.tobytes(), \
                    f"{row['config']}: request {index} differs from serial"
        rows.append(row)
        print(f"{row['config']:>14}  "
              f"workers={row['workers']}  batch={row['batch_size']}  "
              f"{row['images_per_sec']:8.1f} img/s  "
              f"p50 {row['p50_ms']:7.2f} ms  p99 {row['p99_ms']:7.2f} ms",
              flush=True)

    warm = measure_warm_start(profile)
    print(f"warm start: cold lowerings={warm['cold']['lowerings']} "
          f"stores={warm['cold']['stores']}; warm lowerings="
          f"{warm['warm']['lowerings']} hits={warm['warm']['hits']}",
          flush=True)

    artifact = {
        "benchmark": "serving_throughput_latency",
        "profile": profile,
        "image_shape": list(shape),
        "requests": request_count,
        "batch_size": batch_size,
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "warm_start": warm,
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
