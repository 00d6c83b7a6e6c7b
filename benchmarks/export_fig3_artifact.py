"""Export the Figure 3 blur schedule-sweep timings as a JSON artifact.

Runs every named blur schedule against a single un-mutated algorithm graph
through the compile-once API (``pipeline.compile(schedule=s, target=t)``)
and times repeated executions of each CompiledPipeline across all three
backends:

* ``numpy`` — every schedule;
* ``compiled`` — every schedule at ``threads=1`` and ``threads=4``;
* ``native`` — every schedule at ``threads=1`` and ``threads=4``, when a C
  toolchain is present (skipped honestly otherwise); the artifact asserts
  the native backend's geometric-mean speedup over compiled (threads=1) is
  at least :data:`NATIVE_SPEEDUP_GATE` — the perf gate CI runs;
* ``interp`` — the breadth-first baseline only (the interpreter is ~100x
  slower; one row anchors the speedup columns without stalling CI).

A separate ``thread_scaling`` section times a parallel schedule on a larger
image at 1/2/4 threads, recording the machine's ``cpu_count`` alongside — on
a single-core runner the expected ratio is ~1.0 (the GIL-released NumPy work
has nowhere to run concurrently), on a multi-core machine it records the
Figure 7 thread-scaling speedup.

The artifact is written to ``BENCH_fig3.json`` in the repository root; CI
uploads it per PR, and the in-tree snapshot is refreshed by re-running this
script locally and committing the result, so the performance trajectory of
the schedule sweep accumulates over time.

Run with:  python benchmarks/export_fig3_artifact.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import Target, __version__
from repro.apps import BLUR_SCHEDULES, make_blur

REPEATS = 5
IMAGE_SHAPE = (128, 96)
#: The numpy/compiled backends sweep every schedule; the interpreter (100x
#: slower) contributes only the breadth-first baseline so CI stays fast.
INTERP_SCHEDULES = ("breadth_first",)
#: The thread-scaling measurement: a parallel schedule on a larger image.
SCALING_SHAPE = (512, 512)
SCALING_SCHEDULE = "tuned"
SCALING_THREADS = (1, 2, 4)
SCALING_REPEATS = 3
#: The perf gate: native (threads=1) must beat compiled (threads=1) by at
#: least this factor, as a geometric mean across the schedule sweep.
NATIVE_SPEEDUP_GATE = 5.0

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fig3.json"


def time_compiled(compiled, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        compiled.run()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def sweep_schedules(app, pipeline):
    """Every named schedule on every backend: name@target -> timing row."""
    size = app.default_size
    from repro.codegen.c_toolchain import toolchain_available

    targets = [
        (Target(backend="numpy"), tuple(BLUR_SCHEDULES)),
        (Target(backend="compiled", threads=1), tuple(BLUR_SCHEDULES)),
        (Target(backend="compiled", threads=4), tuple(BLUR_SCHEDULES)),
        (Target(backend="interp"), INTERP_SCHEDULES),
    ]
    if toolchain_available():
        targets += [
            (Target(backend="native", threads=1), tuple(BLUR_SCHEDULES)),
            (Target(backend="native", threads=4), tuple(BLUR_SCHEDULES)),
        ]
    results = {}
    for target, names in targets:
        for name in names:
            schedule = app.named_schedule(name)
            compile_start = time.perf_counter()
            compiled = pipeline.compile(size, schedule=schedule, target=target)
            compile_seconds = time.perf_counter() - compile_start
            seconds = time_compiled(compiled)
            results[f"{name}@{target}"] = {
                "schedule": name,
                "backend": target.backend,
                "threads": target.threads,
                "workers": target.threads or 1,
                "seconds": seconds,
                "compile_seconds": compile_seconds,
                "schedule_digest": schedule.digest(),
            }
            print(f"{name:>18} @ {str(target):<18} {seconds * 1e3:9.3f} ms "
                  f"(compile {compile_seconds * 1e3:.1f} ms)")
    return results


def backend_speedups(results):
    """compiled (threads=1) vs numpy, per schedule — the codegen win."""
    speedups = {}
    for name in BLUR_SCHEDULES:
        via_numpy = results[f"{name}@numpy"]["seconds"]
        via_compiled = results[f"{name}@compiled-threads1"]["seconds"]
        speedups[name] = via_numpy / max(via_compiled, 1e-9)
    return speedups


def native_speedups(results):
    """native vs compiled, both at threads=1, per schedule — the machine-code
    win the paper's headline numbers come from.  None without a toolchain."""
    if not any(key.endswith("@native-threads1") for key in results):
        return None
    speedups = {}
    for name in BLUR_SCHEDULES:
        via_compiled = results[f"{name}@compiled-threads1"]["seconds"]
        via_native = results[f"{name}@native-threads1"]["seconds"]
        speedups[name] = via_compiled / max(via_native, 1e-9)
    return speedups


def assert_native_gate(speedups) -> float:
    """The fig3 perf gate: geomean native-over-compiled >= NATIVE_SPEEDUP_GATE."""
    values = np.array(list(speedups.values()), dtype=np.float64)
    geomean = float(np.exp(np.log(values).mean()))
    assert geomean >= NATIVE_SPEEDUP_GATE, (
        f"native backend geomean speedup over compiled is {geomean:.2f}x, "
        f"below the {NATIVE_SPEEDUP_GATE:.1f}x gate: {speedups}")
    return geomean


def thread_scaling():
    """Wall time of a parallel schedule at several worker counts, on the
    compiled backend's thread pool and (with a C toolchain) native OpenMP."""
    from repro.codegen.c_toolchain import toolchain_available

    image = np.random.default_rng(20130616).random(SCALING_SHAPE).astype(np.float32)
    app = make_blur(image)
    pipeline = app.pipeline()
    schedule = app.named_schedule(SCALING_SCHEDULE)
    modes = ("thread",)
    if toolchain_available():
        modes += ("native",)  # OpenMP teams, recorded under the same sweep
    rows = []
    for mode in modes:
        for workers in SCALING_THREADS:
            backend = "native" if mode == "native" else "compiled"
            target = Target(backend, threads=workers)
            compiled = pipeline.compile(app.default_size, schedule=schedule,
                                        target=target)
            seconds = time_compiled(compiled, repeats=SCALING_REPEATS)
            rows.append({"parallel": mode, "workers": workers,
                         "seconds": seconds})
            print(f"scaling: {SCALING_SCHEDULE} @ {SCALING_SHAPE} "
                  f"parallel={mode} workers={workers} {seconds * 1e3:9.3f} ms")
    by_key = {(r["parallel"], r["workers"]): r["seconds"] for r in rows}
    return {
        "image_shape": list(SCALING_SHAPE),
        "schedule": SCALING_SCHEDULE,
        "repeats": SCALING_REPEATS,
        "rows": rows,
        "speedup_4_over_1": by_key[("thread", 1)] / max(by_key[("thread", 4)], 1e-9),
        # Worker speedup is bounded by the cores actually available; a
        # single-core runner legitimately records ~1.0 here.
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
    }


def main(output_path=DEFAULT_OUTPUT) -> None:
    image = np.random.default_rng(20130616).random(IMAGE_SHAPE).astype(np.float32)
    app = make_blur(image)
    pipeline = app.pipeline()

    results = sweep_schedules(app, pipeline)
    speedups = backend_speedups(results)
    native = native_speedups(results)
    scaling = thread_scaling()

    print("\ncompiled (threads=1) speedup over numpy, per schedule:")
    for name, speedup in speedups.items():
        print(f"{name:>18}  {speedup:5.2f}x")
    native_geomean = None
    if native is not None:
        print("\nnative (threads=1) speedup over compiled, per schedule:")
        for name, speedup in native.items():
            print(f"{name:>18}  {speedup:5.2f}x")
        native_geomean = assert_native_gate(native)
        print(f"native geomean {native_geomean:.2f}x "
              f"(gate: >= {NATIVE_SPEEDUP_GATE:.1f}x)")
    else:
        print("\nno C toolchain: native rows skipped (gate not evaluated)")
    print(f"thread scaling ({SCALING_SCHEDULE}, {scaling['cpu_count']} cpu): "
          f"{scaling['speedup_4_over_1']:.2f}x at 4 threads")

    artifact = {
        "benchmark": "fig3_blur_schedule_sweep",
        "image_shape": list(IMAGE_SHAPE),
        "repeats": REPEATS,
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cache_info": pipeline.cache_info()._asdict(),
        "results": results,
        "compiled_speedup_over_numpy": speedups,
        "native_speedup_over_compiled": native,
        "native_speedup_geomean": native_geomean,
        "native_speedup_gate": NATIVE_SPEEDUP_GATE,
        "thread_scaling": scaling,
    }
    with open(output_path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {output_path} ({len(results)} rows)")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUTPUT)
