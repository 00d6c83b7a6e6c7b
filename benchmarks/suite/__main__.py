"""Command line of the benchmark: ``python3 benchmarks/suite --workload NAME``.

Prints per-program rows, then every metric by name with its unit, then — as
the last line — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``metrics`` holds the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0`` and its per-layer metrics with ``--trace 1``; end-to-end
numbers are always taken with tracing off.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks/suite", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0, help="seeds every generated input")
    parser.add_argument("--seconds", type=float,
                        help="timed window (default: run_seconds of BENCHMARK.json; 2 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: record spans and print the per-layer metrics instead")
    parser.add_argument("--quick", action="store_true",
                        help="160x128 images and ~2 s windows: same code paths and checks, "
                             "numbers not comparable with full runs")
    parser.add_argument("--aa", type=int, nargs="?", const=3, metavar="K",
                        help="run every workload in two alternating sets of K and compare them")
    args = parser.parse_args(argv)
    if args.aa is None and args.workload is None:
        parser.error("--workload is required (or --aa)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks/suite: no src/repro under {ROOT}; run it from a full checkout",
              file=sys.stderr)
        return 2
    # Sibling modules are imported as suite.*, so suite/trace.py never shadows
    # the standard library's trace module.
    sys.path[:] = [str(HERE.parent), str(ROOT / "src")] + [p for p in sys.path if p != str(HERE)]
    if args.aa is not None:
        from suite.aa import run_aa

        return run_aa(contract, args)
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(contract["run_seconds"])

    # Everything the run writes — the compile caches, the native backend's
    # build directory, the C compiler's temporaries — stays under one
    # directory inside the checkout, removed when the run ends.
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    os.environ["TMPDIR"] = tempfile.tempdir = str(work_dir)
    try:
        return run_workload(contract, args, work_dir, scratch)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_workload(contract: dict, args: argparse.Namespace, work_dir: Path, scratch: Path) -> int:
    from suite.harness import Session, provenance
    from suite.programs import workloads

    table = workloads(args.quick)
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json has {sorted(table)}",
              file=sys.stderr)
        return 2
    why = next(w["why"] for w in contract["workloads"] if w["name"] == args.workload)
    stamp = provenance(args.seed)
    print(f"workload {args.workload}: {why}")
    print(f"window {args.seconds:g} s, trace {args.trace}"
          + (", QUICK PROFILE - numbers are not comparable with full runs" if args.quick else ""))
    print("provenance " + json.dumps(stamp))

    session = Session(table[args.workload], args.seed, args.seconds,
                      bool(args.trace), args.quick, work_dir)
    session.run()
    session.print_rows()
    if args.trace:
        session.print_layers()
        metrics = session.per_layer()
        trace_file = scratch / f"trace-{args.workload}-seed{args.seed}.json"
        session.recorder.dump(trace_file, {**stamp, "workload": args.workload,
                                           "seconds": args.seconds, "quick": args.quick})
        print(f"trace: {len(session.recorder.spans)} spans written to {trace_file}")
    else:
        metrics = session.end_to_end()
    declared = contract["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in declared] != list(metrics):
        print("metric names differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"metric {name:<36} {value:>16.6f} {unit}")
    failed = len(session.failures)
    print(f"ops {session.attempted}, ops_failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
