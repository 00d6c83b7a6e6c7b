"""The fuzzing CLI: ``python -m repro.fuzz --seed N --cases K [--minimize]``.

Runs K differential cases derived from one base seed, prints a running
summary, and on failure dumps a self-contained repro script per failing case
(minimized first when ``--minimize`` is given) into ``--out``.  Exit status
is non-zero iff any case failed, so the command gates CI directly.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.fuzz.minimize import minimize_case
from repro.fuzz.oracle import FuzzCase, repro_script, run_case
from repro.fuzz.pipeline_gen import GeneratorConfig, extended_config

#: Spreads case indices across seed space so adjacent base seeds do not
#: produce overlapping corpora (prime stride).
SEED_STRIDE = 1_000_003


def case_seed(base_seed: int, index: int) -> int:
    return (int(base_seed) * SEED_STRIDE + index) % (2 ** 31)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the schedule/backend stack: "
                    "random pipelines x random legal schedules, realized on "
                    "interp/numpy/compiled (and optionally native) and "
                    "checked bit-identical.")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of the corpus (default 0)")
    parser.add_argument("--cases", type=int, default=100,
                        help="number of cases to run (default 100)")
    parser.add_argument("--minimize", action="store_true",
                        help="shrink failing cases before dumping repro scripts")
    parser.add_argument("--out", type=Path, default=Path("fuzz_failures"),
                        help="directory for dumped repro scripts "
                             "(default ./fuzz_failures; created on first failure)")
    parser.add_argument("--threads", default="1,4",
                        help="comma-separated compiled-backend thread counts "
                             "(default '1,4')")
    parser.add_argument("--native", nargs="?", const="1,4", default="",
                        metavar="THREADS",
                        help="run the native compile-to-C leg at these "
                             "comma-separated thread counts (bare --native "
                             "means '1,4'; skipped silently without a C "
                             "toolchain)")
    parser.add_argument("--max-stages", type=int, default=None,
                        help="override the generator's maximum pipeline depth")
    parser.add_argument("--extended", action="store_true",
                        help="widen the generator vocabulary: gather/blend op "
                             "kinds and 3-D (time-dimensioned) specs, plus "
                             "directed rdom_outer schedule interchanges")
    parser.add_argument("--max-failures", type=int, default=10,
                        help="stop after this many failing cases (default 10)")
    parser.add_argument("--quiet", action="store_true",
                        help="only print failures and the final summary")
    args = parser.parse_args(argv)

    thread_counts = tuple(int(t) for t in str(args.threads).split(",") if t)
    native_threads = tuple(int(t) for t in str(args.native).split(",") if t)
    config = None
    if args.extended:
        overrides = {}
        if args.max_stages is not None:
            overrides["max_stages"] = int(args.max_stages)
        config = extended_config(**overrides)
    elif args.max_stages is not None:
        config = GeneratorConfig(max_stages=int(args.max_stages))

    passed = failed = 0
    started = time.time()
    dumped = []
    for index in range(args.cases):
        seed = case_seed(args.seed, index)
        case = FuzzCase.from_seed(seed, config=config,
                                  thread_counts=thread_counts,
                                  native_thread_counts=native_threads)
        report = run_case(case)
        if report.invalid:
            # from_seed pre-validates schedules, so this is unreachable in
            # practice; count it as a failure rather than hiding it.
            report.ok = False
        if report.ok:
            passed += 1
            if not args.quiet and (index + 1) % 25 == 0:
                rate = (index + 1) / (time.time() - started)
                print(f"[{index + 1}/{args.cases}] {passed} ok, {failed} failed "
                      f"({rate:.1f} cases/s)", flush=True)
            continue

        failed += 1
        print(f"[{index + 1}/{args.cases}] FAIL seed={seed}", flush=True)
        print(report.summary(), flush=True)
        if args.minimize:
            print("  minimizing...", flush=True)
            small = minimize_case(case)
            small_report = run_case(small)
            if small_report.ok:
                # Shrinking lost the failure (flaky or minimizer bug): keep
                # the original failing case and its original report.
                print("  minimization lost the failure; dumping the "
                      "original case", flush=True)
            else:
                case, report = small, small_report
                print(f"  minimized to {len(case.spec.stages)} stage(s), "
                      f"sizes={list(case.sizes)}", flush=True)
        args.out.mkdir(parents=True, exist_ok=True)
        filename = f"repro_seed{seed}_{case.key()}.py"
        path = args.out / filename
        path.write_text(repro_script(report, filename=filename))
        dumped.append(path)
        print(f"  repro script: {path}", flush=True)
        if failed >= args.max_failures:
            print(f"stopping after {failed} failures (--max-failures)", flush=True)
            break

    elapsed = time.time() - started
    print(f"\n{passed + failed} cases in {elapsed:.1f}s: "
          f"{passed} ok, {failed} failed", flush=True)
    if dumped:
        print("repro scripts:", *(str(p) for p in dumped), sep="\n  ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
