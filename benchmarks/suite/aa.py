"""``--aa K``: two sets of runs of the same code must agree.

Every workload is run 2*K times untraced — sets A and B interleaved in
alternating order, run i of either set with seed ``seed + i`` — plus one traced
run per set with the same seed.  For every end-to-end metric this prints each
set's median and spread (distance between the quartiles as a share of the
median, from ``statistics.quantiles(values, n=4)``) beside the metric's bound
in ``BENCHMARK.json``, and fails when a spread exceeds the bound or set B's
median is worse than set A's by more than the bound.  The exact-count layer
metrics of the two traced runs must be identical: the compiler is
deterministic or this fails loudly.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Per-layer metrics that are counts made by the program, not times.
EXACT = ("compiler.ir_nodes_before_simplify", "compiler.ir_nodes_final",
         "codegen.c_source_kb", "codegen.cc_invocations", "pipeline.warm_lowerings",
         "streaming.static_peak_kb")


def run_once(workload: str, seed: int, args, traced: bool) -> dict:
    command = [sys.executable, str(HERE), "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced))]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(contract: dict, args) -> int:
    k = max(2, args.aa)
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    bad = []
    for workload in names:
        sets = {"A": [], "B": []}
        for i in range(k):
            for which in ("AB", "BA")[i % 2]:
                result = run_once(workload, args.seed + i, args, traced=False)
                sets[which].append(result)
                print(f"{workload} {which}{i} seed {args.seed + i}: " + " ".join(
                    f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()),
                    flush=True)
        print(f"\n{workload}: {k} runs per set")
        print(f"{'metric':<18} {'unit':<6} {'median A':>12} {'median B':>12} {'B vs A':>8} "
              f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in sets[s]] for s in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            spreads = spread(a), spread(b)
            # setup_s is gated on the medians only, as the driver does.
            wide = name != "setup_s" and max(spreads) > bound
            verdict = "SPREAD" if wide else "SHIFT" if worse > bound else "ok"
            if verdict != "ok":
                bad.append(f"{workload} {name} {verdict}")
            print(f"{name:<18} {metric['unit']:<6} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{worse:>+8.1%} {spreads[0]:>9.1%} {spreads[1]:>9.1%} {bound:>6.0%}  {verdict}")
        failed = sum(r["failed"] for s in sets.values() for r in s)
        if failed:
            bad.append(f"{workload} {failed} operations failed")
        first, second = (run_once(workload, args.seed, args, traced=True)["metrics"]
                         for _ in range(2))
        for name in EXACT:
            same = first[name]["value"] == second[name]["value"]
            print(f"exact {name:<36} {first[name]['value']:>14.6f} "
                  f"{second[name]['value']:>14.6f}  {'ok' if same else 'DIFFERS'}")
            if not same:
                bad.append(f"{workload} {name} is not deterministic")
        print(flush=True)
    for line in bad:
        print(f"A/A FAILED: {line}")
    return 1 if bad else 0
