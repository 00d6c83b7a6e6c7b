"""Ablations of the compiler's optimization passes.

DESIGN.md calls out four design choices whose value the paper argues for:
sliding-window reuse, storage folding, vectorization, and parallelism.  Each
ablation disables one pass (or schedule feature) and measures the effect under
the machine model on the blur pipeline with its tuned schedule.
"""

import pytest

from repro.apps import make_blur
from repro.compiler import LoweringOptions
from repro.machine import SMALL_CACHE_CPU, estimate_cost
from repro.metrics import measure_tradeoffs

from conftest import print_table, run_once


@pytest.mark.figure("ablation")
def test_ablation_compiler_passes(benchmark, blur_image):
    size = [blur_image.shape[0], blur_image.shape[1]]

    def measure_all():
        rows = []

        def add(name, schedule, options=None):
            app = make_blur(blur_image)
            named = app.named_schedule(schedule)
            cost = estimate_cost(app.pipeline(), size, schedule=named,
                                 profile=SMALL_CACHE_CPU, options=options)
            tradeoff = measure_tradeoffs(app.pipeline(), size, schedule=named,
                                         options=options)
            rows.append({
                "configuration": name,
                "model_ms": cost.milliseconds,
                "ops": tradeoff.total_ops,
                "footprint_bytes": tradeoff.peak_footprint_bytes,
            })

        add("tuned (all passes)", "tuned")
        add("tuned, no sliding window", "tuned",
            LoweringOptions(sliding_window=False))
        add("tuned, no storage folding", "tuned",
            LoweringOptions(storage_folding=False))
        add("tuned, no vectorization", "tuned",
            LoweringOptions(vectorize=False))
        add("tiled, no parallelism", "tiled_novec")
        add("breadth-first baseline", "breadth_first")
        return rows

    rows = run_once(benchmark, measure_all)
    print_table("Ablations: contribution of individual optimizations (blur, tuned schedule)",
                rows, ["configuration", "model_ms", "ops", "footprint_bytes"])

    by_name = {r["configuration"]: r for r in rows}
    full = by_name["tuned (all passes)"]
    # Sliding window avoids recomputation: disabling it increases operations.
    assert by_name["tuned, no sliding window"]["ops"] >= full["ops"]
    # Storage folding shrinks the intermediate footprint.
    assert by_name["tuned, no storage folding"]["footprint_bytes"] >= full["footprint_bytes"]
    # Vectorization reduces modelled time.
    assert by_name["tuned, no vectorization"]["model_ms"] >= full["model_ms"] * 0.99
    # The full configuration beats the naive baseline comfortably.
    assert full["model_ms"] < by_name["breadth-first baseline"]["model_ms"]
