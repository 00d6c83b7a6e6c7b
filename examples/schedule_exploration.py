"""Walk the schedule space of Figure 2/3/4 for the two-stage blur.

Schedules are first-class values here: one *un-mutated* algorithm graph is
compiled under every named schedule through ``pipeline.compile(schedule=s,
target=t)``, each schedule is pushed through a JSON round-trip first (they
are data — store them, diff them, ship them), and repeated realizations hit
the pipeline's compilation cache instead of re-lowering.

For each strategy this prints the three trade-off metrics of Figure 3
(span, maximum reuse distance, work amplification) and the machine-model
time, illustrating why the best schedules are the mixed ones in the middle
of the space.

Run with:  python examples/schedule_exploration.py
"""

import numpy as np

from repro import Schedule, Target
from repro.apps import make_blur
from repro.machine import SMALL_CACHE_CPU, estimate_cost
from repro.metrics import measure_tradeoffs


def main() -> None:
    image = np.random.default_rng(1).random((128, 96)).astype(np.float32)

    # ONE algorithm graph; schedules never touch it.
    app = make_blur(image)
    pipeline = app.pipeline()
    size = app.default_size
    target = Target(backend="numpy")

    print(f"{'strategy':<20} {'span':>12} {'reuse dist':>12} {'work ampl':>10} "
          f"{'model ms':>10} {'digest':>18}")
    baseline_ops = None
    for name in ("breadth_first", "full_fusion", "sliding_window",
                 "tiled", "sliding_in_tiles", "tuned"):
        # Schedules are serializable values: JSON round-trip, then apply.
        schedule = Schedule.from_json(app.named_schedule(name).to_json())

        tradeoff = measure_tradeoffs(pipeline, size, schedule=schedule,
                                     baseline_ops=baseline_ops)
        if baseline_ops is None:
            baseline_ops = tradeoff.total_ops
            tradeoff.work_amplification = 1.0
        cost = estimate_cost(pipeline, size, schedule=schedule,
                             profile=SMALL_CACHE_CPU)

        # compile once / run many: the second call is pure execution.
        compiled = pipeline.compile(size, schedule=schedule, target=target)
        compiled.run()
        compiled.run()

        print(f"{name:<20} {tradeoff.span:>12.0f} {tradeoff.max_reuse_distance:>12d} "
              f"{tradeoff.work_amplification:>10.2f} {cost.milliseconds:>10.3f} "
              f"{schedule.digest():>18}")

    info = pipeline.cache_info()
    print(f"\ncompilation cache: {info.hits} hits, {info.misses} misses "
          f"({info.currsize}/{info.maxsize} entries)")
    print("Every schedule computes the same image; only locality, parallelism and")
    print("redundant work differ — the fundamental tension of Section 3.")


if __name__ == "__main__":
    main()
