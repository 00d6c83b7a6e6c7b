"""Autotune the blur pipeline with the genetic-algorithm tuner of Section 5.

The tuner searches the schedule space (call schedules + domain orders) using
the machine model as its fitness function, then the winning schedule is
checked against the reference output and compared with the breadth-first
baseline.

Run with:  python examples/autotune_blur.py
"""

import numpy as np

from repro.apps import make_blur
from repro.autotuner import Autotuner, CostModelEvaluator, TunerConfig
from repro.machine import SMALL_CACHE_CPU, estimate_cost
from repro.pipeline import Pipeline
from repro.reference import blur_ref


def main() -> None:
    image = np.random.default_rng(3).random((96, 64)).astype(np.float32)
    app = make_blur(image)
    pipeline = Pipeline(app.output)
    tuning_size = [64, 48]

    evaluator = CostModelEvaluator(pipeline, tuning_size, profile=SMALL_CACHE_CPU)
    config = TunerConfig(population_size=12, generations=4, seed=0)
    print(f"tuning blur: population {config.population_size}, "
          f"{config.generations} generations ...")
    result = Autotuner(pipeline, evaluator, config).run()

    print("\nconvergence (best estimated cycles per generation):")
    for generation, fitness in enumerate(result.history):
        print(f"  generation {generation}: {fitness:,.0f}")
    print(f"candidates evaluated: {result.evaluations} "
          f"(invalid: {result.invalid_candidates})")

    print("\nbest schedule found:")
    print(result.best_genome.describe())

    # The winner is a first-class Schedule value: serializable (JSON) and
    # applied non-destructively — ship it separately from the algorithm.
    best = result.best_schedule(pipeline)
    print(f"\nschedule digest: {best.digest()}")
    output = pipeline.compile(app.default_size, schedule=best).run()
    print("correct against reference:",
          bool(np.allclose(output, blur_ref(image), atol=1e-4)))

    naive = estimate_cost(pipeline, app.default_size, profile=SMALL_CACHE_CPU)
    tuned = estimate_cost(pipeline, app.default_size, schedule=best,
                          profile=SMALL_CACHE_CPU)
    print(f"breadth-first baseline: {naive.milliseconds:.3f} ms (model)")
    print(f"autotuned schedule    : {tuned.milliseconds:.3f} ms (model) "
          f"-> {naive.milliseconds / tuned.milliseconds:.2f}x faster")


if __name__ == "__main__":
    main()
