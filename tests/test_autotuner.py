"""Tests for the genetic autotuner (Section 5)."""

import random

import numpy as np
import pytest

from repro.analysis.call_graph import build_environment
from repro.apps import make_blur, make_unsharp
from repro.autotuner import (
    Autotuner,
    CostModelEvaluator,
    TunerConfig,
    crossover_genomes,
    mutate_genome,
    random_genome,
    reasonable_genome,
)
from repro.autotuner.random_schedule import breadth_first_genome
from repro.autotuner.search_space import FunctionGene, ScheduleGenome
from repro.machine import GPU_LIKE, SMALL_CACHE_CPU, XEON_W3520, estimate_cost
from repro.pipeline import Pipeline
from repro.runtime.target import Target

from _image_assertions import assert_images_close


@pytest.fixture(scope="module")
def blur_setup():
    image = np.random.default_rng(5).random((48, 32)).astype(np.float32)
    app = make_blur(image)
    pipeline = app.pipeline()
    env = build_environment([pipeline.output_function])
    consumers = {"blur_x": ["blur_y"], "input_clamped": ["blur_x"], "blur_y": []}
    return image, app, pipeline, env, consumers


class TestGenomes:
    def test_breadth_first_genome_is_valid(self, blur_setup):
        _, _, pipeline, env, _ = blur_setup
        genome = breadth_first_genome(env)
        schedules = genome.to_schedules(env, "blur_y")
        assert schedules["blur_x"].compute_level.is_root()

    def test_random_genomes_differ(self, blur_setup):
        _, _, _, env, consumers = blur_setup
        rng = random.Random(1)
        genomes = [random_genome(env, consumers, "blur_y", rng).describe() for _ in range(5)]
        assert len(set(genomes)) > 1

    def test_reasonable_genome_inlines_pointwise(self, blur_setup):
        _, _, _, env, consumers = blur_setup
        rng = random.Random(2)
        genome = reasonable_genome(env, consumers, "blur_y", rng)
        assert genome.genes["input_clamped"].call_schedule == ("inline",)

    def test_mutation_changes_something_eventually(self, blur_setup):
        _, _, _, env, consumers = blur_setup
        rng = random.Random(3)
        genome = breadth_first_genome(env)
        mutated = genome
        for _ in range(10):
            mutated = mutate_genome(mutated, env, consumers, "blur_y", rng)
        assert mutated.describe() != genome.describe()

    def test_crossover_mixes_parents(self, blur_setup):
        _, _, _, env, _ = blur_setup
        rng = random.Random(4)
        parent_a = ScheduleGenome({n: FunctionGene(("root",), []) for n in env})
        parent_b = ScheduleGenome({n: FunctionGene(("inline",), []) for n in env})
        seen = set()
        for _ in range(20):
            child = crossover_genomes(parent_a, parent_b, rng)
            seen.add(tuple(child.genes[n].call_schedule[0] for n in sorted(env)))
        assert len(seen) > 1


class TestEvaluator:
    def test_invalid_schedule_gets_infinite_fitness(self, blur_setup):
        _, _, pipeline, env, _ = blur_setup
        evaluator = CostModelEvaluator(pipeline, [24, 16], profile=SMALL_CACHE_CPU)
        genome = breadth_first_genome(env)
        genome.genes["blur_x"] = FunctionGene(("at", "blur_y", "not_a_dim"), [])
        result = evaluator.evaluate_schedules(genome.to_schedule(env, "blur_y"))
        assert not result.valid

    def test_valid_schedule_scores_finite(self, blur_setup):
        _, _, pipeline, env, _ = blur_setup
        evaluator = CostModelEvaluator(pipeline, [24, 16], profile=SMALL_CACHE_CPU)
        schedule = breadth_first_genome(env).to_schedule(env, "blur_y")
        result = evaluator.evaluate_schedules(schedule)
        assert result.valid and result.fitness > 0

    def test_profile_defaults_to_the_targets(self, blur_setup):
        """A tuning run is filed under its target's key, which names the
        profile: without an explicit ``profile`` the evaluator must score on
        the target's machine, not the default Xeon."""
        _, _, pipeline, env, _ = blur_setup
        schedule = breadth_first_genome(env).to_schedule(env, "blur_y")
        evaluator = CostModelEvaluator(
            pipeline, [24, 16], target=Target("interp", profile=GPU_LIKE.name))
        assert evaluator.profile == GPU_LIKE
        expected = estimate_cost(pipeline, [24, 16], schedule=schedule,
                                 profile=GPU_LIKE).cycles
        assert evaluator.evaluate_schedules(schedule).fitness == expected
        assert expected != estimate_cost(pipeline, [24, 16], schedule=schedule,
                                         profile=XEON_W3520).cycles

    def test_wall_clock_defaults_to_native_when_toolchain_present(
            self, blur_setup, monkeypatch):
        """Wall-clock timing should rank the machine code a deployed pipeline
        actually runs when a C toolchain is on PATH..."""
        from repro.autotuner import WallClockEvaluator
        from repro.codegen import c_toolchain

        _, _, pipeline, _, _ = blur_setup
        monkeypatch.setattr(c_toolchain, "toolchain_available", lambda: True)
        assert WallClockEvaluator(pipeline, [24, 16]).target.backend == "native"

    def test_wall_clock_falls_back_to_compiled_without_toolchain(
            self, blur_setup, monkeypatch):
        """...and fall back to the generated-source backend when there is no
        compiler, so the tuner still works on a toolchain-free box.  An
        explicit backend choice always wins over the probe."""
        from repro.autotuner import WallClockEvaluator
        from repro.codegen import c_toolchain

        _, _, pipeline, _, _ = blur_setup
        monkeypatch.setattr(c_toolchain, "toolchain_available", lambda: False)
        assert WallClockEvaluator(pipeline, [24, 16]).target.backend == "compiled"
        monkeypatch.setattr(c_toolchain, "toolchain_available", lambda: True)
        explicit = WallClockEvaluator(pipeline, [24, 16], target="compiled")
        assert explicit.target.backend == "compiled"


class TestErrorMaskingRegression:
    """PR 7's foregrounded bugfix: the evaluators used to catch
    ``RuntimeError, ValueError, KeyError, IndexError`` wholesale and score the
    candidate INVALID — silently masking compiler bugs as "invalid schedule".
    Only documented rejections may be converted; everything else re-raises."""

    def _diamond_pipeline(self):
        """The PR 5 fuzz-minimized case whose bad compute_at used to crash
        flatten with an internal RuntimeError before validation was added."""
        from repro.lang import Buffer, Func, Var, clamp

        rng = np.random.default_rng(60)
        image = Buffer(rng.random((16, 12)).astype(np.float32), name="in")
        x, y = Var("x"), Var("y")
        s0, s1, s2 = Func("s0"), Func("s1"), Func("s2")
        s0[x, y] = image[clamp(x, 0, 15), clamp(y, 0, 11)] + 1.0
        s1[x, y] = s0[x, y] * 2.0
        s2[x, y] = s1[x, y] + s0[x, y]
        return Pipeline(s2)

    def _bad_schedule(self):
        from repro.core.pipeline_schedule import Schedule

        return (Schedule()
                .func("s0").compute_at("s2", "y").store_at("s2", "y")
                .func("s1").compute_root()
                .func("s2").compute_root().schedule)

    def test_schedule_that_used_to_crash_flatten_is_a_rejection(self):
        """The flatten-crasher now surfaces as a ScheduleError, which IS a
        documented rejection: the evaluator scores it invalid, no raise."""
        pipeline = self._diamond_pipeline()
        evaluator = CostModelEvaluator(pipeline, [8, 6], profile=SMALL_CACHE_CPU)
        result = evaluator.evaluate_schedules(self._bad_schedule())
        assert not result.valid
        assert result.fitness == float("inf")
        assert "not nested inside" in result.error

    def test_internal_error_escapes_the_evaluator(self, blur_setup, monkeypatch):
        """A non-rejection exception during evaluation must propagate."""
        _, _, pipeline, env, _ = blur_setup
        evaluator = CostModelEvaluator(pipeline, [24, 16], profile=SMALL_CACHE_CPU)

        def boom(*args, **kwargs):
            raise KeyError("lost a buffer mid-lowering")

        monkeypatch.setattr(pipeline, "compile", boom)
        schedule = breadth_first_genome(env).to_schedule(env, "blur_y")
        with pytest.raises(KeyError, match="lost a buffer"):
            evaluator.evaluate_schedules(schedule)

    def test_internal_error_escapes_wall_clock_evaluator(self, blur_setup,
                                                         monkeypatch):
        from repro.autotuner import WallClockEvaluator

        _, _, pipeline, env, _ = blur_setup
        evaluator = WallClockEvaluator(pipeline, [24, 16])

        def boom(*args, **kwargs):
            raise RuntimeError("flatten fell over")

        monkeypatch.setattr(pipeline, "compile", boom)
        schedule = breadth_first_genome(env).to_schedule(env, "blur_y")
        with pytest.raises(RuntimeError, match="flatten fell over"):
            evaluator.evaluate_schedules(schedule)

    def test_tuner_counts_internal_errors_separately(self, blur_setup):
        """The driver keeps a long search alive but counts and warns —
        internal errors are never folded into invalid_candidates."""
        _, _, pipeline, env, _ = blur_setup
        evaluator = CostModelEvaluator(pipeline, [24, 16], profile=SMALL_CACHE_CPU)
        real = evaluator.evaluate_schedules
        calls = {"n": 0}

        def flaky(schedules):
            calls["n"] += 1
            if calls["n"] == 3:
                raise IndexError("codegen emitted a bad buffer index")
            return real(schedules)

        evaluator.evaluate_schedules = flaky
        config = TunerConfig(population_size=6, generations=1, seed=13)
        tuner = Autotuner(pipeline, evaluator, config)
        with pytest.warns(RuntimeWarning, match="compiler bug"):
            result = tuner.run()
        assert result.internal_errors == 1
        assert result.best_fitness < float("inf")


class TestAutotuner:
    def test_tuner_improves_on_breadth_first(self, blur_setup):
        image, app, pipeline, env, _ = blur_setup
        evaluator = CostModelEvaluator(pipeline, [32, 24], profile=SMALL_CACHE_CPU)
        config = TunerConfig(population_size=8, generations=3, seed=7)
        tuner = Autotuner(pipeline, evaluator, config)
        result = tuner.run()

        breadth_first_fitness = evaluator.evaluate_schedules(
            breadth_first_genome(env).to_schedule(env, "blur_y")).fitness
        assert result.best_fitness <= breadth_first_fitness
        assert len(result.history) == config.generations + 1
        # Convergence curve is monotonically non-increasing (elitism).
        assert all(later <= earlier + 1e-9
                   for earlier, later in zip(result.history, result.history[1:]))

    def test_best_schedule_is_correct(self, blur_setup):
        image, app, pipeline, env, _ = blur_setup
        from repro.reference import blur_ref

        evaluator = CostModelEvaluator(pipeline, [32, 24], profile=SMALL_CACHE_CPU)
        config = TunerConfig(population_size=6, generations=2, seed=11)
        result = Autotuner(pipeline, evaluator, config).run()
        output = pipeline.compile([48, 32], schedule=result.best_schedule(pipeline)).run()
        assert_images_close(output, blur_ref(image))

    def test_counters_track_invalid_candidates(self, blur_setup):
        _, _, pipeline, env, _ = blur_setup
        evaluator = CostModelEvaluator(pipeline, [24, 16], profile=SMALL_CACHE_CPU)
        config = TunerConfig(population_size=6, generations=1, seed=13)
        tuner = Autotuner(pipeline, evaluator, config)
        result = tuner.run()
        assert result.evaluations >= config.population_size


class TestCrossResolution:
    """Figure 8: a schedule tuned at low resolution transfers upward.  Under
    the cost model, the 32x24 winner runs at 96x64 within 4x of the
    schedule tuned at 96x64 (the paper's worst case is 16x)."""

    @pytest.mark.parametrize("make", [make_blur, make_unsharp],
                             ids=["blur", "unsharp"])
    def test_low_to_high_resolution_slowdown_below_4x(self, make):
        image = np.random.default_rng(20130616).random((128, 96)).astype(np.float32)
        pipeline = Pipeline(make(image).output)

        def tune(sizes, seed):
            evaluator = CostModelEvaluator(pipeline, sizes, profile=SMALL_CACHE_CPU)
            config = TunerConfig(population_size=6, generations=2, seed=seed)
            return Autotuner(pipeline, evaluator, config).run().best_schedule(pipeline)

        def model_ms(schedule):
            return estimate_cost(pipeline, [96, 64], schedule=schedule,
                                 profile=SMALL_CACHE_CPU).milliseconds

        slowdown = model_ms(tune([32, 24], seed=1)) / model_ms(tune([96, 64], seed=2))
        assert slowdown < 4.0
