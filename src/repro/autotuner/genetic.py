"""The genetic-algorithm driver of the autotuner (Section 5).

Each generation is assembled from population frequencies of elitism,
crossover, mutated individuals, and random individuals, exactly as the paper
describes (which in turn derives from the PetaBricks tuner).  Invalid
schedules — ones that fail validation, lowering, or the output check — are
rejected and resampled.

Beyond the paper's loop, this tuner supports production-scale search:

* **Cost-model pruning** — pass ``measured_evaluator`` (typically a
  :class:`~repro.autotuner.evaluator.WallClockEvaluator`) and only the
  ``measure_top_k`` statically-best survivors of each generation get
  wall-clock time; evolution itself runs on the static score, so the
  expensive measurements are spent on candidates that already look good.
* **Persistent warm starts** — pass ``tuning_db`` (a
  :class:`~repro.autotuner.tuning_db.TuningDatabase`) and a run whose key
  (pipeline fingerprint x sizes x target) is already stored returns the
  recorded winner with *zero* evaluations; a run that searches records its
  winner for the next process.

Internal errors (anything that is not a documented schedule rejection) are
*not* folded into "invalid candidate": the evaluator re-raises them, and the
driver counts them in ``internal_errors``, emits a warning, and keeps the
search alive — so compiler bugs stay visible instead of silently biasing the
search.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.call_graph import build_environment, find_direct_calls
from repro.autotuner.crossover import crossover_genomes, tournament_select
from repro.autotuner.evaluator import (
    INVALID_FITNESS,
    CostModelEvaluator,
    _BaseEvaluator,
)
from repro.autotuner.mutation import mutate_genome
from repro.autotuner.random_schedule import (
    breadth_first_genome,
    random_genome,
    reasonable_genome,
)
from repro.autotuner.search_space import ScheduleGenome
from repro.core.function import Function
from repro.core.program_key import pipeline_fingerprint
from repro.core.schedule import ScheduleError
from repro.pipeline import Pipeline

__all__ = ["TunerConfig", "AutotuneResult", "Autotuner"]


@dataclass
class TunerConfig:
    """Search hyper-parameters.

    The defaults follow the paper (population 128) scaled down so that the
    pure-Python reproduction can run in CI; benchmarks pass explicit values.
    """

    population_size: int = 16
    generations: int = 5
    elitism_fraction: float = 0.125
    crossover_fraction: float = 0.25
    mutation_fraction: float = 0.5
    seed: int = 0
    gpu: bool = False
    #: Maximum resampling attempts when a generated individual is invalid.
    max_resample_attempts: int = 10
    #: When a ``measured_evaluator`` is attached, how many of each
    #: generation's statically-best candidates get wall-clock measurements.
    measure_top_k: int = 3


@dataclass
class AutotuneResult:
    """The outcome of a tuning run."""

    #: None when the result was restored from the tuning database (the stored
    #: winner is a Schedule value, not a genome) — see :attr:`schedule`.
    best_genome: Optional[ScheduleGenome]
    best_fitness: float
    #: Best fitness after each generation (the convergence curve of Section 6.1).
    history: List[float] = field(default_factory=list)
    evaluations: int = 0
    #: Candidates rejected for documented scheduling reasons (or failed checks).
    invalid_candidates: int = 0
    #: Evaluations that raised a *non*-rejection exception — compiler bugs by
    #: PR 5's contract.  These are warned about and scored INVALID so one bad
    #: candidate cannot kill a long run, but never confused with rejections.
    internal_errors: int = 0
    #: Wall-clock measurements spent on pruned survivors (0 without a
    #: measured evaluator, and 0 on a tuning-db warm start).
    wall_clock_evaluations: int = 0
    #: Best measured time in seconds (None when nothing was measured).
    best_measured_seconds: Optional[float] = None
    #: The genome that achieved :attr:`best_measured_seconds`.
    best_measured_genome: Optional[ScheduleGenome] = None
    #: True when the run was answered from the persistent tuning database.
    from_database: bool = False
    #: The winning Schedule value, populated on every run.
    schedule: Optional[object] = None

    def best_schedule(self, pipeline: Pipeline):
        """The winning genome as a first-class :class:`~repro.core.Schedule`.

        The returned value is immutable and serializable (JSON), so a tuning
        run's result can be stored and shipped separately from the algorithm,
        then replayed with ``pipeline.compile(schedule=result_schedule)``.
        """
        if self.best_genome is None:
            return self.schedule
        env = build_environment([pipeline.output_function])
        return self.best_genome.to_schedule(env, pipeline.output_function.name)

    def measured_schedule(self, pipeline: Pipeline):
        """The wall-clock winner as a Schedule (None if nothing was measured).

        This is what lands in the tuning database when measured pruning ran —
        the candidate the static model ranked highly *and* the clock
        confirmed — and may differ from :meth:`best_schedule`, which is the
        static model's own favourite.
        """
        if self.best_measured_genome is None:
            return None
        env = build_environment([pipeline.output_function])
        return self.best_measured_genome.to_schedule(
            env, pipeline.output_function.name)


class Autotuner:
    """Stochastic search over schedules for one pipeline."""

    def __init__(self, pipeline: Pipeline, evaluator: _BaseEvaluator,
                 config: Optional[TunerConfig] = None,
                 measured_evaluator: Optional[_BaseEvaluator] = None,
                 tuning_db=None):
        self.pipeline = pipeline
        self.evaluator = evaluator
        self.config = config or TunerConfig()
        self.measured_evaluator = measured_evaluator
        self.tuning_db = tuning_db
        self.rng = random.Random(self.config.seed)
        self.env: Dict[str, Function] = build_environment([pipeline.output_function])
        self.output_name = pipeline.output_function.name
        self.consumers = self._build_consumer_map()
        self.evaluations = 0
        self.invalid_candidates = 0
        self.internal_errors = 0
        self.wall_clock_evaluations = 0
        #: schedule digest -> (genome, measured seconds); filled by pruning.
        self._measured: Dict[str, Tuple[ScheduleGenome, float]] = {}

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def _build_consumer_map(self) -> Dict[str, List[str]]:
        consumers: Dict[str, List[str]] = {name: [] for name in self.env}
        for name, func in self.env.items():
            for callee in find_direct_calls(func):
                if callee in consumers:
                    consumers[callee].append(name)
        return consumers

    # ------------------------------------------------------------------
    # candidate generation and evaluation
    # ------------------------------------------------------------------
    def _random_individual(self) -> ScheduleGenome:
        if self.rng.random() < 0.5:
            return reasonable_genome(self.env, self.consumers, self.output_name,
                                     self.rng, self.config.gpu)
        return random_genome(self.env, self.consumers, self.output_name,
                             self.rng, self.config.gpu)

    def _materialize(self, genome: ScheduleGenome):
        """The genome as a first-class Schedule value (None if ill-formed).

        Equal genomes get equal digests, so repeated evaluations hit the
        pipeline's compilation cache instead of re-lowering every generation.
        """
        try:
            return genome.to_schedule(self.env, self.output_name)
        except (ScheduleError, ValueError):
            return None

    def _note_internal_error(self, error) -> None:
        """A non-rejection exception escaped evaluation: a compiler bug, per
        PR 5's contract.  Count it apart from invalid candidates and warn so
        it is visible, but keep the search alive — one broken candidate must
        not throw away hours of tuning."""
        self.internal_errors += 1
        warnings.warn(
            "autotuner: internal error while evaluating a candidate "
            f"(this is a compiler bug, not an invalid schedule): {error}",
            RuntimeWarning, stacklevel=3)

    def _evaluate(self, genome: ScheduleGenome) -> float:
        """One evaluator call with the rejection/internal-error split applied."""
        self.evaluations += 1
        schedule = self._materialize(genome)
        if schedule is None:
            self.invalid_candidates += 1
            return INVALID_FITNESS
        try:
            result = self.evaluator.evaluate_schedules(schedule)
        except Exception as error:  # noqa: BLE001 — see _note_internal_error
            self._note_internal_error(error)
            return INVALID_FITNESS
        if not result.valid:
            self.invalid_candidates += 1
        return result.fitness

    def _valid_batch(self, generators: Sequence[Callable[[], ScheduleGenome]]
                     ) -> List[Tuple[ScheduleGenome, float]]:
        """One individual per generator: draw and score every first sample,
        then resample the invalid ones (bounded).  All first samples are
        drawn before any resample, so the RNG stream — and the schedule a
        seed tunes to — depends on this order."""
        genomes = [generator() for generator in generators]
        fitnesses = [self._evaluate(genome) for genome in genomes]
        out: List[Tuple[ScheduleGenome, float]] = []
        for generator, genome, fitness in zip(generators, genomes, fitnesses):
            attempts = 0
            while fitness == INVALID_FITNESS and attempts < self.config.max_resample_attempts:
                genome = generator()
                fitness = self._evaluate(genome)
                attempts += 1
            out.append((genome, fitness))
        return out

    # ------------------------------------------------------------------
    # wall-clock pruning
    # ------------------------------------------------------------------
    def _measure_survivors(self, population: Sequence[Tuple[ScheduleGenome, float]]
                           ) -> None:
        """Spend wall-clock time on the statically-best few of a (sorted)
        generation.  Evolution keeps running on the static score — cycles and
        seconds are different units — but every measurement is banked, and
        the best measured schedule is reported (and stored) alongside."""
        if self.measured_evaluator is None:
            return
        budget = max(0, int(self.config.measure_top_k))
        measured = 0
        for genome, fitness in population:
            if measured >= budget or fitness == INVALID_FITNESS:
                break
            schedule = self._materialize(genome)
            if schedule is None:
                continue
            digest = schedule.digest()
            if digest in self._measured:
                measured += 1
                continue
            try:
                result = self.measured_evaluator.evaluate_schedules(schedule)
            except Exception as error:  # noqa: BLE001 — see _note_internal_error
                self._note_internal_error(error)
                continue
            self.wall_clock_evaluations += 1
            measured += 1
            if result.valid:
                self._measured[digest] = (genome, result.fitness)
            else:
                self.invalid_candidates += 1

    # ------------------------------------------------------------------
    # tuning database
    # ------------------------------------------------------------------
    def _database_key(self) -> Tuple[str, List[int], str]:
        fingerprint = pipeline_fingerprint(self.pipeline)
        sizes = [int(s) for s in self.evaluator.sizes]
        target = repr(self.evaluator.target.key())
        return fingerprint, sizes, target

    def _database_lookup(self) -> Optional[AutotuneResult]:
        if self.tuning_db is None:
            return None
        fingerprint, sizes, target = self._database_key()
        record = self.tuning_db.lookup(fingerprint, sizes, target)
        if record is None:
            return None
        measured = record.fitness if record.fitness_kind == "wall-seconds" else None
        return AutotuneResult(
            best_genome=None,
            best_fitness=record.fitness,
            history=[record.fitness],
            best_measured_seconds=measured,
            from_database=True,
            schedule=record.to_schedule(),
        )

    def _database_store(self, result: AutotuneResult) -> None:
        if self.tuning_db is None:
            return
        from repro.autotuner.tuning_db import TuningRecord

        fingerprint, sizes, target = self._database_key()
        if result.best_measured_seconds is not None \
                and result.best_measured_genome is not None:
            schedule = self._materialize(result.best_measured_genome)
            fitness, kind = result.best_measured_seconds, "wall-seconds"
        else:
            schedule, fitness = result.schedule, result.best_fitness
            kind = "static-cycles" if isinstance(self.evaluator, CostModelEvaluator) \
                else "wall-seconds"
        if schedule is None or fitness == INVALID_FITNESS:
            return
        self.tuning_db.record(TuningRecord(
            fingerprint=fingerprint, sizes=sizes, target=target,
            schedule=schedule.to_dict(), fitness=float(fitness),
            fitness_kind=kind, evaluations=result.evaluations,
            note=f"autotuned: pop={self.config.population_size} "
                 f"gen={self.config.generations} seed={self.config.seed}",
        ))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> AutotuneResult:
        restored = self._database_lookup()
        if restored is not None:
            return restored
        result = self._search()
        self._database_store(result)
        return result

    def _search(self) -> AutotuneResult:
        config = self.config
        population: List[Tuple[ScheduleGenome, float]] = []

        # Seed: the breadth-first schedule (always valid) plus reasonable/random ones.
        seed_genome = breadth_first_genome(self.env)
        population.append((seed_genome, self._evaluate(seed_genome)))
        population.extend(self._valid_batch(
            [self._random_individual] * (config.population_size - 1)))

        history: List[float] = []
        for _generation in range(config.generations):
            population.sort(key=lambda pair: pair[1])
            history.append(population[0][1])
            self._measure_survivors(population)

            next_population: List[Tuple[ScheduleGenome, float]] = []
            num_elite = max(1, int(config.elitism_fraction * config.population_size))
            next_population.extend(population[:num_elite])

            # Parents are picked per slot *now* (so a resample re-crosses the
            # same parents); the genomes themselves are scored as one batch.
            generators: List[Callable[[], ScheduleGenome]] = []
            num_crossover = int(config.crossover_fraction * config.population_size)
            for _ in range(num_crossover):
                parent_a = tournament_select(population, self.rng)
                parent_b = tournament_select(population, self.rng)
                generators.append(
                    lambda a=parent_a, b=parent_b: crossover_genomes(a, b, self.rng))

            num_mutation = int(config.mutation_fraction * config.population_size)
            for _ in range(num_mutation):
                parent = tournament_select(population, self.rng)
                generators.append(
                    lambda p=parent: mutate_genome(p, self.env, self.consumers,
                                                   self.output_name, self.rng,
                                                   config.gpu))

            fill = config.population_size - len(next_population) - len(generators)
            generators.extend([self._random_individual] * max(0, fill))
            next_population.extend(self._valid_batch(generators))
            population = next_population

        population.sort(key=lambda pair: pair[1])
        history.append(population[0][1])
        self._measure_survivors(population)
        best_genome, best_fitness = population[0]

        best_measured_seconds = None
        best_measured_genome = None
        if self._measured:
            best_measured_genome, best_measured_seconds = min(
                self._measured.values(), key=lambda pair: pair[1])
        return AutotuneResult(
            best_genome=best_genome,
            best_fitness=best_fitness,
            history=history,
            evaluations=self.evaluations,
            invalid_candidates=self.invalid_candidates,
            internal_errors=self.internal_errors,
            wall_clock_evaluations=self.wall_clock_evaluations,
            best_measured_seconds=best_measured_seconds,
            best_measured_genome=best_measured_genome,
            schedule=self._materialize(best_genome),
        )
