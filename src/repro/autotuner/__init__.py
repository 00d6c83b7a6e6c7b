"""The stochastic schedule autotuner (Section 5 of the paper).

A genetic algorithm searches the space of schedules for a fixed algorithm:
random valid schedules and domain-informed "reasonable" schedules seed the
population; each generation is built from elitism, tournament + two-point
crossover, mutation (including the loop-fusion and template rules the paper
describes), and fresh random individuals; candidates are validated by
attempting to lower them and scored by the static cost model or by
wall-clock time.  The statically-best survivors can be pruned into
wall-clock measurements, and winners persist in a tuning
database (``REPRO_TUNE_DB``) that warm-starts later runs.  See
``docs/autotuning.md``.
"""

from repro.autotuner.search_space import ScheduleGenome, FunctionGene
from repro.autotuner.random_schedule import random_genome, reasonable_genome
from repro.autotuner.mutation import mutate_genome
from repro.autotuner.crossover import crossover_genomes
from repro.autotuner.evaluator import (
    INVALID_FITNESS,
    REJECTION_ERRORS,
    CostModelEvaluator,
    WallClockEvaluator,
)
from repro.autotuner.genetic import AutotuneResult, Autotuner, TunerConfig
from repro.autotuner.tuning_db import TuningDatabase, TuningRecord, default_tuning_db

__all__ = [
    "ScheduleGenome",
    "FunctionGene",
    "random_genome",
    "reasonable_genome",
    "mutate_genome",
    "crossover_genomes",
    "CostModelEvaluator",
    "WallClockEvaluator",
    "INVALID_FITNESS",
    "REJECTION_ERRORS",
    "Autotuner",
    "TunerConfig",
    "AutotuneResult",
    "TuningDatabase",
    "TuningRecord",
    "default_tuning_db",
]
