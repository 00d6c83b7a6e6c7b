"""Tests for the persistent tuning database and its autotuner integration.

Covers the satellite checklist: record round-trips, corruption recovery,
concurrent writers — plus the warm-start contract (a stored winner is
returned with zero evaluations), structural pipeline fingerprints and the
records older versions shipped as per-app defaults.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.apps.blur import make_blur
from repro.autotuner import (
    Autotuner,
    CostModelEvaluator,
    TunerConfig,
    TuningDatabase,
    TuningRecord,
    WallClockEvaluator,
    pipeline_fingerprint,
)
from repro.autotuner.tuning_db import TUNE_DB_ENV_VAR, default_tuning_db
from repro.lang import Buffer, Func, Var, clamp
from repro.machine import SMALL_CACHE_CPU
from repro.pipeline import Pipeline


def _record(fingerprint="f" * 32, sizes=(32, 24), target="('interp',)",
            fitness=100.0, kind="static-cycles", schedule=None):
    return TuningRecord(
        fingerprint=fingerprint, sizes=list(sizes), target=target,
        schedule=schedule if schedule is not None else {"version": 1, "funcs": {}},
        fitness=fitness, fitness_kind=kind)


# ---------------------------------------------------------------------------
# record round-trip and best-if-better semantics
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_store_then_lookup(self, tmp_path):
        db = TuningDatabase(tmp_path)
        record = _record(fitness=42.0)
        assert db.record(record)
        loaded = db.lookup(record.fingerprint, record.sizes, record.target)
        assert loaded is not None
        assert loaded.fitness == 42.0
        assert loaded.schedule == record.schedule
        assert loaded.fitness_kind == "static-cycles"
        assert db.info()["records"] == 1

    def test_miss_on_unknown_key(self, tmp_path):
        db = TuningDatabase(tmp_path)
        assert db.lookup("0" * 32, [8, 8], "t") is None
        assert db.misses == 1

    def test_better_fitness_overwrites(self, tmp_path):
        db = TuningDatabase(tmp_path)
        db.record(_record(fitness=100.0))
        assert db.record(_record(fitness=50.0))
        assert db.lookup(_record().fingerprint, _record().sizes,
                         _record().target).fitness == 50.0

    def test_worse_fitness_is_rejected(self, tmp_path):
        db = TuningDatabase(tmp_path)
        db.record(_record(fitness=50.0))
        assert not db.record(_record(fitness=100.0))
        assert db.lookup(_record().fingerprint, _record().sizes,
                         _record().target).fitness == 50.0

    def test_measured_outranks_model_estimate(self, tmp_path):
        """A wall-clock record displaces a static-cycles one even though the
        raw numbers aren't comparable (different units, higher trust)."""
        db = TuningDatabase(tmp_path)
        db.record(_record(fitness=50.0, kind="static-cycles"))
        assert db.record(_record(fitness=1e9, kind="wall-seconds"))
        assert not db.record(_record(fitness=1.0, kind="static-cycles"))
        loaded = db.lookup(_record().fingerprint, _record().sizes, _record().target)
        assert loaded.fitness_kind == "wall-seconds"

    def test_sizes_and_target_partition_the_key(self, tmp_path):
        db = TuningDatabase(tmp_path)
        db.record(_record(sizes=(32, 24), fitness=1.0))
        db.record(_record(sizes=(64, 48), fitness=2.0))
        db.record(_record(sizes=(32, 24), target="other", fitness=3.0))
        assert db.lookup(_record().fingerprint, [32, 24], "('interp',)").fitness == 1.0
        assert db.lookup(_record().fingerprint, [64, 48], "('interp',)").fitness == 2.0
        assert db.lookup(_record().fingerprint, [32, 24], "other").fitness == 3.0


# ---------------------------------------------------------------------------
# corruption recovery
# ---------------------------------------------------------------------------

class TestCorruption:
    def test_garbage_file_reads_as_miss(self, tmp_path):
        db = TuningDatabase(tmp_path)
        record = _record()
        db.record(record)
        path, = tmp_path.glob("*.json")
        path.write_text("{ truncated", encoding="utf-8")
        assert db.lookup(record.fingerprint, record.sizes, record.target) is None
        assert db.errors == 1
        # The slot is recoverable: a fresh store works and reads back.
        assert db.record(record)
        assert db.lookup(record.fingerprint, record.sizes, record.target) is not None

    def test_foreign_record_at_right_path_is_rejected(self, tmp_path):
        """Valid JSON whose embedded key disagrees with the filename (hash
        collision or a hand-copied file) must not alias another pipeline."""
        db = TuningDatabase(tmp_path)
        record = _record()
        db.record(record)
        path, = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "e" * 32
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert db.lookup(record.fingerprint, record.sizes, record.target) is None
        assert db.errors == 1

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        db = TuningDatabase(tmp_path)
        record = _record()
        db.record(record)
        path, = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert db.lookup(record.fingerprint, record.sizes, record.target) is None

    def test_records_iteration_skips_corrupt_files(self, tmp_path):
        db = TuningDatabase(tmp_path)
        db.record(_record(fingerprint="a" * 32))
        db.record(_record(fingerprint="b" * 32))
        (tmp_path / "junk.json").write_text("not json", encoding="utf-8")
        assert len(list(db.records())) == 2


# ---------------------------------------------------------------------------
# concurrent writers
# ---------------------------------------------------------------------------

class TestConcurrentWriters:
    def test_racing_writers_leave_a_valid_best_record(self, tmp_path):
        db = TuningDatabase(tmp_path)
        fitnesses = [float(f) for f in range(40, 0, -1)]
        threads = [
            threading.Thread(target=db.record, args=(_record(fitness=f),))
            for f in fitnesses
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # No temp droppings, exactly one entry, valid JSON, and one of the
        # written fitnesses (best-if-better is racy read-compare-replace, so
        # the minimum is expected but not guaranteed; validity is).
        assert not list(tmp_path.glob("*.tmp"))
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        loaded = db.lookup(_record().fingerprint, _record().sizes, _record().target)
        assert loaded is not None
        assert loaded.fitness in fitnesses

    def test_two_databases_share_a_directory(self, tmp_path):
        writer = TuningDatabase(tmp_path)
        reader = TuningDatabase(tmp_path)
        writer.record(_record(fitness=7.0))
        loaded = reader.lookup(_record().fingerprint, _record().sizes,
                               _record().target)
        assert loaded is not None and loaded.fitness == 7.0


# ---------------------------------------------------------------------------
# structural pipeline fingerprints
# ---------------------------------------------------------------------------

def _two_stage(scale: float):
    image = Buffer(np.ones((16, 12), dtype=np.float32), name="in")
    x, y = Var("x"), Var("y")
    f, g = Func("f"), Func("g")
    f[x, y] = image[clamp(x, 0, 15), clamp(y, 0, 11)] + 1.0
    g[x, y] = f[x, y] * scale
    return Pipeline(g)


class TestFingerprint:
    def test_stable_across_independent_builds(self):
        assert pipeline_fingerprint(_two_stage(2.0)) == \
            pipeline_fingerprint(_two_stage(2.0))

    def test_changes_with_the_algorithm(self):
        assert pipeline_fingerprint(_two_stage(2.0)) != \
            pipeline_fingerprint(_two_stage(3.0))

    def test_independent_of_schedule(self):
        pipe = _two_stage(2.0)
        before = pipeline_fingerprint(pipe)
        pipe.output_function.schedule.split("x", "xo", "xi", 4)
        assert pipeline_fingerprint(pipe) == before


# ---------------------------------------------------------------------------
# autotuner integration: warm start, storing, parallel evaluation
# ---------------------------------------------------------------------------

@pytest.fixture()
def blur_pipeline():
    rng = np.random.default_rng(11)
    return make_blur(rng.random((48, 36)).astype(np.float32)).pipeline()


def _tune(pipeline, db):
    config = TunerConfig(population_size=6, generations=2, seed=5)
    evaluator = CostModelEvaluator(pipeline, [32, 24], profile=SMALL_CACHE_CPU)
    return Autotuner(pipeline, evaluator, config, tuning_db=db).run()


class TestTunerIntegration:
    def test_cold_run_stores_warm_run_skips(self, tmp_path, blur_pipeline):
        db = TuningDatabase(tmp_path)
        cold = _tune(blur_pipeline, db)
        assert not cold.from_database
        assert cold.evaluations > 0
        assert db.stores == 1

        warm = _tune(blur_pipeline, db)
        assert warm.from_database
        assert warm.evaluations == 0
        assert warm.wall_clock_evaluations == 0
        assert warm.best_fitness == cold.best_fitness
        assert warm.schedule is not None
        assert warm.best_schedule(blur_pipeline).digest() == \
            cold.schedule.digest()
        # The restored schedule actually runs and matches the default output.
        out = blur_pipeline.compile([32, 24], schedule=warm.schedule).run()
        ref = blur_pipeline.compile([32, 24]).run()
        assert np.allclose(out, ref)

    def test_measured_pruning_banks_wall_clock(self, tmp_path, blur_pipeline):
        db = TuningDatabase(tmp_path)
        evaluator = CostModelEvaluator(blur_pipeline, [32, 24],
                                       profile=SMALL_CACHE_CPU)
        measured = WallClockEvaluator(blur_pipeline, [32, 24])
        config = TunerConfig(population_size=6, generations=2, seed=5,
                             measure_top_k=2)
        result = Autotuner(blur_pipeline, evaluator, config,
                           measured_evaluator=measured, tuning_db=db).run()
        assert result.wall_clock_evaluations >= 1
        assert result.best_measured_seconds is not None
        assert result.best_measured_seconds > 0
        # The stored record is the measured one (highest-trust kind).
        stored = next(iter(db.records()))
        assert stored.fitness_kind == "wall-seconds"

    @pytest.mark.parametrize("population, generations", [(8, 4), (6, 2)])
    def test_convergence_then_warm_start(self, tmp_path, population, generations):
        """Section 6.1 end to end: static scoring, wall-clock pruning of each
        generation's best, a monotone convergence curve, and a re-run from a
        fresh database handle answered with zero evaluations of either kind."""
        image = np.random.default_rng(20130616).random((64, 48)).astype(np.float32)
        pipeline = Pipeline(make_blur(image).output)
        sizes = [48, 32]
        config = TunerConfig(population_size=population, generations=generations,
                             seed=42, measure_top_k=2)

        def tune():
            evaluator = CostModelEvaluator(pipeline, sizes, profile=SMALL_CACHE_CPU)
            measured = WallClockEvaluator(pipeline, sizes)
            return Autotuner(pipeline, evaluator, config, measured_evaluator=measured,
                             tuning_db=TuningDatabase(tmp_path)).run()

        cold = tune()
        history = cold.history
        assert not cold.from_database
        assert cold.evaluations >= population, cold.evaluations
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        # Within 2x of the final value by the halfway generation (the paper's
        # "within 15% in under a day", scaled to a tiny run) ...
        assert history[len(history) // 2] <= history[-1] * 2.0
        # ... and better than the starting population.
        assert history[-1] < history[0] * 1.01
        assert 1 <= cold.wall_clock_evaluations <= \
            config.measure_top_k * (generations + 1)
        assert cold.best_measured_seconds is not None

        warm = tune()
        assert warm.from_database
        assert warm.evaluations == 0 and warm.wall_clock_evaluations == 0
        assert warm.schedule is not None
        # The restored winner is the schedule the cold run banked: the
        # measured best when pruning ran, otherwise the static best.
        measured = cold.measured_schedule(pipeline)
        banked = measured if measured is not None else cold.schedule
        assert warm.schedule.digest() == banked.digest()


# ---------------------------------------------------------------------------
# per-app defaults written by older versions
# ---------------------------------------------------------------------------

class TestPretuned:
    def test_real_tuning_outranks_shipped_default(self, tmp_path):
        """A ``fitness_kind="pretuned"`` record, as older versions shipped
        them (unmeasured, fitness inf), still loads, and any tuned record
        replaces it while it can displace neither kind."""
        db = TuningDatabase(tmp_path)
        shipped = _record(fingerprint="app:blur", sizes=(), target="*",
                          fitness=float("inf"), kind="pretuned")
        assert db.record(shipped)
        loaded = db.lookup("app:blur", [], "*")
        assert loaded is not None and loaded.fitness_kind == "pretuned"
        for kind in ("static-cycles", "wall-seconds"):
            tuned = _record(fingerprint="app:blur", sizes=(), target="*",
                            fitness=1e12, kind=kind)
            assert db.record(tuned)
            assert not db.record(shipped)
            assert db.lookup("app:blur", [], "*").fitness_kind == kind
            db.record(shipped, only_if_better=False)


# ---------------------------------------------------------------------------
# environment plumbing
# ---------------------------------------------------------------------------

class TestEnvDefault:
    def test_default_db_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TUNE_DB_ENV_VAR, str(tmp_path / "db"))
        db = default_tuning_db()
        assert db is not None
        assert os.path.isdir(db.directory)

    def test_default_db_disabled_when_unset(self, monkeypatch):
        monkeypatch.delenv(TUNE_DB_ENV_VAR, raising=False)
        assert default_tuning_db() is None
