"""The generative differential-testing subsystem (repro.fuzz).

Three layers under test:

* the generators themselves — determinism (same seed, same case), spec and
  case JSON round-trips, schedule legality;
* the oracle — a pinned-seed smoke corpus runs in tier-1 (every case must be
  bit-identical across interp/numpy/compiled x thread counts); the long
  corpus is marked ``fuzz`` (deselect locally with ``-m "not fuzz"``);
* the tooling — the minimizer shrinks against a pluggable predicate, and
  dumped repro scripts replay standalone.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fuzz import (
    FuzzCase,
    GeneratorConfig,
    build_pipeline,
    default_still_fails,
    extended_config,
    generate_pipeline,
    generate_schedules,
    generate_spec,
    input_image_for,
    minimize_case,
    repro_script,
    run_case,
    spec_uses_extended_ops,
)
from repro.fuzz.__main__ import case_seed
from repro.fuzz.oracle import SIZE_CHOICES_3D
from repro.fuzz.spec import INPUT, PipelineSpec, StageSpec

#: The tier-1 smoke slice: pinned seeds, small but varied.
SMOKE_SEEDS = tuple(range(16))

#: The long corpus (nightly / explicit -m fuzz runs).
LONG_CORPUS_SEEDS = tuple(case_seed(1, i) for i in range(120))


# ---------------------------------------------------------------------------
# generator determinism and serialization
# ---------------------------------------------------------------------------

class TestGeneratorDeterminism:
    def test_same_seed_same_spec(self):
        for seed in (0, 7, 123456):
            assert generate_spec(seed).to_json() == generate_spec(seed).to_json()

    def test_different_seeds_differ(self):
        specs = {generate_spec(seed).to_json() for seed in range(20)}
        assert len(specs) > 10  # collisions allowed, mass duplication is a bug

    def test_same_seed_same_input_image(self):
        spec = generate_spec(3)
        a, b = input_image_for(spec), input_image_for(spec)
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype

    def test_same_seed_same_schedule_digest(self):
        built = generate_pipeline(11)
        first = generate_schedules(built, 11, count=3)
        second = generate_schedules(generate_pipeline(11), 11, count=3)
        assert [s.digest() for s in first] == [s.digest() for s in second]

    def test_spec_json_roundtrip(self):
        for seed in range(10):
            spec = generate_spec(seed)
            assert PipelineSpec.from_json(spec.to_json()).to_json() == spec.to_json()

    def test_case_json_roundtrip(self):
        case = FuzzCase.from_seed(5)
        replayed = FuzzCase.from_json(case.to_json())
        assert replayed.spec == case.spec
        assert replayed.schedule.digest() == case.schedule.digest()
        assert replayed.sizes == case.sizes
        assert replayed.key() == case.key()

    def test_spec_rejects_bad_topology(self):
        with pytest.raises(ValueError):
            PipelineSpec(0, (8, 8), "float32", (
                StageSpec("a", "pointwise", ("b",), "float32", ("abs",)),
                StageSpec("b", "pointwise", (INPUT,), "float32", ("abs",)),
            ))

    def test_built_pipeline_is_fresh_per_build(self):
        spec = generate_spec(2)
        one, two = build_pipeline(spec), build_pipeline(spec)
        assert one.output is not two.output
        assert one.funcs.keys() == two.funcs.keys()


# ---------------------------------------------------------------------------
# the oracle: pinned-seed corpora
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_smoke_corpus_case(seed):
    """Tier-1: every smoke case is bit-identical across all backends/threads."""
    run_case(FuzzCase.from_seed(seed), raise_on_failure=True)


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", LONG_CORPUS_SEEDS)
def test_long_corpus_case(seed):
    """The long pinned corpus (nightly; deselect locally with -m 'not fuzz')."""
    run_case(FuzzCase.from_seed(seed), raise_on_failure=True)


#: Pinned slice for the native compile-to-C leg: smaller than SMOKE_SEEDS
#: because each case also invokes the system C compiler and realizes at two
#: extra targets (threads 1 and 4).
NATIVE_SMOKE_SEEDS = tuple(range(6))


@pytest.mark.native
@pytest.mark.parametrize("seed", NATIVE_SMOKE_SEEDS)
def test_smoke_corpus_case_native(seed):
    """Tier-1: the native leg is bit-identical to interp at threads {1, 4}
    (auto-skipped when no C compiler is on PATH)."""
    run_case(FuzzCase.from_seed(seed, native_thread_counts=(1, 4)),
             raise_on_failure=True)


def test_native_thread_counts_do_not_change_case_keys():
    """Adding the native leg must not invalidate existing corpora: a case
    without native threads serializes exactly as the pre-leg format."""
    plain = FuzzCase.from_seed(3)
    assert "native_thread_counts" not in plain.to_dict()
    with_leg = FuzzCase.from_seed(3, native_thread_counts=(1, 4))
    assert with_leg.to_dict()["native_thread_counts"] == [1, 4]
    assert plain.key() != with_leg.key()
    replayed = FuzzCase.from_json(with_leg.to_json())
    assert replayed.native_thread_counts == (1, 4)
    assert replayed.key() == with_leg.key()


def test_process_worker_counts_do_not_change_case_keys():
    """Corpora written while the process-pool leg existed still replay: a
    stored ``process_worker_counts`` key is read and ignored, so the case
    equals (and keys like) the same case without it."""
    plain = FuzzCase.from_seed(3)
    stored = dict(plain.to_dict(), process_worker_counts=[1, 2])
    replayed = FuzzCase.from_json(json.dumps(stored))
    assert replayed == plain and replayed.key() == plain.key()
    assert run_case(replayed).ok


#: Pinned seeds whose surviving schedules carry the temporal-scheduling
#: directives (``store_at`` one loop out + ``storage_fold``), so the folded
#: ring-buffer path stays under the oracle in tier-1.  Chosen from a scan of
#: seeds 16..40 (several SMOKE_SEEDS also carry them, by construction of
#: the directed sliding insertion in ``fuzz_genome``).
SLIDING_FOLD_SEEDS = (17, 21, 24, 30)


@pytest.mark.parametrize("seed", SLIDING_FOLD_SEEDS)
def test_sliding_fold_corpus_case(seed):
    """Tier-1: pinned cases whose schedules exercise store_at + storage_fold
    (the schedule must actually carry the directives, and the folded run must
    stay bit-identical across all backends)."""
    case = FuzzCase.from_seed(seed)
    kinds = {d[0] for name in case.schedule.funcs()
             for d in case.schedule.directives(name)}
    assert "storage_fold" in kinds and "store_at" in kinds
    run_case(case, raise_on_failure=True)


def test_generated_schedules_reach_fold_directives():
    """The widened fuzz space emits *legal* storage_fold/store_at schedules
    at a useful rate (not only rejection-path coverage)."""
    hits = 0
    for seed in range(12):
        built = generate_pipeline(seed)
        for sched in generate_schedules(built, seed, count=2):
            kinds = {d[0] for name in sched.funcs()
                     for d in sched.directives(name)}
            if "storage_fold" in kinds:
                hits += 1
    assert hits >= 3


# ---------------------------------------------------------------------------
# the extended vocabulary: gather / blend op kinds and 3-D specs
# ---------------------------------------------------------------------------

#: Pinned extended-vocabulary seeds, chosen from a scan of 0..60 so the slice
#: covers: gather and blend in both 2-D and 3-D, gather+blend chained through
#: stencils/reductions, and several schedules carrying ``rdom_outer``.
EXTENDED_SMOKE_SEEDS = (1, 2, 5, 6, 9, 13, 14, 17, 26, 32, 44, 51)


@pytest.mark.parametrize("seed", EXTENDED_SMOKE_SEEDS)
def test_extended_smoke_corpus_case(seed):
    """Tier-1: extended-vocabulary cases (gather/blend kinds, 3-D specs) are
    bit-identical across all backends/threads."""
    run_case(FuzzCase.from_seed(seed, config=extended_config()),
             raise_on_failure=True)


#: Pinned extended seeds whose surviving schedules carry ``rdom_outer`` (the
#: update-nest interchange), so the hoisted-RDom execution path stays under
#: the oracle in tier-1.
RDOM_OUTER_SEEDS = (1, 6, 32, 44)


@pytest.mark.parametrize("seed", RDOM_OUTER_SEEDS)
def test_rdom_outer_corpus_case(seed):
    """Tier-1: pinned extended cases whose schedules exercise rdom_outer (the
    directive must actually be present; each seed is also an extended smoke
    seed, so test_extended_smoke_corpus_case runs it through the oracle)."""
    assert seed in EXTENDED_SMOKE_SEEDS
    case = FuzzCase.from_seed(seed, config=extended_config())
    kinds = {d[0] for name in case.schedule.funcs()
             for d in case.schedule.directives(name)}
    assert "rdom_outer" in kinds


#: Extended seeds also run on the native compile-to-C leg (auto-skipped when
#: no C compiler is on PATH); 6 is a 3-D gather+blend case, 51 a deep 2-D mix.
EXTENDED_NATIVE_SEEDS = (6, 51)


@pytest.mark.native
@pytest.mark.parametrize("seed", EXTENDED_NATIVE_SEEDS)
def test_extended_smoke_corpus_case_native(seed):
    run_case(FuzzCase.from_seed(seed, config=extended_config(),
                                native_thread_counts=(1, 4)),
             raise_on_failure=True)


def test_extended_vocabulary_reaches_new_kinds():
    """The extended config actually draws the new op kinds and 3-D shapes at
    a useful rate (directed coverage, not a dead knob)."""
    gather = blend = three_d = 0
    for seed in range(30):
        spec = generate_spec(seed, extended_config())
        kinds = {s.kind for s in spec.stages}
        gather += "gather" in kinds
        blend += "blend" in kinds
        three_d += len(spec.input_shape) == 3
    assert gather >= 5 and blend >= 5 and three_d >= 5


def test_default_config_never_draws_extended_ops():
    """The frozen default stream must not change: no gather/blend kinds, no
    3-D shapes, and spec_uses_extended_ops stays False."""
    for seed in range(40):
        spec = generate_spec(seed)
        assert len(spec.input_shape) == 2
        assert all(s.kind in ("pointwise", "stencil", "select", "reduce")
                   for s in spec.stages)
        assert not spec_uses_extended_ops(spec)


def test_extended_case_roundtrip_and_3d_sizes():
    """Extended cases serialize/replay like any other, and 3-D specs draw
    their realization sizes from the 3-D table."""
    case = FuzzCase.from_seed(6, config=extended_config())
    assert len(case.spec.input_shape) == 3
    assert len(case.sizes) == 3
    assert case.sizes in SIZE_CHOICES_3D
    replayed = FuzzCase.from_json(case.to_json())
    assert replayed.spec == case.spec
    assert replayed.sizes == case.sizes
    assert replayed.key() == case.key()


def test_generated_schedules_reach_rdom_outer():
    """The directed insertion emits *legal* rdom_outer schedules at a useful
    rate over extended specs with update stages."""
    hits = 0
    for seed in range(40):
        case = FuzzCase.from_seed(seed, config=extended_config())
        kinds = {d[0] for name in case.schedule.funcs()
                 for d in case.schedule.directives(name)}
        if "rdom_outer" in kinds:
            hits += 1
    assert hits >= 3


def test_case_from_seed_prevalidates_schedule():
    """from_seed only emits schedules the compiler accepts, so invalid
    reports are unreachable on the happy path."""
    for seed in SMOKE_SEEDS[:8]:
        report = run_case(FuzzCase.from_seed(seed))
        assert not report.invalid


# ---------------------------------------------------------------------------
# the minimizer (pluggable predicate: no live compiler bug needed)
# ---------------------------------------------------------------------------

class TestMinimizer:
    def _multi_stage_case(self):
        for seed in range(100):
            case = FuzzCase.from_seed(seed)
            if len(case.spec.stages) >= 4 and len(case.schedule.funcs()) >= 2:
                return case
        raise AssertionError("no multi-stage case found in 100 seeds")

    def test_minimizes_stage_count_against_predicate(self):
        case = self._multi_stage_case()
        marker = case.spec.stages[0].name

        def fails(candidate: FuzzCase) -> bool:
            return any(s.name == marker for s in candidate.spec.stages)

        small = minimize_case(case, still_fails=fails)
        assert any(s.name == marker for s in small.spec.stages)
        assert len(small.spec.stages) <= len(case.spec.stages)
        assert len(small.spec.stages) == 1  # everything else is bystander
        assert small.sizes[0] * small.sizes[1] <= case.sizes[0] * case.sizes[1]

    def test_minimizes_schedule_directives(self):
        case = self._multi_stage_case()

        def fails(candidate: FuzzCase) -> bool:
            return True  # everything "fails": minimum must still be a valid case

        small = minimize_case(case, still_fails=fails)
        assert sum(len(small.schedule.directives(f)) for f in small.schedule.funcs()) == 0
        assert small.sizes == (1, 1)
        FuzzCase.from_json(small.to_json())  # still serializable

    def test_diamond_bypass_does_not_crash(self):
        """Bypassing a diamond's join stage prunes its dead sibling from the
        spec; the (stale) iteration list must skip it, not KeyError."""
        spec = PipelineSpec(0, (8, 8), "float32", (
            StageSpec("s0", "pointwise", (INPUT,), "float32", ("abs",)),
            StageSpec("s1", "pointwise", (INPUT,), "float32", ("abs",)),
            StageSpec("s2", "pointwise", ("s0", "s1"), "float32", ("add",)),
            StageSpec("s3", "pointwise", ("s2",), "float32", ("abs",)),
        ))
        case = FuzzCase(spec=spec, schedule={}, sizes=(4, 4))

        def fails(candidate: FuzzCase) -> bool:
            # Requires the output stage, so truncation never fires and the
            # stage-bypass pass must handle the pruned sibling s1.
            return any(s.name == "s3" for s in candidate.spec.stages)

        small = minimize_case(case, still_fails=fails)
        assert [s.name for s in small.spec.stages] == ["s3"]

    def test_non_failing_case_is_returned_unchanged(self):
        case = FuzzCase.from_seed(0)
        assert minimize_case(case, still_fails=lambda c: False) is case

    def test_default_predicate_is_false_on_passing_case(self):
        assert not default_still_fails(FuzzCase.from_seed(0))


# ---------------------------------------------------------------------------
# repro scripts
# ---------------------------------------------------------------------------

class TestReproScript:
    def test_script_replays_standalone(self):
        case = FuzzCase.from_seed(1)
        script = repro_script(case, filename="repro_test.py")
        namespace = {"__name__": "repro_fuzz_dump"}
        exec(compile(script, "repro_test.py", "exec"), namespace)  # noqa: S102
        namespace["main"]()  # raises FuzzFailure if the case fails

    def test_script_embeds_failure_summary(self):
        case = FuzzCase.from_seed(2)
        report = run_case(case)
        text = repro_script(report, filename="x.py")
        assert case.to_json() in text
        assert "ok" in report.summary()
