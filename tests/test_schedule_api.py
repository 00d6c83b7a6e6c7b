"""The first-class Schedule / Target / CompiledPipeline API.

Covers the compile-once redesign: Schedule as an immutable serializable
value, Target as a validated structured descriptor, the bounded compilation
cache (including the zero-relowering guarantee), non-destructive schedule
application, and scheduling Funcs directly.
"""

import json

import numpy as np
import pytest

import repro.pipeline as pipeline_module
from repro import CompiledPipeline, Pipeline, Schedule, Target, as_schedule
from repro.apps import BLUR_SCHEDULES, make_blur
from repro.core.pipeline_schedule import ScheduleBuilder
from repro.core.schedule import ScheduleError
from repro.runtime.backend import backend_names

from conftest import schedule_funcs


@pytest.fixture()
def blur_image():
    return np.random.default_rng(7).random((32, 24)).astype(np.float32)


# ---------------------------------------------------------------------------
# Schedule as a value
# ---------------------------------------------------------------------------

class TestScheduleValue:
    def test_fluent_build(self):
        s = (Schedule()
             .func("blur_y").tile("x", "y", "xo", "yo", "xi", "yi", 32, 32).parallel("yo")
             .func("blur_x").compute_at("blur_y", "xo"))
        assert isinstance(s, ScheduleBuilder)
        sched = as_schedule(s)
        assert sched.funcs() == ("blur_x", "blur_y")
        assert sched.directives("blur_y")[0][0] == "tile"
        assert sched.directives("blur_x") == (("compute_at", "blur_y", "xo"),)

    def test_immutability(self):
        s = Schedule()
        with pytest.raises(AttributeError):
            s._funcs = {}
        s2 = s.with_directives("f", ("compute_root",))
        assert s.is_empty() and not s2.is_empty()

    def test_dict_json_round_trip_and_digest(self):
        s = as_schedule(BLUR_SCHEDULES["tuned"])
        restored = Schedule.from_dict(s.to_dict())
        assert restored == s
        from_json = Schedule.from_json(s.to_json(indent=2))
        assert from_json == s
        assert from_json.digest() == s.digest()
        assert hash(from_json) == hash(s)
        # Digests identify content: any edit changes them.
        edited = s.with_directives("blur_x", ("parallel", "y"))
        assert edited != s and edited.digest() != s.digest()

    def test_unknown_directive_rejected(self):
        with pytest.raises(ScheduleError, match="unknown schedule directive"):
            Schedule({"f": [("warp_speed", "x")]})

    def test_numpy_integer_arguments_are_canonicalized(self):
        plain = Schedule({"f": [("split", "x", "xo", "xi", 4)]})
        numpy_int = Schedule({"f": [("split", "x", "xo", "xi", np.int64(4))]})
        assert numpy_int == plain
        assert numpy_int.digest() == plain.digest()
        assert numpy_int.to_dict()["funcs"]["f"][0][4] == 4

    def test_non_integral_factor_rejected_at_construction(self):
        with pytest.raises(ScheduleError, match="must be an integer"):
            Schedule({"f": [("split", "x", "xo", "xi", 4.5)]})

    def test_version_gate(self):
        with pytest.raises(ScheduleError, match="version"):
            Schedule.from_dict({"version": 99, "funcs": {}})

    def test_as_schedule_coercions(self):
        s = as_schedule(BLUR_SCHEDULES["tiled"])
        assert as_schedule(None) is None
        assert as_schedule(s) is s
        assert as_schedule(s.to_json()) == s
        assert as_schedule(s.to_dict()) == s
        assert as_schedule({"blur_x": [("compute_root",)]}) == \
            as_schedule(Schedule().func("blur_x").compute_root())

    def test_from_funcs_capture(self, blur_image):
        app = schedule_funcs(make_blur(blur_image), "tuned")
        captured = Schedule.from_funcs(app.funcs)
        # Replaying the capture on the pipeline graph reproduces the exact
        # per-function schedules (splits, order, markings, call schedule).
        env = app.pipeline().functions()
        for name, materialized in captured.func_schedules(env).items():
            original = env[name].schedule
            assert materialized.dim_names() == original.dim_names()
            assert materialized.describe() == original.describe()

    def test_func_schedules_rejects_unknown_function(self, blur_image):
        app = make_blur(blur_image)
        rogue = Schedule().func("no_such_stage").compute_root()
        with pytest.raises(ScheduleError, match="no_such_stage"):
            app.pipeline().compile(app.default_size, schedule=rogue)


# ---------------------------------------------------------------------------
# Target
# ---------------------------------------------------------------------------

class TestTarget:
    def test_resolve_forms(self):
        assert Target.resolve(None).backend == "interp"
        assert Target.resolve("numpy").backend == "numpy"
        t = Target(backend="interp", vector_width=8, threads=16)
        assert Target.resolve(t) is t
        assert Target.resolve(t.to_dict()) == t

    def test_unknown_backend_fails_early_with_names(self):
        with pytest.raises(ValueError) as excinfo:
            Target(backend="cuda")
        message = str(excinfo.value)
        for name in backend_names():
            assert name in message

    def test_machine_profile_overrides(self):
        t = Target(profile="small_cache_cpu", vector_width=8, threads=2)
        profile = t.machine_profile()
        assert profile.vector_width == 8
        assert profile.cores == 2

    def test_unknown_profile_fails_early(self):
        with pytest.raises(ValueError, match="machine profile"):
            Target(profile="quantum_annealer")

    def test_serialization_round_trip(self):
        t = Target(backend="numpy", vector_width=4, profile="xeon_w3520")
        assert Target.from_dict(t.to_dict()) == t
        assert t.key() == Target.from_dict(t.to_dict()).key()

    def test_stored_parallel_key_still_reads(self):
        """Targets serialized with the retired ``parallel`` field load."""
        stored = {"backend": "compiled", "threads": 2, "parallel": "process"}
        assert Target.from_dict(stored) == Target("compiled", threads=2)


# ---------------------------------------------------------------------------
# CompiledPipeline + compilation cache
# ---------------------------------------------------------------------------

class TestCompileCache:
    def test_second_realize_skips_lowering(self, blur_image, monkeypatch):
        app = schedule_funcs(make_blur(blur_image), "tuned")
        pipe = app.pipeline()
        calls = {"n": 0}
        real_lower = pipeline_module.lower

        def counting_lower(*args, **kwargs):
            calls["n"] += 1
            return real_lower(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "lower", counting_lower)
        first = pipe.compile(app.default_size).run()
        assert calls["n"] == 1
        second = pipe.compile(app.default_size).run()
        assert calls["n"] == 1, "second compile under an unchanged key must not lower"
        assert np.array_equal(first, second)
        info = pipe.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.currsize == 1

    def test_cache_key_discriminates(self, blur_image):
        app = make_blur(blur_image)
        pipe = app.pipeline()
        size = app.default_size
        pipe.compile(size, schedule=BLUR_SCHEDULES["breadth_first"])
        pipe.compile(size, schedule=BLUR_SCHEDULES["tuned"])          # new schedule
        pipe.compile(size, schedule=BLUR_SCHEDULES["tuned"], target="numpy")  # new target
        pipe.compile([16, 12], schedule=BLUR_SCHEDULES["tuned"])      # new sizes
        assert pipe.cache_info().misses == 4
        assert pipe.cache_info().hits == 0
        pipe.compile(size, schedule=BLUR_SCHEDULES["tuned"])
        assert pipe.cache_info().hits == 1

    def test_algorithm_redefinition_is_never_stale(self):
        """Adding an update definition between realizations must recompile."""
        from repro.lang import Func, Var

        x = Var("x")
        f = Func("stale_probe")
        f[x] = 1.0
        pipe = Pipeline(f)
        assert np.array_equal(pipe.compile([4]).run(), np.ones(4, dtype=np.float32))
        f[x] = f[x] + 1.0  # algorithm changed; the schedule did not
        assert np.array_equal(pipe.compile([4]).run(), np.full(4, 2.0, dtype=np.float32))
        assert pipe.cache_info().misses == 2

    def test_rebinding_a_differently_shaped_image_is_never_stale(self):
        """Image shapes are baked into strides; rebinding must recompile."""
        from repro.lang import Buffer, Func, ImageParam, Var
        from repro.types import Float

        x, y = Var("x"), Var("y")
        img = ImageParam(Float(32), 2, name="img_in")
        f = Func("shape_probe")
        f[x, y] = img[x, y] * 2.0
        small = np.arange(8 * 6, dtype=np.float32).reshape(8, 6)
        big = np.arange(16 * 12, dtype=np.float32).reshape(16, 12)
        img.set(Buffer(np.asfortranarray(small), name="img_in"))
        pipe = Pipeline(f)
        out_small = pipe.compile([4, 4]).run()
        img.set(Buffer(np.asfortranarray(big), name="img_in"))
        out_big = pipe.compile([4, 4]).run()
        assert np.array_equal(out_big, big[:4, :4] * 2.0)
        assert pipe.cache_info().misses == 2
        assert np.array_equal(out_small, small[:4, :4] * 2.0)

    def test_held_compiled_pipeline_rejects_reshaped_image(self):
        """A held CompiledPipeline fails loudly (not garbage) after a shape
        change of a bound image."""
        from repro.lang import Buffer, Func, ImageParam, Var
        from repro.types import Float

        x, y = Var("x"), Var("y")
        img = ImageParam(Float(32), 2, name="img_held")
        f = Func("held_probe")
        f[x, y] = img[x, y] + 1.0
        img.set(Buffer(np.zeros((8, 6), dtype=np.float32, order="F"), name="img_held"))
        compiled = Pipeline(f).compile([4, 4])
        compiled.run()
        img.set(Buffer(np.zeros((16, 12), dtype=np.float32, order="F"), name="img_held"))
        with pytest.raises(ValueError, match="compiled for shape"):
            compiled.run()

    def test_in_place_rescheduling_is_never_stale(self, blur_image):
        """Mutating Funcs between realizations changes the captured digest."""
        app = make_blur(blur_image)
        pipe = app.pipeline()
        naive = app.compile().run()
        schedule_funcs(app, "tuned")
        tuned = app.compile().run()
        assert pipe.cache_info().misses == 2
        np.testing.assert_array_equal(naive, tuned)

    def test_lru_bound_and_introspection(self, blur_image):
        app = make_blur(blur_image)
        pipe = Pipeline(app.output, cache_size=2)
        size = app.default_size
        for name in ("breadth_first", "full_fusion", "sliding_window"):
            pipe.compile(size, schedule=BLUR_SCHEDULES[name])
        info = pipe.cache_info()
        assert info.maxsize == 2 and info.currsize == 2
        # The oldest entry was evicted: recompiling it misses again.
        pipe.compile(size, schedule=BLUR_SCHEDULES["breadth_first"])
        assert pipe.cache_info().misses == 4
        pipe.cache_clear()
        assert pipe.cache_info() == (0, 0, 2, 0)

    def test_compiled_pipeline_is_reusable_and_isolated(self, blur_image):
        """A CompiledPipeline survives later mutation of the algorithm's Funcs."""
        app = make_blur(blur_image)
        compiled = app.compile(schedule="tuned", target="numpy")
        assert isinstance(compiled, CompiledPipeline)
        before = compiled.run()
        schedule_funcs(app, "full_fusion")  # mutate the Funcs afterwards
        after = compiled.run()
        assert np.array_equal(before, after)
        assert compiled.schedule == as_schedule(BLUR_SCHEDULES["tuned"])
        reference = schedule_funcs(make_blur(blur_image), "tuned").compile(
            target="numpy").run()
        assert np.array_equal(before, reference)

    def test_compile_requires_sizes(self, blur_image):
        app = make_blur(blur_image)
        with pytest.raises(ValueError, match="sizes"):
            app.pipeline().compile(schedule=BLUR_SCHEDULES["tuned"])


# ---------------------------------------------------------------------------
# non-destructive sweeps (the fig3 acceptance shape)
# ---------------------------------------------------------------------------

class TestNonDestructiveSweep:
    def test_all_blur_schedules_from_one_unmutated_graph(self, blur_image):
        """Evaluate every named blur schedule against a single algorithm graph,
        through JSON, and compare bit-for-bit with scheduling Funcs directly."""
        app = make_blur(blur_image)
        pipe = app.pipeline()
        size = app.default_size
        target = Target(backend="interp")
        for name, schedule in BLUR_SCHEDULES.items():
            restored = Schedule.from_json(as_schedule(schedule).to_json())
            swept = pipe.compile(size, schedule=restored, target=target).run()
            # The algorithm graph stays pristine after each compile.
            assert app.output.function.schedule.splits == []
            reference = schedule_funcs(make_blur(blur_image), name).compile(
                target="interp").run()
            assert np.array_equal(swept, reference), f"schedule {name!r} diverged"

    def test_concurrent_compiled_schedules(self, blur_image):
        """Many CompiledPipelines of one graph coexist and stay correct."""
        app = make_blur(blur_image)
        size = app.default_size
        compiled = {name: app.compile(schedule=name, target="numpy")
                    for name in ("breadth_first", "tiled", "tuned")}
        outputs = {name: c.run() for name, c in compiled.items()}
        for name, out in outputs.items():
            assert np.array_equal(out, outputs["breadth_first"]), name


# ---------------------------------------------------------------------------
# autotuner integration
# ---------------------------------------------------------------------------

class TestAutotunerSchedules:
    def test_best_schedule_is_serializable_and_replayable(self, blur_image):
        from repro.autotuner import Autotuner, CostModelEvaluator, TunerConfig
        from repro.machine import SMALL_CACHE_CPU

        app = make_blur(blur_image)
        pipe = app.pipeline()
        evaluator = CostModelEvaluator(pipe, [24, 16], profile=SMALL_CACHE_CPU)
        result = Autotuner(pipe, evaluator,
                           TunerConfig(population_size=4, generations=1, seed=3)).run()
        best = result.best_schedule(pipe)
        assert isinstance(best, Schedule)
        replayed = Schedule.from_json(best.to_json())
        out = pipe.compile([24, 16], schedule=replayed).run()
        reference = pipe.compile([24, 16]).run()
        assert np.allclose(out, reference, atol=1e-4)

    def test_tuning_reuses_compilations(self, blur_image):
        """Across generations the evaluator must hit the compile cache."""
        from repro.autotuner import Autotuner, CostModelEvaluator, TunerConfig
        from repro.machine import SMALL_CACHE_CPU

        pipe = make_blur(blur_image).pipeline()
        evaluator = CostModelEvaluator(pipe, [16, 12], profile=SMALL_CACHE_CPU)
        Autotuner(pipe, evaluator,
                  TunerConfig(population_size=6, generations=2, seed=5)).run()
        assert pipe.cache_info().hits > 0


# ---------------------------------------------------------------------------
# pinned schedule digests (recorded at the commit before the directive-table
# refactor; they guard the Schedule format and every path that writes one)
# ---------------------------------------------------------------------------

def _pinned_apps():
    from repro.apps import (
        default_primitives, make_bilateral_grid, make_camera_pipe,
        make_histogram_equalize, make_interpolate, make_local_laplacian,
        make_pyramid, make_rasterize, make_unsharp, make_video,
    )

    img = np.zeros((24, 16), dtype=np.float32)
    return {
        "blur": lambda: make_blur(img),
        "unsharp": lambda: make_unsharp(img),
        "histogram_equalize": lambda: make_histogram_equalize(img.astype(np.uint8)),
        "bilateral_grid": lambda: make_bilateral_grid(np.zeros((16, 16), dtype=np.float32)),
        "camera_pipe": lambda: make_camera_pipe(img.astype(np.uint16)),
        "interpolate": lambda: make_interpolate(np.zeros((16, 12, 4), dtype=np.float32),
                                                levels=2),
        "local_laplacian": lambda: make_local_laplacian(img, levels=2, intensity_levels=4),
        "video": lambda: make_video(16, 12),
        "rasterize": lambda: make_rasterize(16, 12, default_primitives(16, 12)),
        "pyramid": lambda: make_pyramid(img, levels=2),
    }


#: app/schedule -> (digest of the declared Schedule data — the builder path,
#: digest captured from the Funcs after scheduling them — replay + capture).
_APP_DIGESTS = {
    'bilateral_grid/breadth_first': ('e919270e70905c7d', 'd3c8e928f485bb1a'),
    'bilateral_grid/gpu': ('0b60e209d2df4549', 'e5ada4539fc7716c'),
    'bilateral_grid/tuned': ('dfe340a598e283c2', '8967ae59fda9902c'),
    'blur/breadth_first': ('5dae07a8ffd497bc', '295d6a78b8eae437'),
    'blur/full_fusion': ('212da72f897f2e51', 'faec62f7341b4ef2'),
    'blur/gpu': ('74cbe147e262cbde', '4ebc02f9807f7820'),
    'blur/sliding_in_tiles': ('e98a9fce5bec7c11', 'e88ab1b47dc55afb'),
    'blur/sliding_window': ('d98e2da6f4b4805c', '0705fc829ee8af1f'),
    'blur/tiled': ('ec3e1b9c461f8a29', 'be05ef6c38e216f0'),
    'blur/tiled_novec': ('42f69c9452f277df', '40181df1d23202eb'),
    'blur/tuned': ('d12d31cd7216accb', '45fed476db2fa352'),
    'camera_pipe/breadth_first': ('8113f37f47067503', '39884869b68021d5'),
    'camera_pipe/tuned': ('f4b56ce12f661673', 'ac94509cd27e5d3b'),
    'histogram_equalize/breadth_first': ('d3b5de84c62564ef', 'f3a3f0165e69076c'),
    'histogram_equalize/tuned': ('7ac7d00ee5d8d146', '5a176d2b1ba9078e'),
    'interpolate/breadth_first': ('9061edc71227f051', '47143ebe63eb4519'),
    'interpolate/gpu': ('df8b045af76a4f90', '438692c94894f524'),
    'interpolate/tuned': ('bde02fbf065beada', '652e4658673878e9'),
    'local_laplacian/breadth_first': ('bf8c9190e88116c7', '22f733d30f590ab3'),
    'local_laplacian/gpu': ('ed2d575d03be9052', 'a070d60c6ac94d7c'),
    'local_laplacian/tuned': ('0bcdc1a454039697', '6a47e75140acb426'),
    'pyramid/breadth_first': ('64d9191d8a0d64b1', '1fe8bcc41146dc1d'),
    'pyramid/inline': ('c3c415f254e70891', '35b23b44f3d04f35'),
    'pyramid/parallel_rows': ('144beddeb4685830', '3aad5930ae627c58'),
    'pyramid/per_level': ('3a3a85103e407a9d', 'f446aa7d1f215282'),
    'rasterize/breadth_first': ('d119542af187e9a1', '83e6040aac8b88cd'),
    'rasterize/parallel_tiles': ('a19aecb30abe2bcf', 'd2416bfa84f80cae'),
    'rasterize/tiled': ('0b7d65106b0e81c6', 'bf37ab8979887bdc'),
    'unsharp/breadth_first': ('715d9ac7c3d6057f', '206c3327d96b4e25'),
    'unsharp/tuned': ('fa50fbbf64f2bbb9', '7a6fb1e29060ae7b'),
    'video/breadth_first': ('6cf0e54c781e641f', 'f59688b79918b251'),
    'video/streaming': ('84e38fcbbea2cdd8', 'daed07b93fea20b7'),
    'video/streaming_folded': ('a54132ff1c1202e3', 'f921965d8a431c04'),
    'video/streaming_parallel': ('08a64b3986517a08', 'd2f175f2d3c21fd3'),
}

_FUZZ_DIGESTS = {
    'default/0': ('9106217bb1d78adc', '993174c1c6aa9c71', '922c67fa0cc57f69'),
    'default/1': ('59ff4aa29b8ff047', '95a3d5b4df1f9cc2', '1b1410a5c704f366'),
    'default/2': ('42cb6c3a176ae08d', '4cf5873f308c00bd', '42cb6c3a176ae08d'),
    'default/3': ('8203415da71bded2', '0d8b7c964591131e', '23380bf1766ae028'),
    'default/4': ('748823922c2ddf91', '3db1b1b864ae7102', '12840cc122d8e0f9'),
    'default/5': ('12dc1544c469a512', 'e39351641082f4df', '4014de9e7c98ce54'),
    'default/6': ('251cdbddf3a902bd', 'ddcd94563eb246b0', '89aaf2ede4c32384'),
    'default/7': ('27af2767eb65ea5a', 'bd2fe44416836589', '363a8b4f1cfbf08b'),
    'default/8': ('d4c29412a44d651b', 'd831561b6eb2c466', 'c6cde7b9fd57f183'),
    'default/9': ('c1392ebba10963a0', 'e4d41f10bce98359', 'c0408596bd6384ff'),
    'default/10': ('c52ec212f09ee4a6', '6fb56662ed1914c7', '4198e3c0a141c914'),
    'default/11': ('4e9e521c5ae9a009', 'd168d69cb808518c', '596a9f69e21998f8'),
    'default/12': ('b853ff09d06f0aec', 'be347cca69e93898', 'f85a89a3851e104f'),
    'default/13': ('53596ab881ac4e38', '79c33aa24d241e28', '15a26e98cda0b846'),
    'default/14': ('c443c4d1e922b055', 'e789d4bd191b5762', '360e8511dfa40e66'),
    'default/15': ('80ccaf1d813025fe', '993174c1c6aa9c71', 'deb29fb62604528d'),
    'default/16': ('80ccaf1d813025fe', '89058d8d69538ade', 'cc78518985af1676'),
    'default/17': ('105bb7f26c2ed5a8', '8668e99f45a368bd', '681a0c99becfee84'),
    'default/18': ('993174c1c6aa9c71', '993174c1c6aa9c71', '80ccaf1d813025fe'),
    'default/19': ('19a6c14a1a5b58fc', 'bf09ae7eee082a8e', '39e5a8022e114cb5'),
    'extended/0': ('9106217bb1d78adc', '993174c1c6aa9c71', '922c67fa0cc57f69'),
    'extended/1': ('314fa72631f0cd1a', '5dfb594166d30aaa', '2a43d839055adfd8'),
    'extended/2': ('03bfc82b5efb7ef8', '653bf37f13dd820d', 'bf3a83910b202109'),
    'extended/3': ('7c574e82427a519b', '46505847d210a043', '5d8883edf0f5f081'),
    'extended/4': ('ca050b7534615272', '999efdbffad8ec74', 'e1a0a48ca00073c3'),
    'extended/5': ('2f31c4cedfbabfb5', '1d2819b40ffc2575', 'c9200af5619e0598'),
    'extended/6': ('4c36d132a9cfd6d5', '20fedea49bb88f49', '714f8a757cb36589'),
    'extended/7': ('c0eff69044f6aeb4', 'b664f5f760f3f631', 'b777d490d417bf13'),
    'extended/8': ('ea522ad64ece676b', 'f1f11ab4362a88d2', 'bca0b963585d1203'),
    'extended/9': ('d497cff1585e56af', '8218ad7185836e37', 'f4087f4e54323d89'),
}


class TestPinnedDigests:
    def test_app_schedule_digests(self):
        observed = {}
        for app_name, app_maker in _pinned_apps().items():
            app = app_maker()
            for name in sorted(app.schedules):
                declared = app.named_schedule(name).digest()
                captured = Schedule.from_funcs(
                    schedule_funcs(app_maker(), name).funcs).digest()
                observed[f"{app_name}/{name}"] = (declared, captured)
        assert observed == _APP_DIGESTS

    def test_fuzz_schedule_digests(self):
        """generate_schedules goes genes -> to_schedule: the gene path."""
        from repro.fuzz import extended_config, generate_pipeline, generate_schedules

        observed = {}
        for label, config, seeds in (("default", None, range(20)),
                                     ("extended", extended_config(), range(10))):
            for seed in seeds:
                built = generate_pipeline(seed, config)
                observed[f"{label}/{seed}"] = tuple(
                    s.digest() for s in generate_schedules(built, seed, 3))
        assert observed == _FUZZ_DIGESTS

    def test_format_version_unchanged(self):
        from repro.core.pipeline_schedule import SCHEDULE_FORMAT_VERSION

        assert SCHEDULE_FORMAT_VERSION == 1


# ---------------------------------------------------------------------------
# one directive table, one applier
# ---------------------------------------------------------------------------

#: directive -> [(prelude directives, args)]: at least one case per table row.
_DIRECTIVE_CASES = {
    "split": [((), ("x", "xo", "xi", 4)),
              ((), ("y", "yo", "yi", 3, "guard_with_if"))],
    "tile": [((), ("x", "y", "xo", "yo", "xi", "yi", 8, 4))],
    "reorder": [((), (("c", "x", "y"),))],
    "parallel": [((), ("y",))],
    "serial": [((("parallel", "y"),), ("y",))],
    "vectorize": [((), ("x", 4)),
                  ((("split", "x", "xo", "xi", 4),), ("xi",)),
                  # The implicit split's auto-names dodge existing dims.
                  ((("split", "y", "xo", "xi", 2),), ("x", 8))],
    "unroll": [((), ("x", 2)),
               ((("bound", "c", 0, 3),), ("c",))],
    "gpu_blocks": [((), ("y",))],
    "gpu_threads": [((), ("x",))],
    "gpu_tile": [((), ("x", "y", "xi", "yi", 8, 8))],
    "bound": [((), ("c", 0, 3))],
    "storage_fold": [((("compute_root",),), ("y", 3))],
    "rdom_outer": [((), ())],
    "compute_root": [((), ())],
    "compute_inline": [((("compute_root",),), ())],
    "compute_at": [((), ("g", "y"))],
    "store_root": [((("compute_at", "g", "x"),), ())],
    "store_at": [((("compute_at", "g", "x"),), ("g", "y"))],
}


def _three_d_func():
    from repro.lang import Func, Var

    x, y, c = Var("x"), Var("y"), Var("c")
    f = Func("f")
    f[x, y, c] = x + y + c
    return f


def _state(sched):
    return (sched.describe(), sched.bounds, sched.storage_folds, sched.rdom_is_outer)


def _fluent_args(op, args):
    from repro.core.schedule import DIRECTIVES

    return args[0] if DIRECTIVES[op] == ("names",) else args


class TestDirectiveTable:
    def test_every_row_is_a_method_everywhere(self):
        from repro.core.schedule import DIRECTIVES, FuncSchedule
        from repro.lang import Func

        assert set(_DIRECTIVE_CASES) == set(DIRECTIVES)
        for op in DIRECTIVES:
            for cls in (FuncSchedule, Func, ScheduleBuilder):
                assert callable(getattr(cls, op, None)), (cls.__name__, op)
            # Func and the builder share FuncSchedule's one docstring.
            assert Func.__dict__.get(op) is None and ScheduleBuilder.__dict__.get(op) is None
            assert getattr(Func, op).__doc__ == getattr(FuncSchedule, op).__doc__

    @pytest.mark.parametrize("op,prelude,args", [
        (op, prelude, args)
        for op, cases in _DIRECTIVE_CASES.items() for prelude, args in cases])
    def test_entry_points_agree(self, op, prelude, args):
        """Func method, builder method, raw tuple and JSON round-trip all
        produce the same FuncSchedule."""
        f = _three_d_func()
        env = {"f": f.function}
        for directive in prelude:
            f.schedule.apply(*directive)
        assert getattr(f, op)(*_fluent_args(op, args)) is f
        expected = _state(f.schedule)

        builder = getattr(Schedule({"f": prelude}).func("f"), op)(*_fluent_args(op, args))
        raw = Schedule({"f": [*prelude, (op, *args)]})
        through_json = Schedule.from_json(raw.to_json())
        assert as_schedule(builder).directives("f")[len(prelude)][0] == op
        assert through_json == raw and through_json.digest() == raw.digest()
        for schedule in (builder, raw, through_json):
            assert _state(schedule.func_schedules(env)["f"]) == expected

    def test_names_may_be_vars_and_funcs(self):
        from repro.lang import Func, Var

        f, g = _three_d_func(), Func("g")
        f.split(Var("x"), Var("xo"), Var("xi"), 4).compute_at(g, Var("y"))
        by_name = _three_d_func().split("x", "xo", "xi", 4).compute_at("g", "y")
        assert _state(f.schedule) == _state(by_name.schedule)
        assert as_schedule(Schedule().func(f).compute_at(g, Var("y"))) == \
            Schedule({"f": [("compute_at", "g", "y")]})

    def test_func_call_schedule_takes_consumer_name(self):
        """Regression: Func.compute_at/store_at("g", ...) raised AttributeError."""
        f = _three_d_func().store_at("g", "y").compute_at("g", "x")
        assert f.schedule.store_level.loop_name() == "g.y"
        assert f.schedule.compute_level.loop_name() == "g.x"

    @pytest.mark.parametrize("bad,message", [
        (("split", "x", "xo", "xi", 4.5), "must be an integer"),
        (("split", "x", "xo", "xi", np.float32(4)), "must be an integer"),
        (("vectorize", "x", 2.5), "must be an integer"),
        (("bound", "c", 0, 3.0), "must be an integer"),
        (("split", "x", "xo", "xi", 4, "bogus"), "round_up, guard_with_if"),
    ])
    def test_bad_arguments_raise_one_error_everywhere(self, bad, message):
        op, *args = bad
        plain = [float(a) if isinstance(a, np.floating) else a for a in args]
        json_text = json.dumps({"version": 1, "funcs": {"f": [[op, *plain]]}})
        entry_points = {
            "func": lambda: getattr(_three_d_func(), op)(*args),
            "builder": lambda: getattr(Schedule().func("f"), op)(*args),
            "tuple": lambda: Schedule({"f": [bad]}),
            "json": lambda: Schedule.from_json(json_text),
        }
        messages = set()
        for enter in entry_points.values():
            with pytest.raises(ScheduleError, match=message) as excinfo:
                enter()
            messages.add(str(excinfo.value).replace("np.float32(4.0)", "4.0"))
        assert len(messages) == 1, messages

    def test_reorder_rejects_a_bare_string(self):
        with pytest.raises(ScheduleError, match="sequence of dimension names"):
            Schedule({"f": [("reorder", "xy")]})
        with pytest.raises(ScheduleError, match="sequence of dimension names"):
            _three_d_func().schedule.apply("reorder", "xy")

    def test_docs_table_matches_the_directive_table(self):
        import pathlib
        import re

        from repro.core.schedule import DIRECTIVES

        text = (pathlib.Path(__file__).parent.parent / "docs" / "scheduling.md").read_text()
        section = text.split("## The two axes of a schedule")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert rows == list(DIRECTIVES)


# ---------------------------------------------------------------------------
# genes lower to table directives
# ---------------------------------------------------------------------------

#: gene domain ops -> the hand-written directives they stand for (on f[x, y, c]).
_GENE_EXPANSIONS = [
    ([("split", "x", 8)], [("split", "x", "x_o", "x_i", 8)]),
    ([("split", "y", 6, "guard_with_if")],
     [("split", "y", "y_o", "y_i", 6, "guard_with_if")]),
    ([("tile", 8, 4)],
     [("split", "x", "x_o", "x_i", 8), ("split", "y", "y_o", "y_i", 4),
      ("reorder", ("x_i", "y_i", "x_o", "y_o"))]),
    ([("gpu_tile", 8, 16)],
     [("split", "x", "x_blk", "x_thr", 8), ("split", "y", "y_blk", "y_thr", 16),
      ("reorder", ("x_thr", "y_thr", "x_blk", "y_blk")),
      ("gpu_threads", "x_thr"), ("gpu_threads", "y_thr"),
      ("gpu_blocks", "x_blk"), ("gpu_blocks", "y_blk")]),
    ([("vectorize", "x", 4)], [("split", "x", "x_vo", "x_vi", 4), ("vectorize", "x_vi")]),
    ([("unroll", "x", 2)], [("split", "x", "x_uo", "x_ui", 2), ("unroll", "x_ui")]),
    ([("parallel", "y")], [("parallel", "y")]),
    ([("reorder", ("c", "x", "y"))], [("reorder", ("c", "x", "y"))]),
    ([("storage_fold", "y", 3)], [("storage_fold", "y", 3)]),
    ([("rdom_outer",)], [("rdom_outer",)]),
    # Late resolution: after a tile, "x" means x_i (inner) for vectorize —
    # marked directly when its extent already matches — and "y" means y_o
    # (outer) for parallel.
    ([("tile", 4, 8), ("vectorize", "x", 4), ("parallel", "y")],
     [("tile", "x", "y", "x_o", "y_o", "x_i", "y_i", 4, 8),
      ("vectorize", "x_i"), ("parallel", "y_o")]),
    ([("tile", 8, 8), ("unroll", "x", 2)],
     [("tile", "x", "y", "x_o", "y_o", "x_i", "y_i", 8, 8),
      ("split", "x_i", "x_i_uo", "x_i_ui", 2), ("unroll", "x_i_ui")]),
]

#: (call-schedule gene, function is the output) -> directives.
_CALL_EXPANSIONS = [
    (("inline",), False, [("compute_inline",)]),
    (("root",), False, [("compute_root",)]),
    (("at", "g", "x"), False, [("compute_at", "g", "x"), ("store_at", "g", "x")]),
    (("at_store", "g", "y", "x"), False, [("store_at", "g", "y"), ("compute_at", "g", "x")]),
    (("at", "g", "x"), True, [("compute_root",)]),
]


class TestGeneLowering:
    @staticmethod
    def _replayed(directives):
        from repro.core.schedule import FuncSchedule

        schedule = FuncSchedule(["x", "y", "c"])
        for directive in directives:
            schedule.apply(*directive)
        return _state(schedule)

    @staticmethod
    def _materialized(gene, output_name="out"):
        from repro.autotuner.search_space import ScheduleGenome

        env = {"f": _three_d_func().function}
        return _state(ScheduleGenome({"f": gene}).to_schedules(env, output_name)["f"])

    def test_every_gene_kind_is_covered(self):
        from repro.autotuner import search_space

        assert {op[0] for ops, _ in _GENE_EXPANSIONS for op in ops} == set(search_space._DOMAIN_OPS)
        assert {call[0] for call, _, _ in _CALL_EXPANSIONS} == set(search_space._CALL_SCHEDULES)

    @pytest.mark.parametrize("ops,directives", _GENE_EXPANSIONS)
    def test_domain_ops(self, ops, directives):
        from repro.autotuner.search_space import FunctionGene

        assert self._materialized(FunctionGene(("root",), list(ops))) == \
            self._replayed([*directives, ("compute_root",)])

    @pytest.mark.parametrize("call,is_output,directives", _CALL_EXPANSIONS)
    def test_call_schedules(self, call, is_output, directives):
        from repro.autotuner.search_space import FunctionGene

        assert self._materialized(FunctionGene(call, []), "f" if is_output else "out") == \
            self._replayed(directives)

    def test_inline_gene_of_an_update_stage_is_root(self):
        from repro.autotuner.search_space import FunctionGene, ScheduleGenome
        from repro.lang import Func, RDom, Var

        x = Var("x")
        h = Func("h")
        h[x] = 0
        r = RDom(0, 4)
        h[x] = h[x] + r.x
        schedules = ScheduleGenome({"h": FunctionGene(("inline",), [])}).to_schedules(
            {"h": h.function}, "out")
        assert schedules["h"].compute_level.is_root()

    def test_unknown_gene_kinds_are_schedule_errors(self):
        from repro.autotuner.search_space import FunctionGene

        with pytest.raises(ScheduleError, match="unknown domain op"):
            self._materialized(FunctionGene(("root",), [("warp", "x")]))
        with pytest.raises(ScheduleError, match="unknown call schedule"):
            self._materialized(FunctionGene(("sideways",), []))
