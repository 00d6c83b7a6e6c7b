"""Tests for the static IR cost model (`repro.analysis.static_cost`).

The contract, in order of strength:

* ``ops``/``loads``/``stores`` are *exact* — identical to what the dynamic
  :class:`~repro.machine.cost_model.CostModel` accumulates from the
  interpreter's event stream — for the named blur schedules and for
  fuzz-generated (pipeline, schedule) pairs;
* cycle estimates *rank* the fig3 blur schedule sweep in the same order as
  the trace-driven simulation (that ordering is what the autotuner consumes);
* the static path is dramatically faster (the acceptance criterion is 50x;
  in practice it is hundreds of times faster).
"""

import time

import numpy as np
import pytest

from repro.analysis.static_cost import analyze_lowered, estimate_cost_static
from repro.apps.blur import make_blur
from repro.fuzz.pipeline_gen import generate_pipeline
from repro.fuzz.schedule_gen import generate_schedules
from repro.machine import SMALL_CACHE_CPU, XEON_W3520, estimate_cost
from repro.pipeline import Pipeline

#: The blur schedule sweep of Figure 3 (same strategies the benchmark runs).
FIG3_STRATEGIES = [
    "breadth_first",
    "full_fusion",
    "sliding_window",
    "tiled_novec",
    "sliding_in_tiles",
]


@pytest.fixture(scope="module")
def blur_app():
    rng = np.random.default_rng(7)
    return make_blur(rng.random((90, 60)).astype(np.float32))


@pytest.fixture(scope="module")
def blur_costs(blur_app):
    """Memoised SMALL_CACHE_CPU report of one named schedule at 64x48 under
    one mode, shared by the parity and ranking tests."""
    pipe, reports = blur_app.pipeline(), {}

    def cost(name, mode):
        if (name, mode) not in reports:
            reports[name, mode] = estimate_cost(
                pipe, [64, 48], schedule=blur_app.named_schedule(name),
                profile=SMALL_CACHE_CPU, mode=mode)
        return reports[name, mode]

    return cost


def _counts(report):
    return (report.ops, report.loads, report.stores)


# ---------------------------------------------------------------------------
# exact count parity on the named blur schedules
# ---------------------------------------------------------------------------

class TestBlurCountParity:
    @pytest.mark.parametrize("name", FIG3_STRATEGIES + ["tiled", "tuned"])
    def test_counts_match_dynamic_model(self, blur_costs, name):
        assert _counts(blur_costs(name, "static")) == \
            _counts(blur_costs(name, "dynamic"))

    def test_report_shape(self, blur_app):
        report = estimate_cost_static(blur_app.pipeline(), [32, 24],
                                      profile=SMALL_CACHE_CPU)
        assert report.cycles > 0
        assert report.milliseconds > 0
        data = report.as_dict()
        assert data["ops"] > 0 and data["loads"] > 0 and data["stores"] > 0

    def test_unknown_mode_rejected(self, blur_app):
        with pytest.raises(ValueError, match="mode"):
            estimate_cost(blur_app.pipeline(), [16, 12], mode="oracle")


# ---------------------------------------------------------------------------
# ranking across the fig3 sweep
# ---------------------------------------------------------------------------

class TestFig3Ranking:
    def test_static_orders_sweep_like_dynamic(self, blur_costs):
        static_order = sorted(FIG3_STRATEGIES,
                              key=lambda name: blur_costs(name, "static").cycles)
        dynamic_order = sorted(FIG3_STRATEGIES,
                               key=lambda name: blur_costs(name, "dynamic").cycles)
        assert static_order == dynamic_order
        # Same best schedule is the part the autotuner depends on.
        assert static_order[0] == dynamic_order[0]

    def test_rank_correlation(self, blur_costs):
        """Spearman rank correlation across the sweep is perfect (the orders
        are asserted equal above); keep the numeric form as documentation."""
        static = [blur_costs(name, "static").cycles for name in FIG3_STRATEGIES]
        dynamic = [blur_costs(name, "dynamic").cycles for name in FIG3_STRATEGIES]
        rank_s = np.argsort(np.argsort(static)).astype(float)
        rank_d = np.argsort(np.argsort(dynamic)).astype(float)
        n = len(rank_s)
        rho = 1.0 - 6.0 * float(np.sum((rank_s - rank_d) ** 2)) / (n * (n * n - 1))
        assert rho == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# speed (acceptance criterion: >= 50x on a fig3 blur genome)
# ---------------------------------------------------------------------------

class TestSpeed:
    def test_static_is_50x_faster_than_interpreted(self, blur_app):
        pipe = blur_app.pipeline()
        schedule = blur_app.named_schedule("tiled")
        sizes = [64, 48]
        # Warm the compile cache so both sides pay zero lowering; what is
        # being compared is scoring, not compilation.
        pipe.compile(sizes, schedule=schedule, target="interp")

        start = time.perf_counter()
        static = estimate_cost(pipe, sizes, schedule=schedule,
                               profile=SMALL_CACHE_CPU, mode="static")
        static_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        dynamic = estimate_cost(pipe, sizes, schedule=schedule,
                                profile=SMALL_CACHE_CPU, mode="dynamic")
        dynamic_elapsed = time.perf_counter() - start

        assert _counts(static) == _counts(dynamic)
        assert dynamic_elapsed / max(static_elapsed, 1e-9) >= 50.0


# ---------------------------------------------------------------------------
# property test: parity over fuzz-generated pipelines and schedules
# ---------------------------------------------------------------------------

class TestFuzzParity:
    SIZES = [20, 14]

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_match_on_generated_cases(self, seed):
        """20 generated (pipeline, schedule) cases (2 schedules per seed):
        static and dynamic op/load/store counts are identical.  Schedules
        using GUARD_WITH_IF are excluded per the documented contract — though
        the analyzer's concrete-iteration fallback makes guarded nests exact
        too, which `test_guarded_schedule_still_exact` pins down."""
        built = generate_pipeline(seed)
        pipe = Pipeline(built.output)
        for schedule in generate_schedules(built, seed=seed * 101 + 1, count=2):
            if "guard_with_if" in schedule.to_json().lower():
                continue
            static = estimate_cost(pipe, self.SIZES, schedule=schedule,
                                   profile=XEON_W3520, mode="static")
            dynamic = estimate_cost(pipe, self.SIZES, schedule=schedule,
                                    profile=XEON_W3520, mode="dynamic")
            assert _counts(static) == _counts(dynamic), \
                f"seed={seed} schedule={schedule.digest()}"

    def test_guarded_schedule_still_exact(self):
        """A schedule whose split uses GUARD_WITH_IF: per-iteration re-walking
        keeps the static counts exact even though the loop body is
        iteration-dependent."""
        found = 0
        for seed in range(25):
            built = generate_pipeline(seed)
            pipe = Pipeline(built.output)
            for schedule in generate_schedules(built, seed=seed * 37 + 5, count=2):
                if "guard_with_if" not in schedule.to_json().lower():
                    continue
                static = estimate_cost(pipe, self.SIZES, schedule=schedule,
                                       profile=XEON_W3520, mode="static")
                dynamic = estimate_cost(pipe, self.SIZES, schedule=schedule,
                                        profile=XEON_W3520, mode="dynamic")
                assert _counts(static) == _counts(dynamic), \
                    f"seed={seed} schedule={schedule.digest()}"
                found += 1
                if found >= 3:
                    return
        assert found, "no GUARD_WITH_IF schedule generated in 25 seeds"


# ---------------------------------------------------------------------------
# analyze_lowered plumbing
# ---------------------------------------------------------------------------

class TestAnalyzeLowered:
    def test_direct_lowered_analysis(self, blur_app):
        pipe = blur_app.pipeline()
        compiled = pipe.compile([48, 32], schedule=blur_app.named_schedule("tiled"),
                                target="interp")
        report = analyze_lowered(compiled.lowered, SMALL_CACHE_CPU,
                                 sizes=[48, 32])
        reference = estimate_cost(pipe, [48, 32],
                                  schedule=blur_app.named_schedule("tiled"),
                                  profile=SMALL_CACHE_CPU, mode="dynamic")
        assert _counts(report) == _counts(reference)
