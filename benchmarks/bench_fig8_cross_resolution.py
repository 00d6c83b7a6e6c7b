"""Figure 8: cross-testing autotuned schedules across image resolutions.

The paper tunes each program at a source resolution, then runs the winning
schedule at a different target resolution and compares against tuning directly
at the target.  The observation to reproduce: schedules generalize reasonably
well, and generalize better from low resolution to high resolution than the
reverse.

Tuning runs on the static IR cost model (the PR 7 default evaluator); the
cross-resolution costs are reported under both the trace-driven simulation
(``slowdown_*``, asserted) and the static model (``static_slowdown_*``,
recorded — the two agree on the fig3 sweep ranking but are distinct
estimators, so the static columns document how the cheap model generalizes).

Standalone mode exports the table as a JSON artifact:

Run with:  python benchmarks/bench_fig8_cross_resolution.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.apps import make_blur, make_unsharp  # noqa: E402
from repro.autotuner import Autotuner, CostModelEvaluator, TunerConfig  # noqa: E402
from repro.machine import SMALL_CACHE_CPU, estimate_cost  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402

SMALL = [32, 24]
LARGE = [96, 64]

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_fig8.json"


def _tune(pipeline, sizes, seed):
    evaluator = CostModelEvaluator(pipeline, sizes, profile=SMALL_CACHE_CPU)
    config = TunerConfig(population_size=6, generations=2, seed=seed)
    result = Autotuner(pipeline, evaluator, config).run()
    return result.best_schedule(pipeline)


def _cost(pipeline, schedule, sizes, mode="dynamic"):
    return estimate_cost(pipeline, sizes, schedule=schedule,
                         profile=SMALL_CACHE_CPU, mode=mode).milliseconds


def measure_rows(blur_image):
    rows = []
    for name, make in (("blur", lambda: make_blur(blur_image)),
                       ("unsharp", lambda: make_unsharp(blur_image))):
        pipeline = Pipeline(make().output)
        tuned_small = _tune(pipeline, SMALL, seed=1)
        tuned_large = _tune(pipeline, LARGE, seed=2)

        # Low resolution -> high resolution (and back), under both models.
        by_mode = {}
        for mode in ("dynamic", "static"):
            cross_up = _cost(pipeline, tuned_small, LARGE, mode)
            native_large = _cost(pipeline, tuned_large, LARGE, mode)
            cross_down = _cost(pipeline, tuned_large, SMALL, mode)
            native_small = _cost(pipeline, tuned_small, SMALL, mode)
            by_mode[mode] = (cross_up / native_large, cross_down / native_small)

        rows.append({
            "pipeline": name,
            "slowdown_low_to_high": by_mode["dynamic"][0],
            "slowdown_high_to_low": by_mode["dynamic"][1],
            "static_slowdown_low_to_high": by_mode["static"][0],
            "static_slowdown_high_to_low": by_mode["static"][1],
        })
    return rows


def check_rows(rows):
    for row in rows:
        # Schedules transfer: no catastrophic (>16x, the paper's worst case)
        # blowup in the low->high direction.
        assert row["slowdown_low_to_high"] < 4.0


@pytest.mark.figure("fig8")
def test_fig8_cross_resolution(benchmark, blur_image):
    from conftest import print_table, run_once

    rows = run_once(benchmark, lambda: measure_rows(blur_image))
    print_table("Figure 8: cross-testing schedules across resolutions",
                rows, ["pipeline", "slowdown_low_to_high", "slowdown_high_to_low",
                       "static_slowdown_low_to_high"])
    check_rows(rows)


def main(output_path=DEFAULT_OUTPUT) -> int:
    import numpy as np

    image = np.random.default_rng(20130616).random((128, 96)).astype(np.float32)
    rows = measure_rows(image)
    check_rows(rows)
    for row in rows:
        print(f"{row['pipeline']:>10}  low->high {row['slowdown_low_to_high']:5.2f}x "
              f"(static {row['static_slowdown_low_to_high']:5.2f}x)  "
              f"high->low {row['slowdown_high_to_low']:5.2f}x "
              f"(static {row['static_slowdown_high_to_low']:5.2f}x)")
    artifact = {
        "benchmark": "fig8_cross_resolution",
        "small": SMALL,
        "large": LARGE,
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    with open(output_path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {output_path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUTPUT))
