"""Smoke test of the benchmark: ``pytest benchmarks/suite/test_suite_smoke.py``.

Runs the ``--quick`` profile (160x128 images, 2 s windows, same code paths and
checks) of every workload, untraced and traced, and holds the output to
``BENCHMARK.json``.  Outside ``testpaths``, so tier-1 time is unchanged.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_suite(*arguments, cwd=ROOT, suite=SUITE):
    return subprocess.run([sys.executable, str(suite), *arguments], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.skipif(not any(map(shutil.which, ("cc", "gcc", "clang"))),
                    reason="every workload runs on Target('native'), which needs a C compiler")
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    done = run_suite("--workload", workload, "--quick", "--seed", "7", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    assert "QUICK PROFILE" in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert re.search(rf"^metric {re.escape(name)} +\S+ {re.escape(unit)}$",
                         done.stdout, re.MULTILINE), f"{name} is not printed with its unit"
        if not trace:
            assert result["metrics"][name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and its own files there is nothing to
    measure: the command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = tmp_path / "benchmarks" / "suite"
    shutil.copytree(SUITE, bare, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_suite("--workload", "stencil_1mp", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, suite=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
