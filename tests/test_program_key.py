"""The content key of a compiled program (``repro.core.program_key``).

A compiled program is keyed on what it computes: every reachable Function's
definition digest (node types, constants, update coordinates, reduction
bounds) and, on disk, a digest of the compiler's own sources.  Pinned here:

* two processes that build *different* algorithms under the same Func names
  never share a persistent-cache entry;
* a one-byte edit to any package source changes every disk key;
* algorithms that differ only in types key and fingerprint apart;
* rebuilding a shipped app gives the identical key, which warm restores
  rely on.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import apps
from repro.core.program_key import compiler_digest, disk_key_string, pipeline_fingerprint
from repro.lang import Buffer, Func, ImageParam, Param, Var
from repro.pipeline import Pipeline
from repro.types import Float, Int

SRC = Path(__file__).resolve().parent.parent / "src"

#: One process of the two-process probe: builds ``f[x] = input[x] + 1``
#: (argv "add") or ``input[x] * 2`` (argv "mul") under the same names,
#: compiles it against $REPRO_CACHE_DIR and prints output and disk counters.
_PROBE = """
import json, sys
import numpy as np
from repro import Buffer, Func, Pipeline, Var
x = Var("x")
image = Buffer(np.arange(8, dtype=np.int32), name="input")
f = Func("f")
f[x] = image[x] + 1 if sys.argv[1] == "add" else image[x] * 2
pipeline = Pipeline(f)
out = pipeline.compile([8], target=sys.argv[2]).run()
print(json.dumps(dict(pipeline.disk_cache_info()._asdict(), output=out.tolist())))
"""


def _run(script, *args, pythonpath=SRC, **env):
    env = dict(os.environ, PYTHONPATH=str(pythonpath), **env)
    result = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                            text=True, env=env, check=True, timeout=300)
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("target", ["compiled", pytest.param("native", marks=pytest.mark.native)])
def test_other_algorithm_under_same_names_misses_across_processes(tmp_path, target):
    first = _run(_PROBE, "add", target, REPRO_CACHE_DIR=str(tmp_path))
    assert first["output"] == list(range(1, 9)) and first["stores"] >= 1
    second = _run(_PROBE, "mul", target, REPRO_CACHE_DIR=str(tmp_path))
    assert second["hits"] == 0 and second["misses"] == 1 and second["lowerings"] == 1
    assert second["output"] == list(range(0, 16, 2))


#: Prints the disk keys of two different programs, as the imported package
#: computes them.
_KEYS = """
import json
import numpy as np
from repro import Buffer, Func, Pipeline, Var
from repro.core.program_key import disk_key_string
x = Var("x")
image = Buffer(np.arange(8, dtype=np.float32), name="input")
f, g = Func("f"), Func("g")
f[x] = image[x] + 1.0
g[x] = f[x] * f[x]
keys = [disk_key_string(Pipeline(out).compile([8], target="interp").key()) for out in (f, g)]
print(json.dumps(keys))
"""


def _package_copy(root: Path) -> Path:
    package = root / "repro"
    shutil.copytree(Path(repro.__file__).resolve().parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return package


def test_one_byte_edit_to_any_source_changes_the_compiler_digest(tmp_path):
    package = _package_copy(tmp_path)
    files = sorted(package.rglob("*.py"))
    assert len(files) > 50
    source_digest = compiler_digest.__wrapped__  # uncached: the files change
    before = source_digest(package)
    seen = {before}
    for path in files:
        data = path.read_bytes()
        path.write_bytes(bytes([data[0] ^ 1]) + data[1:])
        seen.add(source_digest(package))
        path.write_bytes(data)
    assert len(seen) == len(files) + 1
    assert source_digest(package) == before


def test_one_byte_edit_changes_every_disk_key(tmp_path):
    package = _package_copy(tmp_path)
    before = _run(_KEYS, pythonpath=tmp_path)
    assert before == _run(_KEYS, pythonpath=tmp_path)
    emitter = package / "codegen" / "c_backend.py"
    emitter.write_bytes(emitter.read_bytes() + b"\n")
    after = _run(_KEYS, pythonpath=tmp_path)
    assert not set(before) & set(after)


def _typed(element):
    x = Var("x")
    image, gain = ImageParam(element, 1, name="input"), Param(element, name="gain")
    f = Func("f")
    f[x] = image[x] * gain
    return Pipeline(f)


def test_algorithms_that_differ_only_in_types_key_apart():
    # The input stays unbound, so no image dtype enters the compile key.
    pipelines = [_typed(Int(32)), _typed(Float(32))]
    assert len({pipeline_fingerprint(p) for p in pipelines}) == 2
    assert len({disk_key_string(p.compile([8], target="interp").key())
                for p in pipelines}) == 2


def test_update_coordinates_and_reduction_bounds_are_keyed():
    from repro.lang import RDom

    def build(coordinate, extent):
        x = Var("x")
        r = RDom(0, extent, name="r")
        h = Func("h")
        h[x] = 0
        h[coordinate(r.x)] = h[coordinate(r.x)] + 1
        return pipeline_fingerprint(Pipeline(h))

    same = build(lambda r: r, 4)
    assert same == build(lambda r: r, 4)
    assert same != build(lambda r: r, 5)
    assert same != build(lambda r: r + 1, 4)


def _shipped_apps():
    rng = np.random.default_rng(0)
    gray = rng.random((24, 16)).astype(np.float32)
    rgba = rng.random((16, 12, 4)).astype(np.float32)
    return {
        "blur": lambda: apps.make_blur(gray),
        "unsharp": lambda: apps.make_unsharp(gray),
        "histogram_equalize": lambda: apps.make_histogram_equalize((gray * 255).astype(np.uint8)),
        "bilateral_grid": lambda: apps.make_bilateral_grid(gray),
        "camera_pipe": lambda: apps.make_camera_pipe((gray * 1000).astype(np.uint16)),
        "interpolate": lambda: apps.make_interpolate(rgba, levels=2),
        "local_laplacian": lambda: apps.make_local_laplacian(gray, levels=2, intensity_levels=4),
        "pyramid": lambda: apps.make_pyramid(gray),
        "video": lambda: apps.make_video(16, 12, chunk=2),
        "rasterize": lambda: apps.make_rasterize(16, 12, apps.default_primitives(16, 12)),
    }


@pytest.mark.parametrize("name", sorted(_shipped_apps()))
def test_rebuilding_a_shipped_app_gives_the_identical_key(name):
    maker = _shipped_apps()[name]
    first, second = maker(), maker()
    schedule = sorted(first.schedules)[0]
    keys = [disk_key_string(app.compile(schedule, target="interp").key())
            for app in (first, second)]
    assert keys[0] == keys[1]
    assert pipeline_fingerprint(first.pipeline()) == pipeline_fingerprint(second.pipeline())
