"""The code every app x named schedule emits is pinned byte for byte.

``codegen_pinned.json`` holds the SHA-256 of ``c_source()`` (the native C
unit) and ``source()`` (the ``compiled`` backend's Python) for every named
schedule of every app at a small fixed size.  A compiler change that is meant
to leave the generated code alone (a faster pass, a refactor) must keep every
digest; a change that means to alter the code re-records the table in the
same commit, so the diff shows which programs moved:

    PYTHONPATH=src python tests/test_codegen_pinned.py --update
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro import apps

PINS = Path(__file__).with_name("codegen_pinned.json")
W, H = 64, 48

_gray = np.zeros((W, H), dtype=np.float32)
MAKERS = {
    "bilateral_grid": lambda: apps.make_bilateral_grid(_gray),
    "blur": lambda: apps.make_blur(_gray),
    "camera_pipe": lambda: apps.make_camera_pipe(np.zeros((W + 4, H + 4), dtype=np.uint16)),
    "histogram_equalize": lambda: apps.make_histogram_equalize(np.zeros((W, H), dtype=np.uint8)),
    "interpolate": lambda: apps.make_interpolate(np.zeros((W, H, 4), dtype=np.float32)),
    "local_laplacian": lambda: apps.make_local_laplacian(_gray),
    "pyramid": lambda: apps.make_pyramid(_gray, levels=2),
    "rasterize": lambda: apps.make_rasterize(W, H, apps.default_primitives(W, H)),
    "unsharp": lambda: apps.make_unsharp(_gray),
    "video": lambda: apps.make_video(W, H, chunk=8),
}


@lru_cache(maxsize=None)
def _app(name):
    return MAKERS[name]()


def _digests(app_name, schedule):
    compiled = _app(app_name).compile(schedule, target="interp")
    return {kind: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for kind, text in (("c_source", compiled.c_source()),
                               ("source", compiled.source()))}


def _programs():
    return [f"{name}/{schedule}" for name in sorted(MAKERS)
            for schedule in sorted(_app(name).schedules)]


PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}


def test_every_named_schedule_is_pinned():
    assert sorted(PINNED) == _programs()


@pytest.mark.parametrize("program", sorted(PINNED))
def test_generated_code_is_unchanged(program):
    app_name, schedule = program.split("/")
    assert _digests(app_name, schedule) == PINNED[program], (
        f"{program}: emitted code changed; if that is intended, re-record "
        f"with `python tests/test_codegen_pinned.py --update`")


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    table = {program: _digests(*program.split("/")) for program in _programs()}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
