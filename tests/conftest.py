"""Shared fixtures for the test suite.

:func:`schedule_funcs` schedules an app's Funcs directly.  Tests marked
``@pytest.mark.native`` are auto-skipped on machines without a C compiler
(the probe runs once per process and is cached).
"""

from __future__ import annotations

import numpy as np
import pytest


def pytest_collection_modifyitems(config, items):
    """Skip ``native``-marked tests when no C toolchain is available."""
    if any(item.get_closest_marker("native") for item in items):
        from repro.codegen.c_toolchain import toolchain_available

        if not toolchain_available():
            skip = pytest.mark.skip(
                reason="no C compiler found (the native backend needs cc/gcc/"
                       "clang on PATH or $REPRO_CC); see docs/native_backend.md")
            for item in items:
                if item.get_closest_marker("native"):
                    item.add_marker(skip)


def schedule_funcs(app, name):
    """Schedule the app's Funcs directly — the paper's way of scheduling —
    with the directives of one of its named schedules; returns the app."""
    schedule = app.named_schedule(name)
    for func in app.funcs.values():
        for directive in schedule.directives(func.function.name):
            func.schedule.apply(*directive)
    return app


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_image(rng):
    """A small float32 image in [0, 1], shape (width=24, height=16)."""
    return rng.random((24, 16)).astype(np.float32)


@pytest.fixture
def tiny_image(rng):
    """A tiny float32 image, shape (width=12, height=8)."""
    return rng.random((12, 8)).astype(np.float32)


@pytest.fixture
def uint8_image(rng):
    """A small uint8 image, shape (width=20, height=12)."""
    return (rng.random((20, 12)) * 256).astype(np.uint8)


