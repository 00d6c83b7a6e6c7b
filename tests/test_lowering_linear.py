"""Lowering work grows linearly with the program.

The autotuner compiles thousands of candidates, so a pass that re-walks a
whole subtree once per binding or per Func (quadratic in the number of nested
lets and stages) dominates compile time on deep pipelines.  This test lowers
synthetic chains of N and 2N ``compute_root`` stencil stages and counts IR
node visits — every call of ``repro.ir.visitor.children_of``, which the
analyses use to descend — rather than wall time, so it is exact and
machine-independent.
"""

import sys

import numpy as np
import pytest

from repro.ir import visitor
from repro.lang import Buffer, Func, Var, repeat_edge
from repro.pipeline import Pipeline

#: Doubling a linear pass doubles its visits; the slack covers the constant
#: per-stage work that does not scale exactly (the output stage, the input).
MAX_GROWTH = 2.6


def _chain(n: int) -> Func:
    buf = Buffer(np.zeros((32, 24), dtype=np.float32), name="chain_in")
    stage = repeat_edge(buf, name="chain_clamped")
    x, y = Var("x"), Var("y")
    for i in range(n):
        f = Func(f"chain{i}")
        f[x, y] = stage[x - 1, y] + stage[x + 1, y + 1] * 0.5
        f.compute_root()
        stage = f
    return stage


def _visits_to_lower(n: int, monkeypatch) -> int:
    pipeline = Pipeline(_chain(n))
    count = 0
    original = visitor.children_of

    def counting(node):
        nonlocal count
        count += 1
        return original(node)

    with monkeypatch.context() as patch:
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "children_of", None) is original):
                patch.setattr(module, "children_of", counting)
        pipeline.lower([32, 24])
    return count


@pytest.mark.parametrize("n", [8, 16])
def test_lowering_visits_grow_linearly(n, monkeypatch):
    small = _visits_to_lower(n, monkeypatch)
    large = _visits_to_lower(2 * n, monkeypatch)
    assert small > 0
    assert large <= MAX_GROWTH * small, (
        f"lowering {n} stages visits {small} nodes, {2 * n} stages {large}: "
        f"x{large / small:.2f} > x{MAX_GROWTH}")
