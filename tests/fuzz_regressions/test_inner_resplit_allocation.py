"""Fuzz regression: re-splitting an *inner* split dimension under-allocated.

Found by ``python -m repro.fuzz`` (seed 0 corpus, PR 5).  Minimized case: the
output's ``x`` is split by 2, then the inner half ``x_i`` (constant extent 2)
is split again by 4 with the default ROUND_UP tail.  Each x-tile then covers
``ceil(2/4)*4 = 4`` elements at stride 2, so the traversal touches
``(ceil(11/2)-1)*2 + 4 = 14`` columns — but allocation sizing used a single
multiplicative "total split factor" that only followed the *outer* chain
(giving 2), so the output buffer got ``round_up(11, 2) = 12`` columns and the
interpreter faulted with ``store to ... out of bounds``.

The fix replaced the factor product with the exact coverage recursion
:meth:`~repro.core.schedule.FuncSchedule.rounded_extent` (and its symbolic
twin in ``schedule_functions``), which is identical to the old rounding for
outer-chain-only splits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline_schedule import Schedule
from repro.core.schedule import FuncSchedule
from repro.lang import Buffer, Func, Var, clamp
from repro.pipeline import Pipeline
from repro.runtime.target import Target


def _pipeline():
    rng = np.random.default_rng(5)
    image = Buffer(rng.random((13, 9)).astype(np.float32), name="in")
    x, y = Var("x"), Var("y")
    f = Func("f")
    f[x, y] = image[clamp(x, 0, 12), clamp(y, 0, 8)] * 0.25
    return f


_SCHEDULE = (Schedule().func("f")
             .split("x", "x_o", "x_i", 2)
             .split("x_i", "x_i_vo", "x_i_vi", 4)
             .reorder("x_i_vi", "x_i_vo", "y", "x_o")
             .schedule)


@pytest.mark.parametrize("backend", ["interp", "numpy", "compiled"])
def test_inner_resplit_realizes_in_bounds(backend):
    """Previously: ExecutionError 'store to ... out of bounds (index 193,
    size 192)' on the interpreter; now all backends agree bit-for-bit."""
    f = _pipeline()
    reference = Pipeline(f).compile([11, 7], schedule=_SCHEDULE, target="interp").run()
    out = Pipeline(f).compile([11, 7], schedule=_SCHEDULE,
                              target=Target(backend=backend)).run()
    assert out.shape == (11, 7)
    assert out.tobytes() == reference.tobytes()


class TestRoundedExtent:
    def _schedule_inner_resplit(self):
        s = FuncSchedule(["x", "y"])
        s.split("x", "x_o", "x_i", 2)
        s.split("x_i", "x_i_vo", "x_i_vi", 4)
        return s

    def test_inner_resplit_coverage(self):
        s = self._schedule_inner_resplit()
        # 6 tiles of stride 2, each covering 4 elements: (6-1)*2 + 4 = 14.
        assert s.rounded_extent("x", 11) == 14
        assert s.rounded_extent("x", 12) == 14
        assert s.rounded_extent("y", 7) == 7          # unsplit dim unchanged
        # The outer-chain-only factor (2) is what the old code sized by: too
        # small — rounded_extent is the single allocation-sizing code path.

    def test_outer_chain_matches_legacy_rounding(self):
        s = FuncSchedule(["x"])
        s.split("x", "xo", "xi", 4)
        s.split("xo", "xoo", "xoi", 8)
        for extent in (1, 3, 4, 31, 32, 33, 100):
            legacy = -(-extent // 32) * 32          # round_up(extent, 4*8)
            assert s.rounded_extent("x", extent) == legacy
        assert s.split_padding("x") == 31

    def test_plain_split_padding(self):
        s = FuncSchedule(["x"])
        s.split("x", "xo", "xi", 4)
        assert s.split_padding("x") == 3
        assert s.rounded_extent("x", 5) == 8

    def test_inner_resplit_padding_bounds_coverage(self):
        s = self._schedule_inner_resplit()
        pad = s.split_padding("x")
        for extent in range(1, 40):
            assert s.rounded_extent("x", extent) <= extent + pad
