"""Fuzz regression: compute_at levels that don't enclose every consumer.

Found by ``python -m repro.fuzz`` (seed 0 corpus, case seed 60, PR 5).
Minimized case: ``s0`` is read by two consumers; one of them is computed at
root, but ``s0`` is scheduled ``compute_at`` a loop of the *other* consumer.
The injection pass then realizes ``s0`` inside that loop only, leaving the
root consumer's loads with no enclosing realization — which used to crash
deep in flattening with an internal ``RuntimeError: load from 's0' outside
any realization`` instead of a schedule diagnostic.

The fix is a validation pass (``_validate_compute_at_enclosure``) that walks
every effective consumer (inlined consumers expanded transitively) and
rejects the schedule with a :class:`ScheduleError` naming the offender.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline_schedule import Schedule
from repro.core.schedule import ScheduleError
from repro.lang import Buffer, Func, RDom, Var, clamp
from repro.pipeline import Pipeline


def _diamond():
    """s0 feeds both s1 (root) and s2; s2 also reads s1."""
    rng = np.random.default_rng(60)
    image = Buffer(rng.random((16, 12)).astype(np.float32), name="in")
    x, y = Var("x"), Var("y")
    s0, s1, s2 = Func("s0"), Func("s1"), Func("s2")
    s0[x, y] = image[clamp(x, 0, 15), clamp(y, 0, 11)] + 1.0
    s1[x, y] = s0[x, y] * 2.0
    s2[x, y] = s1[x, y] + s0[x, y]
    return s0, s1, s2


def test_compute_at_not_enclosing_sibling_consumer_is_rejected():
    s0, s1, s2 = _diamond()
    schedule = (Schedule()
                .func("s0").compute_at("s2", "y").store_at("s2", "y")
                .func("s1").compute_root()
                .func("s2").compute_root().schedule)
    with pytest.raises(ScheduleError, match="not nested inside"):
        Pipeline(s2).lower(schedule=schedule)


def test_compute_at_single_consumer_still_lowers():
    """Positive control: the same level is legal when s2 is the only user."""
    rng = np.random.default_rng(61)
    image = Buffer(rng.random((16, 12)).astype(np.float32), name="in")
    x, y = Var("x"), Var("y")
    s0, s2 = Func("s0"), Func("s2")
    s0[x, y] = image[clamp(x, 0, 15), clamp(y, 0, 11)] + 1.0
    s2[x, y] = s0[x, y] * 3.0
    schedule = (Schedule()
                .func("s0").compute_at("s2", "y").store_at("s2", "y")
                .func("s2").compute_root().schedule)
    out = Pipeline(s2).compile([8, 6], schedule=schedule, target="interp").run()
    ref = Pipeline(s2).compile([8, 6], target="interp").run()
    assert out.tobytes() == ref.tobytes()


def test_compute_at_consumer_chain_is_accepted():
    """s0 at s1's loop, s1 at s2's loop: nested chains remain legal."""
    s0, s1, s2 = _diamond()
    # Rewire: make s2 read only s1 so the chain is linear.
    x, y = Var("x"), Var("y")
    s3 = Func("s3")
    s3[x, y] = s1[x, y] - 0.5
    schedule = (Schedule()
                .func("s0").compute_at("s1", "y").store_at("s1", "y")
                .func("s1").compute_at("s3", "y").store_at("s3", "y")
                .func("s3").compute_root().schedule)
    out = Pipeline(s3).compile([8, 6], schedule=schedule, target="interp").run()
    ref = Pipeline(s3).compile([8, 6], target="interp").run()
    assert out.tobytes() == ref.tobytes()


def test_compute_at_inner_loop_with_outer_sibling_is_rejected():
    """Consumer entering at an outer loop than the producer's level: the
    producer's realization (inner) cannot cover the sibling's nest (outer)."""
    s0, s1, s2 = _diamond()
    schedule = (Schedule()
                .func("s0").compute_at("s2", "x").store_at("s2", "x")
                .func("s1").compute_at("s2", "y").store_at("s2", "y")
                .func("s2").compute_root().schedule)
    # s0 is realized inside s2.x (innermost); s1 computes at s2.y (outer) and
    # reads s0 there -> out of scope.
    with pytest.raises(ScheduleError, match="not nested inside"):
        Pipeline(s2).lower(schedule=schedule)


def test_compute_at_pure_loop_with_update_consumer_is_rejected():
    """Update-stage nests carry stage-suffixed loop names: a producer computed
    at the consumer's *pure* loop does not enclose its update stage."""
    rng = np.random.default_rng(62)
    image = Buffer(rng.random((16, 12)).astype(np.float32), name="in")
    x, y = Var("x"), Var("y")
    s0, s2 = Func("s0"), Func("s2")
    s0[x, y] = image[clamp(x, 0, 15), clamp(y, 0, 11)] + 1.0
    r = RDom(0, 3, name="r")
    s2[x, y] = s0[x, y]
    s2[x, y] = s2[x, y] + s0[clamp(x + r.x, 0, 15), y]
    schedule = (Schedule()
                .func("s0").compute_at("s2", "y").store_at("s2", "y")
                .func("s2").compute_root().schedule)
    with pytest.raises(ScheduleError, match="update stage"):
        Pipeline(s2).lower(schedule=schedule)
