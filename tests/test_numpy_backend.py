"""The vectorized NumPy backend: legality analysis and backend parity.

The backend's contract is bit-identical output with the scalar interpreter
for every pipeline and schedule.  The parity suite below runs every paper
application under at least three distinct schedules on both backends and
compares outputs exactly (no tolerance); the unit tests pin down the
batchability verdicts of the legality pass and the registry plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from _image_assertions import assert_images_identical
from repro.apps import make_blur, make_histogram_equalize
from repro.codegen import NumpyExecutor, affine_coefficient, analyze_batchable_loops
from repro.core.split import TailStrategy
from repro.ir import expr as E
from repro.ir import op
from repro.ir import stmt as S
from repro.runtime import backend_names, get_backend
from repro.runtime.executor import Executor
from repro.types import Float, Int

from test_compiled_backend import _app_cases, _interp_reference


@pytest.fixture
def rng():
    return np.random.default_rng(20130616)


# ---------------------------------------------------------------------------
# parity: every app, >= 3 distinct schedules each, bit-identical output
# ---------------------------------------------------------------------------

def _split_guarded(app):
    """A third schedule for apps that only name two: breadth-first, plus the
    output's innermost dimension split with a GUARD_WITH_IF tail (exercising
    the backend's masked sub-batch path)."""
    output = app.output.function
    innermost = output.args[0]
    return app.named_schedule("breadth_first").with_directives(
        output.name, ("split", innermost, f"{innermost}_o", f"{innermost}_i", 5,
                      TailStrategy.GUARD_WITH_IF.value))


def _blur():
    rng = np.random.default_rng(1)
    return make_blur(rng.random((40, 28)).astype(np.float32)), None


def _parity_cases():
    schedules = {
        "blur": ["breadth_first", "full_fusion", "sliding_window", "tiled", "tuned"],
        "unsharp": ["breadth_first", "tuned", "_split_guarded"],
        "histogram_equalize": ["breadth_first", "tuned", "_split_guarded"],
        "bilateral_grid": ["breadth_first", "tuned", "_split_guarded"],
        "camera_pipe": ["breadth_first", "tuned", "_split_guarded"],
        "interpolate": ["breadth_first", "tuned", "gpu"],
        "local_laplacian": ["breadth_first", "tuned", "gpu"],
    }
    for name, names in schedules.items():
        for schedule in names:
            yield pytest.param(name, schedule, id=f"{name}-{schedule}")


@pytest.mark.parametrize("app_name, schedule", _parity_cases())
def test_backend_parity(app_name, schedule):
    app, sizes = dict(_app_cases(), blur=_blur)[app_name]()
    if schedule == "_split_guarded":
        schedule = _split_guarded(app)
    if app_name == "blur" or not isinstance(schedule, str):
        reference = app.compile(schedule, sizes, target="interp").run()
    else:
        # The same inputs and named schedule as test_compiled_backend's
        # parity suite: share its interpreter reference.
        reference = _interp_reference(app_name, schedule)
    output = app.compile(schedule, sizes, target="numpy").run()
    assert_images_identical(output, reference)


# ---------------------------------------------------------------------------
# legality analysis
# ---------------------------------------------------------------------------

def _float_store_loop(index: E.Expr, value: E.Expr, name="out", var="x",
                      extent=8) -> S.For:
    return S.For(var, op.const(0), op.const(extent), S.ForType.SERIAL,
                 S.Store(name, value, index))


def test_affine_coefficient_of_plain_variable():
    x = E.Variable("x", Int(32))
    coeff = affine_coefficient(x, "x")
    assert op.const_value(coeff) == 1


def test_affine_coefficient_with_symbolic_stride():
    x = E.Variable("x", Int(32))
    stride = E.Variable("out.stride.1", Int(32))
    index = (x - op.const(3)) * stride + op.const(7)
    coeff = affine_coefficient(index, "x")
    # The coefficient is the symbolic stride itself (times one).
    names = set()
    def collect(e):
        if isinstance(e, E.Variable):
            names.add(e.name)
        from repro.ir.visitor import children_of
        for c in children_of(e):
            collect(c)
    collect(coeff)
    assert names == {"out.stride.1"}


def test_affine_coefficient_resolves_lets():
    x = E.Variable("x", Int(32))
    xo = E.Variable("xo", Int(32))
    coeff = affine_coefficient(E.Variable("x", Int(32)), "xo",
                               lets={"x": xo * op.const(4) + op.const(1)})
    assert op.const_value(coeff) == 4


def test_affine_coefficient_rejects_nonlinear():
    x = E.Variable("x", Int(32))
    assert affine_coefficient(x * x, "x") is None
    assert affine_coefficient(E.Call(Int(32), "floor", [x], E.CallType.INTRINSIC), "x") is None


def test_simple_store_loop_is_batchable():
    x = E.Variable("x", Int(32))
    loop = _float_store_loop(x, E.FloatImm(1.0))
    info = analyze_batchable_loops(loop)[id(loop)]
    assert info.batchable
    assert len(info.store_checks) == 1
    assert info.store_checks[0].buffer == "out"


def test_same_index_rmw_loop_is_batchable():
    # out[x] = out[x] + 1 — each iteration reads and writes only its own
    # location, so batching is sound (the per-store disjointness machinery
    # covers index collisions).
    x = E.Variable("x", Int(32))
    value = E.Load(Float(32), "out", x) + E.FloatImm(1.0)
    loop = _float_store_loop(x, value)
    info = analyze_batchable_loops(loop)[id(loop)]
    assert info.batchable
    assert len(info.store_checks) == 1


def test_shifted_index_reduction_loop_is_not_batchable():
    # out[x] = out[x + 1] + 1 — a genuine loop-carried dependence: the load
    # index differs from the store index.
    x = E.Variable("x", Int(32))
    value = E.Load(Float(32), "out", x + op.const(1)) + E.FloatImm(1.0)
    loop = _float_store_loop(x, value)
    info = analyze_batchable_loops(loop)[id(loop)]
    assert not info.batchable
    assert "loop-carried" in info.reason


def test_rmw_with_second_store_is_not_batchable():
    # An RMW store plus a store to another buffer: an abort at the second
    # store's uniqueness check could follow the committed RMW store, making
    # the scalar replay double-apply it — so legality must reject the body.
    x = E.Variable("x", Int(32))
    rmw = S.Store("out", E.Load(Float(32), "out", x) + E.FloatImm(1.0), x)
    other = S.Store("aux", E.FloatImm(2.0), x)
    loop = S.For("x", op.const(0), op.const(8), S.ForType.SERIAL,
                 S.Block.make([rmw, other]))
    info = analyze_batchable_loops(loop)[id(loop)]
    assert not info.batchable
    assert "loop-carried" in info.reason


def test_scatter_with_data_dependent_index_has_no_certificate():
    # out[in[x]] = 1.0 — legal to attempt, but only with a runtime
    # uniqueness check (no static disjointness certificate).
    x = E.Variable("x", Int(32))
    index = E.Load(Int(32), "in", x)
    loop = _float_store_loop(index, E.FloatImm(1.0))
    info = analyze_batchable_loops(loop)[id(loop)]
    assert info.batchable
    assert info.store_checks == []


def test_constant_index_store_is_not_batchable():
    # out[3] = f(x): every iteration writes one cell; last-wins ordering
    # cannot survive batching.
    x = E.Variable("x", Int(32))
    loop = _float_store_loop(op.const(3), E.Cast(Float(32), x))
    info = analyze_batchable_loops(loop)[id(loop)]
    assert not info.batchable
    assert "does not advance" in info.reason


def test_nested_loop_is_not_batchable():
    x = E.Variable("x", Int(32))
    y = E.Variable("y", Int(32))
    inner = _float_store_loop(x + y * op.const(8), E.FloatImm(0.0), var="x")
    outer = S.For("y", op.const(0), op.const(4), S.ForType.SERIAL, inner)
    infos = analyze_batchable_loops(outer)
    assert not infos[id(outer)].batchable
    assert "contains For" in infos[id(outer)].reason
    assert infos[id(inner)].batchable


def test_double_store_to_same_buffer_is_not_batchable():
    x = E.Variable("x", Int(32))
    body = S.Block([
        S.Store("out", E.FloatImm(0.0), x),
        S.Store("out", E.FloatImm(1.0), x + op.const(1)),
    ])
    loop = S.For("x", op.const(0), op.const(8), S.ForType.SERIAL, body)
    info = analyze_batchable_loops(loop)[id(loop)]
    assert not info.batchable
    assert "stored more than once" in info.reason


def test_shadowed_loop_variable_is_not_batchable():
    x = E.Variable("x", Int(32))
    body = S.LetStmt("x", op.const(0), S.Store("out", E.FloatImm(0.0), x))
    loop = S.For("x", op.const(0), op.const(8), S.ForType.SERIAL, body)
    info = analyze_batchable_loops(loop)[id(loop)]
    assert not info.batchable


def test_store_through_split_lets_has_certificate():
    # The scheduler wraps split bodies in lets: x = xo*4 + xi; the analysis
    # must resolve the store index through them.
    x = E.Variable("x", Int(32))
    xi = E.Variable("xi", Int(32))
    body = S.LetStmt("x", xi * op.const(1) + op.const(0),
                     S.Store("out", E.FloatImm(0.0), x * op.const(2)))
    loop = S.For("xi", op.const(0), op.const(8), S.ForType.SERIAL, body)
    info = analyze_batchable_loops(loop)[id(loop)]
    assert info.batchable
    assert len(info.store_checks) == 1
    assert op.const_value(info.store_checks[0].coefficient) == 2


# ---------------------------------------------------------------------------
# runtime fallback: histograms batch their scatter only when indices are unique
# ---------------------------------------------------------------------------

def test_histogram_matches_interpreter_exactly(rng):
    """Histogram equalization is reduction-heavy: most loops fall back to the
    scalar path, and the outputs must still be bit-identical."""
    image = (rng.random((16, 10)) * 256).astype(np.uint8)
    app = make_histogram_equalize(image)
    reference = app.compile("breadth_first", target="interp").run()
    output = app.compile("breadth_first", target="numpy").run()
    assert_images_identical(output, reference)


def test_masked_subbatch_does_not_filter_lane_vectors():
    """A lane-axis vector whose width equals the batch extent must survive a
    masked sub-batch unfiltered: alignment is tracked by name, not shape."""
    from types import SimpleNamespace

    lanes = 4  # vector width == loop extent, the ambiguous case
    x = E.Variable("x", Int(32))
    v = E.Variable("v", Int(32).with_lanes(lanes))
    index = v + E.Broadcast(x * op.const(lanes), lanes)
    value = E.Cast(Float(32).with_lanes(lanes), index)
    guarded = S.IfThenElse(x < op.const(3), S.Store("out", value, index))
    body = S.LetStmt("v", E.Ramp(op.const(0), op.const(1), lanes), guarded)
    loop = S.For("x", op.const(0), op.const(lanes), S.ForType.SERIAL, body)
    lowered = SimpleNamespace(stmt=loop)

    def run(executor_class):
        executor = executor_class(lowered)
        out = np.zeros(3 * lanes, dtype=np.float32)
        executor.provide_buffer("out", out)
        executor.run()
        return out

    reference = run(Executor)
    batched = run(NumpyExecutor)
    assert np.array_equal(reference, np.arange(3 * lanes, dtype=np.float32))
    assert np.array_equal(batched, reference)


def test_lane_vector_guard_condition_is_rejected():
    """A guard whose condition is a lane-axis vector (not per-iteration) must
    raise, never be silently reinterpreted as an iteration mask — even when
    the vector width equals the batch extent."""
    from types import SimpleNamespace

    from repro.runtime import ExecutionError

    lanes = 4
    x = E.Variable("x", Int(32))
    v = E.Ramp(op.const(0), op.const(1), lanes)  # lane vector, width == extent
    index = v + E.Broadcast(x * op.const(lanes), lanes)
    value = E.Cast(Float(32).with_lanes(lanes), index)
    guarded = S.IfThenElse(v < E.Broadcast(op.const(3), lanes),
                           S.Store("out", value, index))
    loop = S.For("x", op.const(0), op.const(lanes), S.ForType.SERIAL, guarded)

    executor = NumpyExecutor(SimpleNamespace(stmt=loop))
    executor.provide_buffer("out", np.zeros(lanes * lanes, dtype=np.float32))
    with pytest.raises(ExecutionError, match="scalar per iteration"):
        executor.run()


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------

def test_backend_registry_names():
    assert set(backend_names()) >= {"interp", "numpy"}


def test_backend_lookup():
    assert get_backend("interp") is Executor
    assert get_backend("numpy") is NumpyExecutor


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("cuda")
