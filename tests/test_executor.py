"""Tests for the interpreter backend and its instrumentation hooks."""

import numpy as np
import pytest

from repro.lang import Buffer, Func, RDom, Var, cast, select
from repro.pipeline import Pipeline
from repro.runtime.counters import Counters, ExecutionListener
from repro.runtime.executor import ExecutionError, Executor
from repro.types import Float, Int, UInt

from _image_assertions import assert_images_close


class TestBasicExecution:
    def test_gradient(self):
        x, y = Var("x"), Var("y")
        f = Func("exe_grad")
        f[x, y] = x * 10 + y
        result = f.realize([4, 5])
        expected = np.add.outer(np.arange(4) * 10, np.arange(5))
        assert np.array_equal(result, expected)

    def test_output_dtype_matches_definition(self):
        x = Var("x")
        f = Func("exe_u8")
        f[x] = cast(UInt(8), x % 256)
        assert f.realize([10]).dtype == np.uint8

    def test_float_division(self):
        x = Var("x")
        f = Func("exe_div")
        f[x] = cast(Float(32), x) / 4.0
        assert np.allclose(f.realize([8]), np.arange(8) / 4.0)

    def test_integer_division_floors(self):
        x = Var("x")
        f = Func("exe_intdiv")
        f[x] = (x - 4) / 2
        assert np.array_equal(f.realize([8]), np.floor((np.arange(8) - 4) / 2).astype(int))

    def test_select_and_comparison(self):
        x = Var("x")
        f = Func("exe_sel")
        f[x] = select(x % 2 == 0 if False else (x % 2).eq(0), 1, 0)
        assert np.array_equal(f.realize([6]), [1, 0, 1, 0, 1, 0])

    def test_wrong_size_count_rejected(self, tiny_image):
        buf = Buffer(tiny_image)
        x, y = Var("x"), Var("y")
        f = Func("exe_wrong")
        f[x, y] = buf[x, y]
        with pytest.raises(ValueError):
            Pipeline(f).compile([12]).run()


class TestCounters:
    def test_counts_scale_with_image_size(self, tiny_image):
        buf = Buffer(tiny_image, name="cnt_in")
        x, y = Var("x"), Var("y")
        f = Func("cnt_f")
        f[x, y] = buf[x, y] * 2.0 + 1.0
        small, large = Counters(), Counters()
        Pipeline(f).compile([6, 4]).run(listeners=[small])
        Pipeline(f).compile([12, 8]).run(listeners=[large])
        assert large.arith_ops > small.arith_ops
        assert large.stores == 4 * small.stores

    def test_loads_counted(self, tiny_image):
        buf = Buffer(tiny_image, name="cnt2_in")
        x, y = Var("x"), Var("y")
        f = Func("cnt2_f")
        f[x, y] = buf[x, y] + buf[x, y]
        counters = Counters()
        Pipeline(f).compile([12, 8]).run(listeners=[counters])
        assert counters.loads == 2 * 12 * 8

    def test_peak_allocation_tracks_intermediates(self, tiny_image):
        buf = Buffer(tiny_image, name="cnt3_in")
        x, y = Var("x"), Var("y")
        producer, consumer = Func("cnt3_p"), Func("cnt3_c")
        producer[x, y] = buf[x, y] * 2.0
        consumer[x, y] = producer[x, y] + 1.0
        producer.compute_root()
        counters = Counters()
        Pipeline(consumer).compile([12, 8]).run(listeners=[counters])
        # Producer (float32, 12*8) plus nothing else internal.
        assert counters.peak_allocated_bytes >= 12 * 8 * 4
        assert counters.allocations >= 1

    def test_custom_listener_receives_events(self, tiny_image):
        events = []

        class Recorder(ExecutionListener):
            def on_produce(self, name):
                events.append(("produce", name))

            def on_loop_begin(self, name, for_type, extent):
                events.append(("loop", name, extent))

        buf = Buffer(tiny_image, name="cnt4_in")
        x, y = Var("x"), Var("y")
        f = Func("cnt4_f")
        f[x, y] = buf[x, y]
        Pipeline(f).compile([12, 8]).run(listeners=[Recorder()])
        assert ("produce", "cnt4_f") in events
        assert any(e[0] == "loop" and e[1] == "cnt4_f.y" for e in events)


class TestExecutorErrors:
    def test_unbound_variable(self, tiny_image):
        buf = Buffer(tiny_image, name="err_in")
        x, y = Var("x"), Var("y")
        f = Func("err_f")
        f[x, y] = buf[x, y]
        lowered = Pipeline(f).lower()
        executor = Executor(lowered)
        executor.bind_input("err_in", tiny_image)
        # Output bounds never bound -> unbound variable error.
        with pytest.raises(ExecutionError):
            executor.run()

    def test_missing_input_buffer(self, tiny_image):
        buf = Buffer(tiny_image, name="err2_in")
        x, y = Var("x"), Var("y")
        f = Func("err2_f")
        f[x, y] = buf[x, y]
        lowered = Pipeline(f).lower()
        executor = Executor(lowered)
        for dim, size in zip(f.args, (12, 8)):
            executor.bind(f"err2_f.{dim}.min", 0)
            executor.bind(f"err2_f.{dim}.extent", size)
        with pytest.raises(ExecutionError):
            executor.run()


class TestUpdateSemantics:
    def test_update_order_is_lexicographic(self):
        # A scan whose result depends on the iteration order.
        i = Var("i")
        r = RDom(1, 7, name="ord_r")
        f = Func("exe_scan")
        f[i] = cast(Int(32), i)
        f[r.x] = f[r.x - 1] * 10 + f[r.x]
        result = f.realize([8])
        expected = [0]
        for value in range(1, 8):
            expected.append(expected[-1] * 10 + value)
        assert np.array_equal(result, expected)

    def test_scatter_accumulate(self):
        i = Var("i")
        r = RDom(0, 16, name="sc_r")
        f = Func("exe_scatter")
        f[i] = 0
        f[(r.x * 3) % 8] += 1
        result = f.realize([8])
        expected = np.zeros(8, dtype=int)
        for value in range(16):
            expected[(value * 3) % 8] += 1
        assert np.array_equal(result, expected)

    def test_multiple_updates_applied_in_order(self):
        i = Var("i")
        f = Func("exe_multi")
        f[i] = 1
        f[i] = f[i] * 3
        f[i] = f[i] + 2
        assert np.array_equal(f.realize([4]), [5, 5, 5, 5])
