"""Tests for the schedule representation (FuncSchedule) and its directives."""

import pytest

from repro.core.dims import ForType
from repro.core.loop_level import LoopLevel
from repro.core.schedule import FuncSchedule, ScheduleError
from repro.core.split import TailStrategy


def make_schedule():
    return FuncSchedule(["x", "y"])


class TestDefaults:
    def test_initial_dims_innermost_first(self):
        schedule = make_schedule()
        assert schedule.dim_names() == ["x", "y"]

    def test_default_levels_inlined(self):
        schedule = make_schedule()
        assert schedule.compute_level.is_inlined()
        assert schedule.store_level.is_inlined()

    def test_all_serial(self):
        schedule = make_schedule()
        assert all(d.for_type == ForType.SERIAL for d in schedule.dims)


class TestSplit:
    def test_split_replaces_dim(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 8)
        assert schedule.dim_names() == ["xi", "xo", "y"]

    def test_split_records_factor(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 8)
        assert schedule.splits[0].factor == 8
        assert schedule.constant_extent("xi") == 8

    def test_nested_split(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 8)
        schedule.split("xo", "xoo", "xoi", 4)
        assert schedule.rounded_extent("x", 1) == 32
        assert schedule.root_of("xoo") == "x"
        assert schedule.root_of("xi") == "x"

    def test_split_unknown_dim(self):
        with pytest.raises(ScheduleError):
            make_schedule().split("z", "zo", "zi", 4)

    def test_split_name_collision(self):
        schedule = make_schedule()
        with pytest.raises(ScheduleError):
            schedule.split("x", "y", "xi", 4)

    def test_split_bad_factor(self):
        with pytest.raises(ScheduleError):
            make_schedule().split("x", "xo", "xi", 0)


class TestReorder:
    def test_reorder(self):
        schedule = make_schedule()
        schedule.reorder(["y", "x"])
        assert schedule.dim_names() == ["y", "x"]

    def test_reorder_subset(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 8)
        schedule.reorder(["xo", "xi"])
        assert schedule.dim_names() == ["xo", "xi", "y"]

    def test_reorder_unknown(self):
        with pytest.raises(ScheduleError):
            make_schedule().reorder(["x", "z"])

    def test_reorder_duplicate(self):
        with pytest.raises(ScheduleError):
            make_schedule().reorder(["x", "x"])


class TestMarkings:
    def test_parallel(self):
        schedule = make_schedule()
        schedule.parallel("y")
        assert schedule.find_dim("y").for_type == ForType.PARALLEL

    def test_vectorize_requires_constant_extent(self):
        schedule = make_schedule()
        with pytest.raises(ScheduleError):
            schedule.vectorize("x")

    def test_vectorize_inner_split(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 4)
        schedule.vectorize("xi")
        assert schedule.find_dim("xi").for_type == ForType.VECTORIZED
        assert schedule.vector_width() == 4

    def test_unroll_requires_constant_extent(self):
        with pytest.raises(ScheduleError):
            make_schedule().unroll("y")

    def test_bound_enables_vectorize(self):
        schedule = FuncSchedule(["x", "y", "c"])
        schedule.bound("c", 0, 3)
        schedule.unroll("c")
        assert schedule.find_dim("c").for_type == ForType.UNROLLED

    def test_bound_unknown_dim(self):
        with pytest.raises(ScheduleError):
            make_schedule().bound("c", 0, 3)


class TestCallSchedule:
    def test_compute_root_sets_store(self):
        schedule = make_schedule()
        schedule.compute_root()
        assert schedule.compute_level.is_root()
        assert schedule.store_level.is_root()

    def test_compute_at(self):
        schedule = make_schedule()
        schedule.compute_at("consumer", "x")
        assert schedule.compute_level.loop_name() == "consumer.x"
        assert schedule.store_level.loop_name() == "consumer.x"

    def test_store_at_separate(self):
        schedule = make_schedule()
        schedule.store_at("consumer", "y")
        schedule.compute_at("consumer", "x")
        assert schedule.store_level.loop_name() == "consumer.y"
        assert schedule.compute_level.loop_name() == "consumer.x"

    def test_loop_level_helpers(self):
        assert LoopLevel.root().is_root()
        assert LoopLevel.inlined().is_inlined()
        with pytest.raises(ValueError):
            LoopLevel.root().loop_name()


class TestCopy:
    def test_copy_is_independent(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 8)
        clone = schedule.copy()
        clone.parallel("y")
        assert schedule.find_dim("y").for_type == ForType.SERIAL
        assert clone.dim_names() == schedule.dim_names()

    def test_describe_mentions_splits(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 8)
        assert "split(x,xo,xi,8)" in schedule.describe()

    def test_reset_domain_order(self):
        schedule = make_schedule()
        schedule.split("x", "xo", "xi", 8)
        schedule.reset_domain_order()
        assert schedule.dim_names() == ["x", "y"]
        assert schedule.splits == []
