"""Unit tests for the interval algebra."""

import pytest

from repro.core.intervals import (
    Interval,
    IntervalSet,
    intervals_from_points,
)
from repro.errors import ReproError


class TestInterval:
    def test_contains(self):
        interval = Interval(3, 7)
        assert 3 in interval and 7 in interval and 5 in interval
        assert 2 not in interval and 8 not in interval
        assert "5" not in interval  # non-int membership is False, not an error

    def test_subsumes(self):
        assert Interval(1, 10).subsumes(Interval(3, 7))
        assert Interval(1, 10).subsumes(Interval(1, 10))
        assert not Interval(3, 7).subsumes(Interval(1, 10))
        assert not Interval(1, 5).subsumes(Interval(3, 7))

    def test_overlaps(self):
        assert Interval(1, 5).overlaps(Interval(5, 9))
        assert Interval(1, 5).overlaps(Interval(3, 4))
        assert not Interval(1, 5).overlaps(Interval(6, 9))

    def test_adjacent(self):
        assert Interval(1, 5).adjacent_to(Interval(6, 9))
        assert Interval(6, 9).adjacent_to(Interval(1, 5))
        assert not Interval(1, 5).adjacent_to(Interval(7, 9))

    def test_merge(self):
        assert Interval(1, 5).merge(Interval(6, 9)) == Interval(1, 9)
        assert Interval(1, 5).merge(Interval(3, 9)) == Interval(1, 9)
        with pytest.raises(ReproError):
            Interval(1, 5).merge(Interval(7, 9))

    def test_width(self):
        assert Interval(4, 4).width == 1
        assert Interval(1, 10).width == 10


class TestIntervalSetAdd:
    def test_add_to_empty(self):
        interval_set = IntervalSet()
        assert interval_set.add(Interval(3, 7))
        assert list(interval_set) == [Interval(3, 7)]

    def test_subsumed_incoming_rejected(self):
        interval_set = IntervalSet([Interval(1, 10)])
        assert not interval_set.add(Interval(3, 7))
        assert len(interval_set) == 1

    def test_equal_interval_rejected(self):
        interval_set = IntervalSet([Interval(3, 7)])
        assert not interval_set.add(Interval(3, 7))
        assert len(interval_set) == 1

    def test_incoming_subsumes_existing(self):
        interval_set = IntervalSet([Interval(3, 7), Interval(20, 25)])
        assert interval_set.add(Interval(1, 10))
        assert list(interval_set) == [Interval(1, 10), Interval(20, 25)]

    def test_incoming_subsumes_run_of_existing(self):
        interval_set = IntervalSet([Interval(2, 3), Interval(5, 6), Interval(8, 9)])
        assert interval_set.add(Interval(1, 10))
        assert list(interval_set) == [Interval(1, 10)]

    def test_same_lo_longer_wins(self):
        interval_set = IntervalSet([Interval(3, 7)])
        assert interval_set.add(Interval(3, 9))
        assert list(interval_set) == [Interval(3, 9)]

    def test_same_lo_shorter_rejected(self):
        interval_set = IntervalSet([Interval(3, 9)])
        assert not interval_set.add(Interval(3, 7))

    def test_overlapping_non_subsuming_coexist(self):
        interval_set = IntervalSet([Interval(1, 5)])
        assert interval_set.add(Interval(3, 8))
        assert list(interval_set) == [Interval(1, 5), Interval(3, 8)]
        interval_set.check_invariants()

    def test_invalid_interval_raises(self):
        with pytest.raises(ReproError):
            IntervalSet().add(Interval(5, 3))

    def test_add_all_reports_change(self):
        interval_set = IntervalSet([Interval(1, 10)])
        assert not interval_set.add_all([Interval(2, 3), Interval(4, 5)])
        assert interval_set.add_all([Interval(2, 3), Interval(11, 12)])


class TestIntervalSetQueries:
    def test_covers(self):
        interval_set = IntervalSet([Interval(1, 3), Interval(7, 9)])
        assert interval_set.covers(1) and interval_set.covers(3)
        assert interval_set.covers(8)
        assert not interval_set.covers(5)
        assert not interval_set.covers(0)
        assert not interval_set.covers(10)

    def test_covers_with_overlap(self):
        interval_set = IntervalSet([Interval(1, 5), Interval(3, 8)])
        for point in range(1, 9):
            assert interval_set.covers(point)
        assert not interval_set.covers(9)

    def test_covering_interval(self):
        interval_set = IntervalSet([Interval(1, 3), Interval(7, 9)])
        assert interval_set.covering_interval(8) == Interval(7, 9)
        assert interval_set.covering_interval(5) is None

    def test_bounds(self):
        assert IntervalSet().covered_range_bounds() is None
        interval_set = IntervalSet([Interval(4, 6), Interval(1, 2)])
        assert interval_set.covered_range_bounds() == (1, 6)

    def test_len_bool_eq(self):
        empty = IntervalSet()
        assert not empty and len(empty) == 0
        one = IntervalSet([Interval(1, 2)])
        assert one and len(one) == 1
        assert one == IntervalSet([Interval(1, 2)])
        assert one != empty
        assert one != "something else"

    def test_storage_units(self):
        interval_set = IntervalSet([Interval(1, 2), Interval(4, 5)])
        assert interval_set.storage_units == 4

    def test_copy_is_independent(self):
        original = IntervalSet([Interval(1, 2)])
        clone = original.copy()
        clone.add(Interval(10, 11))
        assert len(original) == 1 and len(clone) == 2


class TestMerging:
    def test_adjacent_merge(self):
        merged = IntervalSet([Interval(1, 3), Interval(4, 6)]).merged()
        assert list(merged) == [Interval(1, 6)]

    def test_overlap_merge(self):
        merged = IntervalSet([Interval(1, 5), Interval(3, 8)]).merged()
        assert list(merged) == [Interval(1, 8)]

    def test_disjoint_not_merged(self):
        original = IntervalSet([Interval(1, 3), Interval(5, 6)])
        assert original.merged() == original

    def test_chain_merge(self):
        merged = IntervalSet([Interval(1, 2), Interval(3, 4), Interval(5, 6)]).merged()
        assert list(merged) == [Interval(1, 6)]

    def test_merge_preserves_coverage(self):
        interval_set = IntervalSet(
            [Interval(1, 4), Interval(5, 9), Interval(12, 14), Interval(13, 20)])
        merged = interval_set.merged()
        for point in range(25):
            assert merged.covers(point) == interval_set.covers(point)


class TestIntervalsFromPoints:
    def test_runs_collapse(self):
        interval_set = intervals_from_points([1, 2, 3, 7, 8, 12])
        assert list(interval_set) == [Interval(1, 3), Interval(7, 8), Interval(12, 12)]

    def test_duplicates_and_order_ignored(self):
        assert intervals_from_points([3, 1, 2, 2]) == intervals_from_points([1, 2, 3])

    def test_empty(self):
        assert len(intervals_from_points([])) == 0
