"""Property-based tests: IntervalSet behaves like a naive point-set model."""

from hypothesis import given, strategies as st

from repro.core.intervals import Interval, IntervalSet, intervals_from_points

intervals = st.tuples(st.integers(0, 60), st.integers(0, 60)).map(
    lambda bounds: Interval(min(bounds), max(bounds))
)
interval_lists = st.lists(intervals, max_size=25)


def naive_coverage(interval_list):
    """The reference model: the set of covered integers."""
    covered = set()
    for interval in interval_list:
        covered.update(range(interval.lo, interval.hi + 1))
    return covered


@given(interval_lists)
def test_coverage_matches_naive_model(interval_list):
    interval_set = IntervalSet(interval_list)
    expected = naive_coverage(interval_list)
    for point in range(-1, 63):
        assert interval_set.covers(point) == (point in expected)


@given(interval_lists)
def test_invariants_hold_after_any_add_sequence(interval_list):
    interval_set = IntervalSet()
    for interval in interval_list:
        interval_set.add(interval)
        interval_set.check_invariants()


@given(interval_lists)
def test_no_subsumption_survives(interval_list):
    interval_set = IntervalSet(interval_list)
    stored = list(interval_set)
    for first in stored:
        for second in stored:
            if first != second:
                assert not first.subsumes(second)


@given(interval_lists)
def test_add_returns_false_iff_no_change(interval_list):
    interval_set = IntervalSet()
    for interval in interval_list:
        before = list(interval_set)
        changed = interval_set.add(interval)
        assert changed == (list(interval_set) != before)


@given(interval_lists)
def test_merged_preserves_coverage_and_shrinks(interval_list):
    interval_set = IntervalSet(interval_list)
    merged = interval_set.merged()
    merged.check_invariants()
    assert len(merged) <= len(interval_set)
    for point in range(-1, 63):
        assert merged.covers(point) == interval_set.covers(point)


@given(interval_lists)
def test_merged_is_idempotent(interval_list):
    merged = IntervalSet(interval_list).merged()
    assert merged.merged() == merged


@given(interval_lists)
def test_storage_units_is_twice_count(interval_list):
    interval_set = IntervalSet(interval_list)
    assert interval_set.storage_units == 2 * len(interval_set)


@given(interval_lists)
def test_insertion_order_is_irrelevant(interval_list):
    forward = IntervalSet(interval_list)
    backward = IntervalSet(reversed(interval_list))
    for point in range(-1, 63):
        assert forward.covers(point) == backward.covers(point)


@given(st.sets(st.integers(0, 100), max_size=40))
def test_intervals_from_points_exact(points):
    interval_set = intervals_from_points(points)
    interval_set.check_invariants()
    for point in range(-1, 103):
        assert interval_set.covers(point) == (point in points)
    # Minimality: merged form cannot shrink further.
    assert interval_set.merged() == interval_set


@given(interval_lists, interval_lists)
def test_add_all_equals_sequential_add(existing, incoming):
    """The sort-then-sweep bulk path lands on the same canonical set as
    one-at-a-time insertion, and reports change identically."""
    bulk = IntervalSet(existing)
    sequential = IntervalSet(existing)
    changed_bulk = bulk.add_all(incoming)
    changed_sequential = False
    for interval in incoming:
        changed_sequential |= sequential.add(interval)
    assert list(bulk) == list(sequential)
    assert changed_bulk == changed_sequential
    bulk.check_invariants()
