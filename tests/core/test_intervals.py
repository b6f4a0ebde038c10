"""Unit and property tests for the interval-set algebra."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.intervals import IntervalSet


def interval_sets(max_intervals: int = 5):
    """Hypothesis strategy for arbitrary interval sets."""
    endpoint = st.floats(min_value=-100, max_value=100,
                         allow_nan=False, allow_infinity=False)
    pair = st.tuples(endpoint, endpoint).map(
        lambda t: (min(t), max(t)))
    return st.lists(pair, max_size=max_intervals).map(IntervalSet)


class TestConstruction:
    def test_empty(self):
        s = IntervalSet.empty()
        assert s.is_empty
        assert s.measure == 0.0
        assert s.left == math.inf
        assert s.right == -math.inf
        assert s.span == 0.0

    def test_single(self):
        s = IntervalSet.single(1.0, 3.0)
        assert s.measure == pytest.approx(2.0)
        assert s.left == 1.0 and s.right == 3.0

    def test_merges_overlaps(self):
        s = IntervalSet([(0, 2), (1, 3), (5, 6)])
        assert s.intervals == ((0.0, 3.0), (5.0, 6.0))

    def test_merges_touching_closed_intervals(self):
        s = IntervalSet([(0, 1), (1, 2)])
        assert s.intervals == ((0.0, 2.0),)

    def test_drops_inverted(self):
        s = IntervalSet([(3, 1)])
        assert s.is_empty

    def test_point_interval(self):
        s = IntervalSet([(2, 2)])
        assert not s.is_empty
        assert s.measure == 0.0


class TestAlgebra:
    def test_shift_sub_operator(self):
        # eq. (3) notation: ELW(f) - d(f)
        s = IntervalSet.single(10, 12) - 3
        assert s.intervals == ((7.0, 9.0),)

    def test_shift_add(self):
        s = IntervalSet.single(0, 1) + 2.5
        assert s.intervals == ((2.5, 3.5),)

    def test_union_operator(self):
        s = IntervalSet.single(0, 1) | IntervalSet.single(5, 6)
        assert len(s) == 2
        assert s.measure == pytest.approx(2.0)

    def test_intersect(self):
        a = IntervalSet([(0, 4), (6, 10)])
        b = IntervalSet([(3, 7)])
        assert (a & b).intervals == ((3.0, 4.0), (6.0, 7.0))

    def test_intersect_disjoint(self):
        assert (IntervalSet.single(0, 1) & IntervalSet.single(2, 3)).is_empty

    def test_contains(self):
        s = IntervalSet([(0, 1), (3, 4)])
        assert s.contains(0.5)
        assert s.contains(3.0)
        assert not s.contains(2.0)

    def test_covers(self):
        big = IntervalSet([(0, 10)])
        small = IntervalSet([(1, 2), (5, 6)])
        assert big.covers(small)
        assert not small.covers(big)

    def test_equality_and_hash(self):
        a = IntervalSet([(0, 1), (1, 2)])
        b = IntervalSet([(0, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_repr(self):
        assert "empty" in repr(IntervalSet.empty())
        assert "[0, 1]" in repr(IntervalSet.single(0, 1))


class TestProperties:
    @given(interval_sets())
    def test_span_bounds_measure(self, s):
        # Theorem 1's rationale: the outer span bounds the union measure.
        assert s.span >= s.measure - 1e-9

    @given(interval_sets(), interval_sets())
    def test_union_measure_subadditive(self, a, b):
        u = a | b
        assert u.measure <= a.measure + b.measure + 1e-9
        assert u.measure >= max(a.measure, b.measure) - 1e-9

    @given(interval_sets(), st.floats(min_value=-50, max_value=50,
                                      allow_nan=False))
    def test_shift_preserves_measure(self, s, offset):
        assert (s + offset).measure == pytest.approx(s.measure, abs=1e-6)

    @given(interval_sets(), interval_sets())
    def test_union_commutes(self, a, b):
        assert (a | b) == (b | a)

    @given(interval_sets(), interval_sets())
    def test_intersection_inside_both(self, a, b):
        inter = a & b
        assert a.covers(inter)
        assert b.covers(inter)

    @given(interval_sets())
    def test_disjoint_sorted_invariant(self, s):
        for (l1, r1), (l2, r2) in zip(s.intervals, s.intervals[1:]):
            assert l1 <= r1
            assert r1 < l2  # strictly disjoint after merging

    @given(interval_sets(), interval_sets())
    def test_union_covers_both(self, a, b):
        u = a | b
        assert u.covers(a)
        assert u.covers(b)
