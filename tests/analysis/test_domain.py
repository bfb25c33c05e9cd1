"""Tests for the interval abstract domain."""

import math

import pytest

from repro.analysis.domain import Interval
from repro.common.errors import ValidationError


class TestConstruction:
    def test_basic(self):
        iv = Interval(1.0, 3.0)
        assert iv.lo == 1.0 and iv.hi == 3.0

    def test_point(self):
        assert Interval.point(2.5) == Interval(2.5, 2.5)
        assert Interval.point(2.5).width == 0.0

    def test_top_contains_everything(self):
        top = Interval.top()
        assert top.lo <= 0.0 <= top.hi
        assert top.lo <= 1e300 <= top.hi
        assert top.lo <= -1e300 <= top.hi

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Interval(3.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValidationError):
            Interval(0.0, math.nan)


class TestArithmetic:
    def test_add(self):
        assert Interval(1, 2) + Interval(10, 20) == Interval(11, 22)

    def test_max(self):
        assert Interval(1, 5).max(Interval(2, 3)) == Interval(2, 5)

    def test_join_is_hull(self):
        assert Interval(1, 2).join(Interval(5, 6)) == Interval(1, 6)


class TestDecisions:
    def test_certainly_above(self):
        assert Interval(5, 9).certainly_above(4.9)
        assert not Interval(5, 9).certainly_above(5.0)  # lo == bound: reachable

    def test_certainly_at_most(self):
        assert Interval(5, 9).certainly_at_most(9.0)
        assert not Interval(5, 9).certainly_at_most(8.9)

    def test_sound_over_add(self):
        # Whatever x in a, y in b: x + y lands in a + b.
        a, b = Interval(1.5, 2.5), Interval(0.25, 4.0)
        for x in (1.5, 2.0, 2.5):
            for y in (0.25, 1.0, 4.0):
                assert (a + b).lo <= x + y <= (a + b).hi
