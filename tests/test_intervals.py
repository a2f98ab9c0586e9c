"""Exact interval arithmetic and certified logarithm enclosures."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from maxmaxflow.intervals import Interval, log_interval


fractions = st.fractions(min_value=-50, max_value=50)


def test_point_and_width():
    a = Interval.point(F(3, 2))
    assert a.lo == a.hi == F(3, 2)
    assert a.width == 0


def test_arithmetic_basics():
    a = Interval(F(1), F(2))
    b = Interval(F(-1), F(3))
    s = a + b
    assert (s.lo, s.hi) == (0, 5)
    d = a - b
    assert (d.lo, d.hi) == (-2, 3)
    p = a * b
    assert (p.lo, p.hi) == (-2, 6)


def test_reciprocal_and_division():
    a = Interval(F(1, 2), F(2))
    r = a.reciprocal()
    assert (r.lo, r.hi) == (F(1, 2), 2)
    with pytest.raises(ZeroDivisionError):
        Interval(F(-1), F(1)).reciprocal()
    q = Interval.point(F(3)) / a
    assert (q.lo, q.hi) == (F(3, 2), 6)


def test_powers():
    a = Interval(F(-2), F(3))
    sq = a ** 2
    assert (sq.lo, sq.hi) == (0, 9)
    assert ((a ** 3).lo, (a ** 3).hi) == (-8, 27)
    inv = Interval(F(1), F(2)) ** -2
    assert (inv.lo, inv.hi) == (F(1, 4), 1)


def test_comparisons():
    a = Interval(F(1), F(2))
    b = Interval(F(3), F(4))
    assert a.definitely_le(b)
    assert b.definitely_gt(a)
    # overlapping intervals decide nothing either way; callers treat the
    # double negative as undecided
    c = Interval(F(1), F(5))
    assert not a.definitely_le(c)
    assert not c.definitely_le(a)
    assert not a.definitely_gt(c)


@settings(max_examples=80, deadline=None)
@given(fractions, fractions, fractions, fractions)
def test_containment_preserved(a, b, c, d):
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d))
    for pa in (x.lo, x.hi):
        for pb in (y.lo, y.hi):
            s = x + y
            assert s.lo <= pa + pb <= s.hi
            p = x * y
            assert p.lo <= pa * pb <= p.hi


def _contains(iv, value, rel=1e-12):
    return float(iv.lo) - rel <= value <= float(iv.hi) + rel


def test_certified_constants():
    # ln 2 is the discount constant of the block bounds
    assert _contains(log_interval(2), math.log(2))
    assert log_interval(2).width < F(1, 2) ** 250


def test_log_interval_values():
    for q in [F(1, 3), F(1, 2), F(2), F(3), F(10), F(7, 5)]:
        assert _contains(log_interval(q), math.log(q))
    assert log_interval(F(1)).width == 0
    with pytest.raises(ValueError):
        log_interval(F(0))


def test_log_functional_equation():
    lhs = log_interval(F(6))
    rhs = log_interval(F(2)) + log_interval(F(3))
    assert lhs.lo <= rhs.hi and rhs.lo <= lhs.hi  # overlap within tolerance
