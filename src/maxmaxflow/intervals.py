"""Certified rational interval enclosures for logarithms of rationals.

The only irrational constants that enter bound comparisons are logarithms
of rationals (ln 2 and ln alpha).  Comparisons involving them are decided
through intervals with exactly representable rational endpoints; a
comparison that the enclosures leave undecided raises instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class UndecidedComparison(RuntimeError):
    pass


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @staticmethod
    def point(q) -> "Interval":
        q = Fraction(q)
        return Interval(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other) -> "Interval":
        other = _coerce(other)
        prods = [
            self.lo * other.lo, self.lo * other.hi,
            self.hi * other.lo, self.hi * other.hi,
        ]
        return Interval(min(prods), max(prods))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Interval":
        if k < 0:
            return self.reciprocal() ** (-k)
        if k == 0:
            return Interval.point(1)
        a, b = self.lo ** k, self.hi ** k
        if k % 2:
            return Interval(a, b)
        if self.lo <= 0 <= self.hi:
            return Interval(Fraction(0), max(a, b))
        return Interval(min(a, b), max(a, b))

    def reciprocal(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * _coerce(other).reciprocal()

    def definitely_le(self, other) -> bool:
        return self.hi <= _coerce(other).lo

    def definitely_gt(self, other) -> bool:
        return self.lo > _coerce(other).hi


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def _atanh_interval(t: Fraction, tol: Fraction) -> Interval:
    """atanh(t) for rational 0 < t < 1, truncated series plus a tail bound."""
    if not 0 < t < 1:
        raise ValueError("need 0 < t < 1")
    total = Fraction(0)
    term = t
    k = 0
    t2 = t * t
    while True:
        total += term / (2 * k + 1)
        term *= t2
        k += 1
        # tail <= term/(2k+1) * 1/(1-t^2), a geometric bound
        tail = (term / (2 * k + 1)) / (1 - t2)
        if tail < tol:
            return Interval(total, total + tail)


_LOG_TOL = Fraction(1, 2**300)


def log_interval(q) -> Interval:
    """Enclosure of the natural log of a positive rational, at most
    `_LOG_TOL` wide."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log of nonpositive number")
    if q == 1:
        return Interval.point(0)
    if q < 1:
        inner = log_interval(1 / q)
        return Interval(-inner.hi, -inner.lo)
    t = (q - 1) / (q + 1)
    inner = _atanh_interval(t, _LOG_TOL / 2)
    return Interval(2 * inner.lo, 2 * inner.hi)
