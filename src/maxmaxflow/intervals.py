"""Certified rational interval enclosures for the few irrational constants.

Comparisons involving log 2, log alpha, e, pi and square roots are decided
through intervals with exactly representable rational endpoints; a
comparison that the enclosures leave undecided raises instead of guessing.
"""
from __future__ import annotations

import math
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


def log_interval(q, tol: Fraction = Fraction(1, 2**300)) -> Interval:
    """Enclosure of the natural log of a positive rational."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log of nonpositive number")
    if q == 1:
        return Interval.point(0)
    if q < 1:
        inner = log_interval(1 / q, tol)
        return Interval(-inner.hi, -inner.lo)
    t = (q - 1) / (q + 1)
    inner = _atanh_interval(t, tol / 2)
    return Interval(2 * inner.lo, 2 * inner.hi)


def ln2_interval(tol: Fraction = Fraction(1, 2**300)) -> Interval:
    return log_interval(2, tol)


def e_interval(tol: Fraction = Fraction(1, 2**300)) -> Interval:
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        total += term
        k += 1
        term /= k
        # tail = sum_{j>=k} 1/j! <= 2/k!
        if 2 * term < tol:
            return Interval(total, total + 2 * term)


def _atan_inv_interval(n: int, tol: Fraction) -> Interval:
    """atan(1/n) by the alternating series; error bounded by the next term."""
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction((-1) ** k, (2 * k + 1) * n ** (2 * k + 1))
        nxt = Fraction(1, (2 * k + 3) * n ** (2 * k + 3))
        total += term
        k += 1
        if nxt < tol:
            if term > 0:
                return Interval(total - nxt, total)
            return Interval(total, total + nxt)


def pi_interval(tol: Fraction = Fraction(1, 2**300)) -> Interval:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239)
    a = _atan_inv_interval(5, tol / 32)
    b = _atan_inv_interval(239, tol / 8)
    return Interval(16 * a.lo - 4 * b.hi, 16 * a.hi - 4 * b.lo)


def sqrt_interval(q, tol: Fraction = Fraction(1, 2**120)) -> Interval:
    """Enclosure of the square root of a nonnegative rational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative number")
    if q == 0:
        return Interval.point(0)
    scale = max(1, math.isqrt(int(1 / tol)) + 1)
    num = q.numerator * scale * scale
    den = q.denominator
    lo = Fraction(math.isqrt(num // den), scale)
    hi = Fraction(math.isqrt(num // den) + 1, scale)
    # widen until certain (isqrt floor already guarantees lo^2 <= q < hi^2 up
    # to the den floor; verify and nudge)
    while lo * lo > q:
        lo -= tol
    while hi * hi < q:
        hi += tol
    return Interval(lo, hi)
