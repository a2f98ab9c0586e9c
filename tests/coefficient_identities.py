"""The coefficient identities of C(m, k) and B(m, k), checked exactly.

`tree_series` solves y = exp(z*y) by fixed-point iteration, so
`series_power_coefficients` gives the coefficients of y^k independently of
the closed form C(m, k); `verify_identities` runs the convolution, shift and
halving identities of both families.  Only the tests read these.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from maxmaxflow.bounds import B_mk, C_mk


def _series_mul(a: list[Fraction], b: list[Fraction], M: int) -> list[Fraction]:
    out = [Fraction(0)] * (M + 1)
    for i, ai in enumerate(a[: M + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: M + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_exp(a: list[Fraction], M: int) -> list[Fraction]:
    if a[0] != 0:
        raise ValueError("exp of a series needs zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * M
    term = [Fraction(1)] + [Fraction(0)] * M
    for j in range(1, M + 1):
        term = [t / j for t in _series_mul(term, a, M)]
        out = [x + y for x, y in zip(out, term)]
    return out


def tree_series(M: int) -> list[Fraction]:
    """Coefficients of the power series y(z) solving y = exp(z*y).

    Solved by fixed-point iteration from the functional equation, so the
    coefficients come out independently of the closed form C(m,1).
    """
    s = [Fraction(0)] * (M + 2)  # s = z*y, satisfies s = z * exp(s)
    for _ in range(M + 2):
        e = _series_exp(s[: M + 2], M + 1)
        s = [Fraction(0)] + e[: M + 1]
    return s[1 : M + 2]  # y_m = coefficient of z^m in s/z


def series_power_coefficients(k: int, M: int) -> list[Fraction]:
    """Coefficients of y(z)^k where y = exp(z*y); these must equal C(m,k)."""
    if k < 1:
        raise ValueError("k >= 1 required")
    y = tree_series(M)
    out = [Fraction(1)] + [Fraction(0)] * M
    for _ in range(k):
        out = _series_mul(out, y, M)
    return out


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    params: tuple
    ok: bool


def verify_identities(M: int = 12, kmax: int = 8) -> list[IdentityCheck]:
    """Exercise the convolution and shift identities of C and B exactly."""
    out: list[IdentityCheck] = []
    zs = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    for m in range(M + 1):
        for k1 in range(0, kmax + 1):
            for k2 in range(0, kmax + 1):
                lhs = sum(C_mk(i, k1) * C_mk(m - i, k2) for i in range(m + 1))
                out.append(
                    IdentityCheck("C-convolution", (m, k1, k2), lhs == C_mk(m, k1 + k2))
                )
        for k in range(0, kmax + 1):
            for z in zs:
                rhs = sum(
                    z**f / math.factorial(f) * C_mk(m - f, Fraction(k) - z + f)
                    for f in range(m + 1)
                )
                out.append(IdentityCheck("C-shift", (m, k, z), C_mk(m, k) == rhs))
        for k1 in range(1, kmax + 1):
            for k2 in range(1, kmax + 1):
                lhs = sum(B_mk(i, k1) * B_mk(m - i, k2) for i in range(m + 1))
                out.append(
                    IdentityCheck("B-convolution", (m, k1, k2), lhs == B_mk(m, k1 + k2 - 1))
                )
        for k in range(1, kmax + 1):
            rhs = sum(
                Fraction(1, math.factorial(f)) * B_mk(m - f, k - 1 + 2 * f)
                for f in range(m + 1)
            )
            out.append(IdentityCheck("B-shift", (m, k), B_mk(m, k) == rhs))
        for k in range(1, kmax + 1):
            out.append(IdentityCheck("B-halving", (m, k), B_mk(m, k) == 2**m * C_mk(m, Fraction(k - 1, 2))))
    return out
