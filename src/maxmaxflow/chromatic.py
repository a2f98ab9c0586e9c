"""Chromatic polynomials by deletion-contraction, and root exploration.

The polynomial ignores edge weights and parallel multiplicities: it recurses
on the adjacent pairs of the graph's pair table
(`WeightedMultigraph.pair_weights`), where each parallel family is one pair.
Everything here is exact integer arithmetic except the numerical root
finder, which is the one deliberately floating-point corner of the package.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional
import numpy as np

from .counting import WorkMeter
from .flowcut import maxmaxflow
from .graph import WeightedMultigraph, components_of, random_multigraph
from .invariants import delta_k, max_degree

_CANON_CAP = 6  # permutation canonicalization is affordable up to here

Poly = tuple[int, ...]  # coefficients, ascending powers of q


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_sub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_shift(a: Poly, k: int) -> Poly:
    return tuple([0] * k + list(a))


def _canonical_key(vs: tuple[int, ...], pairs: list[tuple[int, int]]):
    n = len(vs)
    if n > _CANON_CAP:
        return None
    index = {v: i for i, v in enumerate(vs)}
    epairs = [(index[u], index[v]) for u, v in pairs]
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in epairs)
        )
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


def _chromatic_simple(vs: tuple[int, ...], pairs: list[tuple[int, int]], memo: dict, meter: WorkMeter) -> Poly:
    """Deletion-contraction on a simple graph given as vertex tuple + pairs."""
    meter.charge()  # one unit per call, a memo hit too
    n = len(vs)
    m = len(pairs)
    if m == 0:
        return _poly_shift((1,), n)
    # forest shortcut: q^c (q-1)^m with c components
    c = len(components_of(vs, pairs))
    if m == n - c:
        out: Poly = (1,)
        for _ in range(m):
            out = _poly_mul(out, (-1, 1))
        return _poly_shift(out, c)
    key = _canonical_key(vs, pairs)
    if key is not None and key in memo:
        return memo[key]

    e = _cycle_edge(vs, pairs)
    rest = [p for p in pairs if p != e]
    deleted = _chromatic_simple(vs, rest, memo, meter)
    # contract: merge the endpoints, drop the duplicate vertex, re-simplify
    u, v = e
    merged_pairs = set()
    for a, b in rest:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            merged_pairs.add((min(a2, b2), max(a2, b2)))
    merged_vs = tuple(w for w in vs if w != v)
    contracted = _chromatic_simple(merged_vs, sorted(merged_pairs), memo, meter)
    out = _poly_sub(deleted, contracted)
    if key is not None:
        memo[key] = out
    return out


def _cycle_edge(vs, pairs) -> tuple[int, int]:
    """Some edge lying on a cycle (exists since the graph is not a forest)."""
    c = len(components_of(vs, pairs))
    for e in pairs:
        if len(components_of(vs, [p for p in pairs if p != e])) == c:
            return e
    raise AssertionError("no cycle edge in a non-forest")


def chromatic_polynomial(g: WeightedMultigraph, cap: Optional[int] = None) -> Poly:
    """Integer coefficient tuple (ascending) of the chromatic polynomial."""
    meter = WorkMeter(cap, "the chromatic polynomial", "deletion-contraction calls")
    if g.n == 0:
        return (1,)
    A = g.pair_weights()[0]
    pairs = sorted((u, v) for u, nbrs in A.items() for v in nbrs if u < v)
    return _chromatic_simple(tuple(g.vertices), pairs, {}, meter)


def evaluate_poly(poly: Poly, q) -> Fraction:
    acc = Fraction(0)
    qq = Fraction(q)
    for c in reversed(poly):
        acc = acc * qq + c
    return acc


def coloring_count(g: WeightedMultigraph, q: int) -> int:
    """Brute-force proper coloring count; the oracle for small graphs."""
    pairs = {(e.u, e.v) for e in g.edges}
    count = 0
    for coloring in itertools.product(range(q), repeat=g.n):
        color = dict(zip(g.vertices, coloring))
        if all(color[u] != color[v] for u, v in pairs):
            count += 1
    return count


def chromatic_roots(poly: Poly) -> list[complex]:
    """Numerical roots, largest modulus first."""
    coeffs = list(reversed(poly))
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return []
    roots = np.roots([float(c) for c in coeffs])
    return sorted((complex(r) for r in roots), key=lambda z: -abs(z))


@dataclass(frozen=True)
class ExploreRecord:
    trial: int
    n: int
    m: int
    Lambda: Fraction
    Delta: Fraction
    Delta2: Fraction
    max_root_abs: float
    max_root: complex
    graph_text: str


_EXPLORE_EDGE_CAP = 22
_EXPLORE_MAX_N = 14  # the largest n_max that explore_roots takes


def explore_roots(trials: int, seed: int = 0, n_max: int = 12) -> list[ExploreRecord]:
    """Random unweighted graphs on 4 to `n_max` vertices (at most
    `_EXPLORE_MAX_N`) with 1 to `_EXPLORE_EDGE_CAP` edges: chromatic roots
    next to maxmaxflow and the degree statistics, for eyeballing linear root
    bounds."""
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if not 4 <= n_max <= _EXPLORE_MAX_N:  # the graphs have 4..n_max vertices
        raise ValueError(f"n_max must lie in 4..{_EXPLORE_MAX_N}, not {n_max}")
    out: list[ExploreRecord] = []
    trial = 0
    attempts = 0
    while trial < trials and attempts < trials * 20:
        attempts += 1
        rng = random.Random(f"explore:{seed}:{attempts}")
        n = rng.randint(4, n_max)
        g = random_multigraph(rng, n, p=rng.uniform(0.15, 0.35), weights="unit")
        if g.m == 0 or g.m > _EXPLORE_EDGE_CAP:
            continue
        poly = chromatic_polynomial(g)
        roots = chromatic_roots(poly)
        max_abs = abs(roots[0]) if roots else 0.0
        max_root = roots[0] if roots else 0j
        out.append(
            ExploreRecord(
                trial, g.n, g.m,
                maxmaxflow(g), max_degree(g), delta_k(g, 2),
                max_abs, max_root, g.serialize(),
            )
        )
        trial += 1
    return out

