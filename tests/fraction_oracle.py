"""Reference routes on `Fraction` weights for the layers that compute on the
graph's integer weights: the walk transfer, the self-avoiding walk search,
the degree sequence, greedy peeling, the brute-force D_k and the
brute-force LambdaTilde.

These are the package's routines as they were before they moved onto
`WeightedMultigraph.integer_weights`: every weight stays a `Fraction` and
every sum and product is taken in `Fraction`s.  The edge-subset classes have
their own oracle (`subset_oracle`) and the cut tree has `flow_oracle`.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from maxmaxflow.graph import WeightedMultigraph


def _pair_weights(g: WeightedMultigraph) -> dict[int, dict[int, Fraction]]:
    A: dict[int, dict[int, Fraction]] = {v: {} for v in g.vertices}
    for e in g.edges:
        A[e.u][e.v] = A[e.u].get(e.v, Fraction(0)) + e.w
        A[e.v][e.u] = A[e.v].get(e.u, Fraction(0)) + e.w
    return A


def transfer(
    g: WeightedMultigraph, x: int, start: Iterable[int], absorbing: Iterable[int], M: int
) -> list[Fraction]:
    """(f_0(x), ..., f_M(x)) for f_0 the indicator of `start` and f_k the
    one-step convolution of f_{k-1}, forced to 0 on the absorbing vertices.
    W is transfer(g, x, {y}, (), M), FPW is transfer(g, x, Y, Y, M)."""
    A = _pair_weights(g)
    ones, absorbing = set(start), set(absorbing)
    cur = {v: Fraction(int(v in ones)) for v in g.vertices}
    out = [cur[x]]
    for _ in range(M):
        cur = {
            u: Fraction(0) if u in absorbing else sum((w * cur[v] for v, w in A[u].items()), Fraction(0))
            for u in g.vertices
        }
        out.append(cur[x])
    return out


def self_avoiding(g: WeightedMultigraph, x: int, Ys: Iterable[int], M: int) -> list[Fraction]:
    """Self-avoiding walks from x that stop on first reaching Ys; parallel
    steps aggregate by weight.  SAW is Ys = {y}, FPSAW is Ys = Y."""
    Ys = set(Ys)
    out = [Fraction(0)] * (M + 1)
    if x in Ys:
        out[0] = Fraction(1)
        return out
    A = _pair_weights(g)
    visited = {x}
    stack = [(x, Fraction(1), iter(A[x].items()))] if M else []
    while stack:
        u, prod, nbrs = stack[-1]
        step = next(nbrs, None)
        if step is None:
            stack.pop()
            visited.remove(u)
            continue
        v, w = step
        if v in Ys:
            out[len(stack)] += prod * w
        elif v not in visited and len(stack) < M:
            visited.add(v)
            stack.append((v, prod * w, iter(A[v].items())))
    return out


def degree_sequence(g: WeightedMultigraph) -> list[Fraction]:
    """Weighted degrees, descending."""
    return sorted((g.weighted_degree(x) for x in g.vertices), reverse=True)


def degeneracy(g: WeightedMultigraph) -> Fraction:
    """Largest minimum degree seen while peeling a vertex of minimum degree
    (ties: smallest id)."""
    deg = {x: g.weighted_degree(x) for x in g.vertices}
    alive = set(g.vertices)
    adj = g.adjacency()
    best = Fraction(0)
    while alive:
        x = min(alive, key=lambda v: (deg[v], v))
        if deg[x] > best:
            best = deg[x]
        alive.remove(x)
        for v, eid in adj[x]:
            if v in alive:
                deg[v] -= g.edges[eid].w
    return best


def degeneracy_k(g: WeightedMultigraph, k: int) -> Fraction:
    """Max over induced subgraphs with >= k vertices of the k-th smallest degree."""
    adj = g.adjacency()
    best = Fraction(0)
    for size in range(k, g.n + 1):
        for subset in itertools.combinations(g.vertices, size):
            vs = set(subset)
            degs = sorted(
                sum((g.edges[eid].w for v, eid in adj[x] if v in vs), Fraction(0)) for x in subset
            )
            if degs[k - 1] > best:
                best = degs[k - 1]
    return best


def _gf2_add(pivots: list[int], vec: int) -> bool:
    for p in pivots:
        if (vec ^ p) < vec:
            vec ^= p
    if vec == 0:
        return False
    pivots.append(vec)
    pivots.sort(reverse=True)
    return True


def lambda_tilde(g: WeightedMultigraph) -> Fraction:
    """Min over cocycle-space bases of the max basis weight: per component,
    the greedy basis over all cocycles sorted by weight."""
    best = Fraction(0)
    for comp in g.components():
        cn = len(comp)
        if cn < 2:
            continue
        anchor, *rest = sorted(comp)
        comp_edges = [e for e in g.edges if e.u in comp]
        entries = []
        for mask in range(2 ** (cn - 1) - 1):  # omit the full set: empty cocycle
            side = {anchor} | {rest[i] for i in range(cn - 1) if mask >> i & 1}
            vec = 0
            w = Fraction(0)
            for e in comp_edges:
                if (e.u in side) != (e.v in side):
                    vec |= 1 << e.id
                    w += e.w
            entries.append((w, mask, vec))
        entries.sort(key=lambda t: (t[0], t[1]))
        pivots: list[int] = []
        comp_max = Fraction(0)
        for w, _, vec in entries:
            if _gf2_add(pivots, vec):
                comp_max = w
        assert len(pivots) == cn - 1
        best = max(best, comp_max)
    return best
