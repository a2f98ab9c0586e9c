"""Degree order statistics, degeneracy-style invariants and their ordering.

The central comparison chain ties the peeling invariants to maxmaxflow:

    D <= Lambda = LambdaTilde <= Delta_2 <= Delta
    Lambda >= D_2 >= max(D, Delta_{n-1})

Lambda and LambdaTilde are read off `flowcut`'s cut tree: its heaviest edge
and its heaviest fundamental cocycle.  Degrees and cut weights are sums of
edge weights, so every invariant is computed on the graph's pair table
(`WeightedMultigraph.pair_weights`: the parallel edges of each pair summed
once, every weight times L) and divided by L once, when it is returned.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .counting import WorkMeter
from .flowcut import lambda_tilde, maxmaxflow
from .graph import WeightedMultigraph

# inequality_chain computes LambdaTilde and D_2 up to here.  Both are
# polynomial: the recorded flow digests (bench/digests.json), which pin `n/a`
# for them on larger graphs, are the only reason this limit exists
RECORDED_MAX_N = 10


def degree_sequence(g: WeightedMultigraph) -> list[Fraction]:
    """Weighted degrees, descending."""
    A, L = g.pair_weights()
    degrees = sorted((sum(nbrs.values()) for nbrs in A.values()), reverse=True)
    return [Fraction(d, L) for d in degrees]


def delta_k(g: WeightedMultigraph, k: int) -> Fraction:
    """k-th largest weighted degree over distinct vertices."""
    seq = degree_sequence(g)
    if not 1 <= k <= len(seq):
        raise ValueError(f"k must be in 1..{len(seq)}")
    return seq[k - 1]


def max_degree(g: WeightedMultigraph) -> Fraction:
    return delta_k(g, 1)


def degeneracy(g: WeightedMultigraph) -> Fraction:
    """Max over subgraphs of the minimum weighted degree: `degeneracy_k(g, 1)`."""
    if g.n == 0:
        raise ValueError("empty graph")
    return degeneracy_k(g, 1)


def degeneracy_k(g: WeightedMultigraph, k: int, cap: Optional[int] = None) -> Fraction:
    """Max over induced subgraphs with >= k vertices of the k-th smallest degree.

    For each exempt set E of k - 1 vertices, one peel deletes a vertex of
    least degree outside E while at least k vertices are left, and records
    its degree; each exempt set is a unit of work.  A record is at most the
    k-th smallest degree of the current set, since some vertex outside E is
    among its k smallest.  For an optimal S with E its k - 1 vertices of least
    degree, the first vertex of S - E to be deleted has degree at least the
    k-th smallest of S, as weights are nonnegative.  So the largest record is D_k, whatever the tie
    order; k = 1 is Matula and Beck's core argument.  Deleting edges only
    lowers degrees, so restricting to induced subgraphs loses nothing.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in 1..{g.n}")
    meter = WorkMeter(cap, f"D_{k} by exempt-set peeling", "exempt sets")
    A, L = g.pair_weights()
    full = {v: sum(nbrs.values()) for v, nbrs in A.items()}
    best = 0
    for exempt in itertools.combinations(g.vertices, k - 1):
        meter.charge()
        deg, rest = dict(full), set(g.vertices).difference(exempt)
        while rest:  # the set left is rest and E, so it has at least k vertices
            x = min(rest, key=deg.__getitem__)
            best = max(best, deg[x])
            rest.remove(x)
            for v, c in A[x].items():
                deg[v] -= c
    return Fraction(best, L)


@dataclass(frozen=True)
class ChainCheck:
    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class InvariantReport:
    n: int
    m: int
    Delta: Fraction
    Delta2: Optional[Fraction]
    Delta_n_minus_1: Optional[Fraction]
    D: Fraction
    D2: Optional[Fraction]
    Lambda: Optional[Fraction]
    LambdaTilde: Optional[Fraction]
    checks: tuple[ChainCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def inequality_chain(g: WeightedMultigraph) -> InvariantReport:
    """Compute the invariants and evaluate every comparison in the chain.

    LambdaTilde comes from the cut tree's fundamental cocycles
    (`lambda_tilde`) and D_2 from exempt-set peeling, n exempt sets under
    the default work cap.  Both, and their comparisons, are left out above
    `RECORDED_MAX_N` vertices only because recorded outputs of larger graphs
    read `n/a` for them.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    seq = degree_sequence(g)
    Delta = seq[0]
    D = degeneracy(g)
    Delta2 = seq[1] if g.n >= 2 else None
    Dn1 = seq[g.n - 2] if g.n >= 2 else None
    Lam = maxmaxflow(g) if g.n >= 2 else None
    small = 2 <= g.n <= RECORDED_MAX_N
    LamT = lambda_tilde(g) if small else None
    D2 = degeneracy_k(g, 2) if small else None

    checks: list[ChainCheck] = []
    if Lam is not None:
        checks.append(ChainCheck("D<=Lambda", D, Lam))
        checks.append(ChainCheck("Lambda<=Delta2", Lam, Delta2))
        checks.append(ChainCheck("Delta2<=Delta", Delta2, Delta))
        if LamT is not None:
            checks.append(ChainCheck("Lambda<=LambdaTilde", Lam, LamT))
            checks.append(ChainCheck("LambdaTilde<=Lambda", LamT, Lam))
        if D2 is not None:
            checks.append(ChainCheck("D2<=Lambda", D2, Lam))
            checks.append(ChainCheck("D<=D2", D, D2))
            if Dn1 is not None:
                checks.append(ChainCheck("Delta_{n-1}<=D2", Dn1, D2))
    return InvariantReport(
        n=g.n, m=g.m, Delta=Delta, Delta2=Delta2, Delta_n_minus_1=Dn1,
        D=D, D2=D2, Lambda=Lam, LambdaTilde=LamT, checks=tuple(checks),
    )
