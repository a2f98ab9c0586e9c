"""Degree statistics, degeneracy variants, and the invariant inequality chain."""
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from maxmaxflow.counting import WorkCapExceeded
from maxmaxflow.graph import (
    WeightedMultigraph,
    complete_graph,
    cycle_graph,
    k2_multi,
    path_graph,
    random_multigraph,
    star_graph,
)
from maxmaxflow.invariants import (
    degeneracy,
    degeneracy_k,
    degree_sequence,
    delta_k,
    inequality_chain,
    max_degree,
)


def test_degree_order_statistics():
    g = WeightedMultigraph(4, [(1, 2, F(3)), (1, 3, F(1)), (2, 3, F(2)), (3, 4, F(1, 2))])
    # degrees: 1 -> 4, 2 -> 5, 3 -> 7/2, 4 -> 1/2
    assert max_degree(g) == F(5)
    assert delta_k(g, 1) == F(5)
    assert delta_k(g, 2) == F(4)
    assert delta_k(g, 4) == F(1, 2)
    with pytest.raises(ValueError):
        delta_k(g, 5)


def test_delta_min_k():
    g = star_graph(4)
    # the k-th smallest weighted degree is seq[-k]: leaves have degree 1, the center 4
    seq = degree_sequence(g)
    assert seq[-1] == 1
    assert seq[-4] == 1
    assert seq[-5] == max_degree(g)


def _degeneracy_oracle(g):
    """Max over induced subgraphs of the min weighted degree, by exhaustion."""
    best = F(0)
    vs = sorted(g.vertices)
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = set(sub)
            degs = {v: F(0) for v in s}
            for e in g.edges:
                if e.u in s and e.v in s:
                    degs[e.u] += e.w
                    degs[e.v] += e.w
            best = max(best, min(degs.values()))
    return best


def test_degeneracy_named():
    assert degeneracy(complete_graph(4)) == 3
    assert degeneracy(path_graph(5)) == 1
    assert degeneracy(cycle_graph(5)) == 2
    assert degeneracy(k2_multi(3, total=F(5))) == F(5)
    assert degeneracy(WeightedMultigraph(2, [])) == 0


def test_degeneracy_matches_exhaustive_oracle():
    rng = random.Random(31)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 7), 0.5, max_multiplicity=3)
        assert degeneracy(g) == _degeneracy_oracle(g)


def _degeneracy_k_oracle(g, k):
    """Max over induced subgraphs (>= k vertices) of the k-th smallest degree."""
    best = F(0)
    vs = sorted(g.vertices)
    for r in range(k, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = set(sub)
            degs = {v: F(0) for v in s}
            for e in g.edges:
                if e.u in s and e.v in s:
                    degs[e.u] += e.w
                    degs[e.v] += e.w
            kth = sorted(degs.values())[k - 1]
            best = max(best, kth)
    return best


def test_degeneracy_k_oracle_and_reduction():
    rng = random.Random(37)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 6), 0.5, max_multiplicity=2)
        for k in range(1, g.n + 1):
            assert degeneracy_k(g, k) == _degeneracy_k_oracle(g, k)
        # k = 1 is ordinary degeneracy: max over subgraphs of the min degree
        assert degeneracy_k(g, 1) == degeneracy(g)


# the cap counts the exempt sets peeled, C(n, k - 1): it succeeds at exactly
# their number and fails one below
@pytest.mark.parametrize("seed", range(4))
def test_degeneracy_k_cap_counts_exempt_sets(seed):
    rng = random.Random(f"degeneracy-k-cap:{seed}")
    g = random_multigraph(rng, rng.randint(2, 9), 0.5, max_multiplicity=2)
    for k in range(1, g.n + 1):
        sets = math.comb(g.n, k - 1)
        assert degeneracy_k(g, k, cap=sets) == _degeneracy_k_oracle(g, k)
        if sets > 1:
            message = f"^D_{k} by exempt-set peeling passed the work cap of {sets - 1} exempt sets$"
            with pytest.raises(WorkCapExceeded, match=message):
                degeneracy_k(g, k, cap=sets - 1)


def _plain_peel_second_degree(g):
    """The largest second-least degree seen while peeling a vertex of least
    degree (ties: smallest id) down to two vertices: D_2 with no exempt vertex."""
    alive, best = set(g.vertices), F(0)
    while len(alive) >= 2:
        deg = {x: sum((e.w for e in g.edges if x in (e.u, e.v) and {e.u, e.v} <= alive), F(0)) for x in alive}
        order = sorted(alive, key=lambda x: (deg[x], x))
        best = max(best, deg[order[1]])
        alive.remove(order[0])
    return best


def test_degeneracy_k_needs_its_exempt_vertex():
    # degrees 2, 3, 4, 7: the plain peel deletes vertex 1 first and reads 3
    # at most, but D_2 = 4 on {1, 3, 4}, whose least-degree vertex is 1
    g = WeightedMultigraph(4, [(1, 3, 1), (1, 4, 1), *[(2, 4, 1)] * 3, *[(3, 4, 1)] * 3])
    assert _plain_peel_second_degree(g) == 3
    assert degeneracy_k(g, 2) == _degeneracy_k_oracle(g, 2) == 4


_WEIGHTS = st.sampled_from([F(w) for w in ("0", "1", "2", "1/2", "2/3", "5/2", "1/7")])


@st.composite
def _dense_multigraphs(draw):
    """Up to 10 vertices, up to 3 parallel edges per pair, rational weights."""
    n = draw(st.integers(1, 10))
    return WeightedMultigraph(n, [(u, v, w) for u, v in itertools.combinations(range(1, n + 1), 2)
                                  for w in draw(st.lists(_WEIGHTS, max_size=3))])


def _degeneracy_all_k_oracle(g):
    """[D_1, ..., D_n] in one pass over the vertex subsets."""
    L = math.lcm(*(e.w.denominator for e in g.edges))
    W = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for e in g.edges:
        W[e.u][e.v] += e.w.numerator * (L // e.w.denominator)
        W[e.v][e.u] += e.w.numerator * (L // e.w.denominator)
    best = [0] * g.n
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(g.vertices, r):
            for i, d in enumerate(sorted(sum(W[x][y] for y in sub) for x in sub)):
                best[i] = max(best[i], d)
    return [F(b, L) for b in best]


@settings(max_examples=200, deadline=None)
@given(_dense_multigraphs())
def test_degeneracy_k_matches_one_subset_pass_for_every_k(g):
    assert [degeneracy_k(g, k) for k in range(1, g.n + 1)] == _degeneracy_all_k_oracle(g)


def test_inequality_chain_checks_the_cap_on_every_graph():
    # a graph too large for the brute forces still rejects a cap below 1
    with pytest.raises(ValueError, match="^the work cap must be >= 1, not cap=0$"):
        inequality_chain(cycle_graph(12), cap=0)


def test_inequality_chain_holds_on_random_graphs():
    rng = random.Random(41)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(2, 7), 0.5, max_multiplicity=3)
        rep = inequality_chain(g)
        assert rep.all_hold, [c for c in rep.checks if not c.holds]
        names = {c.name for c in rep.checks}
        assert any("Lambda" in nm for nm in names)


def test_inequality_chain_small_graph_fields():
    rep = inequality_chain(path_graph(2))
    assert rep.Delta == 1 and rep.Lambda == 1 and rep.LambdaTilde == 1
    assert rep.Delta_n_minus_1 == rep.Delta
    assert rep.all_hold


def test_inequality_chain_singleton():
    rep = inequality_chain(WeightedMultigraph(1, []))
    assert rep.Lambda is None and rep.all_hold
