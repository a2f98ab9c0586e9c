"""The walk series and the invariants, which compute on integer weights,
against their `Fraction` oracles.

The weights include 0 and the coprime denominators 7, 9 and 11, so the least
common denominator L of a graph is often large and a series order k is
divided by a large L^k; the graphs have parallel edges and often several
components.  The subset classes are checked the same way against
`subset_oracle` (`test_counting.py`), and the cut tree and flows against
`flow_oracle` (`test_flowcut.py`).
"""
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import fraction_oracle as oracle

from maxmaxflow.counting import (
    fpsaw_counts,
    fpw_counts,
    saw_counts,
    walk_counts,
    walk_total_counts,
)
from maxmaxflow.flowcut import lambda_tilde_bruteforce
from maxmaxflow.graph import WeightedMultigraph
from maxmaxflow.invariants import degeneracy, degeneracy_k, degree_sequence

WEIGHTS = st.sampled_from([F(w) for w in ("0", "1", "2", "1/7", "2/9", "5/11", "3/4", "7/3")])


@st.composite
def graphs(draw):
    """Multigraphs on 1..7 vertices with up to 14 edges."""
    n = draw(st.integers(1, 7))
    if n == 1:
        return WeightedMultigraph(1, [])
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(pair, WEIGHTS), max_size=14))
    return WeightedMultigraph(n, [(u, v, w) for (u, v), w in edges])


def test_integer_weights():
    g = WeightedMultigraph(3, [(1, 2, F(2, 9)), (2, 3, F(5, 6)), (1, 3, F(0)), (1, 2, F(3))])
    assert g.integer_weights() == ((4, 15, 0, 54), 18)
    assert g.integer_weights() is g.integer_weights()
    assert WeightedMultigraph(2, []).integer_weights() == ((), 1)
    # the pair table: the parallel pair (1, 2) summed, the zero pair (1, 3) kept
    assert g.pair_weights() == ({1: {2: 58, 3: 0}, 2: {1: 58, 3: 15}, 3: {2: 15, 1: 0}}, 18)
    assert g.pair_weights() is g.pair_weights()
    assert WeightedMultigraph(2, []).pair_weights() == ({1: {}, 2: {}}, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_series_equal_fraction_oracle(data):
    g = data.draw(graphs())
    vertex = st.integers(1, g.n)
    x, y = data.draw(vertex), data.draw(vertex)
    Y = data.draw(st.frozensets(vertex, min_size=1, max_size=3))
    M = data.draw(st.integers(0, 7))
    assert list(walk_counts(g, x, y, M).values) == oracle.transfer(g, x, {y}, (), M)
    assert list(walk_total_counts(g, x, M).values) == oracle.transfer(g, x, g.vertices, (), M)
    assert list(fpw_counts(g, x, Y, M).values) == oracle.transfer(g, x, Y, Y, M)
    assert list(saw_counts(g, x, y, M).values) == oracle.self_avoiding(g, x, {y}, M)
    assert list(fpsaw_counts(g, x, Y, M).values) == oracle.self_avoiding(g, x, Y, M)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_invariants_equal_fraction_oracle(g):
    assert degree_sequence(g) == oracle.degree_sequence(g)
    assert degeneracy(g) == oracle.degeneracy(g)
    for k in range(1, g.n + 1):
        assert degeneracy_k(g, k) == oracle.degeneracy_k(g, k)
    if g.n >= 2:
        assert lambda_tilde_bruteforce(g) == oracle.lambda_tilde(g)
