"""Chromatic polynomials against networkx (which expands them with sympy).

networkx's deletion-contraction grows fast with the number of edges, so the
graphs stay at n <= 7 with at most ten edges.
"""
import pytest
from hypothesis import given, settings, strategies as st

from maxmaxflow.chromatic import chromatic_polynomial
from maxmaxflow.graph import WeightedMultigraph

nx = pytest.importorskip("networkx")
sympy = pytest.importorskip("sympy")


@st.composite
def small_multigraphs(draw):
    """Up to ten edges on n <= 7 vertices, parallel ones included."""
    n = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=10)) if n >= 2 else []
    return WeightedMultigraph(n, [(u, v, 1) for u, v in edges])


@settings(max_examples=40, deadline=None)
@given(small_multigraphs())
def test_chromatic_polynomial_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((e.u, e.v) for e in g.edges)
    poly = sympy.Poly(nx.chromatic_polynomial(h), sympy.Symbol("x"))
    assert chromatic_polynomial(g) == tuple(int(c) for c in reversed(poly.all_coeffs()))
