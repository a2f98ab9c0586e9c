"""Max-flow values, cut-tree bottlenecks and Λ against networkx.

networkx runs on integer capacities: the weights times their least common
denominator, with parallel edges merged into one.
"""
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from flow_oracle import flow_graphs
from maxmaxflow.flowcut import cut_tree, max_flow, maxmaxflow

nx = pytest.importorskip("networkx")


def _integer_graph(g):
    denom = math.lcm(*(e.w.denominator for e in g.edges))
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    for e in g.edges:
        c = int(e.w * denom)
        if h.has_edge(e.u, e.v):
            h[e.u][e.v]["capacity"] += c
        else:
            h.add_edge(e.u, e.v, capacity=c)
    return h, denom


@settings(max_examples=100, deadline=None)
@given(flow_graphs())
def test_flows_and_cut_tree_match_networkx(g):
    h, denom = _integer_graph(g)
    tree = cut_tree(g)
    for x, y in itertools.combinations(g.vertices, 2):
        value = F(nx.maximum_flow_value(h, x, y), denom)
        assert max_flow(g, x, y).value == value
        assert tree.bottleneck(x, y) == value
    # networkx builds Gomory-Hu trees of connected graphs only
    heaviest = max(
        (
            w
            for comp in nx.connected_components(h)
            if len(comp) >= 2
            for _, _, w in nx.gomory_hu_tree(h.subgraph(comp)).edges(data="weight")
        ),
        default=0,
    )
    assert maxmaxflow(g) == F(heaviest, denom)
