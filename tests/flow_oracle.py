"""Reference flow routes kept for the tests: shortest-augmenting-path max flow
on a dict keyed by vertex pairs, with denominators cleared per flow, the same
supernode-contraction cut tree built on it, and Λ as the maximum over blocks.

These are the package's flow routines as they were before the Dinic engine
replaced them; they share nothing with `maxmaxflow.flowcut` and use only the
graph structures of `maxmaxflow.graph`.  `flow_graphs` draws the random
multigraphs the flow tests compare on, and `scale_graph` draws larger ones.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterable

from hypothesis import strategies as st

from maxmaxflow.graph import WeightedMultigraph, block_decomposition


def _scaled_capacities(edges) -> tuple[dict[tuple[int, int], int], int]:
    denom = 1
    for _, _, w in edges:
        denom = denom * w.denominator // math.gcd(denom, w.denominator)
    cap: dict[tuple[int, int], int] = {}
    for u, v, w in edges:
        c = w.numerator * (denom // w.denominator)
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap[(v, u)] = cap.get((v, u), 0) + c
    return cap, denom


def _min_cut_int(
    vertices: Iterable[int], cap: dict[tuple[int, int], int], s: int, t: int
) -> tuple[int, set[int]]:
    """Shortest-augmenting-path max flow on integer capacities."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for (u, v) in cap:
        adj[u].append(v)
    residual = dict(cap)
    flow = 0
    while True:
        prev: dict[int, int] = {s: s}
        q = deque([s])
        while q and t not in prev:
            u = q.popleft()
            for v in adj[u]:
                if v not in prev and residual.get((u, v), 0) > 0:
                    prev[v] = u
                    q.append(v)
        if t not in prev:
            break
        bott = None
        v = t
        while v != s:
            u = prev[v]
            r = residual[(u, v)]
            bott = r if bott is None else min(bott, r)
            v = u
        v = t
        while v != s:
            u = prev[v]
            residual[(u, v)] -= bott
            residual[(v, u)] = residual.get((v, u), 0) + bott
            v = u
        flow += bott
    reach = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in reach and residual.get((u, v), 0) > 0:
                reach.add(v)
                q.append(v)
    return flow, reach


def max_flow(g: WeightedMultigraph, x: int, y: int) -> tuple[Fraction, frozenset[int], frozenset[int]]:
    """(value, source side, cut edge ids) of a maximum x-y flow."""
    cap, denom = _scaled_capacities([(e.u, e.v, e.w) for e in g.edges])
    flow, reach = _min_cut_int(g.vertices, cap, x, y)
    cut = frozenset(e.id for e in g.edges if (e.u in reach) != (e.v in reach))
    return Fraction(flow, denom), frozenset(reach), cut


def _component_cut_tree(
    g: WeightedMultigraph, comp: frozenset[int]
) -> list[tuple[int, int, Fraction]]:
    """Classical cut-tree construction with contraction of hanging subtrees."""
    comp_edges = [e for e in g.edges if e.u in comp]
    nodes: list[set[int]] = [set(comp)]
    tadj: dict[int, dict[int, Fraction]] = {0: {}}

    while True:
        idx = next((i for i, s in enumerate(nodes) if len(s) >= 2), None)
        if idx is None:
            break
        S = nodes[idx]
        it = iter(sorted(S))
        x, y = next(it), next(it)

        # contract each subtree hanging off idx into a single marker vertex
        marker_of: dict[int, int] = {}
        vmap: dict[int, int] = {}
        nxt_marker = -1
        for nb in tadj[idx]:
            marker = nxt_marker
            nxt_marker -= 1
            marker_of[nb] = marker
            for node in _subtree_nodes(tadj, nb, idx):
                for v in nodes[node]:
                    vmap[v] = marker
        for v in S:
            vmap[v] = v

        triples = []
        for e in comp_edges:
            a, b = vmap[e.u], vmap[e.v]
            if a != b:
                triples.append((a, b, e.w))
        cap, denom = _scaled_capacities(triples)
        flow, reach = _min_cut_int(set(vmap.values()), cap, x, y)
        value = Fraction(flow, denom)

        s1 = {v for v in S if v in reach}
        s2 = S - s1
        new_idx = len(nodes)
        nodes[idx] = s1
        nodes.append(s2)
        old_neighbors = dict(tadj[idx])
        tadj[idx] = {}
        tadj[new_idx] = {}
        for nb, w in old_neighbors.items():
            del tadj[nb][idx]
            target = idx if marker_of[nb] in reach else new_idx
            tadj[target][nb] = w
            tadj[nb][target] = w
        tadj[idx][new_idx] = value
        tadj[new_idx][idx] = value

    out = []
    for i, nbrs in tadj.items():
        for j, w in nbrs.items():
            if i < j:
                out.append((next(iter(nodes[i])), next(iter(nodes[j])), w))
    return out


def _subtree_nodes(tadj: dict[int, dict[int, Fraction]], start: int, banned: int) -> list[int]:
    seen = {banned, start}
    out = [start]
    stack = [start]
    while stack:
        u = stack.pop()
        for v in tadj[u]:
            if v not in seen:
                seen.add(v)
                out.append(v)
                stack.append(v)
    return out


def cut_tree_edges(g: WeightedMultigraph) -> list[tuple[int, int, Fraction]]:
    """The cut tree's edges: each component's tree, then weight-0 edges
    joining the components' smallest vertices."""
    comps = g.components()
    edges = [e for comp in comps if len(comp) >= 2 for e in _component_cut_tree(g, comp)]
    reps = [min(c) for c in comps]
    edges += [(a, b, Fraction(0)) for a, b in zip(reps, reps[1:])]
    return edges


def maxmaxflow(g: WeightedMultigraph) -> Fraction:
    return max((w for _, _, w in cut_tree_edges(g)), default=Fraction(0))


def maxmaxflow_blockwise(g: WeightedMultigraph) -> Fraction:
    """Λ as the maximum of Λ over the blocks with at least two vertices."""
    if g.n < 2:
        raise ValueError("maxmaxflow requires at least two vertices")
    best = Fraction(0)
    for b in block_decomposition(g).blocks:
        if len(b.vertices) < 2:
            continue
        ordering = sorted(b.vertices)
        sub = WeightedMultigraph(
            len(ordering),
            [(*_relabel(g.edges[eid], ordering), g.edges[eid].w) for eid in sorted(b.edge_ids)],
        )
        best = max(best, maxmaxflow(sub))
    return best


def _relabel(e, ordering) -> tuple[int, int]:
    pos = {v: i + 1 for i, v in enumerate(ordering)}
    return pos[e.u], pos[e.v]


# 0 and coprime denominators: the flows run on the weights times their
# least common denominator, which these make large
FLOW_WEIGHTS = st.sampled_from(
    [Fraction(w) for w in ("0", "1", "2", "1/2", "2/3", "5/2", "7/3", "3/4", "1/7", "2/9", "5/11")]
)


@st.composite
def flow_graphs(draw):
    """Rational multigraphs with parallel edges and zero weights; edges stay
    inside up to three ranges of consecutive vertices, so that there are
    often several components."""
    n = draw(st.integers(2, 8))
    bounds = [1, *sorted(draw(st.sets(st.integers(2, n), max_size=2))), n + 1]
    ends = st.tuples(st.integers(1, n), st.integers(0, n - 1))
    triples = []
    for (u, j), w in draw(st.lists(st.tuples(ends, FLOW_WEIGHTS), min_size=1, max_size=20)):
        lo, hi = next((a, b) for a, b in zip(bounds, bounds[1:]) if a <= u < b)
        v = lo + j % (hi - lo)
        if v != u:
            triples.append((u, v, w))
    return WeightedMultigraph(n, triples)


SCALE_WEIGHTS = [Fraction(w) for w in ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "5/2")]


def scale_graph(rng, n: int, m: int) -> WeightedMultigraph:
    """A connected multigraph drawn as the flow benchmark draws its inputs: a
    random spanning tree plus random edges, at most 3 per pair, with weights
    from 1/3 to 5/2."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)]
    count = dict.fromkeys(pairs, 1)
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        if count.get((u, v), 0) < 3:
            count[(u, v)] = count.get((u, v), 0) + 1
            pairs.append((u, v))
    return WeightedMultigraph(n, [(u, v, rng.choice(SCALE_WEIGHTS)) for u, v in pairs])
