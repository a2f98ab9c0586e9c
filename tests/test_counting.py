"""Walk-family series, anchored subgraph classes, and the identities tying them."""
import itertools
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from subset_oracle import class_specs, in_class, series_by_filter

from maxmaxflow import counting
from maxmaxflow.graph import (
    WeightedMultigraph,
    biconnected_components,
    complete_graph,
    components_of,
    cycle_graph,
    disjoint_union,
    k2_multi,
    path_graph,
    random_multigraph,
    star_graph,
    theta_graph,
    wheel_graph,
)
from maxmaxflow.counting import (
    DEFAULT_WORK_CAP,
    WorkCapExceeded,
    class_count_series,
    class_series,
    class_spec,
    fpsaw_counts,
    fpw_counts,
    is_in_class,
    saw_counts,
    two_connected_through_edge_series,
    walk_counts,
    walk_total_counts,
    work_cap,
)


# -- brute-force walk oracles ---------------------------------------------


def _walks_brute(g, x, M):
    """All edge-id sequences of length <= M walkable from x, with end vertex."""
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.u].append((e.v, e.id))
        adj[e.v].append((e.u, e.id))
    frontier = [(x, F(1), (x,))]
    yield from frontier
    for _ in range(M):
        nxt = []
        for v, wt, path in frontier:
            for u, eid in adj[v]:
                nxt.append((u, wt * g.edges[eid].w, path + (u,)))
        yield from nxt
        frontier = nxt


def _walk_oracle(g, x, y, M):
    out = [F(0)] * (M + 1)
    for v, wt, path in _walks_brute(g, x, M):
        if v == y:
            out[len(path) - 1] += wt
    return out


def _fpw_oracle(g, x, Y, M):
    Y = set(Y)
    out = [F(0)] * (M + 1)
    for v, wt, path in _walks_brute(g, x, M):
        if v in Y and not any(u in Y for u in path[:-1]):
            out[len(path) - 1] += wt
    return out


def _saw_oracle(g, x, y, M):
    out = [F(0)] * (M + 1)
    for v, wt, path in _walks_brute(g, x, M):
        if v == y and len(set(path)) == len(path):
            out[len(path) - 1] += wt
    return out


def _fpsaw_oracle(g, x, Y, M):
    Y = set(Y)
    out = [F(0)] * (M + 1)
    for v, wt, path in _walks_brute(g, x, M):
        if v in Y and len(set(path)) == len(path) and not any(u in Y for u in path[:-1]):
            out[len(path) - 1] += wt
    return out


def test_walk_families_match_brute_oracles():
    rng = random.Random(43)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 5), 0.6, max_multiplicity=2)
        M = 4
        x, y = rng.sample(list(g.vertices), 2)
        Y = set(rng.sample(list(g.vertices), rng.randint(1, 2)))
        assert list(walk_counts(g, x, y, M).values) == _walk_oracle(g, x, y, M)
        assert list(fpw_counts(g, x, Y, M).values) == _fpw_oracle(g, x, Y, M)
        assert list(saw_counts(g, x, y, M).values) == _saw_oracle(g, x, y, M)
        assert list(fpsaw_counts(g, x, Y, M).values) == _fpsaw_oracle(g, x, Y, M)


def test_walk_totals_regular():
    # sum over endpoints of m-step walk weight is degree^m on regular graphs
    g = cycle_graph(6)
    assert list(walk_total_counts(g, 1, 5).values) == [F(2) ** m for m in range(6)]
    g = complete_graph(4)
    assert list(walk_total_counts(g, 2, 4).values) == [F(3) ** m for m in range(5)]


def test_walk_named_values():
    g = star_graph(3)
    # from the center, first passage into the leaves happens at step one
    assert list(fpw_counts(g, 1, {2, 3, 4}, 3).values) == [0, 3, 0, 0]
    # start already inside Y: the empty walk
    assert list(fpw_counts(g, 2, {2, 3}, 2).values) == [1, 0, 0]
    assert list(saw_counts(g, 2, 2, 2).values) == [1, 0, 0]


def test_saw_k4():
    g = complete_graph(4)
    assert list(saw_counts(g, 1, 2, 3).values) == [0, 1, 2, 2]


def test_walk_counts_parallel_edges_aggregate():
    g = k2_multi(2, total=F(3))
    assert list(walk_counts(g, 1, 2, 3).values) == [0, 3, 0, 27]


# -- edge-subset classes: membership and small closed cases ---------------


@pytest.mark.parametrize("kind,kw", [
    ("T", dict(X={1, 3})),
    ("F", dict(Y={1, 3})),
    ("H", dict(X={1, 2}, p=1)),
    ("C", dict(X={2})),
    ("BT", dict(X={1, 2})),
    ("BF", dict(X={1}, Y={3})),
    ("BFSTAR", dict(Y={1, 3})),
    ("B", dict(X={1, 2})),
    ("BLOCKPATH", dict(x=1, y=3)),
])
def test_series_equals_enumeration_oracle(kind, kw):
    rng = random.Random(47)
    spec = class_spec(kind, **kw)
    for _ in range(12):
        g = random_multigraph(rng, rng.randint(3, 5), 0.6, max_multiplicity=2)
        M = 4
        assert list(class_count_series(g, spec, M).values) == series_by_filter(g, spec, M)


def test_trees_on_path():
    g = path_graph(3)
    assert list(class_count_series(g, class_spec("T", X={1, 3}), 2).values) == [0, 0, 1]
    assert list(class_count_series(g, class_spec("T", X={1, 2}), 2).values) == [0, 1, 0]
    # a single anchor admits only the empty tree
    assert list(class_count_series(g, class_spec("T", X={2}), 2).values) == [1, 0, 0]
    # Y only joins the vertex set: the leaves of a tree must still lie in X
    assert list(class_count_series(g, class_spec("T", X={1}, Y={3}), 2).values) == [0, 0, 0]


def test_forests_on_path():
    g = path_graph(3)
    # each component must hold exactly one of Y = {1, 3}; leaves confined to Y
    assert list(class_count_series(g, class_spec("F", Y={1, 3}), 2).values) == [1, 0, 0]
    # with anchor X = {2} the empty forest is out: vertex 2 sits in a
    # component holding no member of Y
    assert list(class_count_series(g, class_spec("F", X={2}, Y={1, 3}), 2).values) == [0, 2, 0]


def test_anchored_subgraphs_on_path():
    g = path_graph(3)
    assert list(class_count_series(g, class_spec("C", X={2}), 2).values) == [1, 2, 1]


def test_block_trees_on_parallel_pair():
    g = k2_multi(2)
    assert list(class_count_series(g, class_spec("BT", X={1, 2}), 3).values) == [0, 2, 1, 0]
    assert list(class_count_series(g, class_spec("BF", X={1}, Y={2}), 3).values) == [0, 2, 1, 0]
    # singleton anchor: only the one-vertex block tree
    assert list(class_count_series(g, class_spec("BT", X={1}), 2).values) == [1, 0, 0]


def test_block_subgraphs_vs_block_trees():
    # B drops connectivity; with two anchors they differ only in the m = 0 term
    rng = random.Random(53)
    for _ in range(15):
        g = random_multigraph(rng, rng.randint(3, 5), 0.6, max_multiplicity=2)
        x, y = random.Random(53).sample(list(g.vertices), 2)
        b = class_count_series(g, class_spec("B", X={x, y}), 4)
        bt = class_count_series(g, class_spec("BT", X={x, y}), 4)
        assert b[0] == 1 and bt[0] == 0
        assert b.values[1:] == bt.values[1:]


def test_is_in_class_rejects_edge_ids_out_of_range():
    # a negative id would index from the end and alias a real edge
    g = path_graph(3)
    spec = class_spec("T", X={1, 3})
    assert is_in_class(g, [0, 1], spec)
    for eids in ([-2, 1], [-1], [0, 2]):
        with pytest.raises(ValueError, match="^edge id out of range$"):
            is_in_class(g, eids, spec)


# -- the anchored search against the all-subsets filter ------------------

# 0 and coprime denominators: the search sums integer products of the
# weights times their least common denominator L, and divides order k by L^k
_WEIGHT_VALUES = [F(0), F(1), F(2), F(1, 2), F(2, 3), F(5, 2), F(1, 7), F(2, 9), F(5, 11)]
_WEIGHTS = st.sampled_from(_WEIGHT_VALUES)


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(pair, _WEIGHTS), max_size=10))
    return WeightedMultigraph(n, [(u, v, w) for (u, v), w in edges])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_search_equals_subset_filter(data):
    # anchors overlap freely (X and Y drawn independently); Y is optional
    # on T, H, C, BT and B; H draws p and r
    g = data.draw(_multigraphs())
    specs = data.draw(st.lists(class_specs(g.n), min_size=1, max_size=4))
    M = data.draw(st.integers(0, 6))
    batched = class_series(g, specs, M)
    for spec in specs:
        expected = series_by_filter(g, spec, M)
        assert list(batched[spec].values) == expected
        assert list(class_count_series(g, spec, M).values) == expected
    if not g.m:
        return
    for sub in data.draw(st.lists(st.sets(st.integers(0, g.m - 1)), max_size=8)):
        assert is_in_class(g, sub, specs[0]) == in_class(g, sub, specs[0])
    eid = data.draw(st.integers(0, g.m - 1))
    e = g.edges[eid]
    rest = WeightedMultigraph(g.n, [(f.u, f.v, f.w) for f in g.edges if f.id != eid])
    bp = series_by_filter(rest, class_spec("BLOCKPATH", x=e.u, y=e.v), max(M - 1, 0))
    through = two_connected_through_edge_series(g, eid, M)
    assert list(through.values) == [F(0)] + [e.w * a for a in bp][:M]


def _connected_multigraph(rng, n, m):
    """A random spanning tree plus random edges, at most two per pair."""
    order = rng.sample(range(1, n + 1), n)
    pairs = [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)]
    while len(pairs) < m:
        pair = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        if pairs.count(pair) < 2:
            pairs.append(pair)
    return WeightedMultigraph(n, [(u, v, F(1)) for u, v in pairs])


# the suite's graph families at its sizes: wheels (m = 2r), thetas (paths of
# lengths 1..r) and connected multigraphs with m edges, multiplicity <= 2
_SUITE_LIKE = {
    "wheel5": lambda rng: wheel_graph(5),
    "wheel6": lambda rng: wheel_graph(6),
    "wheel7": lambda rng: wheel_graph(7),
    "theta4": lambda rng: theta_graph(4),
    "theta5": lambda rng: theta_graph(5),
    "multi10": lambda rng: _connected_multigraph(rng, 6, 10),
    "multi12": lambda rng: _connected_multigraph(rng, 6, 12),
    "multi14": lambda rng: _connected_multigraph(rng, 7, 14),
}


@pytest.mark.parametrize("name", _SUITE_LIKE)
def test_block_classes_equal_subset_filter_at_suite_scale(name):
    # anchors as the suite draws them: two X vertices, one further Y vertex,
    # and one edge for the through-edge search
    rng = random.Random(name)
    shape = _SUITE_LIKE[name](rng)
    g = WeightedMultigraph(shape.n, [(e.u, e.v, rng.choice(_WEIGHT_VALUES)) for e in shape.edges])
    M = 5
    x1, x2, y = rng.sample(list(g.vertices), 3)
    specs = [
        class_spec("BT", X={x1, x2}),
        class_spec("BF", X={x1, x2}, Y={y}),
        class_spec("BFSTAR", X={x1, x2}, Y={y}),
        class_spec("B", X={x1, x2}),
        class_spec("BLOCKPATH", x=x1, y=x2),
    ]
    batched = class_series(g, specs, M)
    for spec in specs:
        assert list(batched[spec].values) == series_by_filter(g, spec, M)
    eid = rng.randrange(g.m)
    e = g.edges[eid]
    bp = series_by_filter(g.without_edge(eid), class_spec("BLOCKPATH", x=e.u, y=e.v), M - 1)
    assert list(two_connected_through_edge_series(g, eid, M).values) == [F(0)] + [e.w * a for a in bp]


# -- the block classes against the path-union definition ------------------


def _path_union(edges, A):
    """The ids of the edges on some simple path between two members of A in
    the graph of `edges`, by depth-first enumeration of the paths."""
    adj = {}
    for e in edges:
        adj.setdefault(e.u, []).append((e.v, e.id))
        adj.setdefault(e.v, []).append((e.u, e.id))
    union = set()

    def dfs(u, target, seen, path):
        if u == target:
            union.update(path)
            return
        for v, eid in adj.get(u, ()):
            if v not in seen:
                dfs(v, target, seen | {v}, path + [eid])

    anchors = sorted(A)
    for i, a in enumerate(anchors):
        for b in anchors[i + 1:]:
            dfs(a, b, {a}, [])
    return union


def _in_block_class_by_paths(g, edge_ids, spec):
    """The definition of the block classes: the subgraph (anchors plus
    endpoints, the edges) is the union of its simple paths between anchors,
    A = X for B and BT, X ∪ Y for BF and BFSTAR, {x, y} for BLOCKPATH.  BT
    and BLOCKPATH also need one component, BF each component to meet Y
    exactly once and BFSTAR at least once.  Shares no code with `counting`."""
    edges = [g.edges[i] for i in edge_ids]
    A = {"B": spec.X, "BT": spec.X, "BLOCKPATH": {spec.x, spec.y}}.get(spec.kind, spec.X | spec.Y)
    if _path_union(edges, A) != set(edge_ids):  # the anchors are length-0 paths
        return False
    vs = set(A).union(*((e.u, e.v) for e in edges))
    comps = components_of(vs, [(e.u, e.v) for e in edges])
    if spec.kind in ("BT", "BLOCKPATH"):
        return len(comps) == 1
    if spec.kind == "BF":
        return all(len(c & spec.Y) == 1 for c in comps)
    if spec.kind == "BFSTAR":
        return all(c & spec.Y for c in comps)
    return True


def test_block_classes_are_unions_of_anchor_paths():
    # every edge set of at most 5 edges of random multigraphs with n <= 6 and
    # m <= 8, against random anchors of each of the five block classes
    rng = random.Random("path-union")
    members = dict.fromkeys(("B", "BT", "BF", "BFSTAR", "BLOCKPATH"), 0)
    for _ in range(40):
        n = rng.randint(3, 6)
        edges = random_multigraph(rng, n, 0.6, max_multiplicity=2).edges[:8]
        g = WeightedMultigraph(n, [(e.u, e.v, e.w) for e in edges])
        vertices = list(g.vertices)

        def some(least):
            return frozenset(rng.sample(vertices, rng.randint(least, min(3, n))))

        specs = [
            class_spec("B", X=some(1)),
            class_spec("BT", X=some(1)),
            class_spec("BF", X=some(0), Y=some(1)),
            class_spec("BFSTAR", X=some(0), Y=some(1)),
            class_spec("BLOCKPATH", **dict(zip("xy", rng.sample(vertices, 2)))),
        ]
        for k in range(min(5, g.m) + 1):
            for sub in itertools.combinations(range(g.m), k):
                for spec in specs:
                    expected = _in_block_class_by_paths(g, sub, spec)
                    assert is_in_class(g, sub, spec) == expected, (g.serialize(), sub, spec)
                    members[spec.kind] += expected
    assert all(count >= 20 for count in members.values()), members


def test_blocks_built_only_for_cyclic_sets_with_anchored_leaves(monkeypatch):
    # a block decomposition is asked for only when the leaves and the cycle
    # count leave block anchoring open
    calls = []

    def recording(vertices, adj):
        vertices = list(vertices)
        degree = {v: len(adj[v]) for v in vertices}
        edges = {eid for v in vertices for _, eid in adj[v]}
        pairs = [(v, w) for v in vertices for w, _ in adj[v] if v < w]
        calls.append((degree, len(edges) > len(vertices) - len(components_of(vertices, pairs))))
        return biconnected_components(vertices, adj)

    monkeypatch.setattr(counting, "biconnected_components", recording)
    # a wheel with a doubled spoke and a pendant path: cycles, parallel
    # edges and leaves outside the anchors all occur
    extra = [(1, 2, F(1)), (3, 7, F(1)), (7, 8, F(1))]
    g = WeightedMultigraph(8, [(e.u, e.v, e.w) for e in wheel_graph(5).edges] + extra)
    specs = [
        class_spec("BT", X={1, 4}),
        class_spec("BF", X={2}, Y={5}),
        class_spec("BFSTAR", X={3}, Y={6, 8}),
        class_spec("B", X={1, 4}),
        class_spec("BLOCKPATH", x=2, y=8),
    ]
    searches = [
        (lambda: class_series(g, specs, 5), {1, 2, 3, 4, 5, 6, 8}),
        # edge 0 joins 1 and 2: an xy-block path search on G - e
        (lambda: two_connected_through_edge_series(g, 0, 5), {1, 2}),
    ]
    for search, anchors in searches:
        calls.clear()
        search()
        assert calls
        for degree, cyclic in calls:
            assert cyclic
            assert all(v in anchors for v, d in degree.items() if d == 1)
    # every edge set of a tree is a forest
    calls.clear()
    for tree in (path_graph(6), star_graph(5)):
        class_series(tree, [class_spec("BT", X={1, 2, 6}), class_spec("B", X={2, 6})], 5)
    assert not calls


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_h_with_p_1_and_r_1_is_t(data):
    # the oracle's own predicates, on specs that bypass the normalisation:
    # leaves lie in X, so p = 1 adds nothing and one H-component is a T-tree
    g = data.draw(_multigraphs())
    vertices = st.integers(1, g.n)
    X = data.draw(st.frozensets(vertices, min_size=1, max_size=3))
    Y = data.draw(st.none() | st.frozensets(vertices, min_size=1, max_size=3))
    r = data.draw(st.none() | st.integers(2, 3))

    def spec(kind, p=None, r=None):
        return SimpleNamespace(kind=kind, X=X, Y=Y, p=p, r=r, x=None, y=None)

    subsets = data.draw(st.lists(st.sets(st.integers(0, g.m - 1)), max_size=8)) if g.m else [set()]
    for sub in subsets:
        assert in_class(g, sub, spec("H", p=1, r=1)) == in_class(g, sub, spec("T"))
        assert in_class(g, sub, spec("H", p=1, r=r)) == in_class(g, sub, spec("H", r=r))
    assert class_spec("H", X=X, Y=Y, p=1, r=1) == class_spec("T", X=X, Y=Y)
    assert class_spec("H", X=X, Y=Y, r=1) == class_spec("T", X=X, Y=Y)
    assert class_spec("H", X=X, Y=Y, p=1, r=r) == class_spec("H", X=X, Y=Y, r=r)
    assert class_spec("H", X=X, p=2, r=1).kind == "H"


def _acyclic(g, edge_ids):
    """Do the edges form a forest?  A union-find of its own, not the package's."""
    root = list(range(g.n + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for eid in edge_ids:
        a, b = find(g.edges[eid].u), find(g.edges[eid].v)
        if a == b:
            return False
        root[a] = b
    return True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_forest_classes_are_the_acyclic_block_classes(data):
    # the oracle's own predicates: with the same anchors, T, F and H are BT,
    # BF and B on acyclic edge sets, and hold on no set with a cycle
    g = data.draw(_multigraphs())
    vertices = st.integers(1, g.n)
    X = data.draw(st.frozensets(vertices, max_size=3))
    Y = data.draw(st.none() | st.frozensets(vertices, min_size=1, max_size=3))

    def spec(kind):
        return SimpleNamespace(kind=kind, X=X, Y=Y, p=None, r=None, x=None, y=None)

    subsets = data.draw(st.lists(st.sets(st.integers(0, g.m - 1)), max_size=8)) if g.m else [set()]
    for sub in subsets:
        acyclic = _acyclic(g, sub)
        for forest, block in (("T", "BT"), ("F", "BF"), ("H", "B")):
            assert in_class(g, sub, spec(forest)) == (acyclic and in_class(g, sub, spec(block)))


def test_batched_walk_kinds_dispatch():
    g = complete_graph(4)
    W, T = class_spec("W", x=1, y=2), class_spec("T", X={1, 2})
    out = class_series(g, [W, T, W], 3)
    assert list(out) == [W, T]
    assert out[W] == walk_counts(g, 1, 2, 3)
    # trees with leaves {1, 2} are the self-avoiding walks from 1 to 2
    assert out[T].values == saw_counts(g, 1, 2, 3).values


# -- identities between walks and classes ---------------------------------


def test_trees_two_anchors_equal_saw():
    rng = random.Random(59)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(2, 5), 0.6, max_multiplicity=2)
        x, y = rng.sample(list(g.vertices), 2)
        t = class_count_series(g, class_spec("T", X={x, y}), 5)
        s = saw_counts(g, x, y, 5)
        assert t.values == s.values


def test_forests_single_x_equal_fpsaw():
    rng = random.Random(61)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(2, 5), 0.6, max_multiplicity=2)
        x = rng.choice(list(g.vertices))
        Y = set(rng.sample(list(g.vertices), rng.randint(1, 2)))
        f = class_count_series(g, class_spec("F", X={x}, Y=Y), 5)
        s = fpsaw_counts(g, x, Y, 5)
        assert f.values == s.values


def test_block_forests_single_y_equal_block_trees():
    rng = random.Random(67)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(3, 5), 0.6, max_multiplicity=2)
        vs = list(g.vertices)
        y = rng.choice(vs)
        X = set(rng.sample([v for v in vs if v != y], rng.randint(1, 2)))
        bf = class_count_series(g, class_spec("BF", X=X, Y={y}), 5)
        bt = class_count_series(g, class_spec("BT", X=X | {y}), 5)
        assert bf.values == bt.values


# -- 2-connected-through-an-edge series -----------------------------------


def test_through_edge_triangle():
    g = cycle_graph(3)
    s = two_connected_through_edge_series(g, 0, 4)
    assert list(s.values) == [0, 0, 0, 1, 0]


def test_through_edge_parallel_bundle():
    g = k2_multi(3, total=F(3))
    s = two_connected_through_edge_series(g, 0, 3)
    assert list(s.values) == [0, 0, 2, 1]


def test_through_edge_peeling_identity():
    # deleting the distinguished edge leaves block trees anchored at its ends:
    # the m-edge members through e are e itself plus an (m-1)-edge block tree
    # of G - e anchored at {u, v}
    rng = random.Random(71)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(3, 5), 0.6, max_multiplicity=2)
        if not g.m:
            continue
        eid = rng.randrange(g.m)
        e = g.edges[eid]
        s = two_connected_through_edge_series(g, eid, 5)
        rest = WeightedMultigraph(
            g.n, [(f.u, f.v, f.w) for f in g.edges if f.id != eid]
        )
        bt = class_count_series(rest, class_spec("BT", X={e.u, e.v}), 4)
        for m in range(1, 6):
            assert s[m] == e.w * bt[m - 1]
        assert s[0] == 0


# -- work caps ------------------------------------------------------------


def test_work_cap_enforced():
    g = complete_graph(6)
    with pytest.raises(WorkCapExceeded):
        class_count_series(g, class_spec("BT", X={1, 2}), 10, cap=100)
    with pytest.raises(WorkCapExceeded):
        two_connected_through_edge_series(g, 0, 10, cap=100)


def test_work_cap_counts_search_nodes():
    # a path 1-2-3 beside a K5: the subsets of at most 6 of the 12 edges
    # number sum_k C(12, k) = 2510, far above the cap, but the search from
    # X = {1} visits only the edge sets whose components all meet X
    g = disjoint_union([path_graph(3), complete_graph(5)])
    assert sum(math.comb(g.m, k) for k in range(7)) > 10
    spec = class_spec("C", X={1})
    assert list(class_count_series(g, spec, 6, cap=10).values) == series_by_filter(g, spec, 6)
    with pytest.raises(WorkCapExceeded):
        class_count_series(g, spec, 6, cap=2)


@pytest.mark.parametrize("cap", [0, -5])
def test_cap_below_one_rejected(cap):
    g = path_graph(3)
    with pytest.raises(ValueError, match=f"^the work cap must be >= 1, not cap={cap}$"):
        class_count_series(g, class_spec("C", X={1}), 2, cap=cap)
    with pytest.raises(ValueError, match="work cap"):
        two_connected_through_edge_series(g, 0, 2, cap=cap)


def _saw_steps(g, x, Ys, M):
    """The steps the self-avoiding walk search tries: each neighbour of the
    end of every self-avoiding walk from x of fewer than M steps that
    avoids Ys (none when x is in Ys)."""
    A, _ = g.pair_weights()
    if x in Ys:
        return 0
    steps = 0
    for k in range(M):
        for inner in itertools.permutations([v for v in g.vertices if v != x and v not in Ys], k):
            walk = (x, *inner)
            if all(b in A[a] for a, b in zip(walk, walk[1:])):
                steps += len(A[walk[-1]])
    return steps


# the cap counts the steps the walk search actually tries: the search
# succeeds at exactly that many and fails at one fewer
@pytest.mark.parametrize("seed", range(6))
def test_saw_cap_counts_search_steps(seed):
    rng = random.Random(f"saw-cap:{seed}")
    g = random_multigraph(rng, rng.randint(3, 6), 0.7, max_multiplicity=2)
    x, y = rng.sample(list(g.vertices), 2)
    Y = {y, *rng.sample(list(g.vertices), 1)}
    M = rng.randint(1, 5)
    for Ys, call in (({y}, lambda cap: saw_counts(g, x, y, M, cap)),
                     (Y, lambda cap: fpsaw_counts(g, x, Y, M, cap))):
        steps = _saw_steps(g, x, Ys, M)
        assert call(max(steps, 1)).values == call(None).values
        if steps > 1:
            with pytest.raises(WorkCapExceeded, match=f"^the walk search passed the work cap of {steps - 1} steps$"):
                call(steps - 1)


# the cap counts the work the transfer actually does: each of the M steps
# costs one unit per vertex and one per neighbour of each vertex outside
# the absorbing set Y; the series succeeds at exactly that total and fails
# at one less
@pytest.mark.parametrize("seed", range(6))
def test_walk_cap_counts_transfer_work(seed):
    rng = random.Random(f"walk-cap:{seed}")
    g = random_multigraph(rng, rng.randint(2, 6), 0.7, max_multiplicity=2)
    x, y = rng.sample(list(g.vertices), 2)
    Y = {y, *rng.sample(list(g.vertices), 1)}
    M = rng.randint(1, 5)
    arcs = {(e.u, e.v) for e in g.edges} | {(e.v, e.u) for e in g.edges}
    for absorbing, call in ((set(), lambda cap: walk_counts(g, x, y, M, cap)),
                            (set(), lambda cap: walk_total_counts(g, x, M, cap)),
                            (Y, lambda cap: fpw_counts(g, x, Y, M, cap))):
        work = M * (g.n + sum(1 for u, _ in arcs if u not in absorbing))
        assert call(work).values == call(None).values
        with pytest.raises(WorkCapExceeded, match=f"^the walk series passed the work cap of {work - 1} units of work$"):
            call(work - 1)


def test_walk_families_check_the_cap_first():
    g = path_graph(3)
    for kind, kw in (("SAW", dict(x=1, y=3)), ("W", dict(x=1, y=3)), ("FPSAW", dict(x=1, Y={3}))):
        with pytest.raises(ValueError, match="^the work cap must be >= 1, not cap=0$"):
            class_count_series(g, class_spec(kind, **kw), 2, cap=0)
    with pytest.raises(ValueError, match="work cap"):
        saw_counts(g, 1, 3, 2, cap=0)


# a result depends on its arguments alone: the work cap is `cap=` or the
# default, and no setting of the environment changes either
def test_no_module_reads_the_environment():
    package = Path(counting.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert not re.search(r"\b(environ|getenv)\b", path.read_text()), path.name
    assert work_cap() == work_cap(None) == DEFAULT_WORK_CAP


def test_search_depth_follows_M_not_m():
    # a star with more edges than the recursion limit: the search recurses
    # once per edge taken, so at most M + 1 deep
    g = star_graph(1200)
    assert list(class_count_series(g, class_spec("C", X={1}), 1).values) == [1, 1200]


def test_series_lengths():
    g = path_graph(3)
    s = class_count_series(g, class_spec("C", X={1}), 7)
    assert len(s.values) == 8 and s.M == 7
