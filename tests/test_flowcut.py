"""Exact max-flow, cut trees, maxmaxflow, cocycle machinery, cut pairs."""
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import flow_oracle
from flow_oracle import flow_graphs, maxmaxflow_blockwise
from maxmaxflow import flowcut
from maxmaxflow.bounds import run_suite
from maxmaxflow.invariants import inequality_chain
from maxmaxflow.graph import (
    WeightedMultigraph,
    cycle_graph,
    disjoint_union,
    k2_multi,
    path_graph,
    random_multigraph,
    star_graph,
    theta_graph,
)
from maxmaxflow.flowcut import (
    cocycle_of,
    cut_pair,
    cut_tree,
    cut_weight,
    cocycle_basis_from_tree,
    elementary_cocycle,
    lambda_tilde_bruteforce,
    max_flow,
    maxmaxflow,
)


def _min_cut_brute(g, x, y):
    """Oracle: minimum over all vertex bipartitions separating x from y."""
    others = [v for v in g.vertices if v not in (x, y)]
    best = None
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            side = {x, *extra}
            w = sum((e.w for e in g.edges if (e.u in side) != (e.v in side)), F(0))
            if best is None or w < best:
                best = w
    return best


# -- max flow -------------------------------------------------------------


def test_max_flow_path():
    g = path_graph(4, weights=F(3, 2))
    cert = max_flow(g, 1, 4)
    assert cert.value == F(3, 2)


def test_max_flow_parallel():
    g = k2_multi(3, total=F(2))
    assert max_flow(g, 1, 2).value == F(2)


def test_max_flow_disconnected_zero():
    g = WeightedMultigraph(3, [(1, 2, F(1))])
    cert = max_flow(g, 1, 3)
    assert cert.value == 0 and not cert.cut_edges


def test_max_flow_certificate_is_cut():
    rng = random.Random(7)
    for _ in range(50):
        g = random_multigraph(rng, rng.randint(2, 7), 0.5, max_multiplicity=3)
        x, y = rng.sample(list(g.vertices), 2)
        cert = max_flow(g, x, y)
        assert x in cert.side and y not in cert.side
        assert cut_weight(g, cert.side) == cert.value
        assert cert.value == _min_cut_brute(g, x, y)


def test_max_flow_cancels_flow_on_an_edge():
    # Dinic without the reverse residual of pushed flow stops at 12 here
    g = WeightedMultigraph.parse(
        "v 8\ne 1 5 1\ne 3 8 13\ne 1 6 1\ne 8 2 13\ne 4 3 1\ne 1 5 2\n"
        "e 4 1 8\ne 1 6 13\ne 2 4 1\ne 5 8 3\ne 4 6 5\ne 3 5 8\n"
    )
    cert = max_flow(g, 5, 2)
    assert cert.value == 13 == _min_cut_brute(g, 5, 2)
    assert (cert.value, cert.side, cert.cut_edges) == flow_oracle.max_flow(g, 5, 2)


def test_max_flow_same_endpoints_rejected():
    with pytest.raises(ValueError):
        max_flow(path_graph(2), 1, 1)


# -- cut tree -------------------------------------------------------------


def _check_cut_tree(g, t):
    vs = sorted(g.vertices)
    # (a) bottleneck along the tree path equals the pairwise max-flow
    for x, y in itertools.combinations(vs, 2):
        assert t.bottleneck(x, y) == max_flow(g, x, y).value
    # (b) each tree edge induces a bipartition whose cut weight in g equals
    # the tree edge weight
    for u, v, w in t.edges:
        side = t.split(u, v)
        assert cut_weight(g, side) == w


def test_cut_tree_small_named():
    for g in [path_graph(4), cycle_graph(5), star_graph(4), k2_multi(3), theta_graph(4, F(1, 3))]:
        _check_cut_tree(g, cut_tree(g))


def test_cut_tree_random():
    rng = random.Random(13)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 7), 0.5, max_multiplicity=3)
        _check_cut_tree(g, cut_tree(g))


def test_cut_tree_disconnected():
    g = disjoint_union([cycle_graph(3), path_graph(2)])
    t = cut_tree(g)
    assert t.bottleneck(1, 4) == 0
    _check_cut_tree(g, t)


# -- maxmaxflow -----------------------------------------------------------


def test_maxmaxflow_named():
    # cycle: max edge weight + min edge weight
    g = WeightedMultigraph(4, [(1, 2, F(3)), (2, 3, F(1)), (3, 4, F(2)), (4, 1, F(5))])
    assert maxmaxflow(g) == F(6)
    # star: heaviest spoke
    assert maxmaxflow(star_graph(5, weights=F(2))) == F(2)
    # parallel bundle: total weight
    assert maxmaxflow(k2_multi(4)) == F(4)


def _theta_lambda(r, w):
    """Closed form for the generalized theta graph with one weight-w edge and
    unit weights on each of r paths of lengths 1..r."""
    if w <= F(1, r - 1):
        return 1 + w
    if w <= 1:
        return r * w
    return r - 1 + w


def test_maxmaxflow_theta_piecewise():
    for r in range(2, 6):
        for w in [F(1, 10), F(1, r - 1), F(1, 2), F(1), F(3)]:
            assert maxmaxflow(theta_graph(r, w)) == _theta_lambda(r, w)


def test_maxmaxflow_undefined_below_two_vertices():
    with pytest.raises(ValueError):
        maxmaxflow(WeightedMultigraph(1, []))


def test_maxmaxflow_all_singletons():
    assert maxmaxflow(WeightedMultigraph(3, [])) == 0


def test_maxmaxflow_brute_agreement():
    rng = random.Random(17)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(2, 7), 0.5, max_multiplicity=3)
        lam = maxmaxflow(g)
        assert lam == maxmaxflow_blockwise(g)
        assert lam == max(
            max_flow(g, x, y).value for x, y in itertools.combinations(sorted(g.vertices), 2)
        )


# -- cocycles and the greedy cocycle invariant ----------------------------


def _spanning_tree_pairs(g):
    seen = {1}
    pairs = []
    stack = [1]
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                pairs.append((u, v))
                stack.append(v)
    return pairs


def test_elementary_cocycles_span_all_cocycles():
    rng = random.Random(19)
    done = 0
    while done < 30:
        g = random_multigraph(rng, rng.randint(2, 6), 0.6, max_multiplicity=3)
        if len(g.components()) != 1:
            continue
        done += 1
        pairs = _spanning_tree_pairs(g)
        basis = cocycle_basis_from_tree(g, pairs)  # independence checked inside
        assert len(basis) == g.n - 1
        pivots = []
        for c in basis:
            vec = sum(1 << i for i in c.edge_ids)
            for p in pivots:
                vec = min(vec, vec ^ p)
            assert vec
            pivots.append(vec)
        # every cocycle reduces to zero against the basis
        vs = sorted(g.vertices)
        for mask in range(1, 1 << (g.n - 1)):
            side = {vs[0]} | {vs[i + 1] for i in range(g.n - 1) if mask >> i & 1}
            vec = sum(1 << i for i in cocycle_of(g, side).edge_ids)
            for p in pivots:
                vec = min(vec, vec ^ p)
            assert vec == 0


def test_elementary_cocycle_weight_is_cut_weight():
    g = cycle_graph(4)
    pairs = [(1, 2), (2, 3), (3, 4)]
    c = elementary_cocycle(g, pairs, 1)
    assert c.weight == cut_weight(g, c.side)
    assert len(c.edge_ids) == 2


def _lambda_tilde_oracle(g):
    """Oracle: greedy scan of all cocycles in increasing (weight, mask) order,
    keeping GF(2)-independent ones; answer is the heaviest kept."""
    best = F(0)
    for comp in g.components():
        vs = sorted(comp)
        if len(vs) < 2:
            continue
        eids = [e.id for e in g.edges if e.u in comp]
        cocs = []
        # sides containing vs[0]; the full component (empty cocycle) excluded
        for mask in range((1 << (len(vs) - 1)) - 1):
            side = {vs[0]} | {vs[i + 1] for i in range(len(vs) - 1) if mask >> i & 1}
            em = 0
            w = F(0)
            for i in eids:
                e = g.edges[i]
                if (e.u in side) != (e.v in side):
                    em |= 1 << i
                    w += e.w
            cocs.append((w, em))
        cocs.sort()
        pivots = []
        comp_best = F(0)
        for w, em in cocs:
            v = em
            changed = True
            while changed:
                changed = False
                for p in pivots:
                    if v ^ p < v:
                        v ^= p
                        changed = True
            if v:
                pivots.append(v)
                comp_best = w
                if len(pivots) == len(vs) - 1:
                    break
        best = max(best, comp_best)
    return best


def test_lambda_tilde_matches_oracle_and_lambda():
    rng = random.Random(23)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 6), 0.5, max_multiplicity=3)
        lt = lambda_tilde_bruteforce(g)
        assert lt == _lambda_tilde_oracle(g)
        assert lt == maxmaxflow(g)


# -- cut pairs ------------------------------------------------------------


def _check_cut_pair(g, X, cp):
    X = set(X)
    assert cp.x1 != cp.x2 and {cp.x1, cp.x2} <= X
    assert not (cp.side1 & cp.side2)
    lam = maxmaxflow(g)
    for xi, side, wi in [(cp.x1, cp.side1, cp.weight1), (cp.x2, cp.side2, cp.weight2)]:
        assert X & side == {xi}
        assert wi == cut_weight(g, side)
        assert wi <= lam


def test_cut_pair_basic():
    g = path_graph(5)
    cp = cut_pair(g, {1, 3, 5})
    _check_cut_pair(g, {1, 3, 5}, cp)


def test_cut_pair_cross_component():
    g = disjoint_union([cycle_graph(3), cycle_graph(3)])
    cp = cut_pair(g, {1, 4})
    assert cp.weight1 == cp.weight2 == 0
    _check_cut_pair(g, {1, 4}, cp)


def test_cut_pair_too_small_rejected():
    with pytest.raises(ValueError):
        cut_pair(path_graph(3), {2})


def test_cut_pair_random():
    rng = random.Random(29)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(3, 7), 0.5, max_multiplicity=2)
        X = set(rng.sample(list(g.vertices), rng.randint(2, 3)))
        cp = cut_pair(g, X)
        _check_cut_pair(g, X, cp)
        # each side is a cut separating its member from the other, so its
        # weight is at least the pairwise max-flow
        mf = max_flow(g, cp.x1, cp.x2).value
        assert cp.weight1 >= mf and cp.weight2 >= mf


# -- the Dinic engine against the reference routes ------------------------


@settings(max_examples=200, deadline=None)
@given(flow_graphs())
def test_engine_equals_oracle(g):
    assert list(cut_tree(g).edges) == flow_oracle.cut_tree_edges(g)
    for x, y in itertools.permutations(g.vertices, 2):
        cert = max_flow(g, x, y)
        assert (cert.value, cert.side, cert.cut_edges) == flow_oracle.max_flow(g, x, y)
    assert maxmaxflow(g) == maxmaxflow_blockwise(g) == flow_oracle.maxmaxflow(g)


# at the flow benchmark's scale (n 20-70, about 0.6 edges per vertex pair),
# where the contracted nodes hold many vertices
@pytest.mark.parametrize("n", [20, 35, 50, 70])
def test_engine_equals_oracle_at_scale(n):
    rng = random.Random(f"flow-scale:{n}")
    g = flow_oracle.scale_graph(rng, n, round(0.3 * n * (n - 1)))
    assert list(cut_tree(g).edges) == flow_oracle.cut_tree_edges(g)
    for x, y in (rng.sample(range(1, n + 1), 2) for _ in range(3)):
        cert = max_flow(g, x, y)
        assert (cert.value, cert.side, cert.cut_edges) == flow_oracle.max_flow(g, x, y)


@st.composite
def split_networks(draw):
    """(k, arcs, split, s, t): one arc per node pair, and the same network with
    every arc cut into 1-3 parallel arcs of either direction whose
    capacities, zeros included, sum to the original's."""
    k = draw(st.integers(2, 7))
    s, t = draw(st.permutations(range(k)))[:2]
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(k), 2))), unique=True))
    arcs = [(a, b, draw(st.integers(0, 6))) for a, b in pairs]
    split = []
    for a, b, c in arcs:
        cuts = sorted(draw(st.lists(st.integers(0, c), max_size=2)))
        for lo, hi in zip([0, *cuts], [*cuts, c]):
            split.append((b, a, hi - lo) if draw(st.booleans()) else (a, b, hi - lo))
    return k, arcs, draw(st.permutations(split)), s, t


# splitting an arc into parallel arcs changes no cut, so neither the flow nor
# the minimal source side, which the cut tree's splits are read from
@settings(max_examples=300, deadline=None)
@given(split_networks())
def test_dinic_ignores_how_capacities_split_into_parallel_arcs(net):
    k, arcs, split, s, t = net
    flow, level = flowcut._dinic(*flowcut._network(k, arcs), s, t)
    split_flow, split_level = flowcut._dinic(*flowcut._network(k, split), s, t)
    assert split_flow == flow
    assert {v for v in range(k) if split_level[v] >= 0} == {v for v in range(k) if level[v] >= 0}


def _augment_at_random(adj, head, res, s, t, rng):
    """Push flow from s to t along random residual paths, each by a random
    amount that is often the whole bottleneck, and return the flow pushed."""
    pushed = 0
    for _ in range(rng.randrange(12)):
        into = {s: -1}  # node -> residual arc that first reached it
        stack = [s]
        while stack and t not in into:
            u = stack.pop()
            arcs = [i for i in adj[u] if res[i] and head[i] not in into]
            rng.shuffle(arcs)
            for i in arcs:
                into.setdefault(head[i], i)
                stack.append(head[i])
        if t not in into:
            break
        path, v = [], t
        while v != s:
            path.append(into[v])
            v = head[into[v] ^ 1]
        bottleneck = min(res[i] for i in path)
        f = bottleneck if rng.random() < 0.5 else rng.randint(1, bottleneck)
        for i in path:
            res[i] -= f
            res[i ^ 1] += f
        pushed += f
    return pushed


# Dinic may start from any feasible flow, as the warm start's does: the
# total and the minimal source side are those of a start from zero, also
# when the flow already saturates every arc out of s
@settings(max_examples=300, deadline=None)
@given(split_networks(), st.randoms(use_true_random=False))
def test_dinic_from_any_feasible_flow_equals_dinic_from_zero(net, rng):
    k, _, arcs, s, t = net
    adj, head, cap = flowcut._network(k, arcs)
    flow, level = flowcut._dinic(adj, head, cap[:], s, t)
    res = cap[:]
    pushed = _augment_at_random(adj, head, res, s, t, rng)
    added, warm_level = flowcut._dinic(adj, head, res, s, t)
    assert pushed + added == flow
    assert {v for v in range(k) if warm_level[v] >= 0} == {v for v in range(k) if level[v] >= 0}


# -- one cut tree per graph -----------------------------------------------


@pytest.fixture
def tree_builds(monkeypatch):
    """(graph, component) of every call to the uncached cut-tree builder."""
    calls = []
    build = flowcut._component_cut_tree

    def counted(g, comp):
        calls.append((g, comp))
        return build(g, comp)

    monkeypatch.setattr(flowcut, "_component_cut_tree", counted)
    return calls


def test_cut_tree_built_once_per_component(tree_builds):
    g = disjoint_union([theta_graph(3, F(1, 2)), k2_multi(2), path_graph(1)])
    inequality_chain(g)
    tree = cut_tree(g)
    cut_pair(g, {1, 3, 4})
    lam = maxmaxflow(g)
    assert [comp for _, comp in tree_builds] == [c for c in g.components() if len(c) >= 2]
    assert lam == max(w for _, _, w in tree.edges)
    # the memo takes no part in equality or hashing
    fresh = WeightedMultigraph(g.n, [(e.u, e.v, e.w) for e in g.edges])
    assert fresh == g and hash(fresh) == hash(g)


def test_run_suite_builds_each_tree_once(tree_builds):
    g = theta_graph(3, F(1, 3))
    results = run_suite(g, 4, X={1, 2}, Y={3}, eid=0)
    assert {r.bound_id for r in results} >= {"cor4.4", "cor7.5", "cor7.13"}
    assert [comp for h, comp in tree_builds if h is g] == [frozenset(g.vertices)]
    # G - e is built once too, for both through-edge bounds
    assert len(tree_builds) == 2
