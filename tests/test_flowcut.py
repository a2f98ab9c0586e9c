"""Exact max-flow, cut trees, maxmaxflow, LambdaTilde, cut pairs."""
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import flow_oracle
import fraction_oracle
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
    Cocycle,
    cocycle_of,
    cut_pair,
    cut_tree,
    lambda_tilde,
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
        assert cocycle_of(g, cert.side) == cert  # Dinic's value weighs the edges its side cuts
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


# the graph's own check, with the message every layer gives
def test_vertex_outside_the_graph_is_named():
    g = cycle_graph(3)
    for call in (lambda: max_flow(g, 1, 9), lambda: cut_pair(g, [1, 9]), lambda: g.weighted_degree(9)):
        with pytest.raises(ValueError, match=r"^vertex 9 outside 1\.\.3$"):
            call()


# 1.0 equals the vertex 1 and hashes alike, but is no vertex
def test_non_int_vertex_is_named():
    g = cycle_graph(3)
    for call in (lambda: max_flow(g, 1.0, 2), lambda: cut_pair(g, [1.0, 2]), lambda: g.weighted_degree(1.0)):
        with pytest.raises(ValueError, match=r"^vertex 1\.0 outside 1\.\.3$"):
            call()


# -- cut tree -------------------------------------------------------------


def _check_cut_tree(g, t):
    vs = sorted(g.vertices)
    # (a) bottleneck along the tree path equals the pairwise max-flow
    for x, y in itertools.combinations(vs, 2):
        assert t.bottleneck(x, y) == max_flow(g, x, y).value
    # (b) each tree edge induces a bipartition whose cut weight in g equals
    # the tree edge weight
    for u, v, w in t.edges:
        assert cocycle_of(g, t.split(u, v)).value == w


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


def _tree_side(tree, start, banned):
    """The vertices that tree edge number `banned`'s removal leaves with start."""
    side, stack = {start}, [start]
    while stack:
        for v, k in tree[stack.pop()]:
            if k != banned and v not in side:
                side.add(v)
                stack.append(v)
    return side


def _check_cut_sums(g):
    """A certificate of the cut tree that shares no code with the max flow or
    the contraction: the tree spans V(g); removing any tree edge leaves two
    sides joined in g's pair table by exactly the edge's weight; and the
    heaviest edge is Λ."""
    edges = cut_tree(g).edges
    tree = {v: [] for v in g.vertices}
    for k, (u, v, _) in enumerate(edges):
        tree[u].append((v, k))
        tree[v].append((u, k))
    assert len(edges) == g.n - 1 and _tree_side(tree, 1, None) == set(g.vertices)
    A, L = g.pair_weights()
    for k, (u, _, w) in enumerate(edges):
        side = _tree_side(tree, u, k)
        assert F(sum(c for a in side for b, c in A[a].items() if b not in side), L) == w
    assert max(w for _, _, w in edges) == maxmaxflow(g)


@pytest.mark.parametrize("n", [20, 35, 50, 70])
def test_cut_sums_certify_the_tree_at_scale(n):
    g = flow_oracle.scale_graph(random.Random(f"flow-cut-sums:{n}"), n, round(0.6 * n * (n - 1) / 2))
    _check_cut_sums(g)


@settings(max_examples=200, deadline=None)
@given(flow_graphs())
def test_cut_sums_certify_the_tree(g):
    _check_cut_sums(g)


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


# -- LambdaTilde: the cut tree's fundamental cocycles ---------------------


def _fundamental_cocycles(g):
    """(label, cocycle of the side) for each edge of each component's cut
    tree: the basis that `lambda_tilde` reads."""
    out = []
    for comp, edges in flowcut._cut_trees(g).items():
        tree = flowcut.CutTree(comp, edges)
        out += [(w, cocycle_of(g, tree.split(u, v))) for u, v, w in edges]
    return out


def _gf2_rank(masks):
    """Rank over GF(2) of edge-id masks, by elimination on their top bits."""
    rows = {}
    for vec in masks:
        while vec and vec.bit_length() in rows:
            vec ^= rows[vec.bit_length()]
        if vec:
            rows[vec.bit_length()] = vec
    return len(rows)


def _mask(cocycle):
    return sum(1 << i for i in cocycle.cut_edges)


def _check_fundamental_basis(g):
    """Each fundamental cocycle weighs its tree label, the n - c of them are
    independent, and the heaviest is both LambdaTilde and Lambda."""
    basis = _fundamental_cocycles(g)
    assert all(c.value == w for w, c in basis)
    rank = g.n - len(g.components())
    assert len(basis) == rank == _gf2_rank(_mask(c) for _, c in basis)
    assert lambda_tilde(g) == max((w for w, _ in basis), default=F(0)) == maxmaxflow(g)
    return basis


# the flow benchmark's cells, alone and with isolated vertices and a second
# component added
@pytest.mark.parametrize("n,m", [(8, 20), (16, 70), (32, 300), (70, 1600)])
def test_fundamental_cocycles_are_a_basis_at_scale(n, m):
    rng = random.Random(f"fundamental-cocycles:{n}")
    g = flow_oracle.scale_graph(rng, n, m)
    _check_fundamental_basis(g)
    h = flow_oracle.scale_graph(rng, n // 2, m // 4)
    _check_fundamental_basis(disjoint_union([path_graph(1), g, path_graph(1), h, path_graph(1)]))


@settings(max_examples=200, deadline=None)
@given(st.lists(flow_graphs(), min_size=1, max_size=3), st.integers(0, 3))
def test_fundamental_cocycles_are_a_basis(parts, isolated):
    _check_fundamental_basis(disjoint_union([*parts, *[path_graph(1)] * isolated]))


def test_elementary_cocycles_span_all_cocycles():
    rng = random.Random(19)
    # first a graph where a spanning tree of V(g) through both components
    # gives dependent cuts; the cut trees, one per component, give rank n - c
    graphs = [WeightedMultigraph(3, [(1, 2, F(1))])]
    graphs += [random_multigraph(rng, rng.randint(2, 6), 0.6, max_multiplicity=3) for _ in range(30)]
    for g in graphs:
        masks = [_mask(c) for _, c in _check_fundamental_basis(g)]
        rank = len(masks)
        # every cocycle reduces to zero against the basis
        vs = sorted(g.vertices)
        for bits in range(1 << (g.n - 1)):
            side = {vs[0]} | {vs[i + 1] for i in range(g.n - 1) if bits >> i & 1}
            assert _gf2_rank([*masks, _mask(cocycle_of(g, side))]) == rank
    assert [c for _, c in _fundamental_cocycles(graphs[0])] == [Cocycle(frozenset({1}), frozenset({0}), F(1))]


def test_lambda_tilde_matches_oracle_and_lambda():
    rng = random.Random(23)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 6), 0.5, max_multiplicity=3)
        lt = lambda_tilde(g)
        assert lt == fraction_oracle.lambda_tilde(g)
        assert lt == maxmaxflow(g)


def test_lambda_tilde_undefined_below_two_vertices():
    with pytest.raises(ValueError, match="^requires at least two vertices$"):
        lambda_tilde(WeightedMultigraph(1, []))


# -- cut pairs ------------------------------------------------------------


def _check_cut_pair(g, X, cp):
    X = set(X)
    assert cp.x1 != cp.x2 and {cp.x1, cp.x2} <= X
    assert not (cp.cut1.side & cp.cut2.side)
    lam = maxmaxflow(g)
    for xi, cut in [(cp.x1, cp.cut1), (cp.x2, cp.cut2)]:
        assert X & cut.side == {xi}
        assert cut == cocycle_of(g, cut.side)
        assert cut.value <= lam


def test_cut_pair_basic():
    g = path_graph(5)
    cp = cut_pair(g, {1, 3, 5})
    _check_cut_pair(g, {1, 3, 5}, cp)


def test_cut_pair_cross_component():
    g = disjoint_union([cycle_graph(3), cycle_graph(3)])
    cp = cut_pair(g, {1, 4})
    assert cp.cut1.value == cp.cut2.value == 0
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
        assert cp.cut1.value >= mf and cp.cut2.value >= mf


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
# where the contracted nodes hold many vertices; and on dense graphs (2.4
# edges per pair) with 3 weights in 8 zero, where many arcs carry nothing and
# the warm start settles most splits
DENSE_WEIGHTS = [F(0), F(0), F(0), F(1), F(2), F(1, 2), F(2, 3), F(5, 2)]


@pytest.mark.parametrize("seed,n,per_pair,weights", [
    *(pytest.param(f"flow-scale:{n}", n, 0.6, flow_oracle.SCALE_WEIGHTS, id=str(n)) for n in (20, 35, 50, 70)),
    *(pytest.param(f"flow-dense:{n}", n, 2.4, DENSE_WEIGHTS, id=f"dense-zeros-{n}") for n in (12, 30, 48)),
])
def test_engine_equals_oracle_at_scale(seed, n, per_pair, weights):
    rng = random.Random(seed)
    g = flow_oracle.scale_graph(rng, n, round(per_pair * n * (n - 1) / 2), weights)
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
    flow, level = flowcut._dinic(*flowcut._network(k, arcs), s, t, k)
    split_flow, split_level = flowcut._dinic(*flowcut._network(k, split), s, t, k)
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
    flow, level = flowcut._dinic(adj, head, cap[:], s, t, k)
    res = cap[:]
    pushed = _augment_at_random(adj, head, res, s, t, rng)
    added, warm_level = flowcut._dinic(adj, head, res, s, t, k)
    assert pushed + added == flow
    assert {v for v in range(k) if warm_level[v] >= 0} == {v for v in range(k) if level[v] >= 0}


@st.composite
def contracted_networks(draw):
    """(adj, to, cap, s, t, labels) as a cut-tree split builds them: a
    network on nodes 0..k-1, with parallel arcs and zero capacities, whose
    nodes other than s and t may be merged into markers numbered from k.  A
    marker's arc list is its members' lists joined, an arc between two of
    its members lies inside it, and a node or marker may have no arcs.
    `labels` holds the unmerged nodes and the markers."""
    k = draw(st.integers(2, 9))
    s, t = draw(st.permutations(range(k)))[:2]
    ends = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(0, 6))
    arcs = [(a, b, c) for a, b, c in draw(st.lists(ends, max_size=30)) if a != b]
    adj, head, cap = flowcut._network(k, arcs)
    markers = range(k, k + draw(st.integers(0, 3)))
    vmap = [v if v in (s, t) else draw(st.sampled_from([v, *markers])) for v in range(k)]
    marker_arcs = [[i for v in range(k) if vmap[v] == m for i in adj[v]] for m in markers]
    labels = {v for v in range(k) if vmap[v] == v} | set(markers)
    return adj + marker_arcs, [vmap[h] for h in head], cap, s, t, labels


# the warm start's paths through merged labels leave the flow and the reached
# set of a full search: shortest augmenting paths on the labels' summed
# capacities, with the arcs inside a label dropped
@settings(max_examples=400, deadline=None)
@given(contracted_networks())
def test_dinic_on_contracted_networks_equals_a_full_search(net):
    adj, to, cap, s, t, labels = net
    summed: dict[tuple[int, int], int] = {}
    for i, c in enumerate(cap):
        a, b = to[i ^ 1], to[i]
        if a != b:
            summed[(a, b)] = summed.get((a, b), 0) + c
    flow, level = flowcut._dinic(adj, to, cap, s, t, len(labels))
    assert (flow, {v for v in labels if level[v] >= 0}) == flow_oracle._min_cut_int(labels, summed, s, t)


# the warm start sends s -> u -> w -> t first; the maximum flow then sends
# two units back across w - u (s -> x -> w -> u -> y -> t), which needs the
# middle arc's reverse residual to count the unit the warm start pushed
def test_three_arc_warm_start_leaves_its_middle_arc_cancellable():
    s, t, u, w, x, y = range(6)
    arcs = [(s, u, 1), (u, w, 1), (w, t, 1), (s, x, 2), (x, w, 2), (u, y, 2), (y, t, 2)]
    flow, level = flowcut._dinic(*flowcut._network(6, arcs), s, t, 6)
    assert flow == 3 and [v for v in range(6) if level[v] >= 0] == [s]


# the three-arc pass stops once no arc into t is open: its first path here
# saturates t's one arc, and the arcs of the other middle nodes are never read
def test_three_arc_warm_start_stops_once_no_arc_into_t_is_open(monkeypatch):
    s, t, w, first, *others = range(8)
    arcs = [(s, u, 1) for u in (first, *others)] + [(first, w, 1), (w, t, 1)]
    arcs += [(u, v, 1) for u, v in itertools.combinations(others, 2)]
    adj, head, cap = flowcut._network(8, arcs)
    read: set[int] = set()

    class Watched(list):
        def __getitem__(self, i):
            read.add(i)
            return list.__getitem__(self, i)

    warm_start_reads = []
    source_side = flowcut._source_side

    def after_the_warm_start(*args):
        warm_start_reads.append(set(read))
        return source_side(*args)

    monkeypatch.setattr(flowcut, "_source_side", after_the_warm_start)
    flow, _ = flowcut._dinic(adj, Watched(head), cap, s, t, 8)
    assert flow == 1 and len(warm_start_reads) == 1
    assert not warm_start_reads[0] & {i for u in others for i in adj[u]}


@pytest.fixture
def dinic_phases(monkeypatch):
    """The number of blocking-flow phases of each `_dinic` call."""
    calls: list[int] = []
    dinic, blocking_flow = flowcut._dinic, flowcut._blocking_flow

    def counted_dinic(*args):
        calls.append(0)
        return dinic(*args)

    def counted_blocking_flow(*args):
        calls[-1] += 1
        return blocking_flow(*args)

    monkeypatch.setattr(flowcut, "_dinic", counted_dinic)
    monkeypatch.setattr(flowcut, "_blocking_flow", counted_blocking_flow)
    return calls


# on a dense graph most splits are settled by the warm start's paths of one
# to three arcs, and run no blocking-flow phase
def test_most_cut_tree_splits_run_no_phase(dinic_phases):
    g = flow_oracle.scale_graph(random.Random("flow-phases"), 40, 780)
    cut_tree(g)
    assert len(dinic_phases) == 39
    assert sum(1 for phases in dinic_phases if phases) < len(dinic_phases) / 2


@pytest.fixture
def network_builds(monkeypatch):
    """The supernode of each network `_component_cut_tree` builds, not reuses."""
    calls: list[int] = []
    contract = flowcut._contract

    def counted(n, adj, head, nodes, tadj, idx):
        calls.append(idx)
        return contract(n, adj, head, nodes, tadj, idx)

    monkeypatch.setattr(flowcut, "_contract", counted)
    return calls


# a split that cuts off y alone, with every hanging subtree on x's side,
# leaves the next split of the same supernode its network: on a dense graph
# most splits run on the network of the split before
def test_most_cut_tree_splits_reuse_the_last_network(dinic_phases, network_builds):
    g = flow_oracle.scale_graph(random.Random("flow-phases"), 40, 780)
    assert list(cut_tree(g).edges) == flow_oracle.cut_tree_edges(g)
    assert len(dinic_phases) == 39
    assert len(dinic_phases) - len(network_builds) > 39 / 2


@pytest.fixture
def last_searches(monkeypatch):
    """(arcs scanned, arcs in the network) of each search `_dinic` ends with
    once the sink is closed; an arc is scanned when its residual is read."""
    calls: list[tuple[int, int]] = []
    source_side = flowcut._source_side

    class Scanned(list):
        reads = 0

        def __getitem__(self, i):
            self.reads += 1
            return list.__getitem__(self, i)

    def counted(adj, to, res, s, goal):
        scanned = Scanned(res)
        side = source_side(adj, to, scanned, s, goal)
        calls.append((scanned.reads, len(to)))
        return side

    monkeypatch.setattr(flowcut, "_source_side", counted)
    return calls


# once the sink is closed, the last search stops as soon as it has reached
# every live node but the sink: on a dense graph, long before it has read
# the arcs out of every reached node, which is all but the sink's
def test_most_cut_tree_splits_end_with_a_short_search(last_searches):
    g = flow_oracle.scale_graph(random.Random("flow-phases"), 40, 780)
    assert list(cut_tree(g).edges) == flow_oracle.cut_tree_edges(g)
    short = [scanned for scanned, arcs in last_searches if 2 * scanned < arcs]
    assert len(short) > 39 / 2


@st.composite
def graphs_with_isolated_vertices(draw):
    """`flow_graphs` with 1-4 isolated vertices added and the vertices
    shuffled, so that a max-flow network holds nodes that no flow reaches."""
    g = draw(flow_graphs())
    n = g.n + draw(st.integers(1, 4))
    new = draw(st.permutations(range(1, n + 1)))
    return WeightedMultigraph(n, [(new[e.u - 1], new[e.v - 1], e.w) for e in g.edges])


# max_flow passes every vertex as live, so a search never stops early here:
# isolated vertices and other components are never reached
@settings(max_examples=150, deadline=None)
@given(graphs_with_isolated_vertices())
def test_engine_equals_oracle_with_isolated_vertices(g):
    assert len(g.components()) >= 2
    assert list(cut_tree(g).edges) == flow_oracle.cut_tree_edges(g)
    for x, y in itertools.permutations(g.vertices, 2):
        cert = max_flow(g, x, y)
        assert (cert.value, cert.side, cert.cut_edges) == flow_oracle.max_flow(g, x, y)


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
