"""Exact max-flow / min-cut, cut trees, maxmaxflow and LambdaTilde.

All computations are exact over the rationals.  Flows are computed on the
graph's pair table (`WeightedMultigraph.pair_weights`: the parallel edges
of each pair summed once, every weight times L) and divided by L once per
reported value.  Every cut E(X, X^c) is a `Cocycle`, the minimum cuts of
`max_flow` included, and `cocycle_of` weighs a side on the edges
themselves.  `_network` turns the pairs into arc arrays, the one place arcs
are built; Dinic's blocking-flow algorithm runs on them after a warm start
that saturates the source's paths of one, two and three arcs to the sink,
which leaves most cut-tree splits without a phase.  Once no residual arc
enters the sink, the last search for the source side stops as soon as it
has reached every live node but the sink, a count the caller passes in.
Each graph's cut tree is built once and memoised on the graph, and each
component's tree runs all its splits on one set of arcs, contracting nodes
by relabelling the arcs' heads instead of rebuilding the arcs.  A split
that cuts off the sink alone leaves the contracted network to the next
split, which reuses it.  LambdaTilde is the heaviest of the tree's
fundamental cocycles, each weighed by `cocycle_of`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import WeightedMultigraph, bfs_path, bfs_tree


@dataclass(frozen=True)
class Cocycle:
    """The cut E(X, X^c) of a vertex side X: its edge ids and total weight.

    `max_flow` returns one as its minimum cut, `cocycle_of` weighs any side,
    `lambda_tilde` weighs the cut tree's fundamental ones, and `CutPair`
    holds two.
    """

    side: frozenset[int]
    cut_edges: frozenset[int]
    value: Fraction


def cocycle_of(g: WeightedMultigraph, side: Iterable[int]) -> Cocycle:
    s = frozenset(side)
    eids = frozenset(e.id for e in g.edges if (e.u in s) != (e.v in s))
    return Cocycle(s, eids, sum((g.edges[i].w for i in eids), Fraction(0)))


def _network(k: int, arcs: Iterable[tuple[int, int, int]]) -> tuple[list[list[int]], list[int], list[int]]:
    """The arc arrays of the undirected arcs (a, b, c) of capacity c over
    nodes 0..k-1: arc i runs head[i ^ 1] -> head[i] with capacity cap[i],
    arcs i and i ^ 1 are the two directions of one input arc, and adj[u]
    lists the arcs out of u.  Parallel arcs are allowed, since splitting an
    arc into parallel ones changes no cut.
    """
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b, c in arcs:
        adj[a].append(len(head))
        adj[b].append(len(head) + 1)
        head += (b, a)
        cap += (c, c)
    return adj, head, cap


def _dinic(
    adj: list[list[int]], to: list[int], res: list[int], s: int, t: int, live: int
) -> tuple[int, list[int]]:
    """Dinic max flow from s to t over the arcs of `_network`, with arc i
    running into to[i] and residual capacity res[i], which is updated in
    place.  The flow may start from any feasible flow that `res` already
    holds; the flow added to it is returned.  An arc whose ends have one
    label, as in a contracted node, is never taken.  A warm start first
    saturates the arcs s -> t, then the paths s -> u -> t and then the
    paths s -> u -> w -> t, until no arc into t is left open.

    Returns the added flow and a list over the nodes from the last search,
    the one that fails to reach t: the nodes where it is >= 0 are those
    reachable from s in the final residual network, which is the minimal
    source side of a minimum cut whichever maximum flow was found.

    `live` is at least the number of nodes that can be reached, s and t
    included: s and every label that heads an arc.  Once t is closed, with
    no residual arc into it, the flow is maximum, and the last search
    (`_source_side`) stops as soon as it has reached live - 1 nodes, every
    live node but t, since no node is left to find.  Otherwise the last
    search is a BFS that finds t out of reach.
    """
    k = len(adj)
    # into_t[w] and from_s[u] list the arcs w -> t and s -> u as current-arc
    # lists: an arc is popped once saturated, so each pass scans an arc once
    into_t: dict[int, list[int]] = {}
    for j in adj[t]:
        if res[j ^ 1]:
            into_t.setdefault(to[j], []).append(j ^ 1)
    into_t.pop(s, None)  # the arcs s -> t, saturated below
    open_into_t = sum(map(len, into_t.values()))  # no path is left once it is 0
    from_s: dict[int, list[int]] = {}  # the arcs s -> u still open after s -> u -> t
    flow = 0
    for i in adj[s]:
        u = to[i]
        if u == t:
            flow += res[i]
            res[i ^ 1] += res[i]
            res[i] = 0
            continue
        lasts = into_t.get(u)
        while res[i] and lasts:
            j = lasts[-1]
            f = min(res[i], res[j])
            res[i] -= f
            res[i ^ 1] += f
            res[j] -= f
            res[j ^ 1] += f
            flow += f
            if not res[j]:
                lasts.pop()
                open_into_t -= 1
        if res[i]:
            from_s.setdefault(u, []).append(i)
    # an arc inside u needs no test: u's arcs into t are saturated by now
    for u, firsts in from_s.items():
        if not open_into_t:
            break
        for a in adj[u]:
            lasts = into_t.get(to[a])
            while firsts and lasts and res[a]:
                i, j = firsts[-1], lasts[-1]
                f = min(res[i], res[a], res[j])
                res[i] -= f
                res[i ^ 1] += f
                res[a] -= f
                res[a ^ 1] += f
                res[j] -= f
                res[j ^ 1] += f
                flow += f
                if not res[i]:
                    firsts.pop()
                if not res[j]:
                    lasts.pop()
                    open_into_t -= 1
            if not firsts or not open_into_t:
                break
    while True:
        if not any(res[j ^ 1] for j in adj[t]):  # t is closed
            return flow, _source_side(adj, to, res, s, live - 1)
        # BFS levels; dag[u] collects the residual arcs from u to the next
        # level.  Once a node on t's level leaves the queue, every node before
        # that level has been expanded, and no arc from t's level leads to t.
        level = [-1] * k
        level[s] = 0
        dag: list[list[int]] = [[] for _ in range(k)]
        queue = [s]
        for u in queue:
            if level[u] == level[t]:
                break
            nxt = level[u] + 1
            out = dag[u]
            for i in adj[u]:
                if res[i]:
                    lv = level[to[i]]
                    if lv < 0:
                        level[to[i]] = nxt
                        queue.append(to[i])
                        out.append(i)
                    elif lv == nxt:
                        out.append(i)
        if level[t] < 0:
            return flow, level
        flow += _blocking_flow(dag, to, res, s, t)


def _source_side(adj: list[list[int]], to: list[int], res: list[int], s: int, goal: int) -> list[int]:
    """A list that is 0 at the nodes reachable from s over residual arcs and
    -1 elsewhere; the search stops once it has reached `goal` nodes, which
    must be at least the number it can reach."""
    side = [-1] * len(adj)
    side[s] = 0
    queue = [s]
    for u in queue:
        for i in adj[u]:
            if res[i] and side[to[i]] < 0:
                side[to[i]] = 0
                queue.append(to[i])
                if len(queue) == goal:
                    return side
    return side


def _blocking_flow(dag: list[list[int]], to: list[int], res: list[int], s: int, t: int) -> int:
    """Augment along paths of level arcs from s to t until none is left.

    The last arc of dag[u] is u's current arc; saturated arcs and arcs into
    dead ends are popped, so every arc of `path` is the last of its tail's.
    """
    path: list[int] = []
    total = 0
    u = s
    while True:
        if u == t:
            f = min([res[i] for i in path])
            for i in path:
                res[i] -= f
                res[i ^ 1] += f
            total += f
            # resume from the tail of the first saturated arc
            j = next(j for j, i in enumerate(path) if not res[i])
            u = to[path[j] ^ 1]
            del path[j:]
            continue
        arcs = dag[u]
        while arcs and not res[arcs[-1]]:
            arcs.pop()
        if arcs:
            path.append(arcs[-1])
            u = to[arcs[-1]]
        elif u == s:
            return total
        else:  # dead end: retreat and drop the arc that led here
            u = to[path.pop() ^ 1]
            dag[u].pop()


def max_flow(g: WeightedMultigraph, x: int, y: int) -> Cocycle:
    """Exact max flow between two distinct vertices, as the minimum cut that
    certifies it: `value` is Dinic's flow, and `side` the vertices reachable
    from x in the final residual network, so it holds x and not y."""
    if x == y:
        raise ValueError("source and sink must differ")
    g.check_vertices((x, y))
    A, L = g.pair_weights()
    adj, head, cap = _network(g.n + 1, ((u, v, c) for u in A for v, c in A[u].items() if u < v))
    flow, level = _dinic(adj, head, cap, x, y, g.n)
    reach = frozenset(v for v in g.vertices if level[v] >= 0)
    return Cocycle(reach, cocycle_of(g, reach).cut_edges, Fraction(flow, L))


# -- cut trees ------------------------------------------------------------


@dataclass(frozen=True)
class CutTree:
    """A tree on V(G) whose edges carry min-cut values.

    For vertices in the same component of G, the minimum edge weight on the
    tree path equals their max-flow value, and removing any tree edge induces
    a minimum cut between its endpoints.  Components of G are stitched
    together with weight-0 edges so the tree spans V(G).
    """

    vertices: frozenset[int]
    edges: tuple[tuple[int, int, Fraction], ...]

    def adjacency(self) -> dict[int, list[tuple[int, Fraction]]]:
        adj: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def bottleneck(self, x: int, y: int) -> Fraction:
        steps = bfs_path(self.adjacency(), x, y)
        if steps is None:
            raise ValueError("vertices not connected in tree")
        return min(w for _, _, w in steps)

    def split(self, u: int, v: int) -> frozenset[int]:
        """Vertex side containing u after removing tree edge (u, v)."""
        return frozenset(bfs_tree(self.adjacency(), u, banned=(v,)))


def _contract(
    n: int, adj: list[list[int]], head: list[int], nodes: list[set[int]],
    tadj: dict[int, dict[int, Fraction]], idx: int,
) -> tuple[list[list[int]], list[int], dict[int, int]]:
    """The network of a split of supernode idx: (adj, to, marker_of) for
    `_dinic`, where marker_of maps each tree neighbour of idx to the label of
    the subtree hanging off it.  A subtree of one vertex keeps that vertex
    as its label; a larger one becomes a marker, numbered from n + 1, whose
    arc list joins its members' lists and to which `to` relabels their arcs'
    heads.  An arc whose ends land in one marker is never taken.
    """
    marker_of: dict[int, int] = {}
    vmap = list(range(n + 1))
    marker_arcs: list[list[int]] = []
    tree = {i: d.items() for i, d in tadj.items()}
    for nb in tadj[idx]:
        if len(tadj[nb]) == 1 and len(nodes[nb]) == 1:
            marker_of[nb] = next(iter(nodes[nb]))
            continue
        marker = marker_of[nb] = n + 1 + len(marker_arcs)
        arcs: list[int] = []
        for node in bfs_tree(tree, nb, banned=(idx,)):
            for v in nodes[node]:
                vmap[v] = marker
                arcs += adj[v]
        marker_arcs.append(arcs)
    if not marker_arcs:
        return adj, head, marker_of
    return adj + marker_arcs, list(map(vmap.__getitem__, head)), marker_of


def _component_cut_tree(
    g: WeightedMultigraph, comp: frozenset[int]
) -> list[tuple[int, int, Fraction]]:
    """Classical cut-tree construction with contraction of hanging subtrees.

    Each step splits the first supernode holding two vertices x < y, its two
    smallest, by a minimum x-y cut in g with every subtree hanging off the
    supernode contracted to one node (`_contract`).  The split order, (x, y),
    the way the vertex sets are built and the representatives
    `next(iter(nodes[i]))` fix which valid tree comes out; the golden
    `ghtree` output pins it.  The component's arcs are built once from the
    graph's pair table (`_network`), and each split runs Dinic on a fresh
    copy of their capacities, with |S| + neighbours live nodes, which is
    where its last search may stop; the parallel arcs that the contraction
    makes stay apart.

    A split that cuts off y alone, with every neighbour staying on x's side,
    leaves the supernode's hanging subtrees as they were and adds {y} as one
    more, labelled y, so the next split of the same supernode runs on the
    same network.  Any maximum flow, and any labelling of the contracted
    nodes, leaves the same minimal source side, so the tree does not depend
    on which flow Dinic finds.
    """
    A, L = g.pair_weights()
    adj, head, cap = _network(g.n + 1, ((u, v, c) for u in comp for v, c in A[u].items() if u < v))
    # tree over "super nodes"; each node is a set of original vertices
    nodes: list[set[int]] = [set(comp)]
    tadj: dict[int, dict[int, Fraction]] = {0: {}}
    net = None  # the last split's network while the next split can reuse it

    while True:
        idx = next((i for i, s in enumerate(nodes) if len(s) >= 2), None)
        if idx is None:
            break
        S = nodes[idx]
        it = iter(sorted(S))
        x, y = next(it), next(it)

        if net is None:
            net = _contract(g.n, adj, head, nodes, tadj, idx)
        net_adj, to, marker_of = net
        live = len(S) + len(marker_of)
        flow, level = _dinic(net_adj, to, cap[:], x, y, live)
        value = Fraction(flow, L)

        s1 = {v for v in S if level[v] >= 0}
        s2 = S - s1
        new_idx = len(nodes)
        nodes[idx] = s1
        nodes.append(s2)
        old_neighbors = dict(tadj[idx])
        tadj[idx] = {}
        tadj[new_idx] = {}
        for nb, w in old_neighbors.items():
            del tadj[nb][idx]
            target = idx if level[marker_of[nb]] >= 0 else new_idx
            tadj[target][nb] = w
            tadj[nb][target] = w
        tadj[idx][new_idx] = value
        tadj[new_idx][idx] = value
        # the new subtree is y alone, labelled y as `_contract` would label it
        if len(s1) >= 2 and len(s2) == 1 and len(tadj[new_idx]) == 1:
            marker_of[new_idx] = y
        else:
            net = None

    out = []
    for i, nbrs in tadj.items():
        for j, w in nbrs.items():
            if i < j:
                u = next(iter(nodes[i]))
                v = next(iter(nodes[j]))
                out.append((u, v, w))
    return out

def _cut_trees(g: WeightedMultigraph) -> dict[frozenset[int], tuple[tuple[int, int, Fraction], ...]]:
    """Each component's cut tree (empty for a single vertex), in the order of
    `g.components()`; built once per graph and kept in the graph's memo."""
    return g.memo("cut_trees", lambda: {
        comp: tuple(_component_cut_tree(g, comp)) if len(comp) >= 2 else () for comp in g.components()
    })


def cut_tree(g: WeightedMultigraph) -> CutTree:
    """Cut tree of g, built per component and stitched with weight-0 edges."""
    trees = _cut_trees(g)
    edges = [e for tree in trees.values() for e in tree]
    reps = [min(c) for c in trees]
    for a, b in zip(reps, reps[1:]):
        edges.append((a, b, Fraction(0)))
    return CutTree(frozenset(g.vertices), tuple(edges))


# -- maxmaxflow -----------------------------------------------------------


def maxmaxflow(g: WeightedMultigraph) -> Fraction:
    """Maximum over vertex pairs of the max-flow value: the heaviest edge of
    the cut tree.

    Pairs in different components contribute 0.  Undefined on graphs with
    fewer than two vertices.
    """
    if g.n < 2:
        raise ValueError("maxmaxflow requires at least two vertices")
    return max((w for tree in _cut_trees(g).values() for _, _, w in tree), default=Fraction(0))


# -- LambdaTilde ----------------------------------------------------------


def lambda_tilde(g: WeightedMultigraph) -> Fraction:
    """Min over cocycle-space bases of the max basis weight: the heaviest
    fundamental cocycle of the cut trees, each weighed by `cocycle_of`.

    Removing an edge of a component's cut tree leaves a side whose cocycle
    weighs the edge's label, a minimum cut.  These n - c cocycles are a
    basis, and the heaviest of them weighs Lambda.  No basis does better:
    every basis holds a cocycle that separates the ends of the heaviest tree
    edge, since a sum of cocycles that all keep them together keeps them
    together, and that cocycle weighs at least their min cut, Lambda.
    """
    if g.n < 2:
        raise ValueError("requires at least two vertices")
    best = Fraction(0)
    for comp, edges in _cut_trees(g).items():
        tree = CutTree(comp, edges)
        for u, v, _ in edges:
            best = max(best, cocycle_of(g, tree.split(u, v)).value)
    return best


# -- disjoint bounded cuts around a vertex set ----------------------------


@dataclass(frozen=True)
class CutPair:
    x1: int
    cut1: Cocycle
    x2: int
    cut2: Cocycle


def cut_pair(g: WeightedMultigraph, X: Iterable[int]) -> CutPair:
    """Two members x1, x2 of X with the cuts E(X1, X1^c) and E(X2, X2^c) of
    disjoint vertex sets X1, X2 such that X ∩ Xi = {xi} and both cut weights
    are at most maxmaxflow; each cut is `cocycle_of` its side.

    Construction: take the cut tree, restrict to the minimal subtree spanning
    X in a component holding at least two members, and peel off two of its
    end vertices; a pendant tree edge certifies a cut of weight at most the
    largest tree-edge weight.  If every component holds at most one member of
    X, two whole components work with cut weight 0.
    """
    Xs = sorted(set(X))
    if len(Xs) < 2:
        raise ValueError("need at least two vertices in X")
    g.check_vertices(Xs)
    comps = g.components()
    comp_of = {v: c for c in comps for v in c}
    by_comp: dict[frozenset[int], list[int]] = {}
    for v in Xs:
        by_comp.setdefault(comp_of[v], []).append(v)

    rich = [c for c, vs in by_comp.items() if len(vs) >= 2]
    if not rich:
        # members are spread over components; two components are the cuts
        (c1, (x1,)), (c2, (x2,)) = sorted(by_comp.items(), key=lambda kv: kv[1])[:2]
        return CutPair(x1, cocycle_of(g, c1), x2, cocycle_of(g, c2))

    comp = min(rich, key=min)
    members = set(by_comp[comp])
    tree = CutTree(frozenset(comp), _cut_trees(g)[comp])
    adj = tree.adjacency()
    # the least subtree spanning the members: prune leaves that are not members
    keep = set(comp)
    degree = {v: len(adj[v]) for v in keep}
    leaves = [v for v in keep if degree[v] == 1 and v not in members]
    while leaves:
        v = leaves.pop()
        keep.remove(v)
        for u, _ in adj[v]:
            if u in keep:
                degree[u] -= 1
                if degree[u] == 1 and u not in members:
                    leaves.append(u)
    ends = sorted(v for v in keep if degree[v] == 1)
    x1, x2 = ends[0], ends[1]

    def cut(xi: int) -> Cocycle:
        nb = next(u for u, _ in adj[xi] if u in keep)
        return cocycle_of(g, tree.split(xi, nb))

    return CutPair(x1, cut(x1), x2, cut(x2))

