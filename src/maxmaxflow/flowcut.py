"""Exact max-flow / min-cut, cut trees, cocycle space and maxmaxflow.

All computations are exact over the rationals.  Flows and cut weights are
computed on the graph's pair table (`WeightedMultigraph.pair_weights`: the
parallel edges of each pair summed once, every weight times L) and divided
by L once per reported value.  `_network` turns the pairs into arc arrays,
the one place arcs are built; Dinic's blocking-flow algorithm runs on them
after a warm start that saturates the source's one- and two-arc paths to
the sink.  Each graph's cut tree is built once and memoised on the graph,
and each component's tree runs all its splits on one network, contracting
nodes by relabelling the arcs' heads instead of rebuilding the arcs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import WeightedMultigraph, _steiner_nodes, bfs_path, bfs_tree, components_of


@dataclass(frozen=True)
class MinCutCertificate:
    """Max-flow value with the canonical minimum cut certifying it.

    `side` is the set of vertices reachable from the source in the final
    residual network (so it contains the source and not the sink whenever the
    two are connected).  `cut_edges` are the ids of edges crossing the cut.
    """

    value: Fraction
    side: frozenset[int]
    cut_edges: frozenset[int]


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


def _dinic(adj: list[list[int]], to: list[int], res: list[int], s: int, t: int) -> tuple[int, list[int]]:
    """Dinic max flow from s to t over the arcs of `_network`, with arc i
    running into to[i] and residual capacity res[i], which is updated in
    place.  The flow may start from any feasible flow that `res` already
    holds; the flow added to it is returned.  An arc whose ends have one
    label, as in a contracted node, is never taken.

    Returns the added flow and the levels of the last BFS, the one that
    fails to reach t: the nodes with a level >= 0 are those reachable from
    s in the final residual network, which is the minimal source side of a
    minimum cut whichever maximum flow was found.
    """
    k = len(adj)
    # warm start: saturate the arcs s -> t, then the two-arc paths s -> w -> t
    flow = 0
    into_t: dict[int, list[int]] = {}
    for j in adj[t]:
        into_t.setdefault(to[j], []).append(j ^ 1)
    for i in adj[s]:
        if to[i] == t:
            flow += res[i]
            res[i ^ 1] += res[i]
            res[i] = 0
            continue
        for j in into_t.get(to[i], ()):
            if not res[i]:
                break
            f = min(res[i], res[j])
            res[i] -= f
            res[i ^ 1] += f
            res[j] -= f
            res[j ^ 1] += f
            flow += f
    while True:
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


def max_flow(g: WeightedMultigraph, x: int, y: int) -> MinCutCertificate:
    """Exact max flow between two distinct vertices, with min-cut certificate."""
    if x == y:
        raise ValueError("source and sink must differ")
    if x not in g._adj or y not in g._adj:
        raise ValueError("unknown vertex")
    A, L = g.pair_weights()
    adj, head, cap = _network(g.n + 1, ((u, v, c) for u in A for v, c in A[u].items() if u < v))
    flow, level = _dinic(adj, head, cap, x, y)
    reach = frozenset(v for v in g.vertices if level[v] >= 0)
    cut = frozenset(e.id for e in g.edges if (e.u in reach) != (e.v in reach))
    return MinCutCertificate(Fraction(flow, L), reach, cut)


def cut_weight(g: WeightedMultigraph, side: Iterable[int]) -> Fraction:
    s = set(side)
    A, L = g.pair_weights()
    return Fraction(sum(c for u in s if u in A for v, c in A[u].items() if v not in s), L)


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

    def path(self, x: int, y: int) -> list[tuple[int, int, Fraction]]:
        steps = bfs_path(self.adjacency(), x, y)
        if steps is None:
            raise ValueError("vertices not connected in tree")
        return steps

    def bottleneck(self, x: int, y: int) -> Fraction:
        return min(w for _, _, w in self.path(x, y))

    def split(self, u: int, v: int) -> frozenset[int]:
        """Vertex side containing u after removing tree edge (u, v)."""
        return frozenset(bfs_tree(self.adjacency(), u, banned=(v,)))


def _component_cut_tree(
    g: WeightedMultigraph, comp: frozenset[int]
) -> list[tuple[int, int, Fraction]]:
    """Classical cut-tree construction with contraction of hanging subtrees.

    Each step splits the first supernode holding two vertices x < y, its two
    smallest, by a minimum x-y cut in g with every subtree hanging off the
    supernode contracted to one marker node (numbered from n + 1).  The split
    order, (x, y), the way the vertex sets are built and the representatives
    `next(iter(nodes[i]))` fix which valid tree comes out; the golden
    `ghtree` output pins it.  The component's arcs are built once from the
    graph's pair table (`_network`).  Each split relabels the arcs' heads
    through the contraction, gives a marker the concatenated arc lists of
    its members and runs Dinic on a fresh copy of the capacities; the
    parallel arcs that the contraction makes stay apart, and an arc whose
    ends land in one marker is never taken.  Any maximum flow leaves the
    same minimal source side, so the tree does not depend on which one
    Dinic finds.
    """
    A, L = g.pair_weights()
    adj, head, cap = _network(g.n + 1, ((u, v, c) for u in comp for v, c in A[u].items() if u < v))
    # tree over "super nodes"; each node is a set of original vertices
    nodes: list[set[int]] = [set(comp)]
    tadj: dict[int, dict[int, Fraction]] = {0: {}}

    while True:
        idx = next((i for i, s in enumerate(nodes) if len(s) >= 2), None)
        if idx is None:
            break
        S = nodes[idx]
        it = iter(sorted(S))
        x, y = next(it), next(it)

        marker_of: dict[int, int] = {}  # neighbor node -> marker node
        vmap = list(range(g.n + 1))
        marker_arcs: list[list[int]] = []
        tree = {i: d.items() for i, d in tadj.items()}
        for marker, nb in enumerate(tadj[idx], start=g.n + 1):
            marker_of[nb] = marker
            arcs: list[int] = []
            for node in bfs_tree(tree, nb, banned=(idx,)):
                for v in nodes[node]:
                    vmap[v] = marker
                    arcs += adj[v]
            marker_arcs.append(arcs)
        flow, level = _dinic(adj + marker_arcs, list(map(vmap.__getitem__, head)), cap[:], x, y)
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
    trees = g._memo.get("cut_trees")
    if trees is None:
        trees = g._memo["cut_trees"] = {
            comp: tuple(_component_cut_tree(g, comp)) if len(comp) >= 2 else ()
            for comp in g.components()
        }
    return trees


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


# -- cocycles -------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle:
    """Edge set E(X, X^c) together with the side X that induced it."""

    side: frozenset[int]
    edge_ids: frozenset[int]
    weight: Fraction


def cocycle_of(g: WeightedMultigraph, side: Iterable[int]) -> Cocycle:
    s = frozenset(side)
    eids = frozenset(e.id for e in g.edges if (e.u in s) != (e.v in s))
    w = sum((g.edges[i].w for i in eids), Fraction(0))
    return Cocycle(s, eids, w)


def elementary_cocycle(g: WeightedMultigraph, tree_edges: Sequence[tuple[int, int]], k: int) -> Cocycle:
    """Cocycle induced in g by removing the k-th edge of a spanning tree of V(g).

    The side is the vertex set of the tree component containing the first
    endpoint of the removed edge.
    """
    if not (0 <= k < len(tree_edges)):
        raise ValueError("tree edge index out of range")
    remaining = [p for i, p in enumerate(tree_edges) if i != k]
    comps = components_of(g.vertices, remaining)
    a = tree_edges[k][0]
    side = next(c for c in comps if a in c)
    return cocycle_of(g, side)


def cocycle_basis_from_tree(
    g: WeightedMultigraph, tree_edges: Sequence[tuple[int, int]]
) -> list[Cocycle]:
    """Elementary cocycles of a spanning tree; a GF(2) basis of the cocycle space."""
    comps = components_of(g.vertices, list(tree_edges))
    if len(comps) != 1 or len(tree_edges) != g.n - 1:
        raise ValueError("expected a spanning tree of V(g)")
    basis = [elementary_cocycle(g, tree_edges, k) for k in range(len(tree_edges))]
    pivots: list[int] = []
    for c in basis:
        if not _gf2_add(pivots, sum(1 << eid for eid in c.edge_ids)):
            raise AssertionError("elementary cocycles not independent")
    return basis


def _gf2_add(pivots: list[int], vec: int) -> bool:
    """Reduce vec against pivots; append and return True if independent."""
    for p in pivots:
        if (vec ^ p) < vec:
            vec ^= p
    if vec == 0:
        return False
    pivots.append(vec)
    pivots.sort(reverse=True)
    return True


def lambda_tilde_bruteforce(g: WeightedMultigraph, cap: int = 12) -> Fraction:
    """Min over cocycle-space bases of the max basis weight, by exhaustion.

    Greedy matroid argument: sorting all cocycles by weight and keeping a
    maximal GF(2)-independent prefix yields a basis minimizing the sorted
    weight vector lexicographically, hence the max.  Exponential in component
    size; refuses components above `cap` vertices.
    """
    if g.n < 2:
        raise ValueError("requires at least two vertices")
    A, L = g.pair_weights()
    best = 0
    for comp in g.components():
        cn = len(comp)
        if cn < 2:
            continue
        if cn > cap:
            raise ValueError(f"component with {cn} vertices exceeds brute-force cap {cap}")
        # the component's i-th smallest vertex is bit i of a side's mask
        order = sorted(comp)
        bit = {v: i for i, v in enumerate(order)}
        degree = [sum(A[v].values()) for v in order]
        nbrs = [[(bit[u], w) for u, w in A[v].items()] for v in order]
        # the pairs at each vertex, as a mask over pair numbers: a cocycle
        # holds all or none of a parallel family, so one bit per pair keeps
        # every rank and weight
        star = [0] * cn
        for p, (a, b) in enumerate((a, b) for a in range(cn) for b, _ in nbrs[a] if a < b):
            star[a] ^= 1 << p
            star[b] ^= 1 << p
        # side k holds vertex 0 and vertex i + 1 for each bit i of k; the full
        # side, whose cocycle is empty, is left out.  Side k is side k - low
        # plus one vertex, and a side's cocycle is the symmetric difference
        # of the stars of its vertices.
        vecs, weight = [star[0]], [degree[0]]
        for k in range(1, 2 ** (cn - 1) - 1):
            low = k & -k
            prev, i = k ^ low, low.bit_length()
            side = prev << 1 | 1
            vecs.append(vecs[prev] ^ star[i])
            weight.append(weight[prev] + degree[i] - 2 * sum(w for j, w in nbrs[i] if side >> j & 1))
        pivots: list[int] = []
        comp_max = 0
        for k in sorted(range(len(vecs)), key=weight.__getitem__):  # stable: ties by k
            if _gf2_add(pivots, vecs[k]):
                comp_max = weight[k]
                if len(pivots) == cn - 1:
                    break
        if len(pivots) != cn - 1:
            raise AssertionError("failed to reach full cocycle rank")
        best = max(best, comp_max)
    return Fraction(best, L)


# -- disjoint bounded cuts around a vertex set ----------------------------


@dataclass(frozen=True)
class CutPair:
    x1: int
    side1: frozenset[int]
    weight1: Fraction
    x2: int
    side2: frozenset[int]
    weight2: Fraction


def cut_pair(g: WeightedMultigraph, X: Iterable[int]) -> CutPair:
    """Two members x1, x2 of X with disjoint vertex sets X1, X2 such that
    X ∩ Xi = {xi} and both cut weights w(E(Xi, Xi^c)) are at most maxmaxflow.

    Construction: take the cut tree, restrict to the minimal subtree spanning
    X in a component holding at least two members, and peel off two of its
    end vertices; a pendant tree edge certifies a cut of weight at most the
    largest tree-edge weight.  If every component holds at most one member of
    X, two whole components work with cut weight 0.
    """
    Xs = sorted(set(X))
    if len(Xs) < 2:
        raise ValueError("need at least two vertices in X")
    if any(v not in g._adj for v in Xs):
        raise ValueError("X must be a subset of V(g)")
    comps = g.components()
    comp_of = {v: c for c in comps for v in c}
    by_comp: dict[frozenset[int], list[int]] = {}
    for v in Xs:
        by_comp.setdefault(comp_of[v], []).append(v)

    rich = [c for c, vs in by_comp.items() if len(vs) >= 2]
    if not rich:
        # members are spread over components; two components are the cuts
        (c1, (x1,)), (c2, (x2,)) = sorted(by_comp.items(), key=lambda kv: kv[1])[:2]
        return CutPair(x1, c1, Fraction(0), x2, c2, Fraction(0))

    comp = min(rich, key=min)
    members = by_comp[comp]
    tree = CutTree(frozenset(comp), _cut_trees(g)[comp])
    adj = tree.adjacency()
    keep = _steiner_nodes({v: [u for u, _ in nbrs] for v, nbrs in adj.items()}, set(members))
    degree = {v: sum(1 for u, _ in adj[v] if u in keep) for v in keep}
    ends = sorted(v for v in keep if degree[v] == 1)
    x1, x2 = ends[0], ends[1]

    def one(xi: int) -> tuple[frozenset[int], Fraction]:
        nb = next(u for u, _ in adj[xi] if u in keep)
        side = tree.split(xi, nb)
        return side, cut_weight(g, side)

    side1, w1 = one(x1)
    side2, w2 = one(x2)
    return CutPair(x1, side1, w1, x2, side2, w2)

