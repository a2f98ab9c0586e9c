"""Weighted series over walk families and anchored subgraph classes.

A series is the vector (a_0, ..., a_M) where a_m is the total weight of the
m-edge (or m-step) members of the family.  Walk families are computed by
convolution or depth-first search.  Subgraph classes come from a search
that grows edge sets out of the anchors, so each member is visited exactly
once and carries the product of its edge weights; one search serves every
class asked for together (`class_series`).  The work cap bounds the number
of edge sets that search visits, checked as it goes, not the number of all
subsets of at most M edges.

Every family is counted on the graph's integer weights
(`WeightedMultigraph.integer_weights`, every weight times L): a member with
k edges or steps carries an integer product, each order sums integers, and
the sum of order k is divided by L^k once, when the `CountSeries` is built.
The walk families step between vertices, so they read the graph's pair
table (`WeightedMultigraph.pair_weights`), where parallel edges are summed
once; the subgraph classes read the edges themselves.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .graph import WeightedMultigraph, biconnected_components

DEFAULT_WORK_CAP = 50_000_000
WORK_CAP_ENV = "MAXMAXFLOW_WORKCAP"

WALK_KINDS = frozenset({"W", "FPW", "SAW", "FPSAW"})
EDGE_KINDS = frozenset({"T", "F", "H", "C", "BT", "BF", "BFSTAR", "B", "BLOCKPATH"})


class WorkCapExceeded(RuntimeError):
    pass


def work_cap() -> int:
    raw = os.environ.get(WORK_CAP_ENV)
    try:
        cap = int(raw) if raw else DEFAULT_WORK_CAP
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{WORK_CAP_ENV} must be an integer >= 1, not {raw!r}")
    return cap


def _work_limit(cap: Optional[int]) -> int:
    """The cap in force: `cap` if given, else `work_cap()`'s."""
    if cap is None:
        return work_cap()
    if cap < 1:
        raise ValueError(f"the work cap must be >= 1, not cap={cap}")
    return cap


@dataclass(frozen=True)
class SubgraphClassSpec:
    """Which family to enumerate, with its anchor sets and parameters."""

    kind: str
    X: Optional[frozenset[int]] = None
    Y: Optional[frozenset[int]] = None
    p: Optional[int] = None
    r: Optional[int] = None
    x: Optional[int] = None
    y: Optional[int] = None

    def __post_init__(self):
        k = self.kind
        if k in WALK_KINDS:
            if self.x is None:
                raise ValueError(f"{k} needs a start vertex x")
            if k in ("W", "SAW") and self.y is None:
                raise ValueError(f"{k} needs an end vertex y")
            if k in ("FPW", "FPSAW") and not self.Y:
                raise ValueError(f"{k} needs a nonempty target set Y")
        elif k == "BLOCKPATH":
            if self.x is None or self.y is None or self.x == self.y:
                raise ValueError("BLOCKPATH needs distinct anchors x, y")
        elif k in EDGE_KINDS:
            if k in ("T", "BT", "B", "C", "H") and not self.X:
                raise ValueError(f"{k} needs a nonempty anchor set X")
            if k in ("F", "BF", "BFSTAR"):
                if not self.Y:
                    raise ValueError(f"{k} needs a nonempty anchor set Y")
                if self.X is None:
                    object.__setattr__(self, "X", frozenset())
            if self.p is not None and self.p < 1:
                raise ValueError("p must be >= 1")
            if self.r is not None and self.r < 1:
                raise ValueError("r must be >= 1")
            if (self.p is not None or self.r is not None) and k != "H":
                raise ValueError("p, r apply to kind H only")
            # an H-forest's leaves lie in X, so each component meets X: p = 1
            # adds nothing, and with one component it is a T-tree
            if k == "H" and self.p == 1:
                object.__setattr__(self, "p", None)
            if k == "H" and self.r == 1 and self.p is None:
                object.__setattr__(self, "kind", "T")
                object.__setattr__(self, "r", None)
        else:
            raise ValueError(f"unknown kind {k!r}")


def class_spec(kind: str, **kw) -> SubgraphClassSpec:
    if "X" in kw and kw["X"] is not None:
        kw["X"] = frozenset(kw["X"])
    if "Y" in kw and kw["Y"] is not None:
        kw["Y"] = frozenset(kw["Y"])
    return SubgraphClassSpec(kind=kind, **kw)


@dataclass(frozen=True)
class CountSeries:
    M: int
    values: tuple[Fraction, ...]

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m]


# -- walk families --------------------------------------------------------


def _divide(values: list[int], L: int) -> tuple[Fraction, ...]:
    """The series whose order-k term is values[k] / L^k."""
    return tuple(Fraction(a, L**k) for k, a in enumerate(values))


def _require_vertices(g: WeightedMultigraph, vs: Iterable[int]):
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside 1..{g.n}")


def _target_set(g: WeightedMultigraph, x: int, Y: Iterable[int]) -> frozenset[int]:
    Ys = frozenset(Y)
    _require_vertices(g, [x, *Ys])
    if not Ys:
        raise ValueError("Y must be nonempty")
    return Ys


def _transfer(
    g: WeightedMultigraph, x: int, start: Iterable[int], absorbing: frozenset[int], M: int
) -> tuple[Fraction, ...]:
    """(f_0(x), ..., f_M(x)) for f_0 the indicator of `start` and f_k the
    one-step convolution of f_{k-1}, forced to 0 on the absorbing vertices."""
    A, L = g.pair_weights()
    ones = set(start)
    cur = {v: int(v in ones) for v in g.vertices}
    out = [cur[x]]
    for _ in range(M):
        cur = {u: 0 if u in absorbing else sum(w * cur[v] for v, w in A[u].items()) for u in g.vertices}
        out.append(cur[x])
    return _divide(out, L)


def _self_avoiding(g: WeightedMultigraph, x: int, Ys: frozenset[int], M: int) -> tuple[Fraction, ...]:
    """Self-avoiding walks from x that stop on first reaching Ys.

    Parallel steps aggregate by weight.
    """
    A, L = g.pair_weights()
    out = [0] * (M + 1)
    if x in Ys:
        out[0] = 1
        return _divide(out, L)
    visited = {x}
    # one frame per vertex of the walk: the vertex, the weight of the walk up
    # to it and its neighbours still to try; a step from the top frame is
    # step number len(stack)
    stack = [(x, 1, iter(A[x].items()))] if M else []
    while stack:
        u, prod, nbrs = stack[-1]
        step = next(nbrs, None)
        if step is None:
            stack.pop()
            visited.remove(u)
            continue
        v, w = step
        if v in Ys:
            out[len(stack)] += prod * w
        elif v not in visited and len(stack) < M:
            visited.add(v)
            stack.append((v, prod * w, iter(A[v].items())))
    return _divide(out, L)


def walk_counts(g: WeightedMultigraph, x: int, y: int, M: int) -> CountSeries:
    """Total weight of m-step walks from x to y, m = 0..M."""
    _require_vertices(g, [x, y])
    return CountSeries(M, _transfer(g, x, [y], frozenset(), M))


def walk_total_counts(g: WeightedMultigraph, x: int, M: int) -> CountSeries:
    """Row sums: total weight of m-step walks from x to anywhere."""
    _require_vertices(g, [x])
    return CountSeries(M, _transfer(g, x, g.vertices, frozenset(), M))


def fpw_counts(g: WeightedMultigraph, x: int, Y: Iterable[int], M: int) -> CountSeries:
    """First-passage walks from x to the set Y: interior steps avoid Y."""
    Ys = _target_set(g, x, Y)
    return CountSeries(M, _transfer(g, x, Ys, Ys, M))


def saw_counts(g: WeightedMultigraph, x: int, y: int, M: int) -> CountSeries:
    """Self-avoiding walks from x to y.  Parallel steps aggregate by weight."""
    _require_vertices(g, [x, y])
    return CountSeries(M, _self_avoiding(g, x, frozenset({y}), M))


def fpsaw_counts(g: WeightedMultigraph, x: int, Y: Iterable[int], M: int) -> CountSeries:
    """First-passage self-avoiding walks from x to the set Y."""
    Ys = _target_set(g, x, Y)
    return CountSeries(M, _self_avoiding(g, x, Ys, M))


# -- subgraph classes -----------------------------------------------------


def _anchor_set(spec: SubgraphClassSpec) -> frozenset[int]:
    """The anchors that join every member's vertex set."""
    if spec.kind == "BLOCKPATH":
        return frozenset((spec.x, spec.y))
    return (spec.X or frozenset()) | (spec.Y or frozenset())


class _EdgeSet:
    """An edge set grown and shrunk one edge at a time, last in first out.

    It keeps the facts the class predicates read: the size, the product
    of the integer weights, the degrees, the number of edges that closed a
    cycle, and a union-find with rollback (union by size, no path
    compression) from which the components are read.  The components and
    the blocks are each computed at most once per edge set, when a
    predicate first asks, so the classes of one search share them; the
    blocks are asked for only by a set with a cycle whose leaves are all
    anchors (`_blocks_anchored`).  A spec's subgraph has the canonical
    vertex set "the spec's anchors plus the endpoints of the edges", so its
    components and blocks are those of the edges plus one single vertex per
    anchor that no edge touches.
    """

    def __init__(self, g: WeightedMultigraph):
        self.g = g
        self.edge_weights = g.integer_weights()[0]
        self.parent = {v: v for v in g.vertices}
        self.size = {v: 1 for v in g.vertices}
        self.deg = {v: 0 for v in g.vertices}
        self.adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
        self.verts: list[int] = []  # endpoints of the edges, in order of arrival
        self.cycles = 0
        self.weight = 1
        self._undo: list[tuple] = []
        self._components = None
        self._blocks = None

    @property
    def k(self) -> int:
        """The number of edges."""
        return len(self._undo)

    def _find(self, v: int) -> int:
        while self.parent[v] != v:
            v = self.parent[v]
        return v

    def add(self, eid: int):
        e = self.g.edges[eid]
        ru, rv = self._find(e.u), self._find(e.v)
        if ru == rv:
            self.cycles += 1
            child = None
        else:
            if self.size[ru] < self.size[rv]:
                ru, rv = rv, ru
            self.parent[rv] = ru
            self.size[ru] += self.size[rv]
            child = rv
        self._undo.append((eid, self.weight, child))
        for v in (e.u, e.v):
            self.deg[v] += 1
            if self.deg[v] == 1:
                self.verts.append(v)
        self.adj[e.u].append((e.v, eid))
        self.adj[e.v].append((e.u, eid))
        self.weight *= self.edge_weights[eid]
        self._components = self._blocks = None

    def pop(self):
        eid, self.weight, child = self._undo.pop()
        e = self.g.edges[eid]
        if child is None:
            self.cycles -= 1
        else:
            root = self.parent[child]
            self.parent[child] = child
            self.size[root] -= self.size[child]
        for v in (e.v, e.u):
            self.deg[v] -= 1
            if not self.deg[v]:
                self.verts.pop()
        self.adj[e.u].pop()
        self.adj[e.v].pop()
        self._components = self._blocks = None

    def isolated(self, anchors: frozenset[int]) -> list[int]:
        """The anchors that no edge touches."""
        return [v for v in anchors if not self.deg[v]]

    def components(self, anchors: frozenset[int]) -> list[frozenset[int]]:
        """Vertex sets of the components of the spec's subgraph."""
        if self._components is None:
            groups: dict[int, set[int]] = {}
            for v in self.verts:
                groups.setdefault(self._find(v), set()).add(v)
            self._components = [frozenset(c) for c in groups.values()]
        return self._components + [frozenset((v,)) for v in self.isolated(anchors)]

    def leaves_within(self, anchors: frozenset[int], allowed: frozenset[int]) -> bool:
        """Every vertex of degree <= 1 in the spec's subgraph lies in `allowed`."""
        return all(v in allowed for v in self.verts if self.deg[v] == 1) and all(
            v in allowed for v in self.isolated(anchors)
        )

    def blocks(self) -> tuple[list[tuple[set[int], set[int]]], set[int]]:
        if self._blocks is None:
            self._blocks = biconnected_components(self.verts, self.adj)
        return self._blocks


def _blocks_anchored(s: _EdgeSet, spec_anchors: frozenset[int], anchors: frozenset[int]) -> bool:
    """Every end block has a non-cut anchor, and every block without cut
    vertices is a single anchor or holds at least two anchors.

    A leaf (degree 1) is the non-cut end of a pendant-edge block, or an end
    of a one-edge component, so every leaf and isolated spec anchor must be
    an anchor.  In a forest every block is one edge and every vertex of
    degree >= 2 is a cut vertex, so that is also enough; only a set with a
    cycle (parallel edges count) needs its blocks (Hopcroft and Tarjan 1973).
    """
    if not s.leaves_within(spec_anchors, anchors):
        return False
    if not s.cycles:
        return True
    blocks, cuts = s.blocks()
    for bvs, _ in blocks:
        ncuts = len(bvs & cuts)
        if ncuts == 1 and not (bvs - cuts) & anchors:
            return False
        if ncuts == 0 and len(bvs & anchors) < 2:
            return False
    return True


# each predicate reads the edge set, the spec and the spec's anchor set A
# (`_anchor_set`), which the caller works out once per spec


def _tree(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    return not s.cycles and s.leaves_within(A, spec.X) and len(s.components(A)) == 1


def _forest(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    return not s.cycles and s.leaves_within(A, A) and _one_y_each(s, spec, A)


def _h_forest(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    if s.cycles or not s.leaves_within(A, spec.X):
        return False
    comps = s.components(A)
    if spec.p is not None and any(len(c & spec.X) < spec.p for c in comps):
        return False
    return spec.r is None or len(comps) == spec.r


def _anchored(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    return all(c & spec.X for c in s.components(A))


def _one_y_each(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    return all(len(c & spec.Y) == 1 for c in s.components(A))


def _block_tree(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    # an xy-block path is a block tree anchored at {x, y}: two anchors allow
    # two end blocks, one holding each of x and y as a non-cut vertex
    X = A if spec.kind == "BLOCKPATH" else spec.X
    return len(s.components(A)) == 1 and _blocks_anchored(s, A, X)


def _block_forest(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    return _one_y_each(s, spec, A) and _blocks_anchored(s, A, A)


def _block_forest_star(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    return all(c & spec.Y for c in s.components(A)) and _blocks_anchored(s, A, A)


def _block_subgraph(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int]) -> bool:
    return _blocks_anchored(s, A, spec.X)


_PREDICATES = {
    "T": _tree,
    "F": _forest,
    "H": _h_forest,
    "C": _anchored,
    "BT": _block_tree,
    "BF": _block_forest,
    "BFSTAR": _block_forest_star,
    "B": _block_subgraph,
    "BLOCKPATH": _block_tree,
}


def is_in_class(g: WeightedMultigraph, edge_ids: Iterable[int], spec: SubgraphClassSpec) -> bool:
    """Does the subgraph on the canonical vertex set satisfy the class predicate?

    The canonical vertex set is the union of the edge endpoints with the
    anchor sets, so members correspond bijectively to edge subsets.
    """
    if spec.kind in WALK_KINDS:
        raise ValueError(f"{spec.kind} is a walk family, not an edge-subset class")
    A = _anchor_set(spec)
    _require_vertices(g, A)
    eids = sorted(set(edge_ids))
    if any(not 0 <= eid < g.m for eid in eids):
        raise ValueError("edge id out of range")
    s = _EdgeSet(g)
    for eid in eids:
        s.add(eid)
    return _PREDICATES[spec.kind](s, spec, A)


def _walk_series(g: WeightedMultigraph, spec: SubgraphClassSpec, M: int) -> CountSeries:
    if spec.kind == "W":
        return walk_counts(g, spec.x, spec.y, M)
    if spec.kind == "FPW":
        return fpw_counts(g, spec.x, spec.Y, M)
    if spec.kind == "SAW":
        return saw_counts(g, spec.x, spec.y, M)
    return fpsaw_counts(g, spec.x, spec.Y, M)


def class_series(
    g: WeightedMultigraph, specs: Iterable[SubgraphClassSpec], M: int, cap: Optional[int] = None
) -> dict[SubgraphClassSpec, CountSeries]:
    """Series (a_0..a_M) for each family; walk kinds dispatch to the walk code.

    The edge-subset kinds share one search over the edge sets whose every
    component meets the union A of their anchor sets; every class rejects
    the other sets.  It grows a set out of A: at each node, the frontier
    edges (those touching A or an endpoint of the set) are taken one at a
    time, each child giving up the frontier edges before its own for good,
    so every set of at most M edges is visited exactly once (reverse
    search, Avis and Fukuda 1996) and the stack is at most M deep.
    Each visited set is tested against every class, the classes sharing
    its components (and its blocks, built only for a cyclic set whose
    leaves are all anchors), and adds its integer weight product to each
    order-k sum that accepts it; the sums are divided by L^k at the end.
    The work cap bounds the number of sets this one search visits, however
    many classes it serves, and is checked as the search goes; so
    `bounds.run_suite`, which asks for all its edge-subset classes in one
    call, is capped as one search.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    specs = list(dict.fromkeys(specs))
    out = {spec: _walk_series(g, spec, M) for spec in specs if spec.kind in WALK_KINDS}
    tests = [(spec, _PREDICATES[spec.kind], _anchor_set(spec)) for spec in specs if spec.kind in EDGE_KINDS]
    if not tests:
        return out
    A = frozenset().union(*(anchors for _, _, anchors in tests))
    _require_vertices(g, A)
    limit = _work_limit(cap)
    values = {spec: [0] * (M + 1) for spec, _, _ in tests}
    adj = g.adjacency()
    s = _EdgeSet(g)
    visited = 0

    def reached(v: int) -> bool:
        return v in A or s.deg[v] > 0

    def visit():
        nonlocal visited
        visited += 1
        if visited > limit:
            raise WorkCapExceeded(f"the search visited more than {limit} edge sets, the work cap")
        for spec, accepts, anchors in tests:
            if accepts(s, spec, anchors):
                values[spec][s.k] += s.weight

    def children(frontier: list[int]):
        # frontier: the edges that may still join, each touching a reached
        # vertex; a child's frontier is worked out when the child is taken,
        # while s holds the parent's edge set
        for i, eid in enumerate(frontier):
            rest = frontier[i + 1:]
            for v in g.edges[eid].u, g.edges[eid].v:
                if not reached(v):
                    rest += [f for w, f in adj[v] if not reached(w)]
            yield eid, rest

    # depth first over an explicit stack: one generator of children per edge
    # set on the current path, the empty set's at the bottom
    visit()
    stack = [children(sorted({eid for v in A for _, eid in adj[v]}))] if M else []
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if stack:
                s.pop()
            continue
        eid, rest = step
        s.add(eid)
        visit()
        if s.k < M:
            stack.append(children(rest))
        else:
            s.pop()
    L = g.integer_weights()[1]
    for spec, vals in values.items():
        out[spec] = CountSeries(M, _divide(vals, L))
    return {spec: out[spec] for spec in specs}


def class_count_series(
    g: WeightedMultigraph, spec: SubgraphClassSpec, M: int, cap: Optional[int] = None
) -> CountSeries:
    """Series (a_0..a_M) for one family; see `class_series`."""
    return class_series(g, [spec], M, cap)[spec]


def two_connected_through_edge_series(
    g: WeightedMultigraph, eid: int, M: int, cap: Optional[int] = None
) -> CountSeries:
    """Series of nonseparable subgraphs with >= 2 edges containing a given edge.

    With e = xy, the m-edge members are exactly e plus an (m-1)-edge xy-block
    path of G - e, so a_m = w_e * bp_{m-1}(G - e); the work cap applies to
    that BLOCKPATH search, on the memoised `g.without_edge(eid)`.  A single
    edge does not count (a_1 = 0).
    """
    rest = g.without_edge(eid)  # checks the edge id
    e0 = g.edges[eid]
    spec = SubgraphClassSpec(kind="BLOCKPATH", x=e0.u, y=e0.v)
    values = [Fraction(0)] * (M + 1)
    if M >= 1:
        values[1:] = [e0.w * a for a in class_count_series(rest, spec, M - 1, cap).values]
    return CountSeries(M, tuple(values))
