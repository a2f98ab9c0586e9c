"""Weighted series over walk families and anchored subgraph classes.

A series is the vector (a_0, ..., a_M) where a_m is the total weight of the
m-edge (or m-step) members of the family.  Walk families are computed by
convolution or depth-first search.  Subgraph classes come from a search
that grows edge sets out of the anchors, so each member is visited exactly
once and carries the product of its edge weights; one search serves every
class asked for together (`class_series`).  Every series charges its work
to a `WorkMeter`, which holds it to the work cap.

One table, `_FAMILIES`, gives each family the anchors it needs and either
its walk series or what decides membership of its class: forests only or
not, whose anchors the leaves and end blocks need, and a test on the
components.  The forest classes T, F and H are the acyclic rows of the
block classes BT, BF and B.  `_accepts` reads a row for every search.

Every family is counted on the graph's integer weights
(`WeightedMultigraph.integer_weights`, every weight times L): a member with
k edges or steps carries an integer product, each order sums integers, and
the sum of order k is divided by L^k once, when the `CountSeries` is built.
The walk families step between vertices, so they read the graph's pair
table (`WeightedMultigraph.pair_weights`), where parallel edges are summed
once; the subgraph classes read the edges themselves.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .graph import WeightedMultigraph, biconnected_components

DEFAULT_WORK_CAP = 50_000_000


class WorkCapExceeded(RuntimeError):
    pass


def work_cap(cap: Optional[int] = None) -> int:
    """The work cap in force: `cap` if given, else `DEFAULT_WORK_CAP`."""
    if cap is None:
        return DEFAULT_WORK_CAP
    if cap < 1:
        raise ValueError(f"the work cap must be >= 1, not cap={cap}")
    return cap


class WorkMeter:
    """The units of work one run of an exponential routine has charged; it
    raises `WorkCapExceeded` before doing work that would pass the cap."""

    def __init__(self, cap: Optional[int], what: str, unit: str):
        self.limit = work_cap(cap)
        self.used = 0
        self.what, self.unit = what, unit  # e.g. "the walk search", "steps"

    def charge(self, units: int = 1):
        self.used += units
        if self.used > self.limit:
            raise WorkCapExceeded(f"{self.what} passed the work cap of {self.limit} {self.unit}")


# -- the family table -----------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """A row of `_FAMILIES`: a walk family has `walk`, a subgraph class the
    three tests after it, which `_accepts` runs in this order."""

    needs: str  # the anchors a spec must give: x, y one vertex each, X, Y nonempty sets
    walk: Optional[Callable] = None  # the series for (g, spec, M, cap)
    forest: bool = False  # acyclic edge sets only
    # whose anchors every leaf, lone anchor and end block needs: "X" the
    # spec's X, "A" all its anchors, None no such test
    leaves: Optional[str] = None
    components: Optional[Callable] = None  # a test on the components and the spec


_BT = _Family("X", leaves="X", components=lambda comps, spec: len(comps) == 1)
_BF = _Family("Y", leaves="A", components=lambda comps, spec: all(len(c & spec.Y) == 1 for c in comps))
_B = _Family("X", leaves="X")

_FAMILIES = {
    "W": _Family("xy", walk=lambda g, spec, M, cap: walk_counts(g, spec.x, spec.y, M, cap)),
    "FPW": _Family("xY", walk=lambda g, spec, M, cap: fpw_counts(g, spec.x, spec.Y, M, cap)),
    "SAW": _Family("xy", walk=lambda g, spec, M, cap: saw_counts(g, spec.x, spec.y, M, cap)),
    "FPSAW": _Family("xY", walk=lambda g, spec, M, cap: fpsaw_counts(g, spec.x, spec.Y, M, cap)),
    "BT": _BT,
    "BF": _BF,
    "B": _B,
    "BFSTAR": _Family("Y", leaves="A", components=lambda comps, spec: all(c & spec.Y for c in comps)),
    # an xy-block path is a block tree anchored at {x, y}: two anchors allow
    # two end blocks, one holding each of x and y as a non-cut vertex
    "BLOCKPATH": replace(_BT, needs="xy", leaves="A"),
    # a leaf is the non-cut end of a pendant-edge block, or an end of a
    # one-edge component; in a forest every block is one edge and every
    # vertex of degree >= 2 is a cut vertex, so its blocks are anchored
    # exactly when its leaves are
    "T": replace(_BT, forest=True),
    "F": replace(_BF, forest=True),
    # H also asks for at least p anchors of X per component and r components
    "H": replace(_B, forest=True, components=lambda comps, spec: (
        (spec.p is None or all(len(c & spec.X) >= spec.p for c in comps))
        and (spec.r is None or len(comps) == spec.r))),
    "C": _Family("X", components=lambda comps, spec: all(c & spec.X for c in comps)),
}

WALK_KINDS = frozenset(k for k, family in _FAMILIES.items() if family.walk)
EDGE_KINDS = frozenset(_FAMILIES) - WALK_KINDS


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
        if k not in _FAMILIES:
            raise ValueError(f"unknown kind {k!r}; known: {sorted(_FAMILIES)}")
        family = _FAMILIES[k]
        for name in family.needs:
            if name.islower() and getattr(self, name) is None:
                raise ValueError(f"{k} needs a vertex {name}")
            if name.isupper() and not getattr(self, name):
                raise ValueError(f"{k} needs a nonempty anchor set {name}")
        if k == "BLOCKPATH" and self.x == self.y:
            raise ValueError("BLOCKPATH needs distinct anchors x, y")
        if self.p is not None and self.p < 1:
            raise ValueError("p must be >= 1")
        if self.r is not None and self.r < 1:
            raise ValueError("r must be >= 1")
        if (self.p is not None or self.r is not None) and k != "H":
            raise ValueError("p, r apply to kind H only")
        for name in "XY":  # anchor sets are kept frozen; a subgraph class's default to empty
            if getattr(self, name) is not None or not family.walk:
                object.__setattr__(self, name, frozenset(getattr(self, name) or ()))
        # an H-forest's leaves lie in X, so each component meets X: p = 1
        # adds nothing, and with one component it is a T-tree
        if k == "H" and self.p == 1:
            object.__setattr__(self, "p", None)
        if k == "H" and self.r == 1 and self.p is None:
            object.__setattr__(self, "kind", "T")
            object.__setattr__(self, "r", None)


def class_spec(kind: str, **kw) -> SubgraphClassSpec:
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


def _target_set(g: WeightedMultigraph, x: int, Y: Iterable[int]) -> frozenset[int]:
    Ys = frozenset(Y)
    g.check_vertices([x, *Ys])
    if not Ys:
        raise ValueError("Y must be nonempty")
    return Ys


def _transfer(
    g: WeightedMultigraph, x: int, start: Iterable[int], absorbing: frozenset[int], M: int, cap: Optional[int]
) -> tuple[Fraction, ...]:
    """(f_0(x), ..., f_M(x)) for f_0 the indicator of `start` and f_k the
    one-step convolution of f_{k-1}, forced to 0 on the absorbing vertices.

    A step costs one unit of work per vertex and one per pair-table entry
    it reads; the work cap bounds the total, charged before each step.
    """
    meter = WorkMeter(cap, "the walk series", "units of work")
    A, L = g.pair_weights()
    step_work = g.n + sum(len(A[u]) for u in g.vertices if u not in absorbing)
    ones = set(start)
    cur = {v: int(v in ones) for v in g.vertices}
    out = [cur[x]]
    for _ in range(M):
        meter.charge(step_work)
        cur = {u: 0 if u in absorbing else sum(w * cur[v] for v, w in A[u].items()) for u in g.vertices}
        out.append(cur[x])
    return _divide(out, L)


def _self_avoiding(
    g: WeightedMultigraph, x: int, Ys: frozenset[int], M: int, cap: Optional[int]
) -> tuple[Fraction, ...]:
    """Self-avoiding walks from x that stop on first reaching Ys.

    Parallel steps aggregate by weight.  The work cap bounds the number of
    steps the search tries, one per neighbour of each walk's last vertex,
    all charged when the walk is reached.
    """
    meter = WorkMeter(cap, "the walk search", "steps")
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
    meter.charge(len(A[x]) if stack else 0)
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
            meter.charge(len(A[v]))
            visited.add(v)
            stack.append((v, prod * w, iter(A[v].items())))
    return _divide(out, L)


def walk_counts(g: WeightedMultigraph, x: int, y: int, M: int, cap: Optional[int] = None) -> CountSeries:
    """Total weight of m-step walks from x to y, m = 0..M."""
    g.check_vertices([x, y])
    return CountSeries(M, _transfer(g, x, [y], frozenset(), M, cap))


def walk_total_counts(g: WeightedMultigraph, x: int, M: int, cap: Optional[int] = None) -> CountSeries:
    """Row sums: total weight of m-step walks from x to anywhere."""
    g.check_vertices([x])
    return CountSeries(M, _transfer(g, x, g.vertices, frozenset(), M, cap))


def fpw_counts(
    g: WeightedMultigraph, x: int, Y: Iterable[int], M: int, cap: Optional[int] = None
) -> CountSeries:
    """First-passage walks from x to the set Y: interior steps avoid Y."""
    Ys = _target_set(g, x, Y)
    return CountSeries(M, _transfer(g, x, Ys, Ys, M, cap))


def saw_counts(g: WeightedMultigraph, x: int, y: int, M: int, cap: Optional[int] = None) -> CountSeries:
    """Self-avoiding walks from x to y.  Parallel steps aggregate by weight."""
    g.check_vertices([x, y])
    return CountSeries(M, _self_avoiding(g, x, frozenset({y}), M, cap))


def fpsaw_counts(
    g: WeightedMultigraph, x: int, Y: Iterable[int], M: int, cap: Optional[int] = None
) -> CountSeries:
    """First-passage self-avoiding walks from x to the set Y."""
    Ys = _target_set(g, x, Y)
    return CountSeries(M, _self_avoiding(g, x, Ys, M, cap))


# -- subgraph classes -----------------------------------------------------


def _anchors(spec: SubgraphClassSpec) -> tuple[frozenset[int], Optional[frozenset[int]]]:
    """The spec's anchor set A, which joins every member's vertex set, and
    the anchors its leaves and end blocks need (None if it has no such test)."""
    family = _FAMILIES[spec.kind]
    A = frozenset((spec.x, spec.y)) if "x" in family.needs else spec.X | spec.Y
    return A, {"X": spec.X, "A": A, None: None}[family.leaves]


class _EdgeSet:
    """An edge set grown and shrunk one edge at a time, last in first out.

    It keeps the facts of the edges alone, which no spec changes: the size,
    the product of the integer weights, the degrees, the number of edges
    that closed a cycle, and a union-find with rollback (union by size, no
    path compression) from which the components are read.  The components,
    the leaves and the blocks are each computed at most once per edge set,
    when `_accepts` first asks, so the classes of one search share them.
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
        self._components = self._leaves = self._blocks = None

    @property
    def k(self) -> int:
        """The number of edges."""
        return len(self._undo)

    def _find(self, v: int) -> int:
        while self.parent[v] != v:
            v = self.parent[v]
        return v

    def add(self, eid: int):
        _, u, v, _ = self.g.edges[eid]
        ru, rv = self._find(u), self._find(v)
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
        for x in (u, v):
            self.deg[x] += 1
            if self.deg[x] == 1:
                self.verts.append(x)
        self.adj[u].append((v, eid))
        self.adj[v].append((u, eid))
        self.weight *= self.edge_weights[eid]
        self._components = self._leaves = self._blocks = None

    def pop(self):
        eid, self.weight, child = self._undo.pop()
        _, u, v, _ = self.g.edges[eid]
        if child is None:
            self.cycles -= 1
        else:
            root = self.parent[child]
            self.parent[child] = child
            self.size[root] -= self.size[child]
        for x in (v, u):
            self.deg[x] -= 1
            if not self.deg[x]:
                self.verts.pop()
        self.adj[u].pop()
        self.adj[v].pop()
        self._components = self._leaves = self._blocks = None

    def components(self) -> list[set[int]]:
        """Vertex sets of the components of the edges."""
        if self._components is None:
            groups: dict[int, set[int]] = {}
            for v in self.verts:
                groups.setdefault(self._find(v), set()).add(v)
            self._components = list(groups.values())
        return self._components

    def leaves(self) -> list[int]:
        """The vertices of degree 1."""
        if self._leaves is None:
            self._leaves = [v for v in self.verts if self.deg[v] == 1]
        return self._leaves

    def blocks(self) -> tuple[list[tuple[set[int], set[int]]], set[int]]:
        if self._blocks is None:
            self._blocks = biconnected_components(self.verts, self.adj)
        return self._blocks


def _accepts(s: _EdgeSet, spec: SubgraphClassSpec, A: frozenset[int], L: Optional[frozenset[int]]) -> bool:
    """Is the spec's subgraph on the edge set s a member of its class?

    A and L are `_anchors(spec)`.  The subgraph's vertices are A and the
    edges' endpoints, so an anchor no edge touches is a lone one-vertex
    component.  The checks run cheapest first: cycles, leaves and lone
    anchors, components, and last the blocks (Hopcroft and Tarjan 1973) of
    a set with a cycle (parallel edges count) whose leaves lie in L: each
    end block needs a non-cut vertex in L, a block without cut vertices two.
    """
    family = _FAMILIES[spec.kind]
    if family.forest and s.cycles:
        return False
    lone = A.difference(s.verts)
    if L is not None and not (L.issuperset(lone) and L.issuperset(s.leaves())):
        return False
    if family.components is not None:
        comps = s.components() + [{v} for v in lone] if lone else s.components()
        if not family.components(comps, spec):
            return False
    if L is None or not s.cycles:
        return True
    blocks, cuts = s.blocks()
    for bvs, _ in blocks:
        ncuts = len(bvs & cuts)
        if ncuts == 1 and not (bvs - cuts) & L:
            return False
        if ncuts == 0 and len(bvs & L) < 2:
            return False
    return True


def is_in_class(g: WeightedMultigraph, edge_ids: Iterable[int], spec: SubgraphClassSpec) -> bool:
    """Does the subgraph on the canonical vertex set satisfy the class predicate?

    The canonical vertex set is the union of the edge endpoints with the
    anchor sets, so members correspond bijectively to edge subsets.
    """
    if spec.kind in WALK_KINDS:
        raise ValueError(f"{spec.kind} is a walk family, not an edge-subset class")
    A, L = _anchors(spec)
    g.check_vertices(A)
    eids = sorted(set(edge_ids))
    g.check_edge_ids(eids)
    s = _EdgeSet(g)
    for eid in eids:
        s.add(eid)
    return _accepts(s, spec, A, L)


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
    Each visited set is tested against every class by `_accepts`, the
    classes sharing its components, leaves and blocks, and adds its
    integer weight product to each order-k sum that accepts it; the sums
    are divided by L^k at the end.
    The search charges its meter one unit per set it visits, however many
    classes it serves, so `bounds.run_suite`, which asks for all its
    families in one call, is capped as one search.  Each walk family has a
    meter of its own and is computed after the search, in the order asked;
    the cap is checked before any family is computed.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    meter = WorkMeter(cap, "the edge-set search", "edge sets")
    specs = list(dict.fromkeys(specs))
    tests = [(spec, *_anchors(spec)) for spec in specs if spec.kind in EDGE_KINDS]
    A = frozenset().union(*(anchors for _, anchors, _ in tests))
    g.check_vertices(A)
    values = {spec: [0] * (M + 1) for spec, _, _ in tests}
    adj = g.adjacency()
    s = _EdgeSet(g)

    def reached(v: int) -> bool:
        return v in A or s.deg[v] > 0

    def visit():
        meter.charge()
        for spec, anchors, leaf_anchors in tests:
            if _accepts(s, spec, anchors, leaf_anchors):
                values[spec][s.k] += s.weight

    def children(frontier: list[int]):
        # frontier: the edges that may still join, each touching a reached
        # vertex; a child's frontier is worked out when the child is taken,
        # while s holds the parent's edge set
        for i, eid in enumerate(frontier):
            rest = frontier[i + 1:]
            for v in g.edges[eid][1:3]:  # its two ends
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
    out = {spec: CountSeries(M, _divide(vals, L)) for spec, vals in values.items()}
    walk = lambda spec: _FAMILIES[spec.kind].walk(g, spec, M, meter.limit)  # each on its own meter
    return {spec: out[spec] if spec in out else walk(spec) for spec in specs}


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
