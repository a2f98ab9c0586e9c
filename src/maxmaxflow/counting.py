"""Weighted series over walk families and anchored subgraph classes.

A series is the vector (a_0, ..., a_M) where a_m is the total weight of the
m-edge (or m-step) members of the family.  Walk families are computed by
convolution or depth-first search; subgraph classes by explicit enumeration
of edge subsets against the defining predicate, so each member is visited
exactly once and carries the product of its edge weights.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .graph import WeightedMultigraph, biconnected_components, components_of

DEFAULT_WORK_CAP = 50_000_000
WORK_CAP_ENV = "MAXMAXFLOW_WORKCAP"

WALK_KINDS = frozenset({"W", "FPW", "SAW", "FPSAW"})
EDGE_KINDS = frozenset({"T", "F", "H", "C", "BT", "BF", "BFSTAR", "B", "BLOCKPATH"})


class WorkCapExceeded(RuntimeError):
    pass


def work_cap() -> int:
    raw = os.environ.get(WORK_CAP_ENV)
    return int(raw) if raw else DEFAULT_WORK_CAP


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
    spec: SubgraphClassSpec
    M: int
    values: tuple[Fraction, ...]

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m]


# -- walk families --------------------------------------------------------


def _pair_weights(g: WeightedMultigraph) -> dict[int, dict[int, Fraction]]:
    A: dict[int, dict[int, Fraction]] = {v: {} for v in g.vertices}
    for e in g.edges:
        A[e.u][e.v] = A[e.u].get(e.v, Fraction(0)) + e.w
        A[e.v][e.u] = A[e.v].get(e.u, Fraction(0)) + e.w
    return A


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
    A = _pair_weights(g)
    ones = set(start)
    cur = {v: Fraction(int(v in ones)) for v in g.vertices}
    out = [cur[x]]
    for _ in range(M):
        cur = {
            u: Fraction(0) if u in absorbing else sum((w * cur[v] for v, w in A[u].items()), Fraction(0))
            for u in g.vertices
        }
        out.append(cur[x])
    return tuple(out)


def _self_avoiding(g: WeightedMultigraph, x: int, Ys: frozenset[int], M: int) -> tuple[Fraction, ...]:
    """Self-avoiding walks from x that stop on first reaching Ys.

    Parallel steps aggregate by weight.
    """
    out = [Fraction(0)] * (M + 1)
    if x in Ys:
        out[0] = Fraction(1)
        return tuple(out)
    A = _pair_weights(g)
    visited = {x}

    def dfs(u: int, depth: int, prod: Fraction):
        for v, w in A[u].items():
            if depth + 1 > M:
                return
            if v in Ys:
                out[depth + 1] += prod * w
            elif v not in visited and depth + 1 < M:
                visited.add(v)
                dfs(v, depth + 1, prod * w)
                visited.remove(v)

    dfs(x, 0, Fraction(1))
    return tuple(out)


def walk_counts(g: WeightedMultigraph, x: int, y: int, M: int) -> CountSeries:
    """Total weight of m-step walks from x to y, m = 0..M."""
    _require_vertices(g, [x, y])
    return CountSeries(class_spec("W", x=x, y=y), M, _transfer(g, x, [y], frozenset(), M))


def walk_total_counts(g: WeightedMultigraph, x: int, M: int) -> CountSeries:
    """Row sums: total weight of m-step walks from x to anywhere."""
    _require_vertices(g, [x])
    return CountSeries(class_spec("W", x=x, y=x), M, _transfer(g, x, g.vertices, frozenset(), M))


def fpw_counts(g: WeightedMultigraph, x: int, Y: Iterable[int], M: int) -> CountSeries:
    """First-passage walks from x to the set Y: interior steps avoid Y."""
    Ys = _target_set(g, x, Y)
    return CountSeries(class_spec("FPW", x=x, Y=Ys), M, _transfer(g, x, Ys, Ys, M))


def saw_counts(g: WeightedMultigraph, x: int, y: int, M: int) -> CountSeries:
    """Self-avoiding walks from x to y.  Parallel steps aggregate by weight."""
    _require_vertices(g, [x, y])
    return CountSeries(class_spec("SAW", x=x, y=y), M, _self_avoiding(g, x, frozenset({y}), M))


def fpsaw_counts(g: WeightedMultigraph, x: int, Y: Iterable[int], M: int) -> CountSeries:
    """First-passage self-avoiding walks from x to the set Y."""
    Ys = _target_set(g, x, Y)
    return CountSeries(class_spec("FPSAW", x=x, Y=Ys), M, _self_avoiding(g, x, Ys, M))


# -- subgraph-class predicates --------------------------------------------


def _degrees(vs: set[int], edges) -> dict[int, int]:
    deg = {v: 0 for v in vs}
    for e in edges:
        deg[e.u] += 1
        deg[e.v] += 1
    return deg


def _component_sets(vs: set[int], edges) -> list[frozenset[int]]:
    return components_of(vs, [(e.u, e.v) for e in edges])


def _sub_blocks(vs: set[int], edges):
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vs}
    for e in edges:
        adj[e.u].append((e.v, e.id))
        adj[e.v].append((e.u, e.id))
    return biconnected_components(sorted(vs), adj)


def _blocks_anchored(vs: set[int], edges, anchors: frozenset[int]) -> bool:
    """Every end block has a non-cut anchor, and every block without cut
    vertices is a single anchor or holds at least two anchors."""
    blocks, cuts = _sub_blocks(vs, edges)
    for bvs, _ in blocks:
        ncuts = len(bvs & cuts)
        if ncuts == 1 and not (bvs - cuts) & anchors:
            return False
        if ncuts == 0 and len(bvs & anchors) < min(len(bvs), 2):
            return False
    return True


def is_in_class(g: WeightedMultigraph, edge_ids: Iterable[int], spec: SubgraphClassSpec) -> bool:
    """Does the subgraph on the canonical vertex set satisfy the class predicate?

    The canonical vertex set is the union of the edge endpoints with the
    anchor sets, so members correspond bijectively to edge subsets.
    """
    kind = spec.kind
    if kind in WALK_KINDS:
        raise ValueError(f"{kind} is a walk family, not an edge-subset class")
    edges = [g.edges[i] for i in sorted(set(edge_ids))]
    X = spec.X or frozenset()
    Y = spec.Y or frozenset()
    vs = {spec.x, spec.y} if kind == "BLOCKPATH" else set(X | Y)
    for e in edges:
        vs.add(e.u)
        vs.add(e.v)

    if kind == "B":
        return _blocks_anchored(vs, edges, X)
    comps = _component_sets(vs, edges)
    if kind == "C":
        return all(c & X for c in comps)

    if kind in ("T", "F", "H"):
        if len(edges) != len(vs) - len(comps):
            return False
        deg = _degrees(vs, edges)
        leaf_anchors = X | Y if kind == "F" else X
        if any(deg[v] <= 1 and v not in leaf_anchors for v in vs):
            return False
        if kind == "T":
            return len(comps) == 1
        if kind == "F":
            return all(len(c & Y) == 1 for c in comps)
        if spec.p is not None and any(len(c & X) < spec.p for c in comps):
            return False
        return spec.r is None or len(comps) == spec.r

    if kind in ("BF", "BFSTAR"):
        # a BF component holds exactly one member of Y, a BFSTAR one at least one
        if not all(len(c & Y) == 1 if kind == "BF" else c & Y for c in comps):
            return False
        return _blocks_anchored(vs, edges, X | Y)

    if len(comps) != 1:
        return False
    if kind == "BT":
        return _blocks_anchored(vs, edges, X)
    # BLOCKPATH: one block, or a chain whose two end blocks hold x and y
    blocks, cuts = _sub_blocks(vs, edges)
    if len(blocks) == 1:
        return True
    ends = [(bvs - cuts) for bvs, _ in blocks if len(bvs & cuts) == 1]
    if len(ends) != 2:
        return False
    a, b = ends
    return (spec.x in a and spec.y in b) or (spec.x in b and spec.y in a)


def class_count_series(
    g: WeightedMultigraph, spec: SubgraphClassSpec, M: int, cap: Optional[int] = None
) -> CountSeries:
    """Series (a_0..a_M) for the family; walk kinds dispatch to the walk code.

    Edge-subset kinds test every subset of size m <= M against the class
    predicate; the number of subsets is checked against the work cap before
    starting.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    if spec.kind == "W":
        return walk_counts(g, spec.x, spec.y, M)
    if spec.kind == "FPW":
        return fpw_counts(g, spec.x, spec.Y, M)
    if spec.kind == "SAW":
        return saw_counts(g, spec.x, spec.y, M)
    if spec.kind == "FPSAW":
        return fpsaw_counts(g, spec.x, spec.Y, M)

    limit = cap if cap is not None else work_cap()
    total = sum(math.comb(g.m, m) for m in range(min(M, g.m) + 1))
    if total > limit:
        raise WorkCapExceeded(
            f"enumeration needs {total} subsets, above the cap {limit}"
        )

    anchors = (
        {spec.x, spec.y}
        if spec.kind == "BLOCKPATH"
        else set(spec.X or frozenset()) | set(spec.Y or frozenset())
    )
    _require_vertices(g, anchors)

    values = [Fraction(0)] * (M + 1)
    for m in range(min(M, g.m) + 1):
        acc = Fraction(0)
        for combo in itertools.combinations(range(g.m), m):
            if is_in_class(g, combo, spec):
                w = Fraction(1)
                for i in combo:
                    w *= g.edges[i].w
                acc += w
        values[m] = acc
    return CountSeries(spec, M, tuple(values))


def two_connected_through_edge_series(
    g: WeightedMultigraph, eid: int, M: int, cap: Optional[int] = None
) -> CountSeries:
    """Series of nonseparable subgraphs with >= 2 edges containing a given edge.

    With e = xy, the m-edge members are exactly e plus an (m-1)-edge xy-block
    path of G - e, so a_m = w_e * bp_{m-1}(G - e); the work cap applies to
    that BLOCKPATH enumeration.  A single edge does not count (a_1 = 0).
    """
    if not 0 <= eid < g.m:
        raise ValueError("edge id out of range")
    e0 = g.edges[eid]
    spec = SubgraphClassSpec(kind="BLOCKPATH", x=e0.u, y=e0.v)
    values = [Fraction(0)] * (M + 1)
    if M >= 1:
        rest = WeightedMultigraph(g.n, [(e.u, e.v, e.w) for e in g.edges if e.id != eid])
        values[1:] = [e0.w * a for a in class_count_series(rest, spec, M - 1, cap).values]
    return CountSeries(spec, M, tuple(values))
