"""Reference series for the edge-subset classes: test every subset of at most
M edges against the class predicate written directly from the definitions.

This is the enumeration `counting` used before it searched from the anchors.
Its series share nothing with the search but `components_of` and
`biconnected_components`, so it checks both the search and its predicates.
`class_specs` draws the specs the tests compare on.
"""
import itertools
from fractions import Fraction

from hypothesis import strategies as st

from maxmaxflow.counting import EDGE_KINDS, class_spec
from maxmaxflow.graph import biconnected_components, components_of


def _degrees(vs, edges):
    deg = {v: 0 for v in vs}
    for e in edges:
        deg[e.u] += 1
        deg[e.v] += 1
    return deg


def _sub_blocks(vs, edges):
    adj = {v: [] for v in vs}
    for e in edges:
        adj[e.u].append((e.v, e.id))
        adj[e.v].append((e.u, e.id))
    return biconnected_components(sorted(vs), adj)


def _blocks_anchored(vs, edges, anchors):
    blocks, cuts = _sub_blocks(vs, edges)
    for bvs, _ in blocks:
        ncuts = len(bvs & cuts)
        if ncuts == 1 and not (bvs - cuts) & anchors:
            return False
        if ncuts == 0 and len(bvs & anchors) < min(len(bvs), 2):
            return False
    return True


def in_class(g, edge_ids, spec):
    """The class predicate on the subgraph (anchors + endpoints, edge_ids)."""
    kind = spec.kind
    edges = [g.edges[i] for i in sorted(set(edge_ids))]
    X = spec.X or frozenset()
    Y = spec.Y or frozenset()
    vs = {spec.x, spec.y} if kind == "BLOCKPATH" else set(X | Y)
    for e in edges:
        vs.add(e.u)
        vs.add(e.v)

    if kind == "B":
        return _blocks_anchored(vs, edges, X)
    comps = components_of(vs, [(e.u, e.v) for e in edges])
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


def series_by_filter(g, spec, M):
    """(a_0..a_M): total weight of the m-edge subsets in the class."""
    values = [Fraction(0)] * (M + 1)
    for m in range(min(M, g.m) + 1):
        for combo in itertools.combinations(range(g.m), m):
            if in_class(g, combo, spec):
                w = Fraction(1)
                for i in combo:
                    w *= g.edges[i].w
                values[m] += w
    return values


@st.composite
def class_specs(draw, n):
    """A spec of a random edge-subset kind with anchors in 1..n; X and Y
    overlap freely, Y is optional where the kind allows, H draws p and r."""
    kind = draw(st.sampled_from(sorted(EDGE_KINDS)))
    vertices = st.integers(1, n)
    if kind == "BLOCKPATH":
        x, y = draw(st.lists(vertices, min_size=2, max_size=2, unique=True))
        return class_spec(kind, x=x, y=y)
    some = st.frozensets(vertices, min_size=1, max_size=3)
    if kind in ("F", "BF", "BFSTAR"):
        return class_spec(kind, X=draw(st.frozensets(vertices, max_size=3)), Y=draw(some))
    kw = {"X": draw(some), "Y": draw(st.none() | some)}
    if kind == "H":
        kw["p"] = draw(st.none() | st.integers(1, 2))
        kw["r"] = draw(st.none() | st.integers(1, 3))
    return class_spec(kind, **kw)
