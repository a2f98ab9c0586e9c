"""Weighted loopless multigraphs with exact rational edge weights.

Parsing and serialization of the line-oriented text format, structural
decompositions (components, breadth-first trees, blocks and cut vertices) and
generators for the standard example families.

The exact layers compute on integers: `WeightedMultigraph.integer_weights`
gives every edge's weight times L, the least common denominator of all the
weights.  A quantity that is a sum of products of k weights is then an
integer over L^k, and each layer divides by L^k once, when it reports.
Parallel edges are summed once per graph, in its pair table
(`WeightedMultigraph.pair_weights`), which every pair-level reader uses.
"""
from __future__ import annotations

import inspect
import math
import random
import re
import sys
from collections import deque
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence


class GraphFormatError(ValueError):
    """Malformed graph text or invalid graph construction."""


class Edge(NamedTuple):
    """An edge u-v of weight w, numbered `id` in its graph; a tuple, as cheap
    to build as one."""

    id: int
    u: int
    v: int
    w: Fraction


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _unreadable(what: str, tok: str) -> GraphFormatError:
    """The error for a token that does not read as a `what`: quoted, or
    named by its length when it is longer than the interpreter converts."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(tok):
        return GraphFormatError(f"{what} of {len(tok)} characters exceeds the limit of {limit} digits")
    return GraphFormatError(f"bad {what} {tok!r}")


def parse_weight(tok: str) -> Fraction:
    """A rational token: an optional sign, digits, then optionally "/digits"
    or ".digits" ("3", "-3/2", "0.25"); no exponents, so a short token
    cannot stand for a huge number."""
    try:
        if _RATIONAL.fullmatch(tok):
            return Fraction(tok)
    except (ZeroDivisionError, ValueError):  # a zero denominator, or too many digits
        pass
    raise _unreadable("weight", tok)


def _int_token(tok: str) -> int:
    """An integer token: ASCII digits with an optional sign, as in a weight;
    ValueError for anything else `int` reads (`1_0`, non-ASCII digits)."""
    if tok.isascii() and "_" not in tok:
        return int(tok)
    raise ValueError(tok)


def _edge(i: int, u: int, v: int, w: Fraction, n: int) -> Edge:
    """Edge number i, if u-v of weight w fits a graph on 1..n: the one check
    of the constructor and `parse`.  A loop is reported first, then an
    endpoint that is not an int in 1..n (`type(x) is int`, which a bool or a
    float fails), then a negative weight."""
    if u == v:
        raise GraphFormatError(f"loop edge at vertex {u}")
    if not (type(u) is int and type(v) is int and 1 <= u <= n and 1 <= v <= n):
        raise GraphFormatError(f"edge endpoint outside 1..{n}: ({u},{v})")
    if w.numerator < 0:
        raise GraphFormatError(f"negative weight on edge ({u},{v})")
    return Edge(i, u, v, w)


def _vertex_count(n: int) -> int:
    """n, if it counts the vertices of a graph: an int from 0 up to
    sys.maxsize, the most a tuple holds."""
    if type(n) is not int:
        raise GraphFormatError(f"bad vertex count {n!r}")
    if n < 0:
        raise GraphFormatError("negative vertex count")
    if n > sys.maxsize:
        raise GraphFormatError(f"vertex count exceeds the limit of {sys.maxsize}")
    return n


class WeightedMultigraph:
    """Loopless multigraph on vertices 1..n with nonnegative Fraction weights.

    Immutable after construction; parallel edges are kept distinct by edge id.
    Structures derived at some cost (the integer weights, the pair table,
    each component's cut tree, each G - e) are kept by `memo`, which takes
    no part in equality or hashing.
    """

    def __init__(self, n: int, edge_triples: Iterable[tuple[int, int, Fraction]]):
        n = _vertex_count(n)
        edges = [_edge(i, u, v, w if isinstance(w, Fraction) else Fraction(w), n)
                 for i, (u, v, w) in enumerate(edge_triples)]
        self._set_up(n, edges)

    def _set_up(self, n: int, edges: list[Edge]):
        """Build the graph of `edges`, numbered 0..m-1, each made by `_edge`."""
        self.n = n
        self.vertices: tuple[int, ...] = tuple(range(1, n + 1))
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.m = len(edges)
        adj: dict[int, list[tuple[int, int]]] = {x: [] for x in self.vertices}
        for i, u, v, _ in edges:  # unpacking an Edge beats reading its fields
            adj[u].append((v, i))
            adj[v].append((u, i))
        self._adj = adj
        self._memo: dict = {}

    # -- basic queries ----------------------------------------------------

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        return self._adj

    def memo(self, key, compute: Callable):
        """The value kept with the graph under `key`, made by `compute()` on
        first use; callers share it and must not modify it."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def check_vertices(self, vs: Iterable[int]):
        """ValueError for the first of vs that is not a vertex, an int in 1..n."""
        for v in vs:
            if not (type(v) is int and 1 <= v <= self.n):
                raise ValueError(f"vertex {v} outside 1..{self.n}")

    def check_edge_ids(self, eids: Iterable[int]):
        """ValueError if any of eids is outside 0..m-1."""
        if any(not 0 <= eid < self.m for eid in eids):
            raise ValueError("edge id out of range")

    def integer_weights(self) -> tuple[tuple[int, ...], int]:
        """(each edge's weight times L, by edge id; L), where L is the least
        common denominator of the weights (1 without edges)."""
        def scaled():
            ws = [e.w for e in self.edges]
            L = math.lcm(*{w.denominator for w in ws})
            return tuple([w.numerator * (L // w.denominator) for w in ws]), L

        return self.memo("integer_weights", scaled)

    def pair_weights(self) -> tuple[dict[int, dict[int, int]], int]:
        """(each vertex's neighbours, each with the total integer weight of
        the edges joining the two; L), scaled as in `integer_weights`.

        The one place where parallel edges are summed; a pair joined only by
        zero-weight edges is kept with weight 0.  Callers share the table
        and must not modify it.
        """
        def table():
            weights, L = self.integer_weights()
            A: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
            for (_, u, v, _), c in zip(self.edges, weights):
                A[u][v] = A[u].get(v, 0) + c
                A[v][u] = A[v].get(u, 0) + c
            return A, L

        return self.memo("pair_weights", table)

    def weighted_degree(self, x: int) -> Fraction:
        self.check_vertices((x,))
        return sum((self.edges[eid].w for _, eid in self._adj[x]), Fraction(0))

    def components(self) -> list[frozenset[int]]:
        return components_of(self.vertices, [(u, v) for _, u, v, _ in self.edges])

    def total_weight(self) -> Fraction:
        return sum((e.w for e in self.edges), Fraction(0))

    # -- transforms -------------------------------------------------------

    def merge_parallel(self) -> "WeightedMultigraph":
        """Replace every parallel family by one edge carrying the summed weight.

        Never applied implicitly anywhere; the subgraph classes that allow
        multiple edges must see the original multigraph.  The edges come in
        the order of the pair table: by smaller end, then as first met.
        """
        A, L = self.pair_weights()
        triples = [(u, v, Fraction(c, L)) for u, nbrs in A.items() for v, c in nbrs.items() if u < v]
        return WeightedMultigraph(self.n, triples)

    def without_edge(self, eid: int) -> "WeightedMultigraph":
        """G - e, the later edges renumbered down by one; memoised, so its
        readers share one graph and what that memoises."""
        self.check_edge_ids((eid,))
        return self.memo(
            ("without_edge", eid),
            lambda: WeightedMultigraph(self.n, [(e.u, e.v, e.w) for e in self.edges if e.id != eid]),
        )

    # -- text format ------------------------------------------------------

    def serialize(self) -> str:
        lines = [f"v {self.n}"]
        for e in self.edges:
            lines.append(f"e {e.u} {e.v} {e.w}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "WeightedMultigraph":
        """The graph of the text format, every edge checked once by the
        constructor's own check, and each fault reported with its line."""
        n = None
        edges: list[Edge] = []
        weights: dict[str, Fraction] = {}  # each distinct token is parsed once
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "v":
                    if n is not None:
                        raise GraphFormatError("duplicate vertex declaration")
                    if len(parts) != 2:
                        raise GraphFormatError("expected 'v <n>'")
                    try:
                        count = _int_token(parts[1])
                    except ValueError:
                        raise _unreadable("vertex count", parts[1]) from None
                    n = _vertex_count(count)
                elif parts[0] == "e":
                    if n is None:
                        raise GraphFormatError("edge before vertex declaration")
                    if len(parts) != 4:
                        raise GraphFormatError("expected 'e <u> <v> <w>'")
                    try:
                        u, v = _int_token(parts[1]), _int_token(parts[2])
                    except ValueError:
                        raise GraphFormatError("bad endpoint") from None
                    w = weights.get(parts[3])
                    if w is None:
                        w = weights[parts[3]] = parse_weight(parts[3])
                    edges.append(_edge(len(edges), u, v, w, n))
                elif len(parts[0]) > 20:  # a long one is named by its length, not echoed
                    raise GraphFormatError(f"unknown directive of {len(parts[0])} characters")
                else:
                    raise GraphFormatError(f"unknown directive {parts[0]!r}")
            except GraphFormatError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from None
        if n is None:
            raise GraphFormatError("missing 'v <n>' header")
        g = cls.__new__(cls)
        g._set_up(n, edges)
        return g

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedMultigraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"WeightedMultigraph(n={self.n}, m={self.m})"


# -- components -----------------------------------------------------------


def components_of(vertices: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[frozenset[int]]:
    parent = {v: v for v in vertices}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


def bfs_tree(adj: dict, start: int, banned: Iterable = ()) -> dict[int, Optional[tuple[int, object]]]:
    """Breadth-first search from `start` that never enters `banned`.

    `adj` maps a vertex to its (neighbour, label) pairs.  Each reached vertex
    maps to (the vertex it was first reached from, the label of that step);
    `start` maps to None.
    """
    prev: dict[int, Optional[tuple[int, object]]] = {start: None}
    banned = set(banned)
    q = deque([start])
    while q:
        u = q.popleft()
        for v, label in adj[u]:
            if v not in prev and v not in banned:
                prev[v] = (u, label)
                q.append(v)
    return prev


def bfs_path(adj: dict, x: int, y: int) -> Optional[list[tuple[int, int, object]]]:
    """The steps (u, v, label) of a shortest x-y path in `adj` (as for
    `bfs_tree`), or None when y is not reached."""
    prev = bfs_tree(adj, x)
    if y not in prev:
        return None
    out = []
    while prev[y] is not None:
        u, label = prev[y]
        out.append((u, y, label))
        y = u
    out.reverse()
    return out


# -- blocks ---------------------------------------------------------------


def biconnected_components(
    vertices: Sequence[int], adj: dict[int, list[tuple[int, int]]]
) -> tuple[list[tuple[set[int], set[int]]], set[int]]:
    """Blocks and cut vertices of the graph given by an incidence structure.

    `adj` maps vertex -> list of (neighbor, edge id); each edge id appears once
    per endpoint.  Returns ([(block vertex set, block edge-id set)], cuts).
    Isolated vertices come back as single-vertex blocks with no edges.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[tuple[set[int], set[int]]] = []
    cuts: set[int] = set()
    counter = 0

    for root in vertices:
        if root in disc:
            continue
        if not adj.get(root):
            disc[root] = -1
            blocks.append(({root}, set()))
            continue
        disc[root] = low[root] = counter
        counter += 1
        estack: list[tuple[int, int, int]] = []  # (edge id, its two ends)
        stack: list[tuple[int, int | None, Iterator[tuple[int, int]]]] = [
            (root, None, iter(adj[root]))
        ]
        root_blocks = 0
        while stack:
            v, peid, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        bvs: set[int] = set()
                        blk: set[int] = set()
                        while True:
                            eid, a, b = estack.pop()
                            blk.add(eid)
                            bvs.add(a)
                            bvs.add(b)
                            if eid == peid:
                                break
                        blocks.append((bvs, blk))
                        if u == root:
                            root_blocks += 1
                        else:
                            cuts.add(u)
                continue
            w_, eid = nxt
            if eid == peid:
                continue
            if w_ not in disc:
                estack.append((eid, v, w_))
                disc[w_] = low[w_] = counter
                counter += 1
                stack.append((w_, eid, iter(adj[w_])))
            elif disc[w_] < disc[v]:
                estack.append((eid, v, w_))
                if disc[w_] < low[v]:
                    low[v] = disc[w_]
        if root_blocks >= 2:
            cuts.add(root)
    return blocks, cuts


# -- generators -----------------------------------------------------------


def _weights(m: int, weights) -> list[Fraction]:
    if weights is None:
        return [Fraction(1)] * m
    if isinstance(weights, (int, Fraction)):
        return [Fraction(weights)] * m
    ws = [Fraction(w) for w in weights]
    if len(ws) != m:
        raise ValueError(f"expected {m} weights, got {len(ws)}")
    return ws


def path_graph(n: int, weights=None) -> WeightedMultigraph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    ws = _weights(n - 1, weights)
    return WeightedMultigraph(n, [(i, i + 1, ws[i - 1]) for i in range(1, n)])


def cycle_graph(n: int, weights=None) -> WeightedMultigraph:
    if n < 3:
        raise ValueError("n >= 3 required")
    ws = _weights(n, weights)
    triples = [(i, i + 1, ws[i - 1]) for i in range(1, n)] + [(n, 1, ws[n - 1])]
    return WeightedMultigraph(n, triples)


def star_graph(r: int, weights=None) -> WeightedMultigraph:
    """Star K_{1,r}; vertex 1 is the center."""
    if r < 1:
        raise ValueError("r >= 1 required")
    ws = _weights(r, weights)
    return WeightedMultigraph(r + 1, [(1, i + 1, ws[i - 1]) for i in range(1, r + 1)])


def wheel_graph(r: int, weights=None) -> WeightedMultigraph:
    """Wheel: hub (vertex 1) joined to every vertex of a rim cycle C_r."""
    if r < 3:
        raise ValueError("r >= 3 required")
    ws = _weights(2 * r, weights)
    triples = [(1, i, ws[i - 2]) for i in range(2, r + 2)]
    rim = list(range(2, r + 2))
    for k in range(r):
        triples.append((rim[k], rim[(k + 1) % r], ws[r + k]))
    return WeightedMultigraph(r + 1, triples)


def complete_graph(n: int, weight=1) -> WeightedMultigraph:
    if n < 1:
        raise ValueError("n >= 1 required")
    w = Fraction(weight)
    triples = [(i, j, w) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return WeightedMultigraph(n, triples)


def theta_graph(r: int, weight=1) -> WeightedMultigraph:
    """Endvertices a=1, b=2 joined by internally disjoint paths of lengths 1..r.

    On each path one edge carries the given weight, the remaining edges weight 1.
    """
    if r < 2:
        raise ValueError("r >= 2 required")
    w = Fraction(weight)
    triples: list[tuple[int, int, Fraction]] = []
    nxt = 3
    for length in range(1, r + 1):
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        chain = [1] + inner + [2]
        for k in range(length):
            triples.append((chain[k], chain[k + 1], w if k == 0 else Fraction(1)))
    return WeightedMultigraph(nxt - 1, triples)


def parallel_expand(g: WeightedMultigraph, s: int) -> WeightedMultigraph:
    """Replace every edge by s parallel copies of weight w_e/s."""
    if s < 1:
        raise ValueError("s >= 1 required")
    triples = []
    for e in g.edges:
        triples += [(e.u, e.v, e.w / s)] * s
    return WeightedMultigraph(g.n, triples)


def k2_multi(s: int, total=None) -> WeightedMultigraph:
    """Two vertices joined by s parallel edges of weight total/s (default total=s)."""
    return parallel_expand(path_graph(2, Fraction(s if total is None else total)), s)


def star_multi(r: int, s: int, total=None) -> WeightedMultigraph:
    """Star K_{1,r} with each edge replaced by s parallels of weight total/s."""
    return parallel_expand(star_graph(r, Fraction(s if total is None else total)), s)


def truncated_tree(r: int, depth: int, weight=1) -> WeightedMultigraph:
    """Ball of the given radius around a vertex of the infinite r-regular tree."""
    if r < 1 or depth < 0:
        raise ValueError("r >= 1 and depth >= 0 required")
    w = Fraction(weight)
    triples: list[tuple[int, int, Fraction]] = []
    frontier = [1]
    nxt = 2
    for d in range(depth):
        new_frontier = []
        for v in frontier:
            kids = r if d == 0 else r - 1
            for _ in range(kids):
                triples.append((v, nxt, w))
                new_frontier.append(nxt)
                nxt += 1
        frontier = new_frontier
        if not frontier:
            break
    return WeightedMultigraph(nxt - 1, triples)


def disjoint_union(graphs: Sequence[WeightedMultigraph]) -> WeightedMultigraph:
    triples: list[tuple[int, int, Fraction]] = []
    off = 0
    for g in graphs:
        triples.extend((e.u + off, e.v + off, e.w) for e in g.edges)
        off += g.n
    return WeightedMultigraph(off, triples)


_WEIGHT_CHOICES = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                   Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(5, 2)]


def random_multigraph(
    rng: random.Random,
    n: int,
    p: float = 0.5,
    max_multiplicity: int = 1,
    weights: str = "rational",
) -> WeightedMultigraph:
    """Seeded random graph: each pair gets 0..max_multiplicity parallel edges."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability p must lie in [0, 1], not {p}")
    triples: list[tuple[int, int, Fraction]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                mult = 1 if max_multiplicity <= 1 else rng.randint(1, max_multiplicity)
                for _ in range(mult):
                    w = Fraction(1) if weights == "unit" else rng.choice(_WEIGHT_CHOICES)
                    triples.append((i, j, w))
    return WeightedMultigraph(n, triples)


# each family's parameters are its builder's: a required one must be given,
# and one the builder does not take is refused
_BUILDERS: dict[str, Callable[..., WeightedMultigraph]] = {
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "wheel": wheel_graph,
    "complete": complete_graph,
    "theta": theta_graph,
    "k2s": k2_multi,
    "stars": star_multi,
    "pns": lambda n, s: parallel_expand(path_graph(n), s),
    "tree": truncated_tree,
    "trees": lambda r, depth, s: parallel_expand(truncated_tree(r, depth), s),
    "random": lambda n, p=0.5, max_multiplicity=1, weights="rational", seed=0: random_multigraph(
        random.Random(seed), n, p, max_multiplicity, weights
    ),
}


def generate(family: str, **params) -> WeightedMultigraph:
    """Dispatcher used by the CLI `generate` subcommand: the family's builder
    called with `params`, which must fit its signature."""
    if family not in _BUILDERS:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_BUILDERS)}")
    build = _BUILDERS[family]
    taken = inspect.signature(build).parameters
    for name, param in taken.items():
        if param.default is param.empty and name not in params:
            raise ValueError(f"family {family!r} needs the parameter {name!r}")
    unknown = sorted(params.keys() - taken.keys())
    if unknown:
        raise ValueError(f"family {family!r} does not take the parameter {unknown[0]!r}")
    return build(**params)
