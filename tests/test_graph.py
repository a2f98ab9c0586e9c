"""Graph type, text format, blocks and cut vertices, generators."""
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from maxmaxflow import graph
from maxmaxflow.graph import (
    GraphFormatError,
    WeightedMultigraph,
    biconnected_components,
    components_of,
    complete_graph,
    cycle_graph,
    generate,
    k2_multi,
    parallel_expand,
    path_graph,
    random_multigraph,
    star_graph,
    theta_graph,
    truncated_tree,
    wheel_graph,
)


# -- parsing / serialization ----------------------------------------------


def test_parse_basic():
    g = WeightedMultigraph.parse("v 2\ne 1 2 3/2\n")
    assert g.n == 2 and g.m == 1
    assert g.edges[0].w == F(3, 2)


def test_parse_decimal_and_comments():
    g = WeightedMultigraph.parse("# header\nv 3\ne 1 2 0.5  # half\ne 2 3 2\n")
    assert g.edges[0].w == F(1, 2)
    assert g.edges[1].w == F(2)


def test_parse_parallel_edges_distinct():
    g = WeightedMultigraph.parse("v 2\ne 1 2 1\ne 1 2 1\n")
    assert g.m == 2
    assert g.edges[0].id != g.edges[1].id


@pytest.mark.parametrize(
    "text,snippet",
    [
        ("v 2\ne 1 1 1\n", "loop"),
        ("v 2\ne 1 2 -1\n", "negative"),
        ("v 2\ne 1 3 1\n", "outside"),
        ("v 2\ne 1 2\n", "expected"),
        ("e 1 2 1\n", "before"),
        ("v 2\nv 2\n", "duplicate"),
        ("x 1 2\n", "unknown"),
        ("v 2\ne 1 2 1/0\n", "weight"),
    ],
)
def test_parse_errors(text, snippet):
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse(text)
    assert snippet in str(ei.value)


def test_parse_error_reports_line_number():
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse("v 3\ne 1 2 1\ne 1 1 1\n")
    assert "line 3" in str(ei.value)


# Fraction would read these, and an exponent lets a few bytes stand for a
# number of millions of digits
@pytest.mark.parametrize("tok", ["1e5", "1_0", "1E-3", "2.5e1", ".5", "5."])
def test_parse_rejects_tokens_outside_the_weight_grammar(tok):
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse(f"v 2\ne 1 2 1\ne 1 2 {tok}\n")
    assert str(ei.value) == f"line 3: bad weight {tok!r}"


def test_parse_repeated_weight_tokens():
    # each distinct token is parsed once per call: a repeated good token
    # gives equal weights, a repeated bad one is reported at its first line
    g = WeightedMultigraph.parse("v 3\ne 1 2 2/3\ne 2 3 2/3\ne 1 3 1\n")
    assert [e.w for e in g.edges] == [F(2, 3), F(2, 3), F(1)]
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse("v 3\ne 1 2 1\ne 1 2 1e3\ne 2 3 1e3\n")
    assert str(ei.value) == "line 3: bad weight '1e3'"
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse("v 3\ne 1 2 1\ne 1 2 1\ne 2 3 -1\ne 2 3 -1\n")
    assert str(ei.value) == "line 4: negative weight on edge (2,3)"


# the one table of edge faults: the constructor's message, which parse
# reports with the edge's line, for int and Fraction weights alike.  The
# checks run in the order loop, endpoints, sign.  test_parse_error_messages
# holds two more faults on line 3, after a good edge
@pytest.mark.parametrize("w", [1, F(1, 2)])
@pytest.mark.parametrize("n,triple,message", [
    (3, (2, 2, None), "loop edge at vertex 2"),
    (3, (1, 4, None), "edge endpoint outside 1..3: (1,4)"),
    (3, (0, 1, None), "edge endpoint outside 1..3: (0,1)"),
    (3, (1, 2, "neg"), "negative weight on edge (1,2)"),
    (3, (3, 3, "neg"), "loop edge at vertex 3"),
    (3, (1, 5, "neg"), "edge endpoint outside 1..3: (1,5)"),
    (3, (1, 4, "neg"), "edge endpoint outside 1..3: (1,4)"),
])
def test_constructor_errors(w, n, triple, message):
    u, v, sign = triple
    weight = -w if sign == "neg" else w
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph(n, [(1, 2, F(1)), (u, v, weight)])
    assert str(ei.value) == message
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse(f"v {n}\ne 1 2 1\ne {u} {v} {weight}\n")
    assert str(ei.value) == f"line 3: {message}"
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph(-1, [])
    assert str(ei.value) == "negative vertex count"


# endpoints and the vertex count are ints: a float or a bool equal to one is
# refused, since the text format could not write it back
@pytest.mark.parametrize("n,triples,message", [
    (2, [(1.0, 2, 1)], "edge endpoint outside 1..2: (1.0,2)"),
    (2, [(1, 2.0, 1)], "edge endpoint outside 1..2: (1,2.0)"),
    (2, [(True, 2, 1)], "edge endpoint outside 1..2: (True,2)"),
    (2, [(2, True, 1)], "edge endpoint outside 1..2: (2,True)"),
    (2.0, [(1, 2, 1)], "bad vertex count 2.0"),
    (True, [], "bad vertex count True"),
])
def test_endpoints_and_vertex_count_are_ints(n, triples, message):
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph(n, triples)
    assert str(ei.value) == message


@pytest.mark.parametrize("v", [True, 1.0])
def test_check_vertices_refuses_what_only_equals_a_vertex(v):
    with pytest.raises(ValueError) as ei:
        path_graph(2).check_vertices([v])
    assert str(ei.value) == f"vertex {v} outside 1..2"


def test_constructor_accepts_int_and_fraction_weights_alike():
    g = WeightedMultigraph(3, [(1, 2, 2), (2, 3, F(2)), (1, 3, 0)])
    assert g == WeightedMultigraph(3, [(1, 2, F(2)), (2, 3, F(2)), (1, 3, F(0))])
    assert all(type(e.w) is F for e in g.edges)
    assert [(e.id, e.u, e.v) for e in g.edges] == [(0, 1, 2), (1, 2, 3), (2, 1, 3)]


# each message with its line, where a line has two faults too: a line's
# tokens are read first (its endpoints, then its weight), then its edge gets
# the constructor's check (loop, endpoints, sign); the first faulty line is
# the one reported.  Two rows have a short id that names the fault; they
# check the full message all the same
@pytest.mark.parametrize("text,message", [
    ("v 3\ne 1 2 1\ne 2 2 1\n", "line 3: loop edge at vertex 2"),
    pytest.param("v 3\ne 1 2 1\ne 1 2 -1/2\n", "line 3: negative weight on edge (1,2)",
                 id="v 3\ne 1 2 1\ne 1 2 -1/2\n-line 3: negative weight"),
    pytest.param("v 3\ne 1 2 1\ne 1 4 1\n", "line 3: edge endpoint outside 1..3: (1,4)",
                 id="v 3\ne 1 2 1\ne 1 4 1\n-line 3: endpoint outside 1..3"),
    ("v 3\ne 2 2 -1\n", "line 2: loop edge at vertex 2"),
    ("v 3\ne 1 2 1\ne 3 3 -1\n", "line 3: loop edge at vertex 3"),
    ("v 3\ne 1 2 -1\ne 2 2 -1\n", "line 2: negative weight on edge (1,2)"),
    ("v 3\ne 2 2 -1\ne 1 2 -1\n", "line 2: loop edge at vertex 2"),
    ("v 3\ne 2 2 x\n", "line 2: bad weight 'x'"),
    ("v 3\ne a 2 1\n", "line 2: bad endpoint"),
    ("v 3\ne 1 2 1\n\n# c\ne 1 2 1\ne 3 3 1\n", "line 6: loop edge at vertex 3"),
    ("v 3\ne 1 2 -0\ne 1 1 0\n", "line 3: loop edge at vertex 1"),
    ("v x\n", "line 1: bad vertex count 'x'"),
    ("# c\nv -2\n", "line 2: negative vertex count"),
    # integers are ASCII digits with an optional sign, as in a weight
    ("v 1_0\n", "line 1: bad vertex count '1_0'"),
    ("v \uff13\n", "line 1: bad vertex count '\uff13'"),
    ("v 4\ne \u0663 4 1\n", "line 2: bad endpoint"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse(text)
    assert str(ei.value) == message


# no tuple holds more than sys.maxsize vertices.  parse is checked first:
# without the constructor's check, its tuple of vertices would grow until
# memory ran out instead of failing the test
def test_vertex_count_above_maxsize_is_a_format_error():
    message = f"vertex count exceeds the limit of {sys.maxsize}"
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph.parse(f"v {sys.maxsize + 1}\ne 1 2 1\n")
    assert str(ei.value) == f"line 1: {message}"
    with pytest.raises(GraphFormatError) as ei:
        WeightedMultigraph(sys.maxsize + 1, [])
    assert str(ei.value) == message


# an unknown directive is quoted while short, and named by its length when
# long, so the error stays one short line
def test_unknown_directive_message():
    for directive, message in (("x", "unknown directive 'x'"),
                               ("z" * 5000, "unknown directive of 5000 characters")):
        with pytest.raises(GraphFormatError) as ei:
            WeightedMultigraph.parse(f"v 2\n{directive} 1 2\n")
        assert str(ei.value) == f"line 2: {message}"


def test_serialize_lowest_terms():
    g = WeightedMultigraph(2, [(1, 2, F(2, 4))])
    assert "1/2" in g.serialize()


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(0, 10))
    triples = []
    for _ in range(m):
        u = draw(st.integers(1, n))
        v = draw(st.integers(1, n))
        if u == v:
            continue
        w = F(draw(st.integers(0, 20)), draw(st.integers(1, 9)))
        triples.append((u, v, w))
    return WeightedMultigraph(n, triples)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_roundtrip(g):
    h = WeightedMultigraph.parse(g.serialize())
    assert h == g and hash(h) == hash(g)
    assert h.edges == g.edges and [e.id for e in h.edges] == list(range(g.m))


# one member of every family of `generate`
FAMILY_EXAMPLES = {
    "path": {"n": 4, "weights": [1, F(1, 2), 3]},
    "cycle": {"n": 4},
    "star": {"r": 3, "weights": F(2, 3)},
    "wheel": {"r": 4},
    "complete": {"n": 4, "weight": F(3, 2)},
    "theta": {"r": 3, "weight": F(1, 3)},
    "k2s": {"s": 3},
    "stars": {"r": 2, "s": 3, "total": F(1, 2)},
    "pns": {"n": 3, "s": 2},
    "tree": {"r": 3, "depth": 2},
    "trees": {"r": 2, "depth": 2, "s": 3},
    "random": {"n": 5, "p": 0.6, "max_multiplicity": 2, "seed": 7},
}

# what a caller may hand the constructor, valid or not
ENDPOINTS = [-1, 0, 1, 2, 3, 4, 1.0, 2.0, True, F(2)]
WEIGHTS = [0, 1, 2, F(1, 2), F(7, 3), 0.25, -1, F(-1, 2), True, "3/4"]


def test_every_constructed_graph_round_trips():
    assert sorted(FAMILY_EXAMPLES) == sorted(graph._BUILDERS)
    built = [generate(family, **params) for family, params in FAMILY_EXAMPLES.items()]
    rng = random.Random(0)
    for _ in range(500):
        triples = [(rng.choice(ENDPOINTS), rng.choice(ENDPOINTS), rng.choice(WEIGHTS))
                   for _ in range(rng.randint(0, 3))]
        try:
            built.append(WeightedMultigraph(rng.randint(0, 4), triples))
        except GraphFormatError:
            pass
    assert len(built) > 100
    for g in built:
        assert WeightedMultigraph.parse(g.serialize()) == g, g.serialize()


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_handshake(g):
    total = sum((g.weighted_degree(x) for x in g.vertices), F(0))
    assert total == 2 * g.total_weight()


# -- degrees --------------------------------------------------------------


def test_weighted_degree_cases():
    g = WeightedMultigraph(3, [(1, 2, F(1)), (1, 2, F(2)), (1, 3, F(1, 2))])
    assert g.weighted_degree(1) == F(7, 2)
    assert g.weighted_degree(2) == F(3)
    g2 = WeightedMultigraph(2, [])
    assert g2.weighted_degree(1) == 0


def test_merge_parallel():
    g = WeightedMultigraph(2, [(1, 2, F(1)), (1, 2, F(2))])
    m = g.merge_parallel()
    assert m.m == 1 and m.edges[0].w == F(3)
    # a zero-weight pair stays, and a second parallel pair is summed apart
    g = WeightedMultigraph(4, [(3, 2, F(1, 2)), (1, 4, F(0)), (2, 3, F(1, 3)), (2, 1, F(2)), (1, 2, F(1, 4))])
    m = g.merge_parallel()
    assert [(e.u, e.v, e.w) for e in m.edges] == [(1, 4, F(0)), (1, 2, F(9, 4)), (2, 3, F(5, 6))]


# -- blocks ---------------------------------------------------------------


def _blocks_of(g):
    """(blocks, cut vertices) of g, each block a (vertex set, edge-id set)."""
    return biconnected_components(g.vertices, g.adjacency())


def _end_blocks(blocks, cuts):
    """The blocks holding exactly one cut vertex."""
    return [b for b in blocks if len(b[0] & cuts) == 1]


def _isolated_blocks(blocks, cuts):
    """The blocks holding no cut vertex."""
    return [b for b in blocks if not b[0] & cuts]


def test_two_triangles_sharing_vertex():
    g = WeightedMultigraph(
        5, [(1, 2, F(1)), (2, 3, F(1)), (3, 1, F(1)), (3, 4, F(1)), (4, 5, F(1)), (5, 3, F(1))]
    )
    blocks, cuts = _blocks_of(g)
    assert len(blocks) == 2
    assert cuts == {3}
    assert sorted(sorted(vs) for vs, _ in blocks) == [[1, 2, 3], [3, 4, 5]]


def test_parallel_pair_single_block():
    g = k2_multi(2)
    blocks, cuts = _blocks_of(g)
    assert len(blocks) == 1
    assert blocks[0][0] == {1, 2}
    assert not cuts


def test_path_blocks_are_edges():
    g = path_graph(3)
    blocks, cuts = _blocks_of(g)
    assert len(blocks) == 2
    assert cuts == {2}
    assert len(_end_blocks(blocks, cuts)) == 2
    assert not _isolated_blocks(blocks, cuts)


def test_isolated_vertex_is_block():
    g = WeightedMultigraph(3, [(1, 2, F(1))])
    blocks, cuts = _blocks_of(g)
    assert any(vs == {3} and not eids for vs, eids in blocks)
    assert len(_isolated_blocks(blocks, cuts)) == 2


def _is_separable(vs, edges):
    """Oracle: a connected graph with >= 2 vertices is separable iff removing
    some vertex disconnects the rest (or it is disconnected to begin with)."""
    if len(vs) <= 2:
        return False
    for v in vs:
        rest = [e for e in edges if v not in (e.u, e.v)]
        others = set(vs) - {v}
        if len(components_of(others, [(e.u, e.v) for e in rest])) > 1:
            return True
    return False


def test_blocks_nonseparable_and_maximal_oracle():
    rng = random.Random(5)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 8), 0.45, max_multiplicity=2)
        blocks, _ = _blocks_of(g)
        covered = set()
        for i, (vs, eids) in enumerate(blocks):
            edges = [g.edges[e] for e in eids]
            assert not _is_separable(vs, edges)
            covered |= eids
            # maximality: merging with any adjacent block is separable
            for j, (vs2, eids2) in enumerate(blocks):
                if j == i or not (vs & vs2):
                    continue
                union_es = [g.edges[e] for e in eids | eids2]
                assert _is_separable(vs | vs2, union_es)
        assert covered == set(range(g.m))


# -- generators -----------------------------------------------------------


def test_generator_shapes():
    assert path_graph(5).m == 4
    assert cycle_graph(6).m == 6
    assert star_graph(4).m == 4
    assert wheel_graph(5).m == 10
    assert complete_graph(5).m == 10
    th = theta_graph(3, F(1, 2))
    assert th.m == 1 + 2 + 3
    assert sum(1 for e in th.edges if e.w == F(1, 2)) == 3
    assert truncated_tree(3, 2).n == 1 + 3 + 6
    assert parallel_expand(path_graph(3), 2).m == 4
    pe = parallel_expand(path_graph(2), 3)
    assert pe.total_weight() == 1


def test_random_multigraph_seeded():
    a = random_multigraph(random.Random(3), 6, 0.5, 2)
    b = random_multigraph(random.Random(3), 6, 0.5, 2)
    assert a == b
