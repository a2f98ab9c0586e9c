"""Chromatic polynomials by deletion-contraction, with a brute-force oracle."""
import random

import pytest

from maxmaxflow.counting import WorkCapExceeded
from maxmaxflow.graph import (
    WeightedMultigraph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_multigraph,
)
from maxmaxflow.chromatic import (
    chromatic_polynomial,
    chromatic_roots,
    coloring_count,
    evaluate_poly,
    explore_roots,
)
from maxmaxflow.invariants import degeneracy


def test_named_polynomials():
    # triangle: q(q-1)(q-2)
    assert chromatic_polynomial(cycle_graph(3)) == (0, 2, -3, 1)
    # path P_3: q(q-1)^2
    assert chromatic_polynomial(path_graph(3)) == (0, 1, -2, 1)
    # edgeless
    assert chromatic_polynomial(WeightedMultigraph(3, [])) == (0, 0, 0, 1)
    # K_4: q(q-1)(q-2)(q-3)
    assert chromatic_polynomial(complete_graph(4)) == (0, -6, 11, -6, 1)


def test_cycle_closed_form():
    # C_n: (q-1)^n + (-1)^n (q-1)
    for n in range(3, 8):
        poly = chromatic_polynomial(cycle_graph(n))
        for q in range(0, 6):
            expected = (q - 1) ** n + (-1) ** n * (q - 1)
            assert evaluate_poly(poly, q) == expected


def test_parallel_edges_collapse():
    g = WeightedMultigraph(2, [(1, 2, 1), (1, 2, 1)])
    assert chromatic_polynomial(g) == chromatic_polynomial(path_graph(2))


def test_matches_brute_force_counts():
    rng = random.Random(79)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 6), 0.5, max_multiplicity=2)
        poly = chromatic_polynomial(g)
        for q in range(0, 5):
            assert evaluate_poly(poly, q) == coloring_count(g, q)


def test_degree_and_leading_coefficient():
    rng = random.Random(83)
    for _ in range(15):
        g = random_multigraph(rng, rng.randint(2, 6), 0.5, max_multiplicity=2)
        poly = chromatic_polynomial(g)
        assert len(poly) == g.n + 1 and poly[-1] == 1
        simple = g.merge_parallel()
        # second coefficient is -(number of distinct adjacent pairs)
        assert poly[-2] == -simple.m


def test_integer_roots_within_degeneracy_range():
    rng = random.Random(89)
    for _ in range(15):
        g = random_multigraph(rng, rng.randint(2, 6), 0.5, max_multiplicity=2)
        poly = chromatic_polynomial(g)
        simple = g.merge_parallel()
        unit = WeightedMultigraph(g.n, [(e.u, e.v, 1) for e in simple.edges])
        dgen = degeneracy(unit)
        for q in range(0, g.n + 1):
            if evaluate_poly(poly, q) == 0:
                assert q <= dgen


def test_cap_counts_deletion_contraction_calls():
    # one unit per call of the recursion: an edgeless graph of any size is
    # one call; a triangle is three, itself, its deletion and its contraction
    assert chromatic_polynomial(WeightedMultigraph(20, []), cap=1) == (0,) * 20 + (1,)
    assert chromatic_polynomial(cycle_graph(3), cap=3) == (0, 2, -3, 1)
    with pytest.raises(WorkCapExceeded, match="^the chromatic polynomial passed the work cap of 2 "):
        chromatic_polynomial(cycle_graph(3), cap=2)


def _root_residual(poly, roots) -> float:
    """Largest |P(root)| relative to the leading scale; a sanity number."""
    if not roots:
        return 0.0
    scale = max(abs(c) for c in poly)
    worst = 0.0
    for z in roots:
        acc = 0j
        for c in reversed(poly):
            acc = acc * z + c
        worst = max(worst, abs(acc) / scale)
    return worst


def test_roots_and_residual():
    poly = chromatic_polynomial(cycle_graph(5))
    roots = chromatic_roots(poly)
    assert len(roots) == 5
    assert _root_residual(poly, roots) < 1e-8
    assert any(abs(r) < 1e-9 for r in roots)  # q = 0 is always a root


def test_explore_roots_deterministic_and_bounded():
    a = explore_roots(trials=8, seed=4, n_max=8)
    b = explore_roots(trials=8, seed=4, n_max=8)
    assert a == b
    assert len(a) == 8
    for rec in a:
        assert rec.n <= 8
        # roots of chromatic polynomials of simple graphs lie within the
        # known degree-based disc
        assert rec.max_root_abs <= 8.0 * rec.Delta + 1e-6 or rec.Delta == 0
        g = WeightedMultigraph.parse(rec.graph_text)
        assert g.n == rec.n


# the graphs have 4..n_max vertices, and explore8 goes no further than 14
@pytest.mark.parametrize("n_max", [3, 15])
def test_explore_roots_rejects_n_max_outside_its_range(n_max):
    with pytest.raises(ValueError) as ei:
        explore_roots(trials=1, n_max=n_max)
    assert str(ei.value) == f"n_max must lie in 4..14, not {n_max}"
