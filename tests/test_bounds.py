"""Tree-function coefficients, series identities, bound verifiers, and the hunt."""
import importlib.util
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from maxmaxflow import bounds

from maxmaxflow.counting import (
    WorkCapExceeded,
    class_count_series,
    class_spec,
    two_connected_through_edge_series,
)
from maxmaxflow.graph import (
    WeightedMultigraph,
    complete_graph,
    cycle_graph,
    k2_multi,
    path_graph,
    random_multigraph,
    star_graph,
    theta_graph,
    wheel_graph,
)
from maxmaxflow.bounds import (
    BOUNDS,
    CONJECTURES,
    CONSISTENT,
    EQUALITY,
    VIOLATION,
    B_mk,
    C_mk,
    hunt,
    run_suite,
    verify_bound,
)
from coefficient_identities import series_power_coefficients, tree_series, verify_identities


# -- coefficient functions ------------------------------------------------


def test_C_small_values():
    # C(m, k) = k (m+k)^(m-1) / m!
    assert C_mk(0, 0) == 1
    assert C_mk(3, 0) == 0
    assert C_mk(0, 5) == 1
    assert C_mk(1, 1) == 1
    assert C_mk(2, 1) == F(3, 2)
    assert C_mk(3, 1) == F(8, 3)
    assert C_mk(2, 2) == 4
    assert C_mk(2, F(1, 2)) == F(5, 8)


def test_B_small_values():
    # B(m, k) = 2^m C(m, (k-1)/2)
    assert B_mk(0, 1) == 1
    assert B_mk(2, 1) == 0
    assert B_mk(1, 3) == 2
    assert B_mk(2, 3) == 4 * F(3, 2)
    assert B_mk(m=2, k=2) == 4 * C_mk(2, F(1, 2))


def test_C_is_rooted_forest_count():
    # k (m+k)^(m-1) counts forests of k rooted trees on m+k labeled vertices;
    # spot-check against the closed form for small integer cases
    assert C_mk(1, 2) * math.factorial(1) == 2 * 3 ** 0
    assert C_mk(4, 3) * math.factorial(4) == 3 * 7 ** 3


def test_tree_series_lagrange():
    # y(z) = e^{z y(z)} has coefficients (m+1)^(m-1)/m!
    s = tree_series(8)
    assert s[0] == 1
    for m in range(1, 9):
        assert s[m] == F((m + 1) ** (m - 1), math.factorial(m))
    # and y = e^{s} satisfies [z^m] y^k = C(m, k)
    for k in range(1, 5):
        coeffs = series_power_coefficients(k, 8)
        for m in range(9):
            assert coeffs[m] == C_mk(m, k)


def test_identities_all_hold():
    checks = verify_identities(M=10, kmax=6)
    assert checks
    assert all(c.ok for c in checks)
    names = {c.name for c in checks}
    assert len(names) >= 4


# -- verdicts ---------------------------------------------------------------

_I = bounds.Interval


# the two forms' verdicts on exact terms and on enclosures; an enclosure
# that straddles the bound raises rather than guessing
@pytest.mark.parametrize("terms,rhs,verdict,enclosures", [
    ([F(1), F(1, 2)], F(2), CONSISTENT, (F(3, 2), F(3, 2), F(2), F(2))),
    ([F(1), F(1)], F(2), EQUALITY, (F(2), F(2), F(2), F(2))),
    ([F(2), F(1, 2)], F(2), VIOLATION, (F(5, 2), F(5, 2), F(2), F(2))),
    ([F(1), _I(F(1, 4), F(1, 2))], F(2), CONSISTENT, (F(5, 4), F(3, 2), F(2), F(2))),
    ([F(1), _I(F(3, 2), F(2))], _I(F(2), F(9, 4)), VIOLATION, (F(5, 2), F(3), F(2), F(9, 4))),
    ([F(1), _I(F(1, 2), F(3, 2))], F(2), None, None),
])
def test_sum_result_verdicts(terms, rhs, verdict, enclosures):
    if verdict is None:
        with pytest.raises(bounds.UndecidedComparison, match="^s: sum enclosure"):
            bounds._sum_result("s", 1, terms, rhs)
        return
    res = bounds._sum_result("s", 1, terms, rhs)
    assert (res.verdict, (res.lhs_lo, res.lhs_hi, res.rhs_lo, res.rhs_hi)) == (verdict, enclosures)


# per term, the tightest pair is reported, or the first that exceeds its bound
@pytest.mark.parametrize("pairs,verdict,enclosures", [
    ([(F(1), F(2)), (F(1), F(3, 2))], CONSISTENT, (F(1), F(1), F(3, 2), F(3, 2))),
    ([(F(1), F(2)), (F(1), F(1))], EQUALITY, (F(1), F(1), F(1), F(1))),
    ([(F(1), F(2)), (_I(F(3), F(4)), F(2)), (F(9), F(1))], VIOLATION, (F(3), F(4), F(2), F(2))),
    ([(F(1), F(2)), (_I(F(1), F(3)), F(2))], None, None),
])
def test_pointwise_result_verdicts(pairs, verdict, enclosures):
    if verdict is None:
        with pytest.raises(bounds.UndecidedComparison, match="^p: pointwise term undecided$"):
            bounds._pointwise_result("p", 1, pairs)
        return
    res = bounds._pointwise_result("p", 1, pairs)
    assert (res.verdict, (res.lhs_lo, res.lhs_hi, res.rhs_lo, res.rhs_hi)) == (verdict, enclosures)


# -- individual bound verifiers -------------------------------------------


def test_saw_sum_bound_equality_on_star():
    # on a star, self-avoiding walks from the center saturate the sum bound
    g = star_graph(4)
    res = verify_bound(g, "prop4.2", M=6, x=1, Y={2, 3, 4, 5})
    assert res.verdict == EQUALITY


def test_saw_pair_bound_on_k4():
    res = verify_bound(complete_graph(4), "prop4.3", M=6, x=1, y=2)
    assert res.verdict == CONSISTENT
    assert res.lhs_hi == F(17, 27)
    assert res.rhs_lo == 1


def test_theta_graph_value_at_the_kink():
    # at w = 1/(r-1) the discounted pair sum is 1 - (1 - 1/r)^r, reached at M = r
    for r in range(2, 6):
        g = theta_graph(r, F(1, r - 1))
        res = verify_bound(g, "prop4.3", M=r, x=1, y=2)
        assert res.lhs_hi == 1 - (1 - F(1, r)) ** r
        assert res.verdict == CONSISTENT


def test_block_tree_bound_parallel_pair():
    g = k2_multi(2, total=2)
    res = verify_bound(g, "prop7.1", M=6, X={1}, Y={2})
    assert res.verdict == CONSISTENT
    assert res.lhs_hi < res.rhs_lo


def test_alpha_parameter_validated():
    g = k2_multi(2, total=2)
    ok = verify_bound(g, "prop7.2", M=4, X={1}, Y={2}, alpha=F(3, 2))
    assert ok.verdict in (CONSISTENT, EQUALITY)
    with pytest.raises(ValueError):
        verify_bound(g, "prop7.2", M=4, X={1}, Y={2}, alpha=F(5, 2))
    with pytest.raises(ValueError):
        verify_bound(g, "prop7.2", M=4, X={1}, Y={2}, alpha=1)


@pytest.mark.parametrize("bad", [
    {"alpha": F(5, 2)}, {"M": -1}, {"p": 0}, {"r": 0}, {"x": 4}, {"Y": {0}}, {"eid": 3},
], ids=lambda bad: next(iter(bad)))
def test_suite_checks_every_input(bad):
    # a bad value raises, whether or not a bound reads it, rather than
    # leaving out the bounds that do
    kw = {"M": 3, "X": {1, 2}, "Y": {3}, "eid": 0, **bad}
    with pytest.raises(ValueError):
        run_suite(cycle_graph(3), **kw)
    with pytest.raises(ValueError):
        verify_bound(cycle_graph(3), "cor5.3", **kw)


def test_unknown_bound_id_rejected():
    with pytest.raises(ValueError):
        verify_bound(path_graph(2), "nosuch", M=2, x=1, y=2)


def test_missing_anchor_rejected():
    with pytest.raises(ValueError):
        verify_bound(path_graph(2), "prop4.3", M=2, x=1)  # y missing


# every anchor a bound may read; verify_bound sees only those it is given
_ANCHORS = {"x": {"x": 1}, "y": {"y": 3}, "X": {"X": {1, 3, 5}}, "Y": {"Y": {3, 5}}, "e": {"eid": 0}}


@pytest.mark.parametrize("bound_id", sorted(BOUNDS))
def test_missing_series_anchors_are_named(bound_id):
    g = complete_graph(5)
    needs = bounds._SERIES[BOUNDS[bound_id].series][0]
    assert needs and needs <= set(_ANCHORS)
    with pytest.raises(ValueError, match=re.escape(f"{bound_id} needs anchors {sorted(needs)}")):
        verify_bound(g, bound_id, M=2)
    for absent in needs:
        kw = {k: v for a in needs - {absent} for k, v in _ANCHORS[a].items()}
        with pytest.raises(ValueError, match=re.escape(f"{bound_id} needs anchors {[absent]}")):
            verify_bound(g, bound_id, M=2, **kw)
    kw = {k: v for a in needs for k, v in _ANCHORS[a].items()}
    assert verify_bound(g, bound_id, M=2, **kw).verdict != VIOLATION


def test_provider_defines_every_traced_method():
    # the bench tracer wraps these by name; a rename would read as no cache
    # hits.  SAW and FPW are families of `_FAMILIES`, fetched through
    # edge_class, so their own lookups are gone and the tracer skips them.
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    pytest.importorskip("numpy")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    folded = {"saw", "fpw"}
    for name in tracer.PROVIDER_METHODS:
        assert callable(vars(bounds.SeriesProvider).get(name)) != (name in folded), name
    assert set(tracer.PROVIDER_METHODS) - folded == {"edge_class", "walk_total", "through_edge"}


def test_through_edge_bounds_heavy_edge():
    # a heavy distinguished edge dominates both through-edge corollaries; the
    # rescaled forms must stay consistent even when the edge weight exceeds
    # the maxmaxflow of the rest
    g = cycle_graph(3, weights=[F(100), F(1), F(1)])
    for bid in ("cor7.5", "cor7.13"):
        res = verify_bound(g, bid, M=6, eid=0)
        assert res.verdict in (CONSISTENT, EQUALITY), (bid, res)


def test_degenerate_discount_base():
    # graphs with maxmaxflow zero keep only the constant term
    from maxmaxflow.graph import WeightedMultigraph
    g = WeightedMultigraph(3, [])
    res = verify_bound(g, "prop7.1", M=4, X={1}, Y={2})
    assert res.verdict in (CONSISTENT, EQUALITY)


def test_zero_discount_base_with_a_positive_term_is_a_value_error():
    # unreachable through verify_bound: a zero Delta, Lambda or Lambda(G-e)
    # means every edge the family can use weighs 0
    assert bounds._discounted((F(1), F(0), F(0)), None) == [F(1)]
    with pytest.raises(ValueError, match="^zero discount base with a positive term$"):
        bounds._discounted((F(1), F(0), F(1, 3)), None)


def test_run_suite_covers_registry_and_is_consistent():
    rng = random.Random(73)
    for _ in range(10):
        g = random_multigraph(rng, rng.randint(3, 6), 0.5, max_multiplicity=2)
        vs = list(g.vertices)
        X = set(rng.sample(vs, 2))
        Y = {rng.choice([v for v in vs if v not in X])}
        results = run_suite(g, M=4, X=X, Y=Y, include_conjectures=True)
        assert results
        assert all(r.verdict != VIOLATION for r in results), [
            r for r in results if r.verdict == VIOLATION
        ]
    ids = {r.bound_id for r in results}
    assert ids <= set(BOUNDS)
    assert len(ids) > 10


# -- the suite's one search ----------------------------------------------

# 0 and 1/7-type weights: the search scales every weight by the least
# common denominator and divides order k by its k-th power
_WEIGHTS = st.sampled_from([F(0), F(1), F(2), F(1, 2), F(1, 7), F(2, 7), F(3, 7), F(5, 11)])


@st.composite
def _suite_inputs(draw):
    """A multigraph with n <= 6 and any anchors: x and y absent, equal, or
    outside X and Y."""
    n = draw(st.integers(1, 6))
    edges = []
    if n > 1:
        pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
        edges = draw(st.lists(st.tuples(pair, _WEIGHTS), max_size=9))
    g = WeightedMultigraph(n, [(u, v, w) for (u, v), w in edges])
    vertex = st.integers(1, n)
    X = draw(st.frozensets(vertex, max_size=3))
    Y = draw(st.frozensets(vertex, max_size=3))
    x = draw(st.none() | vertex)
    y = draw(st.none() | vertex)
    eid = draw(st.none() | st.integers(0, g.m - 1)) if g.m else None
    return g, {
        "X": X, "Y": Y, "x": x, "y": y, "eid": eid,
        "p": draw(st.integers(1, 2)), "r": draw(st.integers(1, 2)),
        "alpha": draw(st.sampled_from([F(2), F(3, 2)])),
    }


@settings(max_examples=120, deadline=None)
@given(_suite_inputs(), st.integers(0, 4))
def test_suite_rows_equal_verify_bound(inputs, M):
    # the suite computes its edge-subset classes in one search up front; each
    # row must be what the bound gives on its own, and the suite must skip
    # exactly the bounds verify_bound refuses
    g, kw = inputs
    rows = run_suite(g, M, include_conjectures=True, **kw)
    alone = {}
    for bound_id in BOUNDS:
        try:
            alone[bound_id] = verify_bound(g, bound_id, M, **kw)
        except ValueError:
            continue
    assert {res.bound_id: res for res in rows} == alone
    assert len(rows) == len(alone)


# SAW and FPW are rows of counting's family table, so they ride in the
# suite's one class_series call on G with the edge-subset classes
def test_suite_fetches_saw_and_fpw_in_its_one_call(monkeypatch):
    calls = []
    class_series = bounds.class_series

    def spy(g, specs, M, cap=None):
        calls.append((g, list(specs)))
        return class_series(g, specs, M, cap)

    monkeypatch.setattr(bounds, "class_series", spy)
    g = wheel_graph(5)
    rows = run_suite(g, 4, X={1, 2}, Y={3, 4}, x=1, y=3)
    assert [called for called, _ in calls] == [g]
    specs = calls[0][1]
    assert class_spec("SAW", x=1, y=3) in specs and class_spec("FPW", x=1, Y={3, 4}) in specs
    assert {"cor4.4", "cor4.5", "prop4.2", "prop4.3"} <= {r.bound_id for r in rows}


# the suite's discounts ln 2/Δ, ln 2/Λ, ln 2/(2Λ), ln α/(αΛ) with α = 2 and
# ln 2/(2Λ(G − e)) share one ln enclosure, computed once per suite
def test_suite_computes_each_ln_enclosure_once(monkeypatch):
    args = []
    log_interval = bounds.log_interval
    monkeypatch.setattr(bounds, "log_interval", lambda a: args.append(a) or log_interval(a))
    rows = run_suite(wheel_graph(5), 4, X={1, 2}, Y={3}, x=1, y=2, eid=0, include_conjectures=True)
    assert {"cor7.5", "cor7.13"} <= {r.bound_id for r in rows}
    assert args == [2]


def _raises_cap(search, cap: int) -> bool:
    try:
        search(cap)
    except WorkCapExceeded:
        return True
    return False


def _least_cap(search) -> int:
    """The least work cap at which search(cap) finishes."""
    hi = 1
    while _raises_cap(search, hi):
        hi *= 2
    lo = hi // 2  # raises, or 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _raises_cap(search, mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("eid", [None, 0, 7])
def test_suite_cap_fails_exactly_when_a_family_would(eid):
    # the suite raises WorkCapExceeded at cap c exactly when one of the
    # searches it replaces would: one per edge-subset family of G with these
    # anchors, and the through-edge search of G - e
    g, M, X, Y = wheel_graph(5), 4, {1, 2}, {4}
    specs = [class_spec(k, X=X) for k in ("T", "H", "C", "BT", "B")]
    specs += [class_spec(k, X=X, Y=Y) for k in ("F", "BF", "BFSTAR")]
    searches = [lambda cap, spec=spec: class_count_series(g, spec, M, cap) for spec in specs]
    if eid is not None:
        searches.append(lambda cap: two_connected_through_edge_series(g, eid, M, cap))
    least = sorted({_least_cap(search) for search in searches})
    assert len(least) > 1
    for c in least:
        for cap in (c - 1, c):
            expected = any(_raises_cap(search, cap) for search in searches)
            assert _raises_cap(lambda cap: run_suite(g, M, X=X, Y=Y, eid=eid, cap=cap), cap) == expected


# -- the conjecture hunt --------------------------------------------------


def test_hunt_deterministic():
    a = hunt("conj5.6", trials=40, M=4, seed=9)
    b = hunt("conj5.6", trials=40, M=4, seed=9)
    assert a == b
    c = hunt("conj5.6", trials=40, M=4, seed=10)
    assert a != c


def test_hunt_no_violations_and_planted_families():
    for conj in CONJECTURES:
        findings = hunt(conj, trials=60, M=4, seed=1)
        assert findings
        assert all(f.verdict != VIOLATION for f in findings)
        assert any(f.family != "random" for f in findings)


def test_hunt_star_families_reach_equality():
    # the planted star instances achieve ratio 1 for the first two conjectures
    for conj in ("conj5.6", "conj5.7"):
        findings = hunt(conj, trials=60, M=5, seed=2)
        assert max(f.ratio for f in findings) == 1
        assert findings[0].ratio == 1
        assert any(f.ratio == 1 and f.family != "random" for f in findings)


def test_hunt_rejects_unknown_conjecture():
    with pytest.raises(ValueError):
        hunt("prop4.1", trials=5)
