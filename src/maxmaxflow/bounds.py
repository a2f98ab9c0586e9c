"""Series bounds, their coefficient families and conjecture hunts.

Every inequality is checked on truncated series.  All family weights are
nonnegative, so a truncated sum is a certified lower bound on the full
series: a truncation exceeding the claimed bound is a genuine violation,
while agreement only certifies consistency up to the truncation order.
Comparisons against irrational discounts go through certified rational
interval enclosures.

Every bound is one row of `BOUNDS`, and `_evaluate` runs every row on a
`SeriesProvider`, which computes each fact a row reads once per context.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .counting import (
    CountSeries,
    SubgraphClassSpec,
    _FAMILIES,
    class_count_series,
    class_series,
    class_spec,
    two_connected_through_edge_series,
    walk_total_counts,
    work_cap,
)
from .flowcut import cut_tree, maxmaxflow
from .graph import WeightedMultigraph, bfs_path, k2_multi, random_multigraph, star_graph, star_multi
from .intervals import Interval, UndecidedComparison, _coerce, log_interval
from .invariants import max_degree

VIOLATION = "VIOLATION"
CONSISTENT = "CONSISTENT_UP_TO_M"
EQUALITY = "EQUALITY_AT_M"


# -- the coefficient families ---------------------------------------------


def C_mk(m: int, k) -> Fraction:
    """Weighted count bound coefficient: k (m+k)^(m-1) / m!, with C(m,0)=[m=0]."""
    if m < 0:
        raise ValueError("m must be >= 0")
    k = Fraction(k)
    if k == 0:
        return Fraction(int(m == 0))
    return k * (m + k) ** (m - 1) / math.factorial(m)


def B_mk(m: int, k) -> Fraction:
    """Doubled variant: 2^m C(m, (k-1)/2) = (k-1)(2m+k-1)^(m-1)/m!."""
    if m < 0:
        raise ValueError("m must be >= 0")
    k = Fraction(k)
    return 2**m * C_mk(m, (k - 1) / 2)


# -- verdict machinery ----------------------------------------------------


@dataclass(frozen=True)
class BoundResult:
    bound_id: str
    verdict: str
    M: int
    lhs_lo: Fraction
    lhs_hi: Fraction
    rhs_lo: Fraction
    rhs_hi: Fraction
    note: str = ""


def _sum_result(bound_id: str, M: int, terms, rhs, note: str = "") -> BoundResult:
    if all(isinstance(t, Fraction) for t in terms) and isinstance(rhs, Fraction):
        s = sum(terms, Fraction(0))
        verdict = VIOLATION if s > rhs else EQUALITY if s == rhs else CONSISTENT
        return BoundResult(bound_id, verdict, M, s, s, rhs, rhs, note)
    S, R = sum(terms, Interval.point(0)), _coerce(rhs)
    if S.definitely_gt(R):
        verdict = VIOLATION
    elif S.definitely_le(R):
        verdict = CONSISTENT
    else:
        raise UndecidedComparison(f"{bound_id}: sum enclosure [{S.lo},{S.hi}] straddles the bound")
    return BoundResult(bound_id, verdict, M, S.lo, S.hi, R.lo, R.hi, note)


def _pointwise_result(bound_id: str, M: int, pairs) -> BoundResult:
    """pairs: (a_m, bound_m).  Violation if any term exceeds its bound."""
    worst = None  # the tightest pair seen: (slack, lhs, rhs)
    hit_equality = False
    for a, b in pairs:
        A, Bv = _coerce(a), _coerce(b)
        if A.definitely_gt(Bv):
            return BoundResult(bound_id, VIOLATION, M, A.lo, A.hi, Bv.lo, Bv.hi)
        if not A.definitely_le(Bv):
            raise UndecidedComparison(f"{bound_id}: pointwise term undecided")
        if isinstance(a, Fraction) and isinstance(b, Fraction) and a == b and b > 0:
            hit_equality = True
        if worst is None or Bv.lo - A.hi < worst[0]:
            worst = (Bv.lo - A.hi, A.hi, Bv.lo)
    _, lhs, rhs = worst
    return BoundResult(bound_id, EQUALITY if hit_equality else CONSISTENT, M, lhs, lhs, rhs, rhs)


def _discounted(values, zeta) -> list:
    """Per-term a_m * zeta^m for a discount zeta (see `SeriesProvider.discount`).

    zeta is None for a zero discount base: the family then has no positive
    term beyond m=0 (every edge it can use weighs 0), so the remaining terms
    are dropped after checking they are zero.
    """
    if zeta is None:
        if any(values[1:]):
            raise ValueError("zero discount base with a positive term")
        return [values[0]]
    return [a * zeta**m if a != 0 else Fraction(0) for m, a in enumerate(values)]


# -- bound evaluation -----------------------------------------------------


class SeriesProvider:
    """The inputs of the bounds on one graph: the truncation order M, the
    anchors (x, y, X, Y and the edge id), p, r, alpha and the work cap,
    checked once on construction; an absent x or y is the least member of
    X or Y, when that set is given.  `verify_bound` and `run_suite` pass
    their keyword inputs here, so a bound's row does not depend on which
    of the two computed it.  Every fact the bounds read is computed
    at most once per context: the series, Δ, Λ, λ(x,y), the hop distance,
    each kind's discount and the ln enclosure of each argument the
    discounts share.  Λ and λ(x,y) come from the graph's memoised cut tree,
    Λ(G−e) from that of the G − e memoised on the graph
    (`WeightedMultigraph.without_edge`), which the through-edge search
    shares."""

    def __init__(
        self,
        g: WeightedMultigraph,
        M: int,
        X: Optional[Iterable[int]] = None,
        Y: Optional[Iterable[int]] = None,
        x: Optional[int] = None,
        y: Optional[int] = None,
        eid: Optional[int] = None,
        p: int = 1,
        r: int = 1,
        alpha=Fraction(2),
        cap: Optional[int] = None,
    ):
        self.alpha = Fraction(alpha)
        if not 1 < self.alpha <= 2:
            raise ValueError("alpha must lie in (1, 2]")
        if M < 0:
            raise ValueError("M must be >= 0")
        if p < 1 or r < 1:
            raise ValueError("p and r must be >= 1")
        self.X, self.Y = frozenset(X or ()), frozenset(Y or ())
        g.check_vertices(sorted(self.X | self.Y | {v for v in (x, y) if v is not None}))
        g.check_edge_ids([] if eid is None else [eid])
        if x is None and self.X:
            x = min(self.X)
        if y is None and self.Y:
            y = min(self.Y)
        self.g, self.M, self.x, self.y, self.eid = g, M, x, y, eid
        self.p, self.r, self.cap = p, r, work_cap(cap)
        # the anchors given, named as in `_SERIES`
        self.anchors = {a for a, v in (("x", x), ("y", y), ("e", eid)) if v is not None}
        self.anchors |= {a for a, v in (("X", self.X), ("Y", self.Y)) if v}
        self._cache: dict = {}

    def _get(self, key, compute: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def edge_class(self, spec: SubgraphClassSpec) -> CountSeries:
        """The series of any family of `_FAMILIES` on G, walks included."""
        return self._get(spec, lambda: class_count_series(self.g, spec, self.M, self.cap))

    def edge_classes(self, specs: Iterable[SubgraphClassSpec]):
        """Cache the series of every spec not cached yet, from one `class_series` call."""
        todo = [spec for spec in specs if spec not in self._cache]
        if todo:
            self._cache.update(class_series(self.g, todo, self.M, self.cap))

    def walk_total(self, x: int) -> CountSeries:
        return self._get(("walk_total", x), lambda: walk_total_counts(self.g, x, self.M, self.cap))

    def through_edge(self, eid: int) -> CountSeries:
        return self._get(
            ("b_e", eid), lambda: two_connected_through_edge_series(self.g, eid, self.M, self.cap)
        )

    @cached_property
    def lambda_minus_edge(self) -> Fraction:
        return maxmaxflow(self.g.without_edge(self.eid))

    @cached_property
    def Delta(self) -> Fraction:
        return max_degree(self.g)

    @cached_property
    def Lambda(self) -> Fraction:
        return maxmaxflow(self.g)

    @cached_property
    def flow_fraction(self) -> Fraction:
        """lambda(x,y)/Lambda for distinct x,y; 1 when x == y."""
        if self.x == self.y:
            return Fraction(1)
        if self.Lambda == 0:
            return Fraction(0)
        return cut_tree(self.g).bottleneck(self.x, self.y) / self.Lambda

    @cached_property
    def hop_distance(self) -> Optional[int]:
        steps = bfs_path(self.g.adjacency(), self.x, self.y)
        return None if steps is None else len(steps)

    @cached_property
    def X_disjoint(self) -> frozenset[int]:
        """X with members of Y removed; the classes are unchanged by this."""
        return self.X - self.Y

    def discount(self, kind: str):
        """The discount zeta of a kind (a key of `_DISCOUNTS`) with divisor q:
        the Fraction 1/q, the enclosure of (ln a)/q, or None when q = 0."""

        def compute():
            log_arg, divisor = _DISCOUNTS[kind]
            q = divisor(self)
            if q == 0:
                return None
            if log_arg is None:
                return 1 / q
            a = log_arg(self)
            return self._get(("ln", a), lambda: log_interval(a)) / Interval.point(q)

        return self._get(("discount", kind), compute)


# discount kind -> (log argument a or None, divisor q): zeta = (ln a)/q, or 1/q
_DISCOUNTS: dict[str, tuple] = {
    "Delta": (None, lambda ctx: ctx.Delta),
    "Lambda": (None, lambda ctx: ctx.Lambda),
    "2Lambda": (None, lambda ctx: 2 * ctx.Lambda),
    "Delta/ln2": (lambda ctx: 2, lambda ctx: ctx.Delta),
    "Lambda/ln2": (lambda ctx: 2, lambda ctx: ctx.Lambda),
    "2Lambda/ln2": (lambda ctx: 2, lambda ctx: 2 * ctx.Lambda),
    "alphaLambda/lnalpha": (lambda ctx: ctx.alpha, lambda ctx: ctx.alpha * ctx.Lambda),
    "2Lambda(G-e)/ln2": (lambda ctx: 2, lambda ctx: 2 * ctx.lambda_minus_edge),
}


class _Series(NamedTuple):
    """A series the bounds read: the anchors it needs, of x, y, X, Y and e;
    the series for a context; and, for a family of `_FAMILIES` on G, the
    family's spec for a context, from which `lookup` reads it."""

    needs: frozenset[str]
    lookup: Callable[[SeriesProvider], CountSeries]
    spec: Optional[Callable[[SeriesProvider], SubgraphClassSpec]] = None


def _family(kind: str, *params: str) -> _Series:
    """A family of G, anchored as its row of `_FAMILIES` needs, with the
    named parameters (p, r) of the context; a class whose components each
    meet Y also takes X minus Y as further anchors."""
    needs = _FAMILIES[kind].needs

    def spec(ctx: SeriesProvider) -> SubgraphClassSpec:
        anchors = {a: getattr(ctx, a) for a in (*needs, *params)}
        if needs == "Y":
            anchors["X"] = ctx.X_disjoint
        return class_spec(kind, **anchors)

    return _Series(frozenset(needs), lambda ctx: ctx.edge_class(spec(ctx)), spec)


_SERIES: dict[str, _Series] = {
    "walk": _Series(frozenset({"x"}), lambda ctx: ctx.walk_total(ctx.x)),
    "fpw": _family("FPW"),
    "saw": _family("SAW"),
    # nonseparable subgraphs through e: a search of G - e, not of G
    "b_e": _Series(frozenset({"e"}), lambda ctx: ctx.through_edge(ctx.eid)),
    "f": _family("F"),
    "t": _family("T"),
    "h": _family("H", "p", "r"),
    "hp": _family("H", "p"),
    "h1": _family("H"),
    "c": _family("C"),
    "bt": _family("BT"),
    "bf": _family("BF"),
    "bfstar": _family("BFSTAR"),
    "b": _family("B"),
}


class _Bound(NamedTuple):
    """One bound on a series (a_0..a_M).

    With a discount kind (a key of `_DISCOUNTS`) it is the sum form
    sum_m a_m zeta^m weight(m) <= rhs; without one it is the pointwise form
    a_m <= rhs(m) for every m, `rhs` returning the per-term bound.
    """

    series: str
    discount: Optional[str] = None
    rhs: Optional[Callable[[SeriesProvider], object]] = None
    weight: Optional[Callable[[SeriesProvider, int], Fraction]] = None
    note: Optional[Callable[[SeriesProvider], str]] = None


def _inapplicable(bound_id: str, ctx: SeriesProvider) -> Optional[str]:
    """Why the bound does not apply to the context's anchors, or None."""
    series = BOUNDS[bound_id].series
    missing = _SERIES[series].needs - ctx.anchors
    if missing:
        return f"{bound_id} needs anchors {sorted(missing)}"
    if series == "h" and len(ctx.X) < ctx.r * ctx.p:
        return f"{bound_id} needs |X| >= r*p"
    return None


def _evaluate(bound_id: str, ctx: SeriesProvider) -> BoundResult:
    """One bound on the context; ValueError when it does not apply there."""
    reason = _inapplicable(bound_id, ctx)
    if reason is not None:
        raise ValueError(reason)
    row = BOUNDS[bound_id]
    vals = _SERIES[row.series].lookup(ctx).values
    if row.discount is None:
        bound = row.rhs(ctx)
        return _pointwise_result(bound_id, ctx.M, [(a, bound(m)) for m, a in enumerate(vals)])
    terms = _discounted(vals, ctx.discount(row.discount))
    if row.weight is not None:
        terms = [t * row.weight(ctx, m) for m, t in enumerate(terms)]
    return _sum_result(bound_id, ctx.M, terms, row.rhs(ctx), row.note(ctx) if row.note else "")


def _powers(base: Fraction, scale=1, coef: Callable[[int], Fraction] = lambda m: 1):
    """The per-term bound m -> coef(m) * base^m * scale."""
    return lambda m: coef(m) * base**m * scale


def _h_bound(k: int, p: int, r: int) -> Fraction:
    return Fraction(1, p ** (r - 1)) * Fraction(1, k - r * p + p) * math.comb(k, r)


def _heavy_edge(ctx: SeriesProvider) -> Optional[Interval]:
    """w_e*zeta for cor7.5's discount zeta = ln2/(2*Lambda(G-e)) when that
    enclosure is not <= 1, else None (also when Lambda(G-e) = 0).  For such
    edge weights the right side of cor7.5 grows from 1 to w_e*zeta: that is
    what the underlying reduction to the block-tree bound on G-e actually
    yields, and the unit bound is provably false for them."""
    zeta = ctx.discount("2Lambda(G-e)/ln2")
    wz = None if zeta is None else Interval.point(ctx.g.edges[ctx.eid].w) * zeta
    return None if wz is None or wz.definitely_le(Fraction(1)) else wz


def _through_edge_terms(ctx: SeriesProvider):
    """Per-term bound of cor7.13; same heavy-edge caveat as cor7.5, handled by
    the max(Lambda(G-e), w_e) factor the proof supports."""
    lam_e = ctx.lambda_minus_edge
    top = max(lam_e, ctx.g.edges[ctx.eid].w)
    return lambda m: B_mk(m - 1, 2) * lam_e ** (m - 1) * top if m else Fraction(0)


def _one(ctx: SeriesProvider) -> Fraction:
    return Fraction(1)


# id -> its row; the anchors a bound needs are those of its series
BOUNDS: dict[str, _Bound] = {
    "prop4.1": _Bound("walk", None, lambda ctx: _powers(ctx.Delta)),
    "prop4.2": _Bound("fpw", "Delta", _one),
    "prop4.3": _Bound("saw", "Lambda", lambda ctx: ctx.flow_fraction),
    "cor4.4": _Bound("saw", None, lambda ctx: _powers(ctx.Lambda, ctx.flow_fraction)),
    # evaluated at the admissible discount zeta = 1/(2*Lambda); an unreachable
    # y makes the whole series vanish
    "cor4.5": _Bound(
        "saw", "2Lambda",
        lambda ctx: Fraction(0) if (d := ctx.hop_distance) is None
        else Fraction(1, 2**d) * ctx.flow_fraction,
        note=lambda ctx: f"dist={ctx.hop_distance}",
    ),
    "prop5.1": _Bound("f", "Delta", _one),
    "prop5.2": _Bound(
        "f", "Lambda", lambda ctx: Fraction(len(ctx.Y)),
        weight=lambda ctx, m: Fraction(m + len(ctx.Y)) ** (1 - len(ctx.X_disjoint)),
    ),
    "cor5.3": _Bound("t", "Delta", _one),
    "cor5.4": _Bound("t", "Lambda", _one, weight=lambda ctx, m: Fraction(m + 1) ** (2 - len(ctx.X))),
    "prop5.8": _Bound("h", "Delta", lambda ctx: _h_bound(len(ctx.X), ctx.p, ctx.r)),
    "cor5.9": _Bound(
        "hp", "Delta",
        lambda ctx: sum(
            (_h_bound(len(ctx.X), ctx.p, r) for r in range(1, len(ctx.X) // ctx.p + 1)), Fraction(0)
        ),
        note=lambda ctx: f"crude={(1 + Fraction(1, ctx.p)) ** len(ctx.X) - 1}",
    ),
    "cor5.10": _Bound("h1", "Delta", lambda ctx: Fraction(2 * (2 ** len(ctx.X) - 1), len(ctx.X) + 1)),
    "prop5.11": _Bound(
        "h", "Lambda", lambda ctx: ctx.r * _h_bound(len(ctx.X), ctx.p, ctx.r),
        weight=lambda ctx, m: Fraction(m + ctx.r) ** (1 - len(ctx.X)),
    ),
    "prop6.1": _Bound("c", None, lambda ctx: _powers(ctx.Delta, coef=lambda m: C_mk(m, len(ctx.X)))),
    "prop7.1": _Bound("bf", "Delta/ln2", _one),
    "prop7.2": _Bound("bf", "alphaLambda/lnalpha", lambda ctx: ctx.alpha ** (len(ctx.Y) - 1)),
    "cor7.3": _Bound("bt", "Delta/ln2", _one),
    "cor7.4": _Bound("bt", "2Lambda/ln2", _one),
    "cor7.5": _Bound(
        "b_e", "2Lambda(G-e)/ln2",
        lambda ctx: Fraction(1) if (wz := _heavy_edge(ctx)) is None else wz,
        note=lambda ctx: "Lambda(G-e)=0" if ctx.lambda_minus_edge == 0
        else "" if _heavy_edge(ctx) is None else "heavy-edge form",
    ),
    "prop7.8": _Bound("bfstar", "alphaLambda/lnalpha", lambda ctx: ctx.alpha ** (len(ctx.Y) - 1)),
    "prop7.12": _Bound("b", None, lambda ctx: _powers(ctx.Lambda, coef=lambda m: B_mk(m, len(ctx.X)))),
    "cor7.13": _Bound("b_e", None, _through_edge_terms),
    "conj5.6": _Bound("f", "Lambda", lambda ctx: Fraction(len(ctx.Y)) ** len(ctx.X_disjoint)),
    "conj5.7": _Bound("t", "Lambda", _one),
    "conj7.9": _Bound("bf", "Lambda/ln2", lambda ctx: Fraction(len(ctx.Y)) ** len(ctx.X_disjoint)),
    "conj7.10": _Bound("bfstar", "Lambda/ln2", lambda ctx: Fraction(2) ** len(ctx.Y) - 1),
    "conj7.11": _Bound("bt", "Lambda/ln2", _one),
}


def verify_bound(g: WeightedMultigraph, bound_id: str, M: int, **inputs) -> BoundResult:
    """One bound on g; `inputs` are the keywords of `SeriesProvider` (X, Y,
    x, y, eid, p, r, alpha, cap).  ValueError for bad inputs, or when the
    bound does not apply to them."""
    if bound_id not in BOUNDS:
        raise ValueError(f"unknown bound {bound_id!r}; known: {sorted(BOUNDS)}")
    return _evaluate(bound_id, SeriesProvider(g, M, **inputs))


def run_suite(
    g: WeightedMultigraph, M: int, *, include_conjectures: bool = False, **inputs
) -> list[BoundResult]:
    """Evaluate every applicable bound on one context, sharing its series cache.

    `inputs` are those of `verify_bound`, and each row is the one it gives.
    Bad input raises ValueError, as in `verify_bound`; bounds whose anchors
    are missing, or which need the graph invariants to exist (Lambda needs
    two vertices), are skipped.  Before any bound is evaluated, one
    `class_series` call computes every family of G that the applicable
    bounds read: the edge-subset classes from one search, which the work
    cap bounds, then SAW and FPW.  The walk totals come apart, and the
    through-edge series of cor7.5 and cor7.13 searches G - e on its own.
    """
    ctx = SeriesProvider(g, M, **inputs)
    ids = [
        bound_id for bound_id in sorted(BOUNDS)
        if (include_conjectures or not bound_id.startswith("conj")) and _inapplicable(bound_id, ctx) is None
    ]
    series = [_SERIES[BOUNDS[bound_id].series] for bound_id in ids]
    ctx.edge_classes(s.spec(ctx) for s in series if s.spec is not None)
    out: list[BoundResult] = []
    for bound_id in ids:
        try:
            out.append(_evaluate(bound_id, ctx))
        except ValueError:  # the graph lacks an invariant the bound reads
            continue
    return out


# -- conjecture hunting ---------------------------------------------------

CONJECTURES = tuple(bound_id for bound_id in BOUNDS if bound_id.startswith("conj"))


@dataclass(frozen=True)
class Finding:
    conjecture: str
    trial: int
    family: str
    graph_text: str
    X: tuple[int, ...]
    Y: tuple[int, ...]
    M: int
    verdict: str
    lhs_hi: Fraction
    rhs_lo: Fraction
    ratio: Fraction


def _tight_instance(blocks: bool, needs_Y: bool, rng: random.Random, M: int):
    """A planted member of the families known to approach the bound of a
    conjecture on block classes or forests, with or without Y."""
    if blocks and needs_Y:
        rr = rng.randint(1, 2)
        g = star_multi(rr, rng.choice([5, 6]), total=1)
        return g, frozenset({1}), frozenset(range(2, rr + 2)), "star-multi"
    if blocks:
        return k2_multi(rng.choice([5, 6]), total=1), frozenset({1, 2}), None, "k2-multi"
    if needs_Y:
        rr = rng.randint(2, 5)
        g = star_graph(rr)
        return g, frozenset({1}), frozenset(range(2, rr + 2)), "star"
    # the whole star is the only member, so its size must fit below M
    rr = rng.randint(2, max(2, min(5, M)))
    g = star_graph(rr)
    return g, frozenset(range(2, rr + 2)), None, "star"


def _random_instance(blocks: bool, needs_Y: bool, rng: random.Random):
    n = rng.randint(3, 6)
    g = random_multigraph(
        rng, n,
        p=rng.uniform(0.3, 0.6),
        max_multiplicity=3 if blocks else 1,
        weights="rational",
    )
    if g.m == 0 or g.m > 8:
        return None
    vs = list(g.vertices)
    if needs_Y:
        kx = rng.randint(1, 2)
        ky = rng.randint(1, 2)
        picked = rng.sample(vs, min(kx + ky, len(vs)))
        X = frozenset(picked[:kx])
        Y = frozenset(picked[kx:])
        if not Y:
            return None
        return g, X, Y, "random"
    # singletons give the trivial point mass a_0 = 1 and clutter the
    # leaderboard with exact ties at the bound, so anchor at least two
    kx = rng.randint(2, min(3, len(vs)))
    return g, frozenset(rng.sample(vs, kx)), None, "random"


def hunt(
    conjecture: str,
    trials: int,
    M: int = 4,
    seed: int = 0,
    leaderboard: int = 20,
    cap: Optional[int] = None,
) -> list[Finding]:
    """Seeded random search for violations; returns the near-violation
    leaderboard sorted by descending ratio (ties: fewer edges, then fewer
    vertices).  A planted tightness-family instance is mixed in every tenth
    trial so the known near-extremal graphs compete with the random pool.
    An error raised in a trial ends the hunt."""
    if conjecture not in CONJECTURES:
        raise ValueError(f"unknown conjecture {conjecture!r}; known: {CONJECTURES}")
    # checked before any trial, so a bad M or cap fails whatever the trial count
    if M < 0:
        raise ValueError("M must be >= 0")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    work_cap(cap)
    # section 7's conjectures are on block classes, tried with parallel edges
    blocks = conjecture.startswith("conj7")
    needs_Y = "Y" in _SERIES[BOUNDS[conjecture].series].needs
    findings: list[Finding] = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{conjecture}:{trial}")
        if trial % 10 == 0:
            inst = _tight_instance(blocks, needs_Y, rng, M)
        else:
            inst = _random_instance(blocks, needs_Y, rng)
        if inst is None:
            continue
        g, X, Y, family = inst
        res = verify_bound(g, conjecture, M, X=X, Y=Y, cap=cap)
        findings.append(
            Finding(
                conjecture, trial, family, g.serialize(),
                tuple(sorted(X or ())), tuple(sorted(Y or ())),
                M, res.verdict, res.lhs_hi, res.rhs_lo, res.lhs_hi / res.rhs_lo,
            )
        )
    findings.sort(
        key=lambda f: (-f.ratio, f.graph_text.count("\ne"), len(f.graph_text), f.trial)
    )
    # every violation survives; the rest fill the leaderboard in ratio order
    violations = [f for f in findings if f.verdict == VIOLATION]
    rest = [f for f in findings if f.verdict != VIOLATION][:leaderboard]
    return violations + rest
