"""Seeded inputs, operations and output checks of the four benchmark workloads.

A workload runs in rounds.  Every round is the same fixed list of cells
(input sizes and truncation orders), so every seed measures the same size
mix and run-to-run spread stays small; the seed only picks the graphs,
weights and anchors inside each cell.  Inputs are generated here, without
the package's own generators, and reach the program only as text or argv.

Each workload has three steps per operation:

* ``call`` is the timed operation through the package's public API;
* ``render`` turns its result into deterministic text (not timed);
* ``check`` tests that text with seed-independent rules (run after the
  timed phase).
"""
from __future__ import annotations

import hashlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import maxmaxflow
from maxmaxflow import bounds, chromatic, cli, flowcut, invariants
from maxmaxflow.graph import WeightedMultigraph

WEIGHTS = ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "5/2")
VERDICTS = ("VIOLATION", "CONSISTENT_UP_TO_M", "EQUALITY_AT_M")


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...] = ()
    text: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- input generation -------------------------------------------------------


def _serialize(n: int, edges: list[tuple[int, int, str]]) -> str:
    return "".join([f"v {n}\n"] + [f"e {u} {v} {w}\n" for u, v, w in edges])


def _connected_multigraph(rng: random.Random, n: int, m: int, mult: int, weights) -> str:
    """Random spanning tree plus random extra edges, at most `mult` per pair."""
    if not n - 1 <= m <= mult * n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} edges on {n} vertices")
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)]
    count: dict[tuple[int, int], int] = {}
    for p in pairs:
        count[p] = 1
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        if count.get((u, v), 0) < mult:
            count[(u, v)] = count.get((u, v), 0) + 1
            pairs.append((u, v))
    return _serialize(n, [(u, v, rng.choice(weights)) for u, v in pairs])


def _wheel(rng: random.Random, r: int) -> str:
    rim = list(range(2, r + 2))
    edges = [(1, v) for v in rim] + [(rim[k], rim[(k + 1) % r]) for k in range(r)]
    return _serialize(r + 1, [(u, v, rng.choice(WEIGHTS)) for u, v in edges])


def _theta(rng: random.Random, r: int) -> str:
    """Vertices 1 and 2 joined by internally disjoint paths of lengths 1..r."""
    edges = []
    nxt = 3
    for length in range(1, r + 1):
        chain = [1] + list(range(nxt, nxt + length - 1)) + [2]
        nxt += length - 1
        edges += [(chain[k], chain[k + 1], rng.choice(WEIGHTS)) for k in range(length)]
    return _serialize(nxt - 1, edges)


def _simple_graph(rng: random.Random, n: int, m: int) -> str:
    """Unit-weight simple graph with exactly m edges, not necessarily connected."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return _serialize(n, [(u, v, "1") for u, v in sorted(rng.sample(pairs, m))])


def _vertex_count(text: str) -> int:
    return int(text.split("\n", 1)[0].split()[1])


def _join(vs) -> str:
    return ",".join(str(v) for v in vs)


# -- running the command line in-process ----------------------------------


def _cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    # cli._manifest records sys.argv[1:] rather than the argv given to main,
    # so an in-process call must present its own command line there.
    sys.argv = ["maxmaxflow", *argv]
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        sys.argv = saved
    return rc, out.getvalue(), err.getvalue()


def _render_cli(raw) -> str:
    rc, out, err = raw
    return f"exit {rc}\n{out}" + (f"stderr {err}" if err else "")


def _split_cli(text: str) -> tuple[int, list[str], list[str]]:
    """Exit code, manifest lines and body lines of a rendered CLI result."""
    head, _, out = text.partition("\n")
    lines = out.splitlines()
    manifest = [l for l in lines if l.startswith("#")]
    return int(head.split()[1]), manifest, lines[len(manifest):]


def _check_manifest(op: Op, manifest: list[str], problems: list[str]):
    if manifest[:2] != [f"# maxmaxflow {maxmaxflow.__version__}", f"# command: {' '.join(op.argv)}"]:
        problems.append(f"manifest {manifest[:2]!r} does not record the command")


# -- hunt -------------------------------------------------------------------


class Hunt:
    """`cli.main(["hunt", ...])`: ten trials (one planted) per call, M=4."""

    name = "hunt"
    tail_pct = 98
    conjectures = ("conj5.6", "conj5.7", "conj7.9", "conj7.10", "conj7.11")
    calls_per_conjecture = 4
    trials = 10
    header = "conjecture,trial,family,verdict,ratio,lhs_hi,rhs_lo,X,Y,graph"

    def round_inputs(self, seed: int, r: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"hunt:{seed}:{r}")
        ops = []
        for _ in range(self.calls_per_conjecture):
            for conj in self.conjectures:
                argv = ("hunt", "--conjecture", conj, "--trials", str(self.trials),
                        "--seed", str(rng.randrange(2**31)), "-m", "4")
                ops.append(Op(conj, argv))
        return ops

    def call(self, op: Op):
        return _cli(op.argv)

    def render(self, op: Op, raw) -> str:
        return _render_cli(raw)

    def check(self, op: Op, text: str) -> list[str]:
        problems: list[str] = []
        rc, manifest, body = _split_cli(text)
        _check_manifest(op, manifest, problems)
        if rc not in (0, 2) or "\nstderr " in text:
            return problems + [f"exit {rc}"]
        if not body or body[0] != self.header:
            return problems + ["missing CSV header"]
        rows = [line.split(",") for line in body[1:]]
        conj = op.argv[2]
        if len(rows) > self.trials or any(len(row) != 10 or row[0] != conj for row in rows):
            return problems + ["malformed rows"]
        ratios = [Fraction(row[4]) for row in rows if row[3] != "VIOLATION"]
        if ratios != sorted(ratios, reverse=True):
            problems.append("leaderboard not sorted by ratio")
        for row in rows:
            if row[3] not in VERDICTS or Fraction(row[4]) != Fraction(row[5]) / Fraction(row[6]):
                problems.append(f"trial {row[1]}: ratio is not lhs_hi/rhs_lo")
        if (rc == 2) != any(row[3] == "VIOLATION" for row in rows):
            problems.append("exit code disagrees with the verdicts")
        if rows:  # the best finding replays to the same verdict and enclosure
            row = rows[0]
            g = WeightedMultigraph.parse(row[9].replace(";", "\n"))
            res = bounds.verify_bound(
                g, conj, 4,
                X=[int(v) for v in row[7].split()] or None,
                Y=[int(v) for v in row[8].split()] or None,
            )
            if (res.verdict, res.lhs_hi, res.rhs_lo) != (row[3], Fraction(row[5]), Fraction(row[6])):
                problems.append(f"trial {row[1]} does not replay")
        return problems


# -- suite ------------------------------------------------------------------


class Suite:
    """`cli.main(["suite", file, ...])` on medium graphs with X, Y and edge anchors."""

    name = "suite"
    tail_pct = 80
    # (family, size, M): wheel rim r (m = 2r), theta paths 1..r, or a connected
    # random multigraph (multiplicity <= 2) with the given number of edges
    cells = (
        ("wheel", 5, 6), ("wheel", 6, 5), ("wheel", 7, 4),
        ("theta", 4, 6), ("theta", 5, 4),
        ("multi", 10, 6), ("multi", 12, 5), ("multi", 14, 4), ("multi", 16, 4),
    )
    multi_vertices = {10: 6, 12: 6, 14: 7, 16: 8}

    def round_inputs(self, seed: int, r: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"suite:{seed}:{r}")
        ops = []
        for i, (family, size, M) in enumerate(self.cells):
            if family == "wheel":
                text = _wheel(rng, size)
            elif family == "theta":
                text = _theta(rng, size)
            else:
                text = _connected_multigraph(rng, self.multi_vertices[size], size, 2, WEIGHTS)
            n = _vertex_count(text)
            m = text.count("\ne ")
            X = rng.sample(range(1, n + 1), 2)
            Y = rng.choice([v for v in range(1, n + 1) if v not in X])
            # the file is named relative to the working directory, which
            # run.py sets to workdir, so that the manifest's command line, and
            # with it the output digest, does not depend on the checkout's path
            name = f"suite-{r}-{i}.txt"
            (workdir / name).write_text(text)
            argv = ("suite", name, "--x", _join(X), "--y", str(Y),
                    "--edge", str(rng.randrange(m)), "-m", str(M))
            ops.append(Op(f"{family}{size}-M{M}", argv, text))
        return ops

    def call(self, op: Op):
        return _cli(op.argv)

    def render(self, op: Op, raw) -> str:
        return _render_cli(raw)

    def check(self, op: Op, text: str) -> list[str]:
        problems: list[str] = []
        rc, manifest, body = _split_cli(text)
        _check_manifest(op, manifest, problems)
        if f"# input-sha256: {hashlib.sha256(op.text.encode()).hexdigest()[:16]}" not in manifest:
            problems.append("manifest input digest does not match the input")
        if rc != 0 or "\nstderr " in text:
            return problems + [f"exit {rc}"]
        if not body or body[0] != "bound,verdict,M,lhs_lo,lhs_hi,rhs_lo,rhs_hi,note":
            return problems + ["missing CSV header"]
        rows = [line.split(",") for line in body[1:]]
        ids = [row[0] for row in rows]
        if not rows or len(set(ids)) != len(ids) or any(len(row) != 8 for row in rows):
            return problems + ["malformed rows"]
        for bound_id, verdict, M, lhs_lo, lhs_hi, rhs_lo, rhs_hi, _ in rows:
            lo, hi, rlo, rhi = map(Fraction, (lhs_lo, lhs_hi, rhs_lo, rhs_hi))
            if not bound_id.startswith(("prop", "cor")):
                problems.append(f"{bound_id}: not a proven bound")
            elif verdict == "VIOLATION":
                problems.append(f"{bound_id}: proven bound reported VIOLATION")
            elif verdict not in VERDICTS or M != op.argv[-1] or lo > hi or rlo > rhi or hi > rlo:
                problems.append(f"{bound_id}: enclosures do not support {verdict}")
        return problems


# -- flow -------------------------------------------------------------------


def _tree_bottleneck(tree: dict[int, list[tuple[int, Fraction]]], x: int, y: int) -> Fraction:
    """Smallest weight on the x-y path of a tree, by depth-first search."""
    stack = [(x, 0, None)]
    while stack:
        v, parent, low = stack.pop()
        if v == y:
            return low
        for u, w in tree[v]:
            if u != parent:
                stack.append((u, v, w if low is None else min(low, w)))
    raise ValueError(f"{x} and {y} are not joined in the cut tree")


class Flow:
    """Parse, `inequality_chain` and `cut_tree` on rational multigraphs (n 8-70)."""

    name = "flow"
    tail_pct = 90
    # (n, m); connected, multiplicity <= 3; n <= 10 also runs the brute-force
    # LambdaTilde and D_2 inside inequality_chain.  The cells are denser in n
    # 20-32, where the median latency falls, so that it does not sit in a gap
    # between two cells of very different cost.
    cells = (
        (8, 20), (9, 24), (10, 30), (12, 40), (16, 70), (20, 110), (22, 135),
        (24, 160), (26, 190), (28, 220), (30, 260), (32, 300), (40, 480),
        (48, 700), (56, 1000), (70, 1600),
    )
    pairs_checked = 3
    values = ("Delta", "Delta2", "Delta_n-1", "D", "D2", "Lambda", "LambdaTilde")

    def round_inputs(self, seed: int, r: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"flow:{seed}:{r}")
        return [Op(f"n{n}-m{m}", text=_connected_multigraph(rng, n, m, 3, WEIGHTS))
                for n, m in self.cells]

    def call(self, op: Op):
        g = WeightedMultigraph.parse(op.text)
        return invariants.inequality_chain(g), flowcut.cut_tree(g)

    def render(self, op: Op, raw) -> str:
        rep, tree = raw
        vals = (rep.Delta, rep.Delta2, rep.Delta_n_minus_1, rep.D, rep.D2, rep.Lambda, rep.LambdaTilde)
        lines = [f"n,{rep.n}", f"m,{rep.m}"]
        lines += [f"{k},{'n/a' if v is None else v}" for k, v in zip(self.values, vals)]
        lines += [f"check:{c.name},{'ok' if c.holds else 'FAIL'}" for c in rep.checks]
        lines += [f"tree,{u},{v},{w}" for u, v, w in sorted(tree.edges)]
        return "\n".join(lines) + "\n"

    def check(self, op: Op, text: str) -> list[str]:
        problems: list[str] = []
        val: dict[str, str] = {}
        tree: dict[int, list[tuple[int, Fraction]]] = {}
        for line in text.splitlines():
            key, _, rest = line.partition(",")
            if key == "tree":
                u, v, w = rest.split(",")
                tree.setdefault(int(u), []).append((int(v), Fraction(w)))
                tree.setdefault(int(v), []).append((int(u), Fraction(w)))
            else:
                val[key] = rest
        n = int(val["n"])
        weights = [w for nbrs in tree.values() for _, w in nbrs]
        lam, D, delta2 = Fraction(val["Lambda"]), Fraction(val["D"]), Fraction(val["Delta2"])
        if len(tree) != n or len(weights) != 2 * (n - 1):
            return problems + ["cut tree does not span the graph"]
        if lam != max(weights):
            problems.append("Lambda differs from the largest cut-tree edge")
        if not D <= lam <= delta2:
            problems.append("D <= Lambda <= Delta_2 fails")
        if any(v == "FAIL" for k, v in val.items() if k.startswith("check:")):
            problems.append("a comparison of the invariant chain fails")
        if n <= 10 and val["LambdaTilde"] != val["Lambda"]:
            problems.append("brute-force LambdaTilde differs from Lambda")
        g = WeightedMultigraph.parse(op.text)
        rng = random.Random(op.text)
        for _ in range(self.pairs_checked):
            x, y = rng.sample(range(1, n + 1), 2)
            if flowcut.max_flow(g, x, y).value != _tree_bottleneck(tree, x, y):
                problems.append(f"cut-tree bottleneck {x}-{y} differs from max_flow")
        return problems


# -- chromatic --------------------------------------------------------------


def _degeneracy(n: int, pairs: list[tuple[int, int]]) -> int:
    """Unit-weight peeling degeneracy."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    best = 0
    while adj:
        x = min(adj, key=lambda v: (len(adj[v]), v))
        best = max(best, len(adj[x]))
        for v in adj.pop(x):
            adj[v].discard(x)
    return best


class Chromatic:
    """`chromatic_polynomial`, `chromatic_roots` and `maxmaxflow` per graph."""

    name = "chromatic"
    tail_pct = 99
    # explore_roots draws n in 4..12 and edge density in [0.15, 0.35]; each
    # round takes its lower-quartile and median densities for every n.  The
    # time per graph varies about 2x around its mean within a cell, so a run
    # needs a few hundred of the heavy n >= 11 graphs to be repeatable, which
    # the upper densities (up to 2 s per graph at n = 12) would not leave.
    cells = tuple((n, max(1, round(d * n * (n - 1) / 2))) for n in range(4, 13) for d in (0.2, 0.25))
    # the brute-force coloring oracle runs on a hash-chosen quarter of the
    # graphs with n <= 8, which keeps the checks shorter than the timed phase
    oracle_n = 8
    oracle_every = 4
    oracle_q = (0, 1, 2, 3)

    def round_inputs(self, seed: int, r: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"chromatic:{seed}:{r}")
        return [Op(f"n{n}-m{m}", text=_simple_graph(rng, n, m)) for n, m in self.cells]

    def call(self, op: Op):
        g = WeightedMultigraph.parse(op.text)
        poly = chromatic.chromatic_polynomial(g)
        return poly, chromatic.chromatic_roots(poly), flowcut.maxmaxflow(g)

    def render(self, op: Op, raw) -> str:
        poly, roots, lam = raw
        lines = ["coefficients," + " ".join(str(c) for c in poly)]
        lines += [f"root,{z.real:.12g},{z.imag:.12g}" for z in roots]
        lines.append(f"Lambda,{lam}")
        return "\n".join(lines) + "\n"

    def check(self, op: Op, text: str) -> list[str]:
        problems: list[str] = []
        lines = text.splitlines()
        poly = tuple(int(c) for c in lines[0].split(",")[1].split())
        lam = Fraction(lines[-1].split(",")[1])
        g = WeightedMultigraph.parse(op.text)
        pairs = sorted({(e.u, e.v) for e in g.edges})
        if len(poly) != g.n + 1 or poly[-1] != 1 or poly[0] != 0:
            problems.append("polynomial is not monic of degree n with P(0) = 0")
        if len(lines) != g.n + 2:
            problems.append("wrong number of roots")
        if g.n <= self.oracle_n and int(digest(op.text), 16) % self.oracle_every == 0:
            for q in self.oracle_q:
                if chromatic.evaluate_poly(poly, q) != chromatic.coloring_count(g, q):
                    problems.append(f"P({q}) differs from the coloring count")
        degree = sorted((sum(v in p for p in pairs) for v in range(1, g.n + 1)), reverse=True)
        if not _degeneracy(g.n, pairs) <= lam <= degree[1]:
            problems.append("D <= Lambda <= Delta_2 fails")
        return problems


WORKLOADS = {w.name: w for w in (Hunt(), Suite(), Flow(), Chromatic())}
