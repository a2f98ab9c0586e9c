"""Command-line front end.

Every subcommand writes deterministic bytes for a fixed argv and seed; CSV
outputs start with '#' manifest comment lines recording the tool version,
the command line and input digests, so a result file can be replayed.
Exit codes: 0 success (or all bounds consistent), 2 a violation was found,
1 usage or runtime error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .bounds import (
    BOUNDS,
    CONJECTURES,
    VIOLATION,
    hunt,
    run_suite,
    verify_bound,
)
from .chromatic import chromatic_polynomial, chromatic_roots, explore_roots
from .counting import _FAMILIES, WorkCapExceeded, class_count_series, class_spec
from .flowcut import cut_pair, cut_tree, maxmaxflow
from .graph import GraphFormatError, WeightedMultigraph, _int_token, generate, parse_weight
from .intervals import UndecidedComparison
from .invariants import inequality_chain


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _frac(text: str) -> Fraction:
    try:
        return parse_weight(text)
    except GraphFormatError:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")


def _int(text: str) -> int:
    """An integer flag, in the text format's integer grammar; argparse's own
    message for a bad one."""
    try:
        return _int_token(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _vertex_list(text: str) -> list[int]:
    """Comma-separated vertices, each in the text format's integer grammar."""
    try:
        return [_int_token(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad vertex list {text!r}") from None


@contextlib.contextmanager
def _int_str_digits(limit: int):
    """Set the interpreter's limit on the digits of an int <-> str
    conversion (0 for none) for the block, and restore the old limit after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _load_graph(args) -> tuple[WeightedMultigraph, str]:
    """The graph file `args.graph`, parsed under the limit on digits that
    was in force when `main` was called."""
    text = sys.stdin.read() if args.graph == "-" else Path(args.graph).read_text()
    with _int_str_digits(args.digit_limit):
        return WeightedMultigraph.parse(text), text


def _manifest(args, extra: Optional[dict] = None) -> list[str]:
    lines = [f"# maxmaxflow {__version__}", f"# command: {' '.join(args.argv)}"]
    for key, val in (extra or {}).items():
        lines.append(f"# {key}: {val}")
    return lines


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _emit(lines: list[str], out: Optional[str]):
    data = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(data)
    else:
        sys.stdout.write(data)


def build_parser() -> _Parser:
    p = _Parser(prog="maxmaxflow", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def graph_arg(sp):
        sp.add_argument("graph", help="graph file in the text format, or - for stdin")

    def cap_arg(sp):  # every command's --cap is the one work cap
        sp.add_argument("--cap", type=_int, default=None, help="work cap, in each exponential routine's units")

    def bound_args(sp):  # the inputs of verify and suite
        graph_arg(sp)
        sp.add_argument("--x", type=_vertex_list, default=None)
        sp.add_argument("--y", type=_vertex_list, default=None)
        sp.add_argument("--edge", type=_int, default=None, help="edge id for through-edge bounds")
        sp.add_argument("-m", "--m", dest="M", type=_int, required=True)
        sp.add_argument("--alpha", type=_frac, default=Fraction(2))
        cap_arg(sp)

    sp = sub.add_parser("invariants", help="degree/peeling invariants and the comparison chain")
    graph_arg(sp)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("lambda", help="maxmaxflow of the graph")
    graph_arg(sp)

    sp = sub.add_parser("ghtree", help="cut tree with min-cut edge weights")
    graph_arg(sp)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("cutpair", help="two disjoint bounded cuts separating members of a set")
    graph_arg(sp)
    sp.add_argument("--set", dest="xset", type=_vertex_list, required=True)

    sp = sub.add_parser("count", help="series of a walk family or subgraph class")
    graph_arg(sp)
    sp.add_argument("--class", dest="kind", required=True, help=f"one of {', '.join(sorted(_FAMILIES))}")
    sp.add_argument("--x", type=_vertex_list, default=None)
    sp.add_argument("--y", type=_vertex_list, default=None)
    sp.add_argument("-m", "--m", dest="M", type=_int, required=True)
    sp.add_argument("--p", type=_int, default=None)
    sp.add_argument("--r", type=_int, default=None)
    cap_arg(sp)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("verify", help="check one series bound")
    bound_args(sp)
    sp.add_argument("--bound", required=True, help=f"one of {', '.join(sorted(BOUNDS))}")
    sp.add_argument("--p", type=_int, default=1)
    sp.add_argument("--r", type=_int, default=1)

    sp = sub.add_parser("suite", help="run every applicable bound")
    bound_args(sp)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("hunt", help="seeded random search for conjecture violations")
    sp.add_argument("--conjecture", required=True, help=f"one of {', '.join(CONJECTURES)}")
    sp.add_argument("--trials", type=_int, default=1000)
    sp.add_argument("--seed", type=_int, default=0)
    sp.add_argument("-m", "--m", dest="M", type=_int, default=4)
    cap_arg(sp)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("chromatic", help="chromatic polynomial and roots")
    graph_arg(sp)
    cap_arg(sp)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("explore8", help="chromatic roots vs maxmaxflow on random graphs")
    sp.add_argument("--trials", type=_int, default=1000)
    sp.add_argument("--seed", type=_int, default=0)
    sp.add_argument("--nmax", type=_int, default=12)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("generate", help="write a member of a named graph family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--n", type=_int)
    sp.add_argument("--r", type=_int)
    sp.add_argument("--s", type=_int)
    sp.add_argument("--depth", type=_int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--weight", type=_frac)
    sp.add_argument("--total", type=_frac)
    sp.add_argument("--seed", type=_int)
    sp.add_argument("-o", "--output")
    return p


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process; each `parse_args` returns a new namespace."""
    return build_parser()


def _cmd_invariants(args) -> int:
    g, text = _load_graph(args)
    rep = inequality_chain(g)
    lines = _manifest(args, {"input-sha256": _digest(text)})
    lines.append("name,value")
    lines.append(f"n,{rep.n}")
    lines.append(f"m,{rep.m}")
    for name, val in [
        ("Delta", rep.Delta), ("Delta2", rep.Delta2),
        ("Delta_{n-1}", rep.Delta_n_minus_1), ("D", rep.D), ("D2", rep.D2),
        ("Lambda", rep.Lambda), ("LambdaTilde", rep.LambdaTilde),
    ]:
        lines.append(f"{name},{'n/a' if val is None else val}")
    for c in rep.checks:
        lines.append(f"check:{c.name},{'ok' if c.holds else 'FAIL'}")
    _emit(lines, args.output)
    return 0 if rep.all_hold else 2


def _cmd_lambda(args) -> int:
    g, _ = _load_graph(args)
    print(maxmaxflow(g))
    return 0


def _cmd_ghtree(args) -> int:
    g, text = _load_graph(args)
    tree = cut_tree(g)
    lines = _manifest(args, {"input-sha256": _digest(text)})
    lines.append(f"v {g.n}")
    for u, v, w in sorted(tree.edges):
        lines.append(f"e {u} {v} {w}")
    _emit(lines, args.output)
    return 0


def _cmd_cutpair(args) -> int:
    g, _ = _load_graph(args)
    cp = cut_pair(g, args.xset)
    lam = maxmaxflow(g)
    for xi, cut in [(cp.x1, cp.cut1), (cp.x2, cp.cut2)]:
        vs = ",".join(str(v) for v in sorted(cut.side))
        print(f"x={xi} side={{{vs}}} cutweight={cut.value} Lambda={lam}")
    return 0


def _cmd_count(args) -> int:
    kind = args.kind.upper()
    needs = _FAMILIES[kind].needs if kind in _FAMILIES else ""
    kw: dict = {"p": args.p, "r": args.r}
    # --x feeds x where the family needs that one vertex, else the set X; --y likewise
    for flag, vertices in (("--x", args.x), ("--y", args.y)):
        one, many = flag[2], flag[2].upper()
        if not vertices:
            if one in needs or many in needs:
                raise ValueError(f"--class {kind} needs {flag}")
        elif one in needs:
            if len(vertices) > 1:
                raise ValueError(f"--class {kind} takes one vertex in {flag}, not {len(vertices)}")
            kw[one] = vertices[0]
        else:
            kw[many] = vertices
    g, text = _load_graph(args)
    series = class_count_series(g, class_spec(kind, **kw), args.M, args.cap)
    lines = _manifest(args, {"input-sha256": _digest(text)})
    lines.append("m,value")
    for m, val in enumerate(series.values):
        lines.append(f"{m},{val}")
    _emit(lines, args.output)
    return 0


def _result_row(res) -> str:
    return ",".join([
        res.bound_id, res.verdict, str(res.M),
        str(res.lhs_lo), str(res.lhs_hi), str(res.rhs_lo), str(res.rhs_hi),
        res.note.replace(",", ";"),
    ])


def _bound_inputs(args) -> dict:
    """The keyword inputs of `verify_bound` and `run_suite` that both commands take."""
    # x and y are the first vertices listed, not the library's least member
    # of X and Y: a user's order picks the anchor, and the golden files pin it
    x, y = (args.x[0] if args.x else None), (args.y[0] if args.y else None)
    return dict(X=args.x, Y=args.y, x=x, y=y, eid=args.edge, alpha=args.alpha, cap=args.cap)


def _cmd_verify(args) -> int:
    g, _ = _load_graph(args)
    res = verify_bound(g, args.bound, args.M, p=args.p, r=args.r, **_bound_inputs(args))
    print("bound,verdict,M,lhs_lo,lhs_hi,rhs_lo,rhs_hi,note")
    print(_result_row(res))
    return 2 if res.verdict == VIOLATION else 0


def _cmd_suite(args) -> int:
    g, text = _load_graph(args)
    results = run_suite(g, args.M, **_bound_inputs(args))
    lines = _manifest(args, {"input-sha256": _digest(text)})
    lines.append("bound,verdict,M,lhs_lo,lhs_hi,rhs_lo,rhs_hi,note")
    for res in results:
        lines.append(_result_row(res))
    _emit(lines, args.output)
    return 2 if any(r.verdict == VIOLATION for r in results) else 0


def _cmd_hunt(args) -> int:
    findings = hunt(
        args.conjecture, args.trials, M=args.M, seed=args.seed, cap=args.cap
    )
    lines = _manifest(args, {"seed": args.seed, "trials": args.trials})
    lines.append("conjecture,trial,family,verdict,ratio,lhs_hi,rhs_lo,X,Y,graph")
    for f in findings:
        graph_inline = f.graph_text.replace("\n", ";")
        xs = " ".join(map(str, f.X))
        ys = " ".join(map(str, f.Y))
        lines.append(
            f"{f.conjecture},{f.trial},{f.family},{f.verdict},"
            f"{f.ratio},{f.lhs_hi},{f.rhs_lo},{xs},{ys},{graph_inline}"
        )
    _emit(lines, args.output)
    return 2 if any(f.verdict == VIOLATION for f in findings) else 0


def _cmd_chromatic(args) -> int:
    g, text = _load_graph(args)
    poly = chromatic_polynomial(g, cap=args.cap)
    roots = chromatic_roots(poly)
    lines = _manifest(args, {"input-sha256": _digest(text)})
    lines.append("coefficients," + " ".join(str(c) for c in poly))
    for z in roots:
        lines.append(f"root,{z.real:.12g},{z.imag:.12g}")
    _emit(lines, args.output)
    return 0


def _cmd_explore8(args) -> int:
    records = explore_roots(args.trials, seed=args.seed, n_max=args.nmax)
    lines = _manifest(args, {"seed": args.seed, "trials": args.trials})
    lines.append("trial,n,m,Lambda,Delta,Delta2,max_root_abs,max_root_re,max_root_im")
    for rec in records:
        lines.append(
            f"{rec.trial},{rec.n},{rec.m},{rec.Lambda},{rec.Delta},"
            f"{rec.Delta2},{rec.max_root_abs:.10g},"
            f"{rec.max_root.real:.10g},{rec.max_root.imag:.10g}"
        )
    _emit(lines, args.output)
    return 0


def _cmd_generate(args) -> int:
    params = {
        k: v
        for k, v in vars(args).items()
        if k in ("n", "r", "s", "depth", "p", "weight", "total", "seed") and v is not None
    }
    _emit(generate(args.family, **params).serialize().splitlines(), args.output)
    return 0


_DISPATCH = {
    "invariants": _cmd_invariants,
    "lambda": _cmd_lambda,
    "ghtree": _cmd_ghtree,
    "cutpair": _cmd_cutpair,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
    "hunt": _cmd_hunt,
    "chromatic": _cmd_chromatic,
    "explore8": _cmd_explore8,
    "generate": _cmd_generate,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    args.digit_limit = sys.get_int_max_str_digits()
    try:
        with _int_str_digits(0):  # results print in full, whatever their length
            return _DISPATCH[args.cmd](args)
    except (ValueError, OSError, WorkCapExceeded, UndecidedComparison) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
