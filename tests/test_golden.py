"""Byte-for-byte CLI outputs pinned in tests/golden/.

Each golden file is the stdout of `python -m maxmaxflow.cli <args> < <input>`
with the input taken from the same directory (`hunt` and `explore8` read no
input); the `chromatic` files leave out the float `root,` lines and
`explore8.csv` the three float `max_root_*` columns.  The
graph is read from stdin so the manifest's command line does not depend on
where the input lives.
A change to any of these bytes must be deliberate.
"""
import io
import sys
from pathlib import Path

import pytest

from maxmaxflow.cli import main

GOLDEN = Path(__file__).parent / "golden"

COUNT_ANCHORS = {
    "W": ["--x", "1", "--y", "3"],
    "FPW": ["--x", "1", "--y", "3,5"],
    "SAW": ["--x", "1", "--y", "3"],
    "FPSAW": ["--x", "1", "--y", "3,5"],
    "T": ["--x", "1,3,5"],
    "F": ["--x", "1", "--y", "3,5"],
    "H": ["--x", "1,3,5", "--p", "1", "--r", "2"],
    "C": ["--x", "1,3"],
    "BT": ["--x", "1,3"],
    "BF": ["--x", "1", "--y", "3,5"],
    "BFSTAR": ["--x", "1", "--y", "3,5"],
    "B": ["--x", "1,3,5"],
    "BLOCKPATH": ["--x", "1", "--y", "3"],
}
CASES = [
    (f"count_{kind}.csv", "multigraph.txt", ["count", "-", "--class", kind, *anchors, "-m", "6"])
    for kind, anchors in COUNT_ANCHORS.items()
]
CASES.append(("suite_wheel.csv", "wheel.txt", ["suite", "-", "--x", "1,2", "--y", "4", "--edge", "0", "-m", "5"]))
# which bounds a suite skips: without y, Y and e every bound needing them
# drops out, and on one vertex every Lambda bound does while the Delta ones stay
CASES += [
    ("suite_wheel_x13.csv", "wheel.txt", ["suite", "-", "--x", "1,3", "-m", "4"]),
    ("suite_single_vertex.csv", "single_vertex.txt", ["suite", "-", "--x", "1", "--y", "1", "-m", "3"]),
]
# x and y in different components (lambda(x,y) = 0, dist=None), the edge in
# the other component from x
CASES.append(
    ("suite_flow_multigraph.csv", "flow_multigraph.txt",
     ["suite", "-", "--x", "1", "--y", "7", "--edge", "12", "-m", "4"])
)
CASES += [
    (f"hunt_{conj}.csv", None, ["hunt", "--conjecture", conj, "--trials", "300", "-m", "4"])
    for conj in ("conj5.6", "conj5.7", "conj7.9", "conj7.10", "conj7.11")
]
# a rational multigraph with parallel edges, a zero-weight edge and two components
CASES += [
    (golden, "flow_multigraph.txt", argv)
    for golden, argv in [
        ("ghtree.txt", ["ghtree", "-"]),
        ("lambda.txt", ["lambda", "-"]),
        ("invariants.csv", ["invariants", "-"]),
        ("cutpair_135.txt", ["cutpair", "-", "--set", "1,3,5"]),
        ("cutpair_28.txt", ["cutpair", "-", "--set", "2,8"]),
    ]
]
# verify beyond the suite's p = r = 1, alpha = 2, light edge and Lambda > 0:
# p = r = 2, alpha = 3/2, the heavy-edge form (edge 0 weighs 100 in a
# triangle of unit edges) and a zero discount base (no edges)
CASES += [
    (f"verify_{bound}.txt", graph, ["verify", "-", "--bound", bound, *anchors, "-m", m])
    for bound, graph, anchors, m in [
        ("prop5.8", "multigraph.txt", ["--x", "1,2,3,5", "--p", "2", "--r", "2"], "6"),
        ("cor5.9", "multigraph.txt", ["--x", "1,2,3,5", "--p", "2", "--r", "2"], "6"),
        ("prop5.11", "multigraph.txt", ["--x", "1,2,3,5", "--p", "2", "--r", "2"], "6"),
        ("prop7.2", "multigraph.txt", ["--x", "1", "--y", "3,5", "--alpha", "3/2"], "6"),
        ("prop7.8", "multigraph.txt", ["--x", "1", "--y", "3,5", "--alpha", "3/2"], "6"),
        ("cor7.5", "triangle_heavy.txt", ["--edge", "0"], "6"),
        ("cor7.13", "triangle_heavy.txt", ["--edge", "0"], "6"),
        ("prop7.1", "edgeless.txt", ["--y", "2"], "4"),
    ]
]
# Lambda(G - e) = 0: the other two edges of the triangle weigh 0
CASES.append(
    ("verify_cor7.5_zero.txt", "triangle_zero.txt", ["verify", "-", "--bound", "cor7.5", "--edge", "0", "-m", "4"])
)


# chromatic: the manifest and the exact coefficients; the float `root,` lines
# depend on the platform's numpy and are dropped before comparing
CHROMATIC_CASES = [(f"chromatic_{graph}.txt", f"{graph}.txt") for graph in ("wheel", "flow_multigraph")]


def _run(graph, argv, monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "stdin", io.StringIO((GOLDEN / graph).read_text() if graph else ""))
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("golden,graph,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(golden, graph, argv, monkeypatch, capsys):
    assert _run(graph, argv, monkeypatch, capsys) == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden,graph", CHROMATIC_CASES, ids=[c[0] for c in CHROMATIC_CASES])
def test_chromatic_matches_golden(golden, graph, monkeypatch, capsys):
    out = _run(graph, ["chromatic", "-"], monkeypatch, capsys)
    kept = [line for line in out.splitlines(keepends=True) if not line.startswith("root,")]
    assert "".join(kept) == (GOLDEN / golden).read_text()


# explore8: Lambda, Delta and Delta2 of random unit graphs; the float
# max_root_* columns (the last three) are cut before comparing
def test_explore8_matches_golden(monkeypatch, capsys):
    out = _run(None, ["explore8", "--trials", "30", "--seed", "0", "--nmax", "9"], monkeypatch, capsys)
    kept = [",".join(line.split(",")[:6]) + "\n" for line in out.splitlines()]
    assert "".join(kept) == (GOLDEN / "explore8.csv").read_text()


def test_commands_in_one_process_match_golden(monkeypatch, capsys):
    # the parser is built once per process: options a command sets (alpha,
    # y, the edge) must not carry over to the next, and a usage error must
    # leave the parser working
    cases = {golden: (graph, argv) for golden, graph, argv in CASES}
    for golden in ("suite_wheel.csv", "verify_prop7.2.txt", "suite_wheel_x13.csv"):
        assert _run(*cases[golden], monkeypatch, capsys) == (GOLDEN / golden).read_text()
    with pytest.raises(SystemExit) as ei:
        main(["verify", "-", "-m", "3"])
    assert ei.value.code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the following arguments are required: --bound"
    ]
    assert _run(*cases["suite_wheel.csv"], monkeypatch, capsys) == (GOLDEN / "suite_wheel.csv").read_text()
