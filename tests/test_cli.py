"""Command-line interface: exit codes, deterministic output, manifests."""
import importlib
import io
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import maxmaxflow
from maxmaxflow import bounds, cli, counting
from maxmaxflow.bounds import BOUNDS
from maxmaxflow.cli import main
from maxmaxflow.graph import WeightedMultigraph, complete_graph, cycle_graph, path_graph, random_multigraph

TRIANGLE = "v 3\ne 1 2 1\ne 2 3 1\ne 3 1 1\n"


@pytest.fixture
def tri(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text(TRIANGLE)
    return str(p)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lambda(tri, capsys):
    code, out, _ = run_main(["lambda", tri], capsys)
    assert code == 0
    assert "2" in out


def test_invariants_csv(tri, capsys):
    code, out, _ = run_main(["invariants", tri], capsys)
    assert code == 0
    assert "Lambda" in out and "Delta" in out


def test_ghtree_roundtrips_and_manifest(tri, capsys):
    code, out, _ = run_main(["ghtree", tri], capsys)
    assert code == 0
    assert out.startswith("# maxmaxflow")
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    # tree output: n-1 edges for a connected graph, each tree edge weight is
    # the max-flow between its ends
    assert body.count("e ") == 2


def test_count_series(tri, capsys):
    code, out, _ = run_main(["count", tri, "--class", "SAW", "--x", "1", "--y", "2", "-m", "3"], capsys)
    assert code == 0
    assert "1" in out


def test_verify_consistent_exit_zero(tri, capsys):
    code, out, _ = run_main(
        ["verify", tri, "--bound", "prop4.3", "--x", "1", "--y", "2", "-m", "4"], capsys
    )
    assert code == 0
    assert "CONSISTENT" in out or "EQUALITY" in out


def test_suite(tri, capsys):
    code, out, _ = run_main(
        ["suite", tri, "--x", "1,2", "--y", "3", "-m", "3"], capsys
    )
    assert code == 0
    assert "prop4.3" in out


def test_hunt_deterministic_output(capsys):
    args = ["hunt", "--conjecture", "conj5.6", "--trials", "25", "--seed", "3"]
    code1, out1, _ = run_main(args, capsys)
    code2, out2, _ = run_main(args, capsys)
    assert code1 == code2 == 0
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("# command")]
    assert strip(out1) == strip(out2)
    assert "# seed: 3" in out1
    assert "conj5.6" in out1


def test_chromatic(tri, capsys):
    code, out, _ = run_main(["chromatic", tri], capsys)
    assert code == 0
    # q(q-1)(q-2) = q^3 - 3q^2 + 2q
    assert "-3" in out and "2" in out


def test_generate_cycle(capsys):
    code, out, _ = run_main(["generate", "--family", "cycle", "--n", "5"], capsys)
    assert code == 0
    g = WeightedMultigraph.parse(out)
    assert g == cycle_graph(5)


def test_generate_to_file(tmp_path, capsys):
    dest = tmp_path / "g.txt"
    code, _, _ = run_main(["generate", "--family", "path", "--n", "4", "-o", str(dest)], capsys)
    assert code == 0
    assert WeightedMultigraph.parse(dest.read_text()).n == 4


# family -> values for each of its required parameters
GENERATE_REQUIRED = {
    "path": {"n": "3"},
    "cycle": {"n": "3"},
    "star": {"r": "2"},
    "wheel": {"r": "3"},
    "complete": {"n": "3"},
    "theta": {"r": "2"},
    "k2s": {"s": "2"},
    "stars": {"r": "2", "s": "2"},
    "pns": {"n": "3", "s": "2"},
    "tree": {"r": "2", "depth": "2"},
    "trees": {"r": "2", "depth": "2", "s": "2"},
    "random": {"n": "4"},
}


def _generate_args(family, skip=None):
    args = ["generate", "--family", family]
    for name, value in GENERATE_REQUIRED[family].items():
        if name != skip:
            args += [f"--{name}", value]
    return args


@pytest.mark.parametrize("family", sorted(GENERATE_REQUIRED))
def test_generate_with_required_parameters(family, capsys):
    code, out, err = run_main(_generate_args(family), capsys)
    assert code == 0 and err == ""
    WeightedMultigraph.parse(out)


@pytest.mark.parametrize("family,missing", [
    (family, name) for family, required in sorted(GENERATE_REQUIRED.items()) for name in required
])
def test_generate_missing_parameter_is_one_line(family, missing, capsys):
    code, out, err = run_main(_generate_args(family, skip=missing), capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: family {family!r} needs the parameter {missing!r}"]


# family -> a parameter its builder does not read, with a value
GENERATE_UNREAD = {
    "path": ("weight", "2"),
    "cycle": ("seed", "1"),
    "star": ("total", "3"),
    "wheel": ("p", "0.5"),
    "complete": ("seed", "1"),
    "theta": ("total", "2"),
    "k2s": ("weight", "2"),
    "stars": ("p", "0.5"),
    "pns": ("weight", "2"),
    "tree": ("total", "2"),
    "trees": ("weight", "2"),
    "random": ("total", "2"),
}


@pytest.mark.parametrize("family", sorted(GENERATE_UNREAD))
def test_generate_rejects_a_parameter_the_family_does_not_read(family, capsys):
    name, value = GENERATE_UNREAD[family]
    code, out, err = run_main([*_generate_args(family), f"--{name}", value], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: family {family!r} does not take the parameter {name!r}"]


@pytest.mark.parametrize("p", ["2", "-1", "nan"])
def test_generate_random_rejects_a_probability_outside_0_1(p, capsys):
    code, out, err = run_main(["generate", "--family", "random", "--n", "3", "--p", p], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: edge probability p must lie in [0, 1], not {float(p)}"]


def test_bad_graph_file_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("v 2\ne 1 1 1\n")
    code, _, err = run_main(["lambda", str(p)], capsys)
    assert code == 1
    assert "error" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run_main(["lambda", "/nonexistent/file.txt"], capsys)
    assert code == 1


@pytest.mark.parametrize("extra", [
    ["--class", "SAW"],
    ["--class", "W", "--x", "1"],
    ["--class", "BLOCKPATH", "--y", "2"],
    ["--class", "FPW", "--x", "1"],
    ["--class", "FPSAW", "--x", "1"],
    ["--class", "T", "--x", "1", "--cap", "2"],
])
def test_count_errors_are_one_line(tri, capsys, extra):
    code, out, err = run_main(["count", tri, "-m", "3", *extra], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# a flag that feeds a single vertex x or y takes one vertex, not a list
@pytest.mark.parametrize("extra,flag", [
    (["--class", "SAW", "--x", "1,2", "--y", "3"], "--x"),
    (["--class", "W", "--x", "1", "--y", "2,3"], "--y"),
    (["--class", "FPW", "--x", "1,2", "--y", "3"], "--x"),
    (["--class", "FPSAW", "--x", "2,1", "--y", "3"], "--x"),
    (["--class", "BLOCKPATH", "--x", "1,3", "--y", "2"], "--x"),
    (["--class", "blockpath", "--x", "1", "--y", "2,3"], "--y"),
])
def test_count_rejects_extra_vertices_for_a_single_anchor(tri, capsys, extra, flag):
    code, out, err = run_main(["count", tri, "-m", "3", *extra], capsys)
    assert code == 1 and out == ""
    kind = extra[1].upper()
    assert err.splitlines() == [f"error: --class {kind} takes one vertex in {flag}, not 2"]


@pytest.mark.parametrize("extra", [["--p", "2"], ["--r", "2"]])
def test_count_rejects_p_r_outside_h(tri, capsys, extra):
    code, out, err = run_main(["count", tri, "--class", "SAW", "--x", "1", "--y", "2", "-m", "3", *extra], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: p, r apply to kind H only"]


@pytest.mark.parametrize("extra,expected", [
    # sets: X for T, Y for FPW and for F
    (["--class", "T", "--x", "1,2"], ["0,0", "1,1", "2,1"]),
    (["--class", "FPW", "--x", "1", "--y", "2,3"], ["0,0", "1,2", "2,0"]),
    (["--class", "F", "--x", "1", "--y", "2,3"], ["0,0", "1,2", "2,0"]),
])
def test_count_flags_feed_the_family_anchors(tri, capsys, extra, expected):
    code, out, err = run_main(["count", tri, "-m", "2", *extra], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[-3:] == expected


# the help and the error both list every family of the table
def test_count_lists_the_families(tri, capsys):
    kinds = sorted(counting._FAMILIES)
    code, out, err = run_main(["count", tri, "--class", "BOGUS", "--x", "1", "-m", "3"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: unknown kind 'BOGUS'; known: {kinds}"]
    with pytest.raises(SystemExit):
        main(["count", "-h"])
    assert f"one of {', '.join(kinds)}" in " ".join(capsys.readouterr().out.split())


def test_chromatic_cap_defaults_to_the_work_cap():
    # None: chromatic_polynomial takes the default work cap
    assert cli._parser().parse_args(["chromatic", "g.txt"]).cap is None


def test_every_cap_flag_is_the_work_cap():
    # one meaning of --cap for every subcommand: an integer in the text
    # format's grammar, default None (the default work cap), with the same help text
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "cmd").choices
    caps = {
        name: next(a for a in sp._actions if "--cap" in a.option_strings)
        for name, sp in subparsers.items()
        if any("--cap" in a.option_strings for a in sp._actions)
    }
    assert set(caps) == {"chromatic", "count", "hunt", "suite", "verify"}
    assert {(a.type, a.default, a.help) for a in caps.values()} == {(cli._int, None, caps["count"].help)}
    # invariants takes none: its one capped routine, D_2, charges at most 10 exempt sets
    assert "invariants" in subparsers and "invariants" not in caps


# a trial's error is a fault to report, not a trial to drop: the hunt and
# the CLI end in it rather than leave the trial out of the leaderboard
def test_hunt_trial_error_propagates(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("the trial failed")

    monkeypatch.setattr(bounds, "verify_bound", fail)
    with pytest.raises(ValueError, match="^the trial failed$"):
        bounds.hunt("conj5.6", trials=3)
    code, out, err = run_main(["hunt", "--conjecture", "conj5.6", "--trials", "3"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the trial failed"]


def test_manifest_records_argv_given_to_main(tri, capsys):
    args = ["count", tri, "--class", "T", "--x", "1", "-m", "2"]
    code, out, _ = run_main(args, capsys)
    assert code == 0
    assert f"# command: {' '.join(args)}" in out.splitlines()


def test_usage_error_exit_one(tri):
    # argparse errors are mapped to exit code 1
    proc = subprocess.run(
        [sys.executable, "-m", "maxmaxflow.cli", "verify", tri, "-m", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1


@pytest.mark.parametrize("flag,value", [("--alpha", "1e0"), ("--alpha", "3_2"), ("--weight", "1e5")])
def test_rational_options_take_the_weight_grammar(tri, capsys, flag, value):
    args = (["verify", tri, "--bound", "prop7.2", "--x", "1", "--y", "2"] if flag == "--alpha"
            else ["generate", "--family", "cycle", "--n", "3"])
    with pytest.raises(SystemExit) as ei:
        main([*args, flag, value])
    err = capsys.readouterr().err
    assert ei.value.code == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: argument {flag}: bad rational {value!r}"
    ]


# flag -> a command whose argv parses with V replaced by an ASCII integer
INTEGER_FLAGS = {
    "--x": ["verify", "TRI", "--bound", "prop4.3", "--x", "V", "--y", "1", "-m", "4"],
    "--y": ["verify", "TRI", "--bound", "prop4.3", "--x", "1", "--y", "V", "-m", "4"],
    "--set": ["cutpair", "TRI", "--set", "V"],
    "--edge": ["suite", "TRI", "--edge", "V", "-m", "3"],
    "-m": ["verify", "TRI", "--bound", "prop4.3", "--x", "1", "--y", "2", "-m", "V"],
    "--cap": ["chromatic", "TRI", "--cap", "V"],
    "--trials": ["hunt", "--conjecture", "conj5.6", "--trials", "V"],
    "--seed": ["hunt", "--conjecture", "conj5.6", "--trials", "1", "--seed", "V"],
    "--nmax": ["explore8", "--trials", "1", "--nmax", "V"],
    "generate --n": ["generate", "--family", "random", "--n", "V"],
    "generate --r": ["generate", "--family", "trees", "--r", "V", "--depth", "2", "--s", "2"],
    "generate --s": ["generate", "--family", "trees", "--r", "2", "--depth", "2", "--s", "V"],
    "generate --depth": ["generate", "--family", "trees", "--r", "2", "--depth", "V", "--s", "2"],
    "generate --seed": ["generate", "--family", "random", "--n", "4", "--seed", "V"],
}
VERTEX_LISTS = {"--x", "--y", "--set"}


# integer flags and vertex-list items take the text format's integer grammar:
# no non-ASCII digits, no underscores, no empty list items
@pytest.mark.parametrize("key,value", [
    *[(key, value) for key in INTEGER_FLAGS for value in ["\uff13", "\u0663", "1_0"]],
    *[(key, value) for key in sorted(VERTEX_LISTS) for value in ["1,,3", "1,", ""]],
])
def test_integer_flags_take_the_text_formats_grammar(tri, capsys, key, value):
    argv = [tri if a == "TRI" else value if a == "V" else a for a in INTEGER_FLAGS[key]]
    with pytest.raises(SystemExit) as ei:
        main(argv)
    err = capsys.readouterr().err
    flag = key.split()[-1]
    name = "-m/--m" if flag == "-m" else flag
    what = "bad vertex list" if key in VERTEX_LISTS else "invalid int value:"
    assert ei.value.code == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: argument {name}: {what} {value!r}"
    ]


def test_stdin_input(tri, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE))
    code, out, _ = run_main(["lambda", "-"], capsys)
    assert code == 0


# suite checks its input once, with the messages verify prints, instead of
# dropping the bounds that read the bad value
@pytest.mark.parametrize("bound,extra,message", [
    ("prop7.2", ["--alpha", "5"], "alpha must lie in (1, 2]"),
    ("cor5.3", ["--x", "1,7"], "vertex 7 outside 1..3"),
    ("cor7.5", ["--edge", "9"], "edge id out of range"),
])
def test_suite_rejects_bad_input_as_verify_does(tri, capsys, bound, extra, message):
    for command in (["suite", tri], ["verify", tri, "--bound", bound]):
        code, out, err = run_main([*command, "-m", "3", *extra], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]


# suite asks for every edge-subset class of G in one search; the through-edge
# series of cor7.5 and cor7.13 is one more, on G - e
@pytest.mark.parametrize("extra,searched", [([], [3]), (["--edge", "0"], [3, 2])])
def test_suite_runs_one_search_per_graph(tri, capsys, monkeypatch, extra, searched):
    seen = []
    search = counting.class_series

    def spy(g, specs, M, cap=None):
        seen.append(g.m)
        return search(g, specs, M, cap)

    # bounds holds its own reference to the function
    for module in (counting, bounds):
        monkeypatch.setattr(module, "class_series", spy)
    code, out, _ = run_main(["suite", tri, "--x", "1,2", "--y", "3", "-m", "3", *extra], capsys)
    assert code == 0 and "cor5.3," in out
    assert seen == searched


def test_suite_cap_is_one_error_line(tri, capsys):
    code, out, err = run_main(["suite", tri, "--x", "1,2", "--y", "3", "-m", "3", "--cap", "2"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the edge-set search passed the work cap of 2 edge sets"]


def test_verify_checks_anchors_the_bound_does_not_read(tri, capsys):
    code, out, err = run_main(["verify", tri, "--bound", "prop4.1", "--x", "1", "--y", "9", "-m", "3"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: vertex 9 outside 1..3"]


# searches as deep as the path is long; each is a loop, not a recursion
@pytest.mark.parametrize("extra,nonzero", [
    (["--class", "T", "--x", "1"], {0: "1"}),
    (["--class", "SAW", "--x", "1", "--y", "1500"], {1499: "1"}),
])
def test_count_deep_search_on_long_path(tmp_path, capsys, extra, nonzero):
    graph = tmp_path / "path.txt"
    graph.write_text(path_graph(1500).serialize())
    code, out, err = run_main(["count", str(graph), *extra, "-m", "1499"], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[4:]]
    assert [int(m) for m, _ in rows] == list(range(1500))
    assert {int(m): v for m, v in rows if v != "0"} == nonzero


# one bad input per subcommand: exit 1, nothing on stdout and one error line
BAD_INPUTS = {
    "invariants": ("v 0\n", ["-"], "empty graph"),
    "lambda": ("v 1\n", ["-"], "maxmaxflow requires at least two vertices"),
    "ghtree": ("v 2\ne 1 3 1\n", ["-"], "line 2: edge endpoint outside 1..2: (1,3)"),
    "cutpair": (TRIANGLE, ["-", "--set", "1"], "need at least two vertices in X"),
    "count": (TRIANGLE, ["-", "--class", "T", "--x", "1", "-m", "-1"], "M must be >= 0"),
    "verify": (TRIANGLE, ["-", "--bound", "prop4.3", "--x", "1", "--y", "2", "-m", "-1"], "M must be >= 0"),
    "suite": (TRIANGLE, ["-", "--x", "1", "-m", "-1"], "M must be >= 0"),
    "hunt": ("", ["--conjecture", "conj5.6", "--trials", "3", "-m", "-1"], "M must be >= 0"),
    "chromatic": (TRIANGLE, ["-", "--cap", "2"],
                  "the chromatic polynomial passed the work cap of 2 deletion-contraction calls"),
    "explore8": ("", ["--nmax", "3"], "n_max must lie in 4..14, not 3"),
    "generate": ("", ["--family", "nope"], "unknown family 'nope'; choose from "
                 "['complete', 'cycle', 'k2s', 'path', 'pns', 'random', 'star', 'stars', "
                 "'theta', 'tree', 'trees', 'wheel']"),
}


def test_bad_inputs_cover_every_subcommand():
    assert sorted(BAD_INPUTS) == sorted(cli._DISPATCH)


@pytest.mark.parametrize("cmd", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(cmd, monkeypatch, capsys):
    stdin, args, message = BAD_INPUTS[cmd]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_main([cmd, *args], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def _package_errors() -> list[type]:
    """Every exception class a module of the package defines."""
    found = set()
    for info in pkgutil.iter_modules(maxmaxflow.__path__):
        module = importlib.import_module(f"maxmaxflow.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module.__name__}
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", _package_errors(), ids=lambda cls: cls.__name__)
def test_package_error_in_a_command_is_one_error_line(error, tri, monkeypatch, capsys):
    def fail(g):
        raise error("the command failed")

    monkeypatch.setattr(cli, "maxmaxflow", fail)
    code, out, err = run_main(["lambda", tri], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the command failed"]


def test_package_errors_are_found():
    names = {cls.__name__ for cls in _package_errors()}
    assert {"GraphFormatError", "UndecidedComparison", "WorkCapExceeded"} <= names


# a bound's row depends on the graph and its anchors only: verify prints the
# row the suite prints, here where y is also the first vertex of --x
def test_verify_rows_equal_suite_rows(capsys):
    wheel = str(Path(__file__).parent / "golden" / "wheel.txt")
    flags = ["--x", "1,3", "--y", "1", "-m", "4"]
    code, out, _ = run_main(["suite", wheel, *flags], capsys)
    assert code == 0
    rows = [row for row in out.splitlines() if not row.startswith("#")][1:]
    suite = {row.split(",")[0]: row for row in rows}
    alone = {}
    for bound_id in sorted(set(BOUNDS) - set(bounds.CONJECTURES)):  # the suite leaves these out
        code, out, _ = run_main(["verify", wheel, "--bound", bound_id, *flags], capsys)
        if code != 1:
            alone[bound_id] = out.splitlines()[1]
    assert {"prop4.3", "cor4.4", "cor4.5"} <= set(alone)
    assert alone == suite


def test_hunt_rejects_negative_trials(capsys):
    code, out, err = run_main(["hunt", "--conjecture", "conj5.6", "--trials", "-1"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: trials must be >= 0"]


def test_explore8_rejects_negative_trials(capsys):
    code, out, err = run_main(["explore8", "--trials", "-1"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: trials must be >= 0"]


def test_explore8_rejects_nmax_above_its_limit(capsys):
    # rejected before any graph is drawn
    code, out, err = run_main(["explore8", "--trials", "20", "--nmax", "20"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: n_max must lie in 4..14, not 20"]


@pytest.mark.parametrize("cmd", [
    ["count", "TRI", "--class", "T", "--x", "1", "-m", "3"],
    ["count", "TRI", "--class", "SAW", "--x", "1", "--y", "2", "-m", "3"],
    ["count", "TRI", "--class", "W", "--x", "1", "--y", "2", "-m", "3"],
    ["suite", "TRI", "--edge", "0", "-m", "3"],
    ["verify", "TRI", "--bound", "prop4.1", "--x", "1", "-m", "3"],
    ["hunt", "--conjecture", "conj5.6", "--trials", "3"],
    ["chromatic", "TRI"],
])
@pytest.mark.parametrize("cap", ["-5", "0"])
def test_cap_below_one_is_one_error_line(tri, capsys, cmd, cap):
    # suite's only search here is the through-edge one, and hunt drops a
    # trial on ValueError: both must still reject the cap, not skip bounds
    argv = [tri if a == "TRI" else a for a in cmd]
    code, out, err = run_main([*argv, "--cap", cap], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: the work cap must be >= 1, not cap={cap}"]


# K13 holds about 10^9 self-avoiding walks of 12 steps from a vertex; the
# cap stops the search after 1000 steps
def test_saw_search_stops_at_the_cap(tmp_path, capsys):
    path = tmp_path / "k13.txt"
    path.write_text(complete_graph(13).serialize())
    argv = ["count", str(path), "--class", "SAW", "--x", "1", "--y", "2", "-m", "12"]
    code, out, err = run_main([*argv, "--cap", "1000"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the walk search passed the work cap of 1000 steps"]


# K6 holds about 5^20000 walks of 20000 steps; the transfer is charged 36
# units of work per step, so the cap stops it before the first
@pytest.mark.parametrize("kind", ["W", "FPW"])
def test_walk_series_stops_at_the_cap(tmp_path, capsys, kind):
    path = tmp_path / "k6.txt"
    path.write_text(complete_graph(6).serialize())
    argv = ["count", str(path), "--class", kind, "--x", "1", "--y", "2", "-m", "20000"]
    code, out, err = run_main([*argv, "--cap", "10"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the walk series passed the work cap of 10 units of work"]


# invariants has no --cap: the flag is a usage error like any unknown one
def test_invariants_takes_no_cap(tri, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["invariants", tri, "--cap", "5"])
    out, err = capsys.readouterr()
    assert ei.value.code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: unrecognized arguments: --cap 5"
    ]


# this graph takes about 30,000 deletion-contraction calls; the cap stops
# the recursion after 1000
def test_chromatic_stops_at_the_cap(tmp_path, capsys):
    path = tmp_path / "g12.txt"
    path.write_text(random_multigraph(random.Random(5), 12, p=0.4, weights="unit").serialize())
    code, out, err = run_main(["chromatic", str(path), "--cap", "1000"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: the chromatic polynomial passed the work cap of 1000 deletion-contraction calls"]


# a series of 10^11 + 1 terms cannot be allocated, and the allocation fails
# at once, without reserving memory
@pytest.mark.parametrize("cmd", [
    ["count", "TRI", "--class", "T", "--x", "1,2", "--cap", "10"],
    ["count", "TRI", "--class", "SAW", "--x", "1", "--y", "2", "--cap", "10"],
    ["suite", "TRI", "--x", "1,2", "--y", "3"],
])
def test_huge_m_is_one_error_line(tri, capsys, cmd):
    argv = [tri if a == "TRI" else a for a in cmd]
    code, out, err = run_main([*argv, "-m", "100000000000"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: out of memory"]


# results print in full however many digits they have; the interpreter limits
# int <-> str conversions to 4300 digits by default, and main leaves its limit
# as it found it, since a caller may run it in process
def test_long_integers_print_in_full(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "big.txt"
    path.write_text(f"v 2\ne 1 2 1{'0' * 51}\n")
    code, out, err = run_main(["count", str(path), "--class", "W", "--x", "1", "--y", "2", "-m", "200"], capsys)
    assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    # a walk from 1 to 2 of m steps takes the edge m times, and m is odd
    assert rows == ["m,value", *(f"{m},{'1' + '0' * 51 * m if m % 2 else 0}" for m in range(201))]
    # two parallel edges of weight 10^4300 - 1 are parsed, and their sum has 4301 digits
    path.write_text(f"v 2\ne 1 2 {'9' * 4300}\ne 1 2 {'9' * 4300}\n")
    code, out, err = run_main(["lambda", str(path)], capsys)
    assert (code, out, err) == (0, f"1{'9' * 4299}8\n", "") and sys.get_int_max_str_digits() == limit


# a weight token is parsed under the limit, so a huge one is rejected before
# its quadratic-time conversion
def test_weight_over_the_digit_limit_is_one_error_line(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "huge.txt"
    path.write_text(f"v 2\ne 1 2 {'9' * (limit + 1)}\n")
    code, out, err = run_main(["lambda", str(path)], capsys)
    assert (code, out) == (1, "") and sys.get_int_max_str_digits() == limit
    assert err.splitlines() == [f"error: line 2: weight of {limit + 1} characters exceeds the limit of {limit} digits"]


# a vertex count no tuple holds is one error line, and an over-limit count
# is named by its length, as a weight is
_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("count,message", [
    (str(sys.maxsize + 1), f"vertex count exceeds the limit of {sys.maxsize}"),
    ("9" * (_DIGITS + 700), f"vertex count of {_DIGITS + 700} characters exceeds the limit of {_DIGITS} digits"),
], ids=["above-maxsize", "over-digit-limit"])
def test_vertex_count_fault_is_one_short_error_line(tmp_path, capsys, count, message):
    path = tmp_path / "huge.txt"
    path.write_text(f"v {count}\ne 1 2 1\n")
    code, out, err = run_main(["lambda", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: line 1: {message}"]
