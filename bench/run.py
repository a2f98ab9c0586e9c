"""Benchmark of the maxmaxflow package: one workload per run, one thread.

    python3 bench/run.py --workload {hunt,suite,flow,chromatic,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Each workload repeats rounds of seeded inputs (see workloads.py), in
a closed loop with one caller, until S seconds of operations were measured,
then checks every output.  `--trace 0` prints the end-to-end metrics, their
times scaled by a reference loop timed through the run (see DESIGN.md);
`--trace 1` runs every round untraced and then traced (see tracer.py) and
prints the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it restate
the metrics, the environment and the failures for a reader.  `--workload
all` runs the four workloads one after another, each in its own process so
that peak memory is the workload's own.
"""
from __future__ import annotations

import os

# Pinned before numpy loads (np.roots); the work cap stays at the package default.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_WORKCAP_WAS = os.environ.pop("MAXMAXFLOW_WORKCAP", None)

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("hunt", "suite", "flow", "chromatic")
SETUP_SAMPLES = 9  # fresh interpreters
PROCESS_TIMEOUT_S = 170
REFERENCE_LOOP_S = 0.010  # the reference loop's time on the host the bounds were set on


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _set_up(name: str, seed: int, workdir: Path):
    """Import the package and numpy, then generate round 0's inputs."""
    if not (SRC / "maxmaxflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'maxmaxflow'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import maxmaxflow
    import workloads
    if Path(maxmaxflow.__file__).resolve().parent != SRC / "maxmaxflow":
        raise SystemExit(f"error: imported maxmaxflow from {maxmaxflow.__file__}")
    workload = workloads.WORKLOADS[name]
    first = workload.round_inputs(seed, 0, workdir)
    return workload, first, time.perf_counter() - t0


def _setup_probe(name: str, seed: int) -> float:
    """Host-scaled set-up time of a fresh interpreter, which imports everything anew."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


def _reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed.

    The 2-vCPU virtual machine the bounds were set on ran 35% faster or
    slower for minutes at a time.  Timing metrics are scaled by this loop,
    sampled through the run, so that they compare the program and not the
    host's load.
    """
    t = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - t


def _host_slowness() -> float:
    """Median of three reference loops over REFERENCE_LOOP_S; > 1 on a slower host."""
    return statistics.median(_reference_loop() for _ in range(3)) / REFERENCE_LOOP_S


def _run_ops(workload, ops, log: list):
    """Run each operation once; append (op, text, seconds, error) to log."""
    busy = 0.0
    for op in ops:
        t = time.perf_counter()
        try:
            raw = workload.call(op)
            error = None
        except (Exception, SystemExit) as exc:  # counted as a failed op; the run goes on
            raw, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        busy += dt
        log.append((op, None if error else workload.render(op, raw), dt, error))
    return busy


def _check(workload, name: str, seed: int, log: list) -> tuple[list[str], str]:
    """Failures per op (error, wrong output, or a digest that changed)."""
    recorded = json.loads((Path(__file__).parent / "digests.json").read_text())
    expected = recorded.get(f"{name}/{seed}")
    import workloads

    failures = []
    for i, (op, text, _, error) in enumerate(log):
        try:
            problems = [error] if error else workload.check(op, text)
        except (ValueError, IndexError, KeyError) as exc:  # output in an unexpected shape
            problems = [f"output does not parse: {type(exc).__name__}: {exc}"]
        if expected is not None and i < len(expected) and not error:
            if workloads.digest(text) != expected[i]:
                problems.append("output digest differs from the one recorded")
        if problems:
            failures.append(f"op {i} ({op.label}): {'; '.join(problems)}")
    if expected is None:
        note = f"no digests recorded for seed {seed}"
    else:
        note = f"round 0 output digests compared for seed {seed} ({len(expected)} ops)"
    return failures, note


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _environment(seed: int) -> str:
    import maxmaxflow
    from maxmaxflow import counting

    head = ROOT / ".git" / "HEAD"
    commit = "n/a (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip()[:12] if target and target.is_file() else ref[:12]
    src = hashlib.sha256()
    for path in sorted((SRC / "maxmaxflow").glob("*.py")):
        src.update(path.read_bytes())
    cap = "default" if _WORKCAP_WAS is None else f"default; MAXMAXFLOW_WORKCAP={_WORKCAP_WAS} was unset"
    return (f"# env: python={platform.python_version()} nproc={os.cpu_count()} "
            f"commit={commit} src_sha256={src.hexdigest()[:12]} seed={seed} "
            f"maxmaxflow={maxmaxflow.__version__} workcap={counting.work_cap()} ({cap}) "
            f"threads OMP/OPENBLAS/MKL=1")


def run_workload(args) -> dict:
    with scratch_dir() as workdir:
        workload, first, setup_s = _set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(setup_s / _host_slowness())
            return {}
        if args.trace:
            return _traced(args, workload, first, workdir)
        return _untraced(args, workload, first, workdir)


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, the working directory until exit."""
    cwd = os.getcwd()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    os.chdir(workdir)
    try:
        yield workdir
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(args, workload, first, workdir) -> dict:
    log: list = []
    rounds: list[tuple[int, float]] = []
    loops = [_reference_loop()]
    ops, since = first, 0.0
    while True:
        dt = _run_ops(workload, ops, log)
        rounds.append((len(ops), dt))
        since += dt
        if since >= 1.0:
            loops.append(_reference_loop())
            since = 0.0
        if sum(t for _, t in rounds) >= args.seconds:
            break
        ops = workload.round_inputs(args.seed, len(rounds), workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    failures, note = _check(workload, args.workload, args.seed, log)
    slow = statistics.median(loops) / REFERENCE_LOOP_S  # > 1 on a slower host
    lat_ms = [1000 * dt for _, _, dt, _ in log]
    # the host's bursts of slowness only ever lengthen a round, so the
    # faster rounds carry less of them than the median round does
    ops_per_s = _percentile([n / t for n, t in rounds], 75)
    p50, tail = statistics.median(lat_ms), _percentile(lat_ms, workload.tail_pct)
    host = f"host x{slow:.3f} from {len(loops)} reference loops"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh set-ups"),
        "ops_per_s": (ops_per_s * slow, "1/s", f"upper quartile of {len(rounds)} rounds of "
                      f"{rounds[0][0]} ops; {ops_per_s:.6g} wall-clock, {host}"),
        "op_p50_ms": (p50 / slow, "ms", f"n={len(lat_ms)} ops; {p50:.6g} wall-clock"),
        "op_tail_ms": (tail / slow, "ms", f"p{workload.tail_pct}, n={len(lat_ms)} ops; "
                       f"{tail:.6g} wall-clock"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }
    return _report(args, metrics, len(log), failures, note)


def _traced(args, workload, first, workdir) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    plain: list = []
    traced: list = []
    untraced_s = traced_s = 0.0
    r, ops = 0, first
    while True:
        untraced_s += _run_ops(workload, ops, plain)
        tracer.install()
        try:
            traced_s += _run_ops(workload, ops, traced)
        finally:
            tracer.uninstall()
        r += 1
        if untraced_s + traced_s >= args.seconds:
            break
        ops = workload.round_inputs(args.seed, r, workdir)
    failures, note = _check(workload, args.workload, args.seed, plain)
    failures += [f"op {i} ({a[0].label}): traced output differs from untraced"
                 for i, (a, b) in enumerate(zip(plain, traced)) if a[1] != b[1] or a[3] != b[3]]
    values = tracer.metrics(traced_s, untraced_s)
    tracer.save(ROOT / ".bench_out" / f"spans-{args.workload}.npz")
    how = f"{r} rounds, {len(tracer.start)} spans"
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (values.get(m["name"], 0), m["unit"], how) for m in per_layer}
    return _report(args, metrics, len(plain) + len(traced), failures, note)


def _report(args, metrics: dict, attempted: int, failures: list[str], note: str) -> dict:
    print(f"# bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(_environment(args.seed))
    for name, (value, unit, how) in metrics.items():
        print(f"{args.workload:<10} {name:<52} {value:>14.6g} {unit:<6} ({how})")
    print(f"{args.workload:<10} {'failed_frac':<52} {len(failures) / attempted:>14.6g} ratio  "
          f"({len(failures)} of {attempted} ops)")
    print(f"# correctness: {note}")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process; their results keyed by workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
