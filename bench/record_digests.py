"""Record the round-0 output digests that bench/run.py compares against.

    python3 bench/record_digests.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites bench/digests.json with one digest per operation of round 0, keyed
"workload/seed", for seeds 0-31 of every workload.  A change that alters an
output byte on purpose re-records and says why.
"""
from __future__ import annotations

import json
from pathlib import Path

import run

SEEDS = 32


def main() -> int:
    with run.scratch_dir() as workdir:
        run._set_up("hunt", 0, workdir)  # imports the package from ./src, as a run does
        import workloads

        digests: dict = {}
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(SEEDS):
                log: list = []
                run._run_ops(workload, workload.round_inputs(seed, 0, workdir), log)
                for op, text, _, error in log:
                    problems = [error] if error else workload.check(op, text)
                    if problems:
                        raise SystemExit(f"error: {name}/{seed} {op.label}: {'; '.join(problems)}")
                digests[f"{name}/{seed}"] = [workloads.digest(text) for _, text, _, _ in log]
    rows = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in digests.items()]
    Path(__file__).with_name("digests.json").write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
