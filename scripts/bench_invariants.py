#!/usr/bin/env python3
"""Check the benchmark's host-independent results against a committed record.

Run from anywhere (a few seconds):

    python3 scripts/bench_invariants.py           # compare; exit 1 on a difference
    python3 scripts/bench_invariants.py --write   # record the current results

For every workload of `perfbench/workloads.py` and each of the seeds 101
and 102, it runs one `perfbench/bench.py` repetition with one job, on the
checkout's `src/`, and compares it with `scripts/bench_invariants.json`.
The iteration count, the halt reason, the sha256 of the predicted file, the
feature count, the working-set size and stored row entries at the end of
training (which fingerprint every tree the oracle decoded), and the parser's
firing passes (calls of `_EdgeLayout.firings` over build, train and
predict; 0 for a tagger) are always compared.  The Newton systems of the
run's subproblem solves and the model checksum are compared only when the
numpy version, the BLAS and the machine equal the recorded ones, since
rounding that follows the BLAS can move them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_suffix(".json")
SEEDS = (101, 102)
ALWAYS = (
    "iterations",
    "halt",
    "output_sha256",
    "features",
    "working_set",
    "row_entries",
    "firing_passes",
)
SAME_HOST = ("newton_systems", "checksum")
ENVIRONMENT = ("numpy", "blas", "machine")


def measure(bench, workload, seed: int, workdir: Path) -> dict:
    """The invariants of one one-job `bench.repetition` of a workload."""
    solver, layout = bench.solver, bench.dependency._EdgeLayout  # what the repetition calls
    results, passes = [], 0
    train, firings = solver.train, layout.firings

    def recorded(*args, **kwargs):
        results.append(train(*args, **kwargs))
        return results[-1]

    def counted(*args, **kwargs):
        nonlocal passes
        passes += 1
        return firings(*args, **kwargs)

    solver.train, layout.firings = recorded, counted
    try:
        rep = bench.repetition(workload, bench.write_inputs(workload, seed, workdir), 1)
    finally:
        solver.train, layout.firings = train, firings
    (result,) = results
    newton = sum(r.subproblem.newton_systems for r in result.trace if r.subproblem is not None)
    return {
        "iterations": rep.iterations,
        "halt": rep.halt,
        "output_sha256": rep.output_sha256,
        "features": rep.features,
        "working_set": len(result.rows),
        "row_entries": sum(row.indices.size for row in result.rows),
        "firing_passes": passes,
        "newton_systems": newton,
        "checksum": rep.checksum,
    }


def differences(recorded: dict, current: dict) -> list[str]:
    """What `current` changes of `recorded`, one line per value."""
    keys = ALWAYS
    if recorded["environment"] == current["environment"]:
        keys += SAME_HOST
    else:
        print(
            f"environment {current['environment']} is not the recorded "
            f"{recorded['environment']}: {', '.join(SAME_HOST)} not compared",
            file=sys.stderr,
        )
    lines = []
    for run_name in sorted(recorded["runs"].keys() | current["runs"].keys()):
        old, new = recorded["runs"].get(run_name), current["runs"].get(run_name)
        if old is None or new is None:
            lines.append(f"{run_name}: {'not recorded' if old is None else 'not run'}")
            continue
        lines += [
            f"{run_name} {k}: {old.get(k)!r} -> {new[k]!r}" for k in keys if old.get(k) != new[k]
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {RECORD.name}")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    run.use_program_source(ROOT)  # before anything imports mklsp
    import bench
    from workloads import WORKLOADS

    environment = bench.environment(SEEDS[0])
    current = {"environment": {k: environment[k] for k in ENVIRONMENT}, "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                current["runs"][f"{name} seed={seed}"] = measure(bench, workload, seed, Path(tmp))
    if args.write:
        RECORD.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {RECORD}")
        return 0
    lines = differences(json.loads(RECORD.read_text(encoding="utf-8")), current)
    for line in lines:
        print(line)
    print(f"{len(current['runs'])} runs, {len(lines)} differences from {RECORD.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
