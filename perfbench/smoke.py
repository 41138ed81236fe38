#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a checkout (takes about half a minute):

    python3 perfbench/smoke.py

It goes through `run.main` as the benchmark command does and asserts that
the result line names every metric of BENCHMARK.json with its unit, and
that every correctness check ran and passed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

TINY = {
    "seq": {"n_train": 60, "n_test": 20, "min_len": 4, "max_len": 8},
    "dep": {"n_train": 10, "n_test": 10, "min_len": 4, "max_len": 8},
}
CHECKS = {"halt", "duality", "checksum", "iterations", "accuracy", "output"}


def smoke(name: str, trace: int, declared: list[dict]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(
            ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        )
    assert code == 0, f"{name}: exit code {code}"
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()

    units = {metric: value["unit"] for metric, value in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert units == expected, f"{name} trace={trace}: metrics {units} != {expected}"
    assert all(
        isinstance(v["value"], (int, float)) for v in result["metrics"].values()
    ), result["metrics"]

    ran = {c["check"] for c in report["checks"]}
    wanted = CHECKS | ({"trees"} if report["config"]["task"] == "dep" else set())
    assert wanted <= ran, f"{name}: checks not run: {wanted - ran}"
    failed = [c for c in report["checks"] if not c["ok"]]
    assert result["correct"] and not failed, f"{name}: failed checks {failed}"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    return f"smoke ok: {name} trace={trace} metrics={len(units)} checks={len(report['checks'])}"


def main() -> int:
    run.use_program_source()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    run.OUT_DIR = run.ROOT / ".perfbench-out" / "smoke"
    for name in names:
        full = workloads.WORKLOADS[name]
        workloads.WORKLOADS[name] = dataclasses.replace(full, **TINY[full.task])
        try:
            print(smoke(name, 0, spec["end_to_end"]))
            print(smoke(name, 1, spec["per_layer"]))
        finally:
            workloads.WORKLOADS[name] = full
    return 0


if __name__ == "__main__":
    sys.exit(main())
