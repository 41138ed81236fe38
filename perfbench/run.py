#!/usr/bin/env python3
"""Train/predict benchmark of mklsp.

Run from the root of a checkout:

    python3 perfbench/run.py --workload seq-oracle --seed 1 --seconds 12 --trace 0

It generates the workload's corpora from the seed, then repeats the steps
of `mklsp train` and `mklsp predict` on them, using the checkout's `src/`.
With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  A readable summary goes to stderr.
Standard output gets the detail report as one JSON line and, as its last
line, the result: {"correct", "attempted", "failed", "metrics"}.  The
detail report (and the spans of a traced run) are also written under
`.perfbench-out/`.  Exit code 2 means the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"


def use_program_source(root: Path = ROOT) -> None:
    """Import mklsp from the checkout's `src/`; exit 2 when it is not there."""
    src = root / "src"
    if not (src / "mklsp" / "__init__.py").is_file():
        print(f"error: no mklsp source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def summary(result: dict) -> str:
    report = result["report"]
    lines = [
        f"{report['workload']} seed={report['seed']} trace={report['trace']} "
        f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for key in ("solver.iterations", "train_cpu_s", "tracing_overhead_s"):
        if key in report:
            lines.append(f"  ({key} = {report[key]:.6g})")
    failed = [c for c in report["checks"] if not c["ok"]]
    lines += [f"  check failed: {c['check']}: {c['detail']}" for c in failed]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_program_source()
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        result = bench.run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }

    report = result.pop("report")
    spans = report.pop("spans", None)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**result, "report": report}, indent=1))
    if spans is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    print(summary({**result, "report": report}), file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
