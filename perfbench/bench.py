"""One benchmark run: repeated `mklsp train` + `mklsp predict` on a workload.

A repetition does what the two commands do, through the library API and on
files: setup (read the training corpus, parse templates, build the task,
compile every sentence), `solver.train`, `Model.save`, and the predict path
(`Model.load`, `build_task`, read the unlabeled corpus, compile,
`parallel_decode`, write the output).  Every repetition starts from a fresh
setup, because training caches gold feature maps on the compiled sentences.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mklsp import corpus, dependency, metrics, model, sequence, solver, synthetic, templates

from tracing import Tracer, layer_metrics
from workloads import Workload, make_inputs

MIN_TIMED_REPS = 3
# untraced repetitions run the predict path this many times on their model:
# a predict sample is short, so it needs more samples than train does
PREDICTS_PER_REP = 3
ACCURACY_FLOOR = 1.0  # held-out accuracy of every workload at the commit that set the benchmark
DUALITY_TOL = 1e-6


@dataclass
class Files:
    templates: Path
    train: Path
    test: Path
    gold_text: str
    model: Path
    output: Path


@dataclass
class Rep:
    jobs: int
    traced: bool
    setup_s: float = 0.0
    train_s: float = 0.0
    train_cpu_s: float = 0.0
    train_children_cpu_s: float = 0.0
    predict_s: list[float] = field(default_factory=list)
    tokens: int = 0
    iterations: int = 0
    halt: str = ""
    duality_gap: float = float("nan")
    checksum: str = ""
    output_sha256: str = ""
    accuracy: float = float("nan")
    features: int = 0
    model_bytes: int = 0
    trees_ok: bool = True
    layers: dict = field(default_factory=dict)


class Checks:
    """Operations attempted and failed, with every check that was run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.records.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def operation(self, *oks: bool) -> None:
        self.attempted += 1
        self.failed += not all(oks)


def _phase(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _setup(w: Workload, files: Files):
    if w.task == "seq":
        template_text = files.templates.read_text(encoding="utf-8")
        specs = templates.parse_templates(template_text)
        table = corpus.LabelTable()
        instances = corpus.read_sequence_corpus(str(files.train), label_table=table, labeled=True)
        table.freeze()
        n_columns = len(instances[0].tokens[0])
        templates.validate_columns(specs, n_columns)
        task = sequence.SequenceTask.build(specs, instances, table)
    else:
        template_text = dependency.default_edge_templates()
        specs = dependency.parse_edge_templates(template_text)
        instances = corpus.read_dependency_corpus(str(files.train))
        n_columns = 10
        task = dependency.DependencyTask.build(specs, instances, w.decoder)
    compiled = [task.compile(inst) for inst in instances]
    return task, compiled, template_text, n_columns


def _predict(w: Workload, files: Files, jobs: int):
    loaded = model.Model.load(str(files.model))
    task = loaded.build_task()
    with open(files.output, "w", encoding="utf-8") as out:
        if w.task == "seq":
            instances = corpus.read_sequence_corpus(
                str(files.test), expected_columns=loaded.n_columns, labeled=False
            )
            compiled = [task.compile(inst) for inst in instances]
            outputs = solver.parallel_decode(task, loaded.weights, compiled, jobs, augmented=False)
            corpus.write_sequence_corpus(instances, out, task.labels, labels_override=outputs)
        else:
            instances = corpus.read_dependency_corpus(str(files.test))
            compiled = [task.compile(inst) for inst in instances]
            outputs = solver.parallel_decode(task, loaded.weights, compiled, jobs, augmented=False)
            corpus.write_dependency_corpus(instances, out, heads_override=outputs)
    return task, instances, outputs


def repetition(w: Workload, files: Files, jobs: int, tracer: Tracer | None = None) -> Rep:
    rep = Rep(jobs, tracer is not None)
    t0 = time.perf_counter()
    with _phase(tracer, "setup"):
        task, compiled, template_text, n_columns = _setup(w, files)
    rep.setup_s = time.perf_counter() - t0
    rep.features = sum(task.group_dims)

    config = solver.SolverConfig(C=w.C, epsilon=w.epsilon, jobs=jobs)
    cpu0 = os.times()
    t0 = time.perf_counter()
    result = solver.train(task, compiled, config)
    rep.train_s = time.perf_counter() - t0
    cpu1 = os.times()
    rep.train_cpu_s = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)
    rep.train_children_cpu_s = (cpu1.children_user + cpu1.children_system) - (
        cpu0.children_user + cpu0.children_system
    )
    rep.iterations = result.n_iterations
    rep.halt = result.halt_reason
    last = result.trace[-1]
    rep.duality_gap = abs(last.primal_objective - last.dual_objective) / max(
        1.0, abs(last.primal_objective)
    )

    # the rest of `mklsp train`: diagnostics, model, save
    diagnostics = {
        "iterations": str(result.n_iterations),
        "halt": result.halt_reason,
        "gap": f"{result.final_gap:.12g}",
        "C": f"{w.C:.12g}",
        "epsilon": f"{w.epsilon:.12g}",
        "mode": config.mode,
        "n_train": str(len(compiled)),
    }
    if w.task == "seq":
        trained = model.Model.from_sequence(
            task, template_text, n_columns, result.mu, result.weights, diagnostics
        )
    else:
        trained = model.Model.from_dependency(
            task, template_text, result.mu, result.weights, diagnostics
        )
    rep.checksum = trained.save(str(files.model))
    rep.model_bytes = files.model.stat().st_size
    del task, compiled, result, trained

    for _ in range(1 if tracer else PREDICTS_PER_REP):
        t0 = time.perf_counter()
        with _phase(tracer, "predict"):
            ptask, instances, outputs = _predict(w, files, jobs)
        rep.predict_s.append(time.perf_counter() - t0)
    rep.tokens = sum(len(inst.tokens) for inst in instances)

    rep.output_sha256 = hashlib.sha256(files.output.read_bytes()).hexdigest()
    if w.task == "seq":
        gold = corpus.read_sequence_corpus(
            io.StringIO(files.gold_text), label_table=ptask.labels, labeled=True
        )
        codec = metrics.LabelCodec("raw", ptask.labels)
        rep.accuracy = metrics.evaluate_sequence(gold, outputs, codec).token_accuracy
    else:
        gold = corpus.read_dependency_corpus(io.StringIO(files.gold_text))
        rep.accuracy = metrics.evaluate_dependency(gold, outputs).accuracy
        projective = w.decoder == "projective"
        rep.trees_ok = all(
            dependency.is_arborescence(h) and (not projective or dependency.is_projective(h))
            for h in outputs
        )
    return rep


def _judge(w: Workload, rep: Rep, reference: Rep, checks: Checks) -> None:
    """Run the checks of one repetition and count its three operations."""
    tag = f"jobs={rep.jobs}{' traced' if rep.traced else ''}"
    trained_ok = [
        checks.check("halt", rep.halt == "converged", f"{tag}: {rep.halt}"),
        checks.check(
            "duality", rep.duality_gap <= DUALITY_TOL,
            f"{tag}: |primal-dual|/max(1,|primal|) = {rep.duality_gap:.3e}",
        ),
        checks.check(
            "checksum", rep.checksum == reference.checksum,
            f"{tag}: {rep.checksum[:16]} vs {reference.checksum[:16]} of the first "
            f"repetition (jobs={reference.jobs})",
        ),
        checks.check(
            "iterations", rep.iterations == reference.iterations,
            f"{tag}: {rep.iterations} vs {reference.iterations}",
        ),
    ]
    predicted_ok = [
        checks.check(
            "accuracy", rep.accuracy >= ACCURACY_FLOOR,
            f"{tag}: {rep.accuracy:.6f} >= {ACCURACY_FLOOR}",
        ),
        checks.check(
            "output", rep.output_sha256 == reference.output_sha256,
            f"{tag}: predicted file equals the first repetition's",
        ),
    ]
    if w.task == "dep":
        kind = "arborescence+projective" if w.decoder == "projective" else "arborescence"
        predicted_ok.append(checks.check("trees", rep.trees_ok, f"{tag}: {kind}"))
    checks.operation()  # setup: any failure there raises
    checks.operation(*trained_ok)
    checks.operation(*predicted_ok)


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when that is the BLAS in use."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def write_inputs(w: Workload, seed: int, workdir: Path) -> Files:
    inputs = make_inputs(w, seed)
    files = Files(
        templates=workdir / "templates.txt",
        train=workdir / "train.txt",
        test=workdir / "test.txt",
        gold_text=inputs.test_gold_text,
        model=workdir / "model.mkl",
        output=workdir / "pred.txt",
    )
    files.templates.write_text(synthetic.SEQ_TEMPLATES, encoding="utf-8")
    files.train.write_text(inputs.train_text, encoding="utf-8")
    files.test.write_text(inputs.test_input_text, encoding="utf-8")
    return files


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Measure one workload; returns the result and a detail report.

    Timed repetitions use one job.  The model checksum, iteration count
    and predicted output of every repetition must equal those of the
    first.  When the workload sets `reference_jobs`, the first is an extra,
    untimed repetition at that worker count.  Without tracing, repetitions
    run while another one, as long as the last, would end within `seconds`,
    and at least MIN_TIMED_REPS run.  With tracing, pairs of an untraced
    and a traced repetition run under the same rule, at least one pair;
    the untraced ones are the baseline of the tracing overhead.
    """
    files = write_inputs(w, seed, workdir)
    checks = Checks()
    reps: list[Rep] = []
    traced: list[Rep] = []
    tracer = None
    reference = None
    error = None
    try:
        if w.reference_jobs is not None:
            reference = repetition(w, files, w.reference_jobs)
        start = time.perf_counter()
        last = 0.0  # duration of the last repetition, or pair in a traced run
        while len(reps) < (1 if trace else MIN_TIMED_REPS) or (
            time.perf_counter() - start + last <= seconds
        ):
            began = time.perf_counter()
            reps.append(repetition(w, files, 1))
            if trace:
                tracer = Tracer()
                tracer.install()
                try:
                    rep = repetition(w, files, 1, tracer)
                finally:
                    tracer.uninstall()
                rep.layers = layer_metrics(tracer, rep.features, rep.model_bytes)
                traced.append(rep)
            last = time.perf_counter() - began
    except Exception as exc:  # a failing program is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
        checks.check("no-error", False, error)
        checks.operation(False)

    all_reps = ([reference] if reference else []) + reps + traced
    for rep in all_reps:
        _judge(w, rep, all_reps[0], checks)

    report = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "config": {
            "task": w.task, "n_train": w.n_train, "n_test": w.n_test,
            "lengths": [w.min_len, w.max_len], "C": w.C, "epsilon": w.epsilon,
            "jobs": 1, "decoder": w.decoder if w.task == "dep" else None,
            "reference_jobs": w.reference_jobs,
        },
        "environment": environment(seed),
        "repetitions": [
            {k: v for k, v in vars(r).items() if k != "layers"} for r in all_reps
        ],
        "checks": checks.records,
        "error": error,
    }
    if reps:
        report["solver.iterations"] = reps[0].iterations
        report["train_cpu_s"] = statistics.median(r.train_cpu_s for r in reps)
    metrics_out: dict[str, float] = {}
    if not trace and reps:
        metrics_out = {
            "setup_s": statistics.median(r.setup_s for r in reps),
            "train_s": statistics.median(r.train_s for r in reps),
            # throughput over every predict of the run, which varied less
            # than the median of single predicts under the host's speed drift
            "predict_tok_per_s": sum(r.tokens * len(r.predict_s) for r in reps)
            / sum(sum(r.predict_s) for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    elif trace and traced:
        # the lower median keeps counts whole when the number of repetitions is even
        metrics_out = {
            name: statistics.median_low(r.layers[name] for r in traced)
            for name in traced[0].layers
        }
        traced_train = statistics.median(r.train_s for r in traced)
        untraced_train = statistics.median(r.train_s for r in reps)
        report["tracing_overhead_s"] = traced_train - untraced_train
        report["tracing_overhead_ratio"] = traced_train / untraced_train - 1.0
        report["spans"] = tracer.to_records()  # of the last traced repetition
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics_out,
        "report": report,
    }
