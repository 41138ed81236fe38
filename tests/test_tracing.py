"""The benchmark tracer's contract with the package: `perfbench/tracing.py`
wraps package functions by name and reads fields of their arguments and
results, so a rename or a changed result shape must fail here."""

import importlib.util
import sys
from pathlib import Path

import pytest

from mklsp import dependency, sequence, solver
from mklsp.synthetic import (
    SEQ_TEMPLATES,
    dependency_text,
    load_dependency,
    load_sequence,
    sequence_text,
)
from mklsp.templates import parse_templates

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_traced_attribute_exists():
    for owner, attr, _, _ in tracing._TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"


def setup(kind):
    if kind == "seq":
        instances, table = load_sequence(sequence_text(12, seed=3))
        task = sequence.SequenceTask.build(parse_templates(SEQ_TEMPLATES), instances, table)
    else:
        instances = load_dependency(dependency_text(6, seed=3))
        specs = dependency.parse_edge_templates(dependency.default_edge_templates())
        decoder = "projective" if kind == "projective" else "nonprojective"
        task = dependency.DependencyTask.build(specs, instances, decoder)
    return task, [task.compile(inst) for inst in instances]


@pytest.mark.parametrize("kind", ["seq", "dep", "projective"])
def test_tracer_measures_a_training(kind):
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing._TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            task, compiled = setup(kind)
        result = solver.train(task, compiled, solver.SolverConfig(C=1.0, epsilon=0.05))
    finally:
        tracer.uninstall()
    assert {key: vars(key[0])[key[1]] for key in before} == before

    metrics = tracing.layer_metrics(tracer, sum(task.group_dims), 0)
    # the counters read the compiled sentences, the rows and the result
    assert metrics["compile.firing_ids"] > 0
    assert metrics["solver.row_nnz"] > 0
    assert metrics["solver.iterations"] == result.n_iterations > 1
    assert metrics["solver.working_set"] == len(result.rows)
    assert metrics["solver.decode_sentences"] == len(compiled) * result.n_iterations
    assert metrics["solver.subproblem_calls"] == len(result.rows)
    assert metrics["solver.recover_s"] > 0.0 and metrics["solver.row_s"] > 0.0
    if kind != "seq":
        # the parser oracle's layers: a decode path that stops going through
        # the wrapped functions reads 0 here, and one decoder runs, not both
        assert metrics["dependency.scores_s"] > 0.0
        used, unused = ("eisner", "cle") if kind == "projective" else ("cle", "eisner")
        assert metrics[f"dependency.{used}_s"] > 0.0
        assert metrics[f"dependency.{unused}_s"] == 0.0
