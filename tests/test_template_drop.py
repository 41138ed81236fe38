"""Groups dropped after training: the certified drop in `solver.train`, the
model's empty blocks, and a task that fires only the kept templates."""

import functools
import io

import numpy as np
import pytest

from mklsp import cli, solver
from mklsp.corpus import read_sequence_corpus
from mklsp.dependency import (
    DependencyTask,
    EdgeFeatureExtractor,
    default_edge_templates,
    parse_edge_templates,
)
from mklsp.model import Model
from mklsp.sequence import SequenceTask
from mklsp.solver import (
    ConstraintRow,
    RowStore,
    SolverConfig,
    primal_objective,
    recover_primal,
    train,
    working_set_value,
)
from mklsp.synthetic import (
    NOISE_TEMPLATES,
    SEQ_TEMPLATES,
    dependency_text,
    load_dependency,
    load_sequence,
    noise_text,
    sequence_text,
)
from mklsp.templates import parse_templates

from _oracles import feature_counts

SEQ_CASES = {
    "noise": NOISE_TEMPLATES,
    # labels are drawn per token, so transitions are noise too
    "noise+B": NOISE_TEMPLATES + "B\n",
}


def trained(kind, config):
    """(task, compiled training sentences, held-out sentences, result, model)
    of one small run."""
    if kind == "dep":
        text = default_edge_templates()
        instances = load_dependency(dependency_text(20, seed=24))
        task = DependencyTask.build(parse_edge_templates(text), instances)
        held_out = load_dependency(dependency_text(8, seed=25))
    else:
        text = SEQ_CASES[kind]
        instances, table = load_sequence(noise_text(40, seed=0))
        task = SequenceTask.build(parse_templates(text), instances, table)
        held_out = read_sequence_corpus(
            io.StringIO(noise_text(15, seed=1000)), label_table=table, labeled=True
        )
    compiled = [task.compile(i) for i in instances]
    result = train(task, compiled, config)
    if kind == "dep":
        model = Model.from_dependency(task, text, result.mu, result.weights)
    else:
        model = Model.from_sequence(task, text, 2, result.mu, result.weights)
    return task, compiled, held_out, result, model


def loop_flat(task, result):
    """The loop's weights: the last solve's alpha and mu, nothing dropped."""
    store = RowStore(task.group_dims, result.rows[0].n)
    for row in result.rows:
        store.add(row)
    return store, recover_primal(store, result.alpha, result.trace[-1].mu)


def task_weights(task, flat):
    return np.split(flat, np.cumsum(task.group_dims)[:-1])


MKL = {
    "noise": SolverConfig(C=10.0, epsilon=0.05, max_iterations=200),
    "noise+B": SolverConfig(C=10.0, epsilon=0.05, max_iterations=200),
    "dep": SolverConfig(C=1.0, epsilon=1e-2),
}


@functools.lru_cache(maxsize=None)
def mkl_run(kind):
    return trained(kind, MKL[kind])


@pytest.mark.parametrize("kind", sorted(MKL))
def test_dropped_groups_are_empty_and_certified(tmp_path, capsys, kind):
    task, compiled, held_out, result, model = mkl_run(kind)
    ids = task.group_ids
    dropped = [j for j in range(len(ids)) if result.mu[j] == 0.0]
    expected = {"noise": ["U01"], "noise+B": ["U01", "B"]}.get(kind)
    if expected is not None:
        assert [ids[j] for j in dropped] == expected
    else:
        assert len(dropped) >= len(ids) // 2
    # the records keep the loop's mu, the result carries the zeros
    assert (result.trace[-1].mu > 0).all()
    assert abs(result.mu.sum() - 1.0) <= 1e-9
    for j in dropped:
        assert not result.weights[j].any()

    blocks = model._payload_blocks()
    m = len(ids)
    for j in dropped:
        assert blocks[3 + j] == b""  # alphabet
        if ids[j] == "B":
            assert blocks[3 + m + j] == bytes(8 * task.k * task.k)
        else:
            assert blocks[3 + m + j] == b""
    assert np.frombuffer(blocks[2], dtype="<f8")[dropped].tolist() == [0.0] * len(dropped)

    path = tmp_path / "m.mkl"
    checksum = model.save(str(path))
    capsys.readouterr()
    assert cli.main(["weights", "-m", str(path), "--csv"]) == 0
    listed = {line.split(",")[0]: line for line in capsys.readouterr().out.splitlines()}
    for j in dropped:
        dim = task.k * task.k if ids[j] == "B" else 0
        assert listed[ids[j]] == f"{ids[j]},0,0,{dim}"

    loaded = Model.load(str(path))
    assert loaded.save(str(tmp_path / "again.mkl")) == checksum
    assert loaded.task.group_ids == ids
    assert loaded.task.group_dims == model.task.group_dims

    # the kept model predicts what the undropped weights predict under the
    # full training task
    store, flat = loop_flat(task, result)
    full = task.decode_corpus(task_weights(task, flat), [task.compile(i) for i in held_out])[0]
    ltask = loaded.task
    kept = ltask.decode_corpus(loaded.weights, [ltask.compile(i) for i in held_out])[0]
    assert kept == full
    # and on the training sentences, compiled by the training task
    assert task.decode_corpus(result.weights, compiled)[0] == task.decode_corpus(
        task_weights(task, flat), compiled
    )[0]

    # the returned weights' own certificate
    dropped_flat = np.concatenate(result.weights)
    pinned = np.full(m, np.nan)
    primal = primal_objective(
        dropped_flat, store, working_set_value(store, dropped_flat), MKL[kind].C, pinned
    )
    dual = result.trace[-1].dual_objective
    assert abs(primal - dual) / max(1.0, abs(primal)) <= 1e-6


@pytest.mark.parametrize("kind", sorted(MKL))
@pytest.mark.parametrize("mode", ["uniform", "fixed_groups"])
def test_pinned_groups_are_never_dropped(kind, mode):
    # pin the groups that an unpinned run drops
    unpinned = mkl_run(kind)[3]
    ids = mkl_run(kind)[0].group_ids
    fixed = tuple(ids[j] for j in np.flatnonzero(unpinned.mu == 0.0)[:3])
    assert fixed
    base = MKL[kind]
    config = SolverConfig(
        C=base.C,
        epsilon=base.epsilon,
        max_iterations=base.max_iterations,
        mode="uniform" if mode == "uniform" else "mkl",
        fixed_groups=() if mode == "uniform" else fixed,
    )
    task, _, _, result, model = trained(kind, config)
    pinned = range(len(ids)) if mode == "uniform" else [ids.index(g) for g in fixed]
    for j in pinned:
        assert result.mu[j] == 1.0 / len(ids)
        assert result.weights[j].any()
        assert model.task.group_dims[j] == task.group_dims[j]


def test_old_layout_model_loads_and_predicts_alike(tmp_path):
    # a model of the same run with every group kept, as models were written
    # before groups were dropped, predicts the labels the dropped one does
    for kind in ("noise+B", "dep"):
        task, _, held_out, result, model = mkl_run(kind)
        _, flat = loop_flat(task, result)
        old = Model(task, model.template_text, model.n_columns, result.trace[-1].mu,
                    task_weights(task, flat))
        old.save(str(tmp_path / "old.mkl"))
        model.save(str(tmp_path / "new.mkl"))
        loaded_old = Model.load(str(tmp_path / "old.mkl"))
        loaded_new = Model.load(str(tmp_path / "new.mkl"))
        assert loaded_old.task.group_dims == task.group_dims
        assert sum(loaded_new.task.group_dims) < sum(task.group_dims)
        outputs = []
        for loaded in (loaded_old, loaded_new):
            compiled = [loaded.task.compile(i) for i in held_out]
            outputs.append(loaded.task.decode_corpus(loaded.weights, compiled)[0])
        assert outputs[0] == outputs[1]


def test_task_with_no_alphabet_fires_nothing():
    # every template emptied: a parser whose scores are all zero still decodes
    task, _, held_out, _, _ = mkl_run("dep")
    m = len(task.group_ids)
    empty = DependencyTask(EdgeFeatureExtractor(task.extractor.specs, [()] * m), task.decoder)
    assert empty.group_dims == [0] * m
    weights = [np.zeros(0)] * m
    trees, scores = empty.decode_corpus(weights, [empty.compile(i) for i in held_out])
    assert len(trees) == len(held_out) and not scores.any()


def test_drop_shrinks_to_the_prefix_that_keeps_the_certificate(monkeypatch):
    # the two smallest mu sum below 1e-9, but the second group's weights
    # carry the primal: dropping both breaks the certificate, so the drop
    # bisects to the first alone, one store pass per prefix checked
    store = RowStore([2, 2, 2], 1)
    store.add(ConstraintRow(np.array([0, 2, 4]), np.array([1, 1, 1]), 1, 0.5, store.offsets))
    flat = np.array([0.0, 0.0, 3.0, 4.0, 0.1, 0.0])
    mu = np.array([5e-11, 1e-10, 1.0 - 1.5e-10])
    pinned = np.full(3, np.nan)
    dual = primal_objective(flat, store, working_set_value(store, flat), 1.0, pinned)
    passes = []
    values = RowStore.values
    monkeypatch.setattr(RowStore, "values", lambda self, w: passes.append(w) or values(self, w))
    kept_mu, kept = solver._drop_groups(store, flat, mu, pinned, dual, 1.0)
    assert len(passes) == 2
    assert kept_mu.tolist() == [0.0, *mu[1:]]
    assert np.array_equal(kept, flat)

    # a pinned group is no candidate, however small its mu: the one prefix
    # left is the second group, which fails, so nothing drops
    pinned[0] = mu[0]
    passes.clear()
    kept_mu, kept = solver._drop_groups(store, flat, mu, pinned, dual, 1.0)
    assert kept_mu is mu and kept is flat and len(passes) == 1


def test_emptied_tagger_counts_ids_at_its_groups_offsets():
    # with two of its groups emptied, a tagger's compiled rows are the other
    # groups, each still counted at its own offset in the flat space
    instances, table = load_sequence(sequence_text(6, seed=3))
    rules = parse_templates(SEQ_TEMPLATES)
    full = SequenceTask.build(rules, instances, table)
    alphabets = [() if j in (0, 2) else a for j, a in enumerate(full.alphabets)]
    task = SequenceTask(rules, alphabets, full.labels)
    assert task.kept == [1, 3] and task.group_dims[0] == task.group_dims[2] == 0
    compiled = [task.compile(i) for i in instances]
    outputs = [[(t + 1) % task.k for t in range(inst.length)] for inst in compiled]
    ids, _ = task.corpus_feature_ids(compiled, outputs)
    offsets = np.cumsum([0, *task.group_dims])
    want = {}
    for inst, y in zip(compiled, outputs):
        for off, counts in zip(offsets, feature_counts(task, inst, y)):
            for i, c in counts.items():
                want[off + i] = want.get(off + i, 0) + c
    got = dict(zip(*np.unique(ids, return_counts=True)))
    assert {int(i): float(c) for i, c in got.items()} == want
    # and the emptied groups' rows are gone, not silent
    assert all(inst.feats.shape == (2, inst.length) for inst in compiled)
