"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints exactly one verdict line (ACCEPTANCE <n> <name>: PASS/FAIL)
regardless of pytest's capture settings, then fails loudly if the check did
not hold.
"""

import io
import time

import numpy as np
import pytest

from mklsp import cli
from mklsp.corpus import LabelTable, SequenceInstance, read_sequence_corpus
from mklsp.dependency import cle_decode, eisner_decode
from mklsp.metrics import LabelCodec, evaluate_dependency, evaluate_sequence
from mklsp.sequence import (
    CompiledSequence,
    SequenceScorer,
    SequenceTask,
    loss_augmented_decode,
    viterbi_decode,
)
from mklsp.solver import SolverConfig, solve_subproblem, train
from mklsp.sparse import sparse_dot
from mklsp.synthetic import (
    NOISE_TEMPLATES,
    SEQ_TEMPLATES,
    load_sequence,
    noise_text,
    sequence_text,
)
from mklsp.templates import parse_templates

from _oracles import (
    active_set_qp,
    dense_emissions,
    qcqp_oracle,
    sequence_best,
    tree_best,
    valid_arborescence,
    valid_projective,
)


def _verdict(capsys, number, name, body):
    error = None
    try:
        body()
    except BaseException as exc:
        error = exc
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'FAIL' if error else 'PASS'}", flush=True)
    if error is not None:
        raise error


def _random_psd(rng, s, scale=1.0):
    A = rng.uniform(-1.0, 1.0, size=(s, s))
    return scale * (A @ A.T) + 1e-3 * np.eye(s)


def _duality_corpus():
    instances, table = load_sequence(sequence_text(50, seed=7))
    task = SequenceTask.build(parse_templates(SEQ_TEMPLATES), instances, table)
    return task, [task.compile(i) for i in instances]


# ---------------------------------------------------------------- 1


def test_acceptance_1_sequence_decoders(capsys):
    def body():
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for trial in range(500):
            l = int(rng.integers(1, 7))
            k = int(rng.integers(1, 5))
            dims = [int(rng.integers(1, 6)) for _ in range(2)]
            feats = [rng.integers(-1, d, size=l).astype(np.int64) for d in dims]
            if trial % 10 == 0:
                tables = [np.zeros((d, k)) for d in dims]  # pure tie-breaking
                trans = np.zeros((k, k))
            else:
                tables = [rng.uniform(-1.0, 1.0, size=(d, k)) for d in dims]
                trans = rng.uniform(-1.0, 1.0, size=(k, k))
            scorer = SequenceScorer(tables, trans, k)
            inst = CompiledSequence(l, feats, None)
            gold = [int(y) for y in rng.integers(0, k, size=l)]
            emit = dense_emissions(feats, tables, k)

            labels, score = viterbi_decode(scorer, inst)
            want_labels, want_score = sequence_best(emit, trans)
            assert labels == want_labels
            assert abs(score - want_score) <= 1e-9

            labels, score = loss_augmented_decode(scorer, inst, gold)
            want_labels, want_score = sequence_best(emit, trans, augment_gold=gold)
            assert labels == want_labels
            assert abs(score - want_score) <= 1e-9
        assert time.perf_counter() - started < 10.0

    _verdict(capsys, 1, "sequence decoders match enumeration", body)


# ---------------------------------------------------------------- 2


def test_acceptance_2_tree_decoders(capsys):
    def body():
        rng = np.random.default_rng(102)
        started = time.perf_counter()
        for _ in range(100):
            l = int(rng.integers(1, 7))
            S = rng.uniform(-1.0, 1.0, size=(l + 1, l + 1))
            heads, score = eisner_decode(S)
            _, want = tree_best(S, projective=True)
            assert abs(score - want) <= 1e-9
            assert valid_arborescence(heads) and valid_projective(heads)
        for _ in range(100):
            l = int(rng.integers(1, 6))
            S = rng.uniform(-1.0, 1.0, size=(l + 1, l + 1))
            heads, score = cle_decode(S)
            _, want = tree_best(S, projective=False)
            assert abs(score - want) <= 1e-9
            assert valid_arborescence(heads)
        assert time.perf_counter() - started < 30.0

    _verdict(capsys, 2, "tree decoders match enumeration", body)


# ---------------------------------------------------------------- 3


def test_acceptance_3_subproblem(capsys):
    def body():
        rng = np.random.default_rng(42)
        for trial in range(100):
            s = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            C = (0.5, 1.0, 10.0)[trial % 3]
            grams = [
                _random_psd(rng, s, scale=float(rng.uniform(0.2, 2.0))) for _ in range(m)
            ]
            q = rng.uniform(-0.5, 1.5, size=s)
            sol = solve_subproblem(grams, q, C)
            want = qcqp_oracle(grams, q, C)
            assert abs(sol.dual_objective - want) <= 1e-4
            assert sol.alpha.min() >= -1e-10
            assert sol.alpha.sum() <= C + 1e-10
            assert sol.mu.min() >= -1e-10
            assert sol.mu.sum() <= 1.0 + 1e-10

    _verdict(capsys, 3, "subproblem matches saddle oracle", body)


# ---------------------------------------------------------------- 4


def test_acceptance_4_strong_duality(capsys):
    def body():
        task, compiled = _duality_corpus()
        out = train(task, compiled, SolverConfig(C=1.0, epsilon=0.01))
        assert out.halt_reason == "converged"
        for rec in out.trace:
            rel = abs(rec.primal_objective - rec.dual_objective) / max(
                1.0, abs(rec.dual_objective)
            )
            assert rel <= 1e-6, f"iteration {rec.iteration}: relative gap {rel:.3e}"
            assert rec.r_emp >= rec.r_s - 1e-9

    _verdict(capsys, 4, "strong duality at every iteration", body)


# ---------------------------------------------------------------- 5


def test_acceptance_5_convergence(capsys):
    def body():
        started = time.perf_counter()
        task, compiled = _duality_corpus()
        tight = train(task, compiled, SolverConfig(C=1.0, epsilon=0.01, max_iterations=100))
        assert tight.halt_reason == "converged"
        assert tight.n_iterations <= 100
        assert tight.final_gap < 0.01
        loose = train(task, compiled, SolverConfig(C=1.0, epsilon=0.5, max_iterations=500))
        assert loose.halt_reason == "converged"  # the gap halts it, not the cap
        assert loose.n_iterations < 500
        assert time.perf_counter() - started < 60.0

    _verdict(capsys, 5, "convergence within iteration budget", body)


# ---------------------------------------------------------------- 6


def test_acceptance_6_uniform_single_group(capsys):
    def body():
        text = sequence_text(20, seed=11)
        instances, table = load_sequence(text)
        specs = parse_templates("U00:%x[0,0]/%x[0,1]\n")  # one merged group
        task = SequenceTask.build(specs, instances, table)
        compiled = [task.compile(i) for i in instances]
        C = 1.0
        out = train(task, compiled, SolverConfig(C=C, epsilon=0.01, mode="uniform"))
        rows = out.rows
        assert rows, "no constraints collected"
        G = np.array(
            [
                [sparse_dot(a.p.groups[0], b.p.groups[0]) for b in rows]
                for a in rows
            ]
        )
        qvec = np.array([r.q for r in rows])
        want, _ = active_set_qp(qvec, G, C)
        got = out.trace[-1].dual_objective
        assert abs(got - want) / max(1.0, abs(want)) <= 1e-6

    _verdict(capsys, 6, "uniform single group equals 1-slack QP", body)


# ---------------------------------------------------------------- 7


def test_acceptance_7_noise_group_suppression(capsys):
    def body():
        specs = parse_templates(NOISE_TEMPLATES)
        for seed in range(10):
            train_insts, table = load_sequence(noise_text(40, seed=seed))
            test_insts = read_sequence_corpus(
                io.StringIO(noise_text(15, seed=seed + 1000)),
                label_table=table,
                labeled=True,
            )
            task = SequenceTask.build(specs, train_insts, table)
            compiled = [task.compile(i) for i in train_insts]
            held_out = [task.compile(i) for i in test_insts]

            accuracies = {}
            for mode in ("mkl", "uniform"):
                out = train(
                    task,
                    compiled,
                    SolverConfig(C=10.0, epsilon=0.05, max_iterations=200, mode=mode),
                )
                if mode == "mkl":
                    a = out.mu[task.group_ids.index("U00")]
                    b = out.mu[task.group_ids.index("U01")]
                    assert a > b, f"seed {seed}: informative group not preferred"
                correct = total = 0
                outputs, _ = task.decode_corpus(out.weights, held_out)
                for inst, labels in zip(held_out, outputs):
                    gold = task.gold_output(inst)
                    correct += sum(x == y for x, y in zip(labels, gold))
                    total += len(gold)
                accuracies[mode] = correct / total
            assert accuracies["mkl"] >= accuracies["uniform"], f"seed {seed}"

    _verdict(capsys, 7, "noise group suppressed", body)


# ---------------------------------------------------------------- 8


def test_acceptance_8_metrics(capsys):
    def body():
        table = LabelTable()

        def inst(chars, tags):
            return SequenceInstance([(c,) for c in chars], [table.intern(t) for t in tags])

        # segmentation: gold ab|c against predicted a|bc shares no word
        gold = inst("abc", ["B", "E", "B"])
        pred = [table.intern(t) for t in ["B", "B", "E"]]
        rep = evaluate_sequence([gold], [pred], LabelCodec("bie", table))
        assert (rep.word.precision, rep.word.recall, rep.word.f1) == (0.0, 0.0, 0.0)

        # entities: one boundary error zeroes everything
        table2 = LabelTable()

        def inst2(chars, tags):
            return SequenceInstance(
                [(c,) for c in chars], [table2.intern(t) for t in tags]
            )

        gold2 = inst2("wxyz", ["B-PER", "I-PER", "O", "O"])
        pred_a = [table2.intern(t) for t in ["B-PER", "O", "O", "O"]]
        rep = evaluate_sequence([gold2], [pred_a], LabelCodec("bio", table2))
        assert (rep.overall.precision, rep.overall.recall, rep.overall.f1) == (0.0, 0.0, 0.0)
        # an extra predicted entity halves precision, keeps recall
        pred_b = [table2.intern(t) for t in ["B-PER", "I-PER", "O", "B-LOC"]]
        rep = evaluate_sequence([gold2], [pred_b], LabelCodec("bio", table2))
        assert rep.overall.precision == 0.5
        assert rep.overall.recall == 1.0
        assert rep.overall.f1 == 2 / 3

        # trees: 3 of 4 heads right, no complete sentence
        from mklsp.corpus import DependencyInstance

        def dep(heads):
            return DependencyInstance(
                [(f"w{i}", "_", "N", "N") for i in range(len(heads))], list(heads)
            )

        rep = evaluate_dependency([dep([0, 1, 1, 3])], [[0, 1, 1, 2]])
        assert rep.accuracy == 0.75 and rep.complete == 0.0
        rep = evaluate_dependency([dep([0, 1]), dep([2, 0])], [[0, 1], [1, 2]])
        assert rep.accuracy == 0.5 and rep.complete == 0.5

    _verdict(capsys, 8, "metrics match hand counts", body)


# ---------------------------------------------------------------- 9


def test_acceptance_9_determinism(capsys, tmp_path):
    def body():
        (tmp_path / "templates.txt").write_text(SEQ_TEMPLATES)
        (tmp_path / "train.txt").write_text(sequence_text(15, seed=13))
        bare = []
        for line in sequence_text(5, seed=14).splitlines():
            bare.append(" ".join(line.split()[:-1]) if line.strip() else "")
        (tmp_path / "test.txt").write_text("\n".join(bare) + "\n")

        def checksum_of(path):
            head = path.read_bytes().split(b"\n\n", 1)[0].decode().split("\n")
            return dict(line.split("=", 1) for line in head[1:])["checksum"]

        checksums = set()
        payloads = set()
        for jobs in ("1", "2", "4"):
            model = tmp_path / f"model{jobs}.mkl"
            code = cli.main([
                "train", "--task", "seq",
                "--templates", str(tmp_path / "templates.txt"),
                "--data", str(tmp_path / "train.txt"),
                "-o", str(model), "-c", "1", "-e", "0.05", "--jobs", jobs,
            ])
            assert code == 0
            checksums.add(checksum_of(model))
            payloads.add(model.read_bytes().split(b"\n\n", 1)[1])
        assert len(checksums) == 1 and len(payloads) == 1

        outputs = set()
        for jobs in ("1", "3"):
            out = tmp_path / f"pred{jobs}.txt"
            code = cli.main([
                "predict", "-m", str(tmp_path / "model1.mkl"),
                "--data", str(tmp_path / "test.txt"),
                "-o", str(out), "--jobs", jobs,
            ])
            assert code == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    _verdict(capsys, 9, "jobs-invariant artifacts", body)
