#!/usr/bin/env python3
"""Train and evaluate on a generated corpus, end to end, via the library API.

Runs the sequence task by default; pass --task dep for the parsing variant.
"""

import argparse
import io

import numpy as np

from mklsp.corpus import read_sequence_corpus
from mklsp.dependency import DependencyTask, parse_edge_templates
from mklsp.metrics import LabelCodec, evaluate_dependency, evaluate_sequence
from mklsp.sequence import SequenceTask
from mklsp.solver import SolverConfig, train
from mklsp.synthetic import (
    SEQ_TEMPLATES,
    dependency_text,
    load_dependency,
    load_sequence,
    sequence_text,
)
from mklsp.templates import parse_templates

DEP_TEMPLATES = """\
P00:head.FORM/mod.FORM
P01:head.CPOSTAG/mod.CPOSTAG
P02:head.CPOSTAG/between.CPOSTAG/mod.CPOSTAG
"""


def run_sequence(args):
    train_insts, table = load_sequence(sequence_text(args.n_train, seed=args.seed))
    test_insts = read_sequence_corpus(
        io.StringIO(sequence_text(args.n_test, seed=args.seed + 1)),
        label_table=table,
        labeled=True,
    )
    task = SequenceTask.build(parse_templates(SEQ_TEMPLATES), train_insts, table)
    compiled = [task.compile(i) for i in train_insts]
    result = train(task, compiled, SolverConfig(C=args.c, epsilon=args.epsilon), log=print)

    predictions, _ = task.decode_corpus(result.weights, [task.compile(i) for i in test_insts])
    report = evaluate_sequence(test_insts, predictions, LabelCodec("raw", table))
    print(f"\nheld-out token accuracy: {report.token_accuracy:.4f}")
    print("group weights:")
    for gid, mu_j, w in zip(task.group_ids, result.mu, result.weights):
        print(f"  {gid:<4} mu={mu_j:.4f}  ||w||={np.linalg.norm(w):.4f}")


def run_dependency(args):
    train_insts = load_dependency(dependency_text(args.n_train, seed=args.seed))
    test_insts = load_dependency(dependency_text(args.n_test, seed=args.seed + 1))
    specs = parse_edge_templates(DEP_TEMPLATES)
    task = DependencyTask.build(specs, train_insts, decoder="projective")
    compiled = [task.compile(i) for i in train_insts]
    result = train(task, compiled, SolverConfig(C=args.c, epsilon=args.epsilon), log=print)

    predictions, _ = task.decode_corpus(result.weights, [task.compile(i) for i in test_insts])
    report = evaluate_dependency(test_insts, predictions)
    print(f"\nheld-out head accuracy: {report.accuracy:.4f}  complete: {report.complete:.4f}")
    print("group weights:")
    for gid, mu_j, w in zip(task.group_ids, result.mu, result.weights):
        print(f"  {gid:<4} mu={mu_j:.4f}  ||w||={np.linalg.norm(w):.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", choices=("seq", "dep"), default="seq")
    parser.add_argument("--n-train", type=int, default=50)
    parser.add_argument("--n-test", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("-c", type=float, default=1.0)
    parser.add_argument("-e", dest="epsilon", type=float, default=0.01)
    args = parser.parse_args()
    (run_sequence if args.task == "seq" else run_dependency)(args)


if __name__ == "__main__":
    main()
