#!/usr/bin/env python3
"""Compare learned vs uniform group weighting when one feature group is
pure noise.

The synthetic corpus has two observation columns: the first determines the
label, the second is random.  Learning the group weights should push the
noise group's weight toward zero without hurting held-out accuracy.  The
last column lists the groups the mkl model drops (mu exactly 0, see
`solver.train`).
"""

import argparse
import io

from mklsp.corpus import read_sequence_corpus
from mklsp.sequence import SequenceTask
from mklsp.solver import SolverConfig, train
from mklsp.synthetic import NOISE_TEMPLATES, load_sequence, noise_text
from mklsp.templates import parse_templates


def accuracy(task, weights, compiled):
    correct = total = 0
    outputs, _ = task.decode_corpus(weights, compiled)
    for inst, labels in zip(compiled, outputs):
        gold = task.gold_output(inst)
        correct += sum(a == b for a, b in zip(labels, gold))
        total += len(gold)
    return correct / total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--n-train", type=int, default=40)
    parser.add_argument("--n-test", type=int, default=15)
    parser.add_argument("-c", type=float, default=10.0)
    parser.add_argument("-e", dest="epsilon", type=float, default=0.05)
    args = parser.parse_args()

    specs = parse_templates(NOISE_TEMPLATES)
    print(
        f"{'seed':>4} {'mu_signal':>10} {'mu_noise':>9} {'acc_mkl':>8} {'acc_unif':>9} dropped"
    )
    wins = 0
    for seed in range(args.seeds):
        train_insts, table = load_sequence(noise_text(args.n_train, seed=seed))
        test_insts = read_sequence_corpus(
            io.StringIO(noise_text(args.n_test, seed=seed + 1000)),
            label_table=table,
            labeled=True,
        )
        task = SequenceTask.build(specs, train_insts, table)
        compiled = [task.compile(i) for i in train_insts]
        held_out = [task.compile(i) for i in test_insts]

        scores = {}
        mus = None
        for mode in ("mkl", "uniform"):
            cfg = SolverConfig(
                C=args.c, epsilon=args.epsilon, max_iterations=200, mode=mode
            )
            result = train(task, compiled, cfg)
            scores[mode] = accuracy(task, result.weights, held_out)
            if mode == "mkl":
                mus = result.mu
        signal = mus[task.group_ids.index("U00")]
        noise = mus[task.group_ids.index("U01")]
        dropped = [g for g, mu in zip(task.group_ids, mus) if mu == 0.0]
        wins += signal > noise
        print(
            f"{seed:>4} {signal:>10.4f} {noise:>9.4f} "
            f"{scores['mkl']:>8.4f} {scores['uniform']:>9.4f} {','.join(dropped) or '-'}"
        )
    print(f"\ninformative group preferred in {wins}/{args.seeds} runs")


if __name__ == "__main__":
    main()
