"""Command-line frontend: train, predict, eval, and weights.

Diagnostics go to stderr, data to stdout.  Every flag default can be
overridden by an environment variable with the MTL_ prefix (flag name
uppercased, dashes to underscores, e.g. MTL_MAX_ITER=50); an explicit flag
still wins.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .corpus import (
    CorpusFormatError,
    LabelTable,
    read_dependency_corpus,
    read_sequence_corpus,
    write_dependency_corpus,
    write_sequence_corpus,
)
from .dependency import DependencyTask, default_edge_templates, parse_edge_templates
from .metrics import (
    SCHEMES,
    LabelCodec,
    build_segmentation_vocabulary,
    evaluate_dependency,
    evaluate_sequence,
)
from .model import Model, ModelFormatError
from .sequence import SequenceTask
from .solver import SolverConfig, parallel_decode, train
from .templates import TemplateError, parse_templates, validate_columns

ENV_PREFIX = "MTL_"

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


class UsageError(ValueError):
    """A bad invocation detected after argument parsing."""


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.strip("-").upper().replace("-", "_")


def _env(flag: str, cast, fallback):
    raw = os.environ.get(_env_name(flag))
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise UsageError(f"bad value for {_env_name(flag)}: {raw!r}") from exc


def _env_flag(flag: str) -> bool:
    raw = os.environ.get(_env_name(flag))
    if raw is None:
        return False
    low = raw.strip().lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise UsageError(f"bad boolean for {_env_name(flag)}: {raw!r}")


def _open_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _add_common_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--task", choices=("seq", "dep"), default=_env("task", str, None))
    sub.add_argument("--templates", default=_env("templates", str, None))
    sub.add_argument("--data", default=_env("data", str, None))
    sub.add_argument("-o", "--model", default=_env("model", str, None))
    sub.add_argument("-c", dest="c", type=float, default=_env("c", float, 1.0))
    sub.add_argument("-e", dest="epsilon", type=float, default=_env("epsilon", float, 0.5))
    sub.add_argument("--max-iter", type=int, default=_env("max-iter", int, 500))
    sub.add_argument("--uniform", action="store_true", default=_env_flag("uniform"))
    sub.add_argument("--c-times-n", action="store_true", default=_env_flag("c-times-n"))
    sub.add_argument("--jobs", type=int, default=_env("jobs", int, _default_jobs()))
    sub.add_argument(
        "--decoder",
        choices=("projective", "nonprojective"),
        default=_env("decoder", str, "projective"),
    )
    sub.add_argument("--single-root", action="store_true", default=_env_flag("single-root"))
    sub.add_argument("--fixed-groups", default=_env("fixed-groups", str, ""))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mklsp",
        description="Train and apply structured models with learned template weights.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="fit a model on a labeled corpus")
    _add_common_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_pred = subs.add_parser("predict", help="decode a corpus with a trained model")
    p_pred.add_argument("--model", "-m", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("-o", "--output", default=None)
    p_pred.add_argument("--jobs", type=int, default=_env("jobs", int, _default_jobs()))
    p_pred.set_defaults(func=cmd_predict)

    p_eval = subs.add_parser("eval", help="score predictions against gold annotation")
    p_eval.add_argument("--task", choices=("seq", "dep"), required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--scheme", choices=SCHEMES, default=_env("scheme", str, "raw"))
    p_eval.add_argument(
        "--vocab", default=None, help="labeled corpus whose words define the IV set"
    )
    p_eval.add_argument("--kv", action="store_true", help="also print key=value lines")
    p_eval.set_defaults(func=cmd_eval)

    p_w = subs.add_parser("weights", help="per-template weight report of a model")
    p_w.add_argument("--model", "-m", required=True)
    p_w.add_argument("--csv", action="store_true")
    p_w.set_defaults(func=cmd_weights)

    return parser


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) in (None, ""):
            raise UsageError(f"--{name.replace('_', '-')} is required")


def cmd_train(args) -> int:
    _require(args, "task", "data", "model")
    if args.task == "seq" and not args.templates:
        raise UsageError("--templates is required for sequence training")

    if args.task == "seq":
        template_text = _open_text(args.templates)
        specs = parse_templates(template_text)
        table = LabelTable()
        instances = read_sequence_corpus(args.data, label_table=table, labeled=True)
        if not instances:
            raise CorpusFormatError(f"{args.data}: no sentences")
        table.freeze()
        n_columns = len(instances[0].tokens[0])
        validate_columns(specs, n_columns)
        task = SequenceTask.build(specs, instances, table)
    else:
        template_text = _open_text(args.templates) if args.templates else default_edge_templates()
        specs = parse_edge_templates(template_text)
        instances = read_dependency_corpus(args.data)
        if not instances:
            raise CorpusFormatError(f"{args.data}: no sentences")
        for i, inst in enumerate(instances, start=1):
            if inst.heads is None:
                raise CorpusFormatError(f"{args.data}: sentence {i} lacks HEAD annotation")
        n_columns = 10
        task = DependencyTask.build(specs, instances, args.decoder, args.single_root)

    compiled = [task.compile(inst) for inst in instances]
    n = len(compiled)
    C = args.c * n if args.c_times_n else args.c
    fixed = tuple(g for g in args.fixed_groups.split(",") if g) if args.fixed_groups else ()
    config = SolverConfig(
        C=C,
        epsilon=args.epsilon,
        max_iterations=args.max_iter,
        mode="uniform" if args.uniform else "mkl",
        jobs=args.jobs,
        fixed_groups=fixed,
    )
    _log(f"n={n} groups={len(task.group_ids)} C={C:g} epsilon={args.epsilon:g} mode={config.mode}")
    result = train(task, compiled, config, log=_log)

    diagnostics = {
        "iterations": str(result.n_iterations),
        "halt": result.halt_reason,
        "gap": f"{result.final_gap:.12g}",
        "C": f"{C:.12g}",
        "epsilon": f"{args.epsilon:.12g}",
        "mode": config.mode,
        "n_train": str(n),
    }
    if args.task == "seq":
        model = Model.from_sequence(
            task, template_text, n_columns, result.mu, result.weights, diagnostics
        )
    else:
        model = Model.from_dependency(task, template_text, result.mu, result.weights, diagnostics)
    checksum = model.save(args.model)
    _log(
        f"halt={result.halt_reason} iterations={result.n_iterations} "
        f"gap={result.final_gap:.6e} checksum={checksum} model={args.model}"
    )
    return 0


def cmd_predict(args) -> int:
    model = Model.load(args.model)
    task = model.build_task()
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        if model.task_kind == "seq":
            instances = read_sequence_corpus(
                args.data, expected_columns=model.n_columns, labeled=False
            )
            compiled = [task.compile(inst) for inst in instances]
            outputs = parallel_decode(task, model.weights, compiled, args.jobs, augmented=False)
            write_sequence_corpus(instances, out, task.labels, labels_override=outputs)
        else:
            instances = read_dependency_corpus(args.data)
            compiled = [task.compile(inst) for inst in instances]
            outputs = parallel_decode(task, model.weights, compiled, args.jobs, augmented=False)
            write_dependency_corpus(instances, out, heads_override=outputs)
    finally:
        if out is not sys.stdout:
            out.close()
    _log(f"predicted={len(instances)} model={args.model}")
    return 0


def _print_kv(pairs: list[tuple[str, object]]) -> None:
    for key, value in pairs:
        if isinstance(value, float):
            print(f"{key}={value:.6f}")
        else:
            print(f"{key}={value}")


def cmd_eval(args) -> int:
    if args.task == "dep":
        gold = read_dependency_corpus(args.gold)
        pred = read_dependency_corpus(args.pred)
        heads = []
        for i, inst in enumerate(pred, start=1):
            if inst.heads is None:
                raise CorpusFormatError(f"{args.pred}: sentence {i} lacks HEAD values")
            heads.append(inst.heads)
        report = evaluate_dependency(gold, heads)
        print(f"accuracy  {report.accuracy:.4f}  ({report.n_correct_heads}/{report.n_tokens})")
        print(f"complete  {report.complete:.4f}  ({report.n_complete}/{report.n_sentences})")
        if args.kv:
            _print_kv([("accuracy", report.accuracy), ("complete", report.complete)])
        return 0

    table = LabelTable()
    gold = read_sequence_corpus(args.gold, label_table=table, labeled=True)
    pred = read_sequence_corpus(args.pred, label_table=table, labeled=True)
    pred_ids = [inst.labels for inst in pred]
    codec = LabelCodec(args.scheme, table)
    vocabulary = None
    if args.vocab:
        vocab_table = LabelTable()
        vocab_corpus = read_sequence_corpus(args.vocab, label_table=vocab_table, labeled=True)
        vocabulary = build_segmentation_vocabulary(
            vocab_corpus, LabelCodec("bie", vocab_table)
        )
    report = evaluate_sequence(
        gold, pred_ids, codec, vocabulary, include_riv=vocabulary is not None
    )

    kv: list[tuple[str, object]] = []
    if args.scheme == "raw":
        print(f"accuracy  {report.token_accuracy:.4f}  ({report.n_correct}/{report.n_tokens})")
        kv.append(("accuracy", report.token_accuracy))
    elif args.scheme == "bie":
        print(f"accuracy   {report.token_accuracy:.4f}")
        print(f"precision  {report.word.precision:.4f}")
        print(f"recall     {report.word.recall:.4f}")
        print(f"f1         {report.word.f1:.4f}")
        kv += [
            ("accuracy", report.token_accuracy),
            ("precision", report.word.precision),
            ("recall", report.word.recall),
            ("f1", report.word.f1),
        ]
        if report.riv is not None:
            print(f"r_iv       {report.riv:.4f}  ({report.n_iv_correct}/{report.n_iv_gold})")
            kv.append(("r_iv", report.riv))
    else:
        print(f"accuracy   {report.token_accuracy:.4f}")
        print(
            f"overall    P {report.overall.precision:.4f}  R {report.overall.recall:.4f}  "
            f"F1 {report.overall.f1:.4f}"
        )
        kv += [
            ("accuracy", report.token_accuracy),
            ("precision", report.overall.precision),
            ("recall", report.overall.recall),
            ("f1", report.overall.f1),
        ]
        for name in sorted(report.per_type):
            scores = report.per_type[name]
            print(
                f"{name:<10} P {scores.precision:.4f}  R {scores.recall:.4f}  "
                f"F1 {scores.f1:.4f}"
            )
            kv.append((f"f1_{name}", scores.f1))
    if args.kv:
        _print_kv(kv)
    return 0


def cmd_weights(args) -> int:
    model = Model.load(args.model)
    m = len(model.group_ids)
    rows = sorted(
        zip(
            model.group_ids,
            model.mu,
            (float(np.linalg.norm(w)) for w in model.weights),
            (w.size for w in model.weights),
        )
    )
    uniform = 1.0 / m if m else 0.0
    if args.csv:
        print("group,mu,norm,dim")
        for gid, mu_j, norm, dim in rows:
            print(f"{gid},{mu_j:.10g},{norm:.10g},{dim}")
        print(f"_uniform,{uniform:.10g},,")
    else:
        print(f"{'group':<10} {'mu':>12} {'norm':>12} {'dim':>10}")
        for gid, mu_j, norm, dim in rows:
            print(f"{gid:<10} {mu_j:>12.6f} {norm:>12.6f} {dim:>10d}")
        print(f"{'uniform':<10} {uniform:>12.6f}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # numpy overflow and invalid values raise FloatingPointError (exit 1 below)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        path = exc.filename or str(exc)
        print(f"error: missing input file: {path}", file=sys.stderr)
        return 2
    except (TemplateError, CorpusFormatError, ModelFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        # numerical breakdown, e.g. an overflow in the solver at an extreme -c
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
