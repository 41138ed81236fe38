"""Command-line frontend: train, predict, eval, and weights.

Diagnostics go to stderr, data to stdout.  Every `train` flag, `predict
--jobs` and `eval --scheme` take their default from MTL_ plus the flag's
dest uppercased (-e: MTL_EPSILON, --max-iter: MTL_MAX_ITER).  The value is
checked like the flag's own, a bad one is a usage error, an explicit flag
wins, and a command reads only the variables of its own flags.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

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
from .templates import TemplateError, parse_templates

ENV_PREFIX = "MTL_"

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


class UsageError(ValueError):
    """A bad invocation that argparse does not catch itself."""


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in _TRUE_WORDS + _FALSE_WORDS:
        raise ValueError(raw)
    return low in _TRUE_WORDS


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a flag added with env=True takes its default
    from MTL_<DEST>, cast by the flag's type (a yes/no word for a switch) and
    checked against its choices when this subcommand is the one parsed."""

    def add_argument(self, *args, env=False, **kwargs):
        action = super().add_argument(*args, **kwargs)
        action.env = env
        return action

    def parse_known_args(self, args=None, namespace=None):
        namespace = argparse.Namespace() if namespace is None else namespace
        for action in self._actions:
            name = ENV_PREFIX + action.dest.upper()
            raw = os.environ.get(name)
            if not action.env or raw is None or hasattr(namespace, action.dest):
                continue
            try:
                value = (_boolean if action.nargs == 0 else action.type or str)(raw)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(raw)
            except ValueError as exc:
                raise UsageError(f"bad value for {name}: {raw!r}") from exc
            setattr(namespace, action.dest, value)
        return super().parse_known_args(args, namespace)


def _cannot_open(exc: OSError) -> str:
    reason = exc.strerror or str(exc)
    return reason if exc.filename is None else f"cannot open {exc.filename}: {reason}"


def _open_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mklsp",
        description="Train and apply structured models with learned template weights.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p_train = subs.add_parser("train", help="fit a model on a labeled corpus")
    p_train.add_argument("--task", choices=("seq", "dep"), env=True)
    p_train.add_argument("--templates", env=True)
    p_train.add_argument("--data", env=True)
    p_train.add_argument("-o", "--model", env=True)
    p_train.add_argument("-c", dest="c", type=float, default=1.0, env=True)
    p_train.add_argument("-e", dest="epsilon", type=float, default=0.5, env=True)
    p_train.add_argument("--max-iter", type=int, default=500, env=True)
    p_train.add_argument("--uniform", action="store_true", env=True)
    p_train.add_argument("--c-times-n", action="store_true", env=True)
    p_train.add_argument("--jobs", type=int, default=1, env=True)
    p_train.add_argument(
        "--decoder", choices=("projective", "nonprojective"), default="projective", env=True
    )
    p_train.add_argument("--single-root", action="store_true", env=True)
    p_train.add_argument("--fixed-groups", env=True)
    p_train.set_defaults(func=cmd_train)

    p_pred = subs.add_parser("predict", help="decode a corpus with a trained model")
    p_pred.add_argument("--model", "-m", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("-o", "--output")
    p_pred.add_argument("--jobs", type=int, default=1, env=True)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = subs.add_parser("eval", help="score predictions against gold annotation")
    p_eval.add_argument("--task", choices=("seq", "dep"), required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--scheme", choices=SCHEMES, default="raw", env=True)
    p_eval.add_argument("--vocab", help="labeled corpus whose words define the IV set")
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


def _require_jobs(args) -> None:
    """--jobs (or MTL_JOBS) must name at least one worker."""
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")


def cmd_train(args) -> int:
    _require(args, "task", "data", "model")
    _require_jobs(args)
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
    try:
        checksum = model.save(args.model)
    except OSError as exc:  # an output path, so never a missing input
        raise UsageError(_cannot_open(exc)) from exc
    _log(
        f"halt={result.halt_reason} iterations={result.n_iterations} "
        f"gap={result.final_gap:.6e} checksum={checksum} model={args.model}"
    )
    return 0


def cmd_predict(args) -> int:
    _require_jobs(args)
    model = Model.load(args.model)
    task = model.build_task()
    seq = isinstance(task, SequenceTask)
    if seq:
        instances = read_sequence_corpus(
            args.data, expected_columns=model.n_columns, labeled=False
        )
    else:
        instances = read_dependency_corpus(args.data)
    compiled = [task.compile(inst) for inst in instances]
    outputs = parallel_decode(task, model.weights, compiled, args.jobs, augmented=False)
    # the output opens only now, so a failed run leaves an existing file as it was
    try:
        sink = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    except OSError as exc:  # an output path, so never a missing input
        raise UsageError(_cannot_open(exc)) from exc
    with sink as out:
        if seq:
            write_sequence_corpus(instances, out, task.labels, labels_override=outputs)
        else:
            write_dependency_corpus(instances, out, heads_override=outputs)
    _log(f"predicted={len(instances)} model={args.model}")
    return 0


def _prf_line(name: str, scores) -> str:
    return f"{name:<10} P {scores.precision:.4f}  R {scores.recall:.4f}  F1 {scores.f1:.4f}"


def cmd_eval(args) -> int:
    if args.vocab and (args.task, args.scheme) != ("seq", "bie"):
        raise UsageError("--vocab is used only with --scheme bie")
    # one (kv key, value, report line) per figure; the line is None for a
    # figure that an earlier line already prints
    if args.task == "dep":
        gold = read_dependency_corpus(args.gold)
        pred = read_dependency_corpus(args.pred)
        heads = []
        for i, inst in enumerate(pred, start=1):
            if inst.heads is None:
                raise CorpusFormatError(f"{args.pred}: sentence {i} lacks HEAD values")
            heads.append(inst.heads)
        r = evaluate_dependency(gold, heads)
        acc, whole = r.accuracy, r.complete
        figures = [
            ("accuracy", acc, f"accuracy  {acc:.4f}  ({r.n_correct_heads}/{r.n_tokens})"),
            ("complete", whole, f"complete  {whole:.4f}  ({r.n_complete}/{r.n_sentences})"),
        ]
    else:
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
        r = evaluate_sequence(gold, pred_ids, codec, vocabulary)
        acc = r.token_accuracy
        if args.scheme == "raw":
            figures = [("accuracy", acc, f"accuracy  {acc:.4f}  ({r.n_correct}/{r.n_tokens})")]
        elif args.scheme == "bie":
            word = r.word
            figures = [
                ("accuracy", acc, f"accuracy   {acc:.4f}"),
                ("precision", word.precision, f"precision  {word.precision:.4f}"),
                ("recall", word.recall, f"recall     {word.recall:.4f}"),
                ("f1", word.f1, f"f1         {word.f1:.4f}"),
            ]
            if r.riv is not None:
                line = f"r_iv       {r.riv:.4f}  ({r.n_iv_correct}/{r.n_iv_gold})"
                figures.append(("r_iv", r.riv, line))
        else:
            overall = r.overall
            figures = [
                ("accuracy", acc, f"accuracy   {acc:.4f}"),
                ("precision", overall.precision, _prf_line("overall", overall)),
                ("recall", overall.recall, None),
                ("f1", overall.f1, None),
            ]
            figures += [
                (f"f1_{name}", scores.f1, _prf_line(name, scores))
                for name, scores in sorted(r.per_type.items())
            ]
    for _, _, line in figures:
        if line is not None:
            print(line)
    if args.kv:
        for key, value, _ in figures:
            print(f"{key}={value:.6f}")
    return 0


def cmd_weights(args) -> int:
    model = Model.load(args.model)
    m = len(model.task.group_ids)
    rows = sorted(
        zip(
            model.task.group_ids,
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
        # numpy overflow and invalid values raise FloatingPointError (exit 1 below)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except SystemExit as exc:  # argparse's own usage errors, and --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        path = exc.filename or str(exc)
        print(f"error: missing input file: {path}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, no permission, ...
        print(f"error: {_cannot_open(exc)}", file=sys.stderr)
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
