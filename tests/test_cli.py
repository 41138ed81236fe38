"""End-to-end command tests through cli.main: exit codes, stream separation,
environment overrides, and the full train/predict/eval/weights loop."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mklsp
from mklsp import cli, solver
from mklsp.corpus import read_dependency_corpus
from mklsp.dependency import is_arborescence, is_projective
from mklsp.model import Model
from mklsp.synthetic import SEQ_TEMPLATES, dependency_text, sequence_text
from mklsp.templates import MAX_OFFSET


def strip_labels(text):
    """Drop the trailing label column of a labeled sequence corpus."""
    lines = []
    for line in text.splitlines():
        lines.append(" ".join(line.split()[:-1]) if line.strip() else "")
    return "\n".join(lines) + "\n"


def blank_heads(text, head="_"):
    """Set every HEAD of a CoNLL corpus to `head`: erased by default, and
    with "0" every token hangs off the root."""
    lines = []
    for line in text.splitlines():
        if line.strip():
            fields = line.split("\t")
            fields[6] = head
            line = "\t".join(fields)
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.fixture
def seq_setup(tmp_path):
    (tmp_path / "templates.txt").write_text(SEQ_TEMPLATES)
    (tmp_path / "train.txt").write_text(sequence_text(12, seed=51))
    (tmp_path / "test.txt").write_text(sequence_text(4, seed=52))
    (tmp_path / "test_bare.txt").write_text(strip_labels(sequence_text(4, seed=52)))
    return tmp_path


def train_args(d, **extra):
    args = [
        "train", "--task", "seq",
        "--templates", str(d / "templates.txt"),
        "--data", str(d / "train.txt"),
        "-o", str(d / "model.mkl"),
        "-c", "1", "-e", "0.05", "--jobs", "1",
    ]
    for k, v in extra.items():
        args += [k] if v is True else [k, v]
    return args


# ---------------------------------------------------------------- pipeline


def test_full_sequence_pipeline(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    err = capsys.readouterr().err
    assert "halt=converged" in err and "checksum=" in err
    assert (d / "model.mkl").exists()

    code = cli.main([
        "predict", "-m", str(d / "model.mkl"),
        "--data", str(d / "test_bare.txt"),
        "-o", str(d / "pred.txt"), "--jobs", "1",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "predicted=4" in captured.err
    assert captured.out == ""  # data went to the file, not stdout
    pred = (d / "pred.txt").read_text()
    assert pred.count("\n\n") >= 3  # one blank line per sentence
    for line in pred.splitlines():
        if line.strip():
            assert line.split()[-1].startswith("L")

    code = cli.main([
        "eval", "--task", "seq",
        "--gold", str(d / "test.txt"), "--pred", str(d / "pred.txt"), "--kv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    kv = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line and " " not in line
    )
    assert float(kv["accuracy"]) == 1.0  # separable corpus, fully learned


def test_predict_to_stdout(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    capsys.readouterr()
    code = cli.main([
        "predict", "-m", str(d / "model.mkl"),
        "--data", str(d / "test_bare.txt"), "--jobs", "1",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "predicted=4" in captured.err
    assert len(captured.out.splitlines()) > 4  # token rows on stdout


def test_full_dependency_pipeline(tmp_path, capsys):
    (tmp_path / "train.conll").write_text(dependency_text(10, seed=53))
    (tmp_path / "test.conll").write_text(dependency_text(4, seed=54))
    (tmp_path / "test_bare.conll").write_text(blank_heads(dependency_text(4, seed=54)))
    code = cli.main([
        "train", "--task", "dep",
        "--data", str(tmp_path / "train.conll"),
        "-o", str(tmp_path / "model.mkl"),
        "-c", "1", "-e", "0.2", "--jobs", "1", "--decoder", "nonprojective",
    ])
    assert code == 0  # template file omitted: built-in edge templates
    capsys.readouterr()

    code = cli.main([
        "predict", "-m", str(tmp_path / "model.mkl"),
        "--data", str(tmp_path / "test_bare.conll"),
        "-o", str(tmp_path / "pred.conll"), "--jobs", "1",
    ])
    assert code == 0
    capsys.readouterr()

    code = cli.main([
        "eval", "--task", "dep",
        "--gold", str(tmp_path / "test.conll"),
        "--pred", str(tmp_path / "pred.conll"), "--kv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "complete" in out
    kv = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert 0.0 <= float(kv["accuracy"]) <= 1.0
    assert 0.0 <= float(kv["complete"]) <= 1.0


# ---------------------------------------------------------------- eval output

# gold and predicted corpora small enough to score by hand, one case per
# report that `eval` prints
RAW_GOLD = "a x N\nb y V\n\nc z D\n"
RAW_PRED = "a x N\nb y N\n\nc z D\n"
BIE_GOLD = "a B\nb E\nc B\nd I\ne E\nf E\n"  # words ab, cde, f
BIE_PRED = "a B\nb E\nc B\nd I\ne I\nf E\n"  # words ab, cdef
BIE_VOCAB = "a B\nb E\n\nf E\nx B\ny E\n"  # words ab, f, xy
BIO_GOLD = "John B-PER\nSmith I-PER\nin O\nParis B-LOC\n\nMary B-PER\nleft O\n"
BIO_PRED = "John B-PER\nSmith I-PER\nin O\nParis B-PER\n\nMary B-PER\nleft B-LOC\n"


def conll(*heads):
    """A CoNLL-X corpus with one sentence per tuple of HEAD values."""
    return "".join(
        "".join(f"{i}\tw{i}\t_\tX\tX\t_\t{h}\tdep\t_\t_\n" for i, h in enumerate(hs, 1)) + "\n"
        for hs in heads
    )


EVAL_CASES = {
    "raw": (
        ["--task", "seq"], RAW_GOLD, RAW_PRED, None,
        "accuracy  0.6667  (2/3)\n"
        "accuracy=0.666667\n",
    ),
    "bie": (
        ["--task", "seq", "--scheme", "bie"], BIE_GOLD, BIE_PRED, None,
        "accuracy   0.8333\n"
        "precision  0.5000\n"
        "recall     0.3333\n"
        "f1         0.4000\n"
        "accuracy=0.833333\n"
        "precision=0.500000\n"
        "recall=0.333333\n"
        "f1=0.400000\n",
    ),
    "bie-vocab": (
        ["--task", "seq", "--scheme", "bie"], BIE_GOLD, BIE_PRED, BIE_VOCAB,
        "accuracy   0.8333\n"
        "precision  0.5000\n"
        "recall     0.3333\n"
        "f1         0.4000\n"
        "r_iv       0.5000  (1/2)\n"
        "accuracy=0.833333\n"
        "precision=0.500000\n"
        "recall=0.333333\n"
        "f1=0.400000\n"
        "r_iv=0.500000\n",
    ),
    "bio": (
        ["--task", "seq", "--scheme", "bio"], BIO_GOLD, BIO_PRED, None,
        "accuracy   0.6667\n"
        "overall    P 0.5000  R 0.6667  F1 0.5714\n"
        "LOC        P 0.0000  R 0.0000  F1 0.0000\n"
        "PER        P 0.6667  R 1.0000  F1 0.8000\n"
        "accuracy=0.666667\n"
        "precision=0.500000\n"
        "recall=0.666667\n"
        "f1=0.571429\n"
        "f1_LOC=0.000000\n"
        "f1_PER=0.800000\n",
    ),
    "dep": (
        ["--task", "dep"], conll((2, 3, 0), (0, 1, 1)), conll((3, 3, 0), (0, 1, 1)), None,
        "accuracy  0.8333  (5/6)\n"
        "complete  0.5000  (1/2)\n"
        "accuracy=0.833333\n"
        "complete=0.500000\n",
    ),
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_eval_report_and_kv_lines(tmp_path, capsys, case):
    flags, gold, pred, vocab, expected = EVAL_CASES[case]
    (tmp_path / "gold").write_text(gold)
    (tmp_path / "pred").write_text(pred)
    argv = ["eval", *flags, "--gold", str(tmp_path / "gold"), "--pred", str(tmp_path / "pred")]
    if vocab is not None:
        (tmp_path / "vocab").write_text(vocab)
        argv += ["--vocab", str(tmp_path / "vocab")]
    assert cli.main([*argv, "--kv"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "flags",
    [
        ["--task", "seq"],
        ["--task", "seq", "--scheme", "bio"],
        ["--task", "dep"],
        ["--task", "dep", "--scheme", "bie"],
    ],
)
@pytest.mark.parametrize("files", ["present", "missing"])
def test_vocab_is_refused_without_scheme_bie(tmp_path, capsys, flags, files):
    # only bie scores R_iv, so a vocabulary given to any other report is a
    # usage error, raised before any file is read
    if files == "present":
        gold, pred = EVAL_CASES["dep" if "dep" in flags else "bio"][1:3]
        (tmp_path / "gold").write_text(gold)
        (tmp_path / "pred").write_text(pred)
        (tmp_path / "vocab").write_text(BIE_VOCAB)
    paths = [str(tmp_path / name) for name in ("gold", "pred", "vocab")]
    argv = ["eval", *flags, "--gold", paths[0], "--pred", paths[1], "--vocab", paths[2], "--kv"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: --vocab is used only with --scheme bie\n")


def root_children(path):
    return [inst.heads.count(0) for inst in read_dependency_corpus(str(path))]


@pytest.mark.parametrize("decoder", ["projective", "nonprojective"])
@pytest.mark.parametrize("how", ["flag", "env"])
def test_single_root_train_and_predict(tmp_path, capsys, monkeypatch, decoder, how):
    # gold trees hang every token off the root, so a model trained on them
    # predicts several root children unless single-root decoding is on
    (tmp_path / "train.conll").write_text(blank_heads(dependency_text(10, seed=55), "0"))
    (tmp_path / "test_bare.conll").write_text(blank_heads(dependency_text(4, seed=56)))

    def train_and_predict(*extra):
        args = [
            "train", "--task", "dep",
            "--data", str(tmp_path / "train.conll"),
            "-o", str(tmp_path / "model.mkl"),
            "-c", "1", "-e", "0.2", "--jobs", "1", "--decoder", decoder, *extra,
        ]
        assert cli.main(args) == 0
        code = cli.main([
            "predict", "-m", str(tmp_path / "model.mkl"),
            "--data", str(tmp_path / "test_bare.conll"),
            "-o", str(tmp_path / "pred.conll"), "--jobs", "1",
        ])
        assert code == 0
        capsys.readouterr()
        return Model.load(str(tmp_path / "model.mkl"))

    assert not train_and_predict().task.single_root
    assert max(root_children(tmp_path / "pred.conll")) > 1

    if how == "flag":
        model = train_and_predict("--single-root")
    else:
        monkeypatch.setenv("MTL_SINGLE_ROOT", "1")
        model = train_and_predict()
    assert model.task.single_root is True and model.task.decoder == decoder
    assert json.loads(model._payload_blocks()[0])["single_root"] is True
    assert root_children(tmp_path / "pred.conll") == [1, 1, 1, 1]
    for inst in read_dependency_corpus(str(tmp_path / "pred.conll")):
        assert is_arborescence(inst.heads)
        if decoder == "projective":
            assert is_projective(inst.heads)


def test_weights_table_and_csv(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    capsys.readouterr()

    assert cli.main(["weights", "-m", str(d / "model.mkl")]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["group", "mu", "norm", "dim"]
    names = [l.split()[0] for l in lines[1:-1]]
    assert names == sorted(names)  # report sorted by template index
    assert lines[-1].startswith("uniform")

    assert cli.main(["weights", "-m", str(d / "model.mkl"), "--csv"]) == 0
    out = capsys.readouterr().out
    rows = [l.split(",") for l in out.splitlines()]
    assert rows[0] == ["group", "mu", "norm", "dim"]
    body = [r for r in rows[1:] if r[0] != "_uniform"]
    assert sum(float(r[1]) for r in body) == pytest.approx(1.0, abs=1e-9)
    zero_mu = [r for r in body if float(r[1]) == 0.0]
    for r in zero_mu:
        assert float(r[2]) == 0.0  # silenced group carries no weight


# ---------------------------------------------------------------- exit codes


def test_missing_input_file_exits_2(seq_setup, capsys):
    d = seq_setup
    code = cli.main(train_args(d, **{"--data": str(d / "absent.txt")}))
    assert code == 2
    assert "absent.txt" in capsys.readouterr().err


def trained_predict_args(d, **extra):
    """`predict` of the freshly trained seq model on the bare test corpus."""
    assert cli.main(train_args(d)) == 0
    args = ["predict", "-m", str(d / "model.mkl"), "--data", str(d / "test_bare.txt")]
    for k, v in extra.items():
        args += [k, v]
    return args


@pytest.mark.parametrize(
    "command",
    ["train --data", "train --templates", "predict --data", "predict -o", "weights -m"],
)
def test_directory_for_a_file_exits_2(seq_setup, capsys, command):
    d = seq_setup
    name, flag = command.split()
    if name == "train":
        args = train_args(d, **{flag: str(d)})
    elif name == "predict":
        args = trained_predict_args(d, **{flag: str(d)})
    else:
        args = ["weights", flag, str(d)]
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert f"error: cannot open {d}: " in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "predict"])
def test_missing_output_directory_is_no_missing_input(seq_setup, capsys, command):
    d = seq_setup
    out = str(d / "no" / "such" / "dir" / "out")
    if command == "train":
        args = train_args(d, **{"-o": out})
    else:
        args = trained_predict_args(d, **{"-o": out})
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert f"error: cannot open {out}: " in err
    assert "missing input" not in err and "Traceback" not in err


@pytest.mark.parametrize("how", ["flag-0", "flag--3", "env--2"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_jobs_below_one_is_a_usage_error(seq_setup, capsys, monkeypatch, command, how):
    d = seq_setup
    source, value = how.split("-", 1)
    args = train_args(d) if command == "train" else trained_predict_args(d)
    capsys.readouterr()
    if source == "flag":
        args += ["--jobs", value]
    else:
        if "--jobs" in args:  # an explicit flag would win over the variable
            del args[args.index("--jobs") : args.index("--jobs") + 2]
        monkeypatch.setenv("MTL_JOBS", value)
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_template_error_exits_1(seq_setup, capsys):
    d = seq_setup
    (d / "templates.txt").write_text("U00:%x[0,0]\nU00:%x[1,0]\n")
    assert cli.main(train_args(d)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["seq", "dep"])
def test_template_offset_beyond_the_limit_exits_1(seq_setup, capsys, task):
    # an offset one past the limit is refused before any sentence is padded
    d = seq_setup
    far = MAX_OFFSET + 1
    if task == "seq":
        (d / "templates.txt").write_text(f"U00:%x[0,0]\nU01:%x[{far},0]\nB\n")
        args = train_args(d)
    else:
        (d / "templates.txt").write_text(f"P00:head.FORM/mod.FORM\nP01:head+{far}.FORM\n")
        (d / "train.conll").write_text(dependency_text(6, seed=53))
        args = [
            "train", "--task", "dep", "--templates", str(d / "templates.txt"),
            "--data", str(d / "train.conll"), "-o", str(d / "model.mkl"), "--jobs", "1",
        ]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert f"error: line 2: offset {far} is more than" in err
    assert "Traceback" not in err
    assert not (d / "model.mkl").exists()


def test_observation_rule_indexed_b_exits_1(seq_setup, capsys):
    d = seq_setup
    (d / "templates.txt").write_text("B:%x[0,0]\nU01:%x[0,1]\n")
    assert cli.main(train_args(d)) == 1
    err = capsys.readouterr().err
    assert "index 'B' is reserved" in err and "Traceback" not in err
    assert not (d / "model.mkl").exists()


def test_corpus_error_exits_1(seq_setup, capsys):
    d = seq_setup
    (d / "train.txt").write_text("a x L0\nb L1\n\n")
    assert cli.main(train_args(d)) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_value_exits_2(seq_setup, capsys):
    d = seq_setup
    code = cli.main([
        "train", "--task", "seq", "--templates", str(d / "templates.txt"),
        "--data", str(d / "train.txt"),
    ])
    assert code == 2
    assert "--model" in capsys.readouterr().err


def test_no_arguments_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_unreadable_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "junk.mkl"
    bad.write_bytes(b"not a model")
    assert cli.main(["weights", "-m", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,code", [("test.txt", 1), ("absent.txt", 2)], ids=["labeled-input", "missing-input"]
)
def test_failed_predict_leaves_the_output_file(seq_setup, capsys, data, code):
    # a labeled corpus has one column more than the model reads
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    (d / "pred.txt").write_text("earlier predictions\n")
    assert cli.main([
        "predict", "-m", str(d / "model.mkl"), "--data", str(d / data),
        "-o", str(d / "pred.txt"), "--jobs", "1",
    ]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert (d / "pred.txt").read_text() == "earlier predictions\n"


@pytest.mark.parametrize("flag,value", [("-c", "nan"), ("-c", "inf"), ("-e", "nan")])
def test_non_finite_c_or_epsilon_exits_1(seq_setup, capsys, flag, value):
    d = seq_setup
    assert cli.main(train_args(d, **{flag: value})) == 1
    err = capsys.readouterr().err
    assert "must be positive and finite" in err and "Traceback" not in err
    assert not (d / "model.mkl").exists()


def test_non_finite_c_from_env_exits_1(seq_setup, capsys, monkeypatch):
    d = seq_setup
    args = train_args(d)
    i = args.index("-c")
    del args[i : i + 2]
    monkeypatch.setenv("MTL_C", "nan")
    assert cli.main(args) == 1
    assert "C must be positive and finite" in capsys.readouterr().err
    assert not (d / "model.mkl").exists()


def test_huge_c_exits_1_without_traceback(seq_setup):
    # C = 1e300 overflows in the barrier; run as a user would, in a process
    d = seq_setup
    src = os.path.dirname(os.path.dirname(mklsp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "mklsp.cli", *train_args(d, **{"-c": "1e300"})],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "error: numerical failure" in proc.stderr and "Traceback" not in proc.stderr
    assert not (d / "model.mkl").exists()


def test_c_too_large_to_certify_exits_1(seq_setup, capsys):
    # at C = 1e150 no subproblem solve reaches a relative primal-dual gap of
    # 1e-6, so `train` raises instead of reporting a converged model
    d = seq_setup
    assert cli.main(train_args(d, **{"-c": "1e150"})) == 1
    err = capsys.readouterr().err
    assert "error: numerical failure" in err and "primal-dual gap" in err
    assert "Traceback" not in err
    assert not (d / "model.mkl").exists()


def test_non_finite_barrier_output_exits_1(seq_setup, capsys, monkeypatch):
    def broken(G, Qpin, q, C, free_mass):
        return np.full(q.size, np.nan), np.full(len(G), np.nan), solver.SolveDiagnostics()

    monkeypatch.setattr(solver, "_primal_dual", broken)
    d = seq_setup
    assert cli.main(train_args(d)) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
    assert not (d / "model.mkl").exists()


def test_transition_only_templates_train_and_predict(seq_setup, capsys):
    d = seq_setup
    (d / "templates.txt").write_text("B\n")
    assert cli.main(train_args(d)) == 0
    assert "halt=" in capsys.readouterr().err
    model = Model.load(str(d / "model.mkl"))
    assert model.task.group_ids == ["B"]
    assert model.weights[0].size == len(model.task.labels) ** 2
    code = cli.main([
        "predict", "-m", str(d / "model.mkl"),
        "--data", str(d / "test_bare.txt"), "-o", str(d / "pred.txt"), "--jobs", "1",
    ])
    assert code == 0
    assert "predicted=4" in capsys.readouterr().err
    tokens = [line for line in (d / "pred.txt").read_text().splitlines() if line.strip()]
    bare = [line for line in (d / "test_bare.txt").read_text().splitlines() if line.strip()]
    assert len(tokens) == len(bare)


def test_predict_empty_input_is_fine(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    (d / "empty.txt").write_text("")
    code = cli.main([
        "predict", "-m", str(d / "model.mkl"),
        "--data", str(d / "empty.txt"), "-o", str(d / "out.txt"), "--jobs", "1",
    ])
    assert code == 0
    assert (d / "out.txt").read_text() == ""
    capsys.readouterr()


# ---------------------------------------------------------------- env vars


def test_jobs_default_to_one(monkeypatch):
    monkeypatch.delenv("MTL_JOBS", raising=False)
    train = ["train", "--task", "seq", "--data", "x", "-o", "m"]
    predict = ["predict", "-m", "m", "--data", "x"]
    assert cli.build_parser().parse_args(train).jobs == 1
    assert cli.build_parser().parse_args(predict).jobs == 1
    monkeypatch.setenv("MTL_JOBS", "3")
    assert cli.build_parser().parse_args(train).jobs == 3
    assert cli.build_parser().parse_args(predict + ["--jobs", "2"]).jobs == 2


def test_env_var_sets_default(seq_setup, capsys, monkeypatch):
    d = seq_setup
    monkeypatch.setenv("MTL_MAX_ITER", "1")
    assert cli.main(train_args(d)) == 0
    capsys.readouterr()
    model = Model.load(str(d / "model.mkl"))
    assert model.diagnostics["iterations"] == "1"
    assert model.diagnostics["halt"] == "max-iterations"


def test_explicit_flag_beats_env_var(seq_setup, capsys, monkeypatch):
    d = seq_setup
    monkeypatch.setenv("MTL_MAX_ITER", "1")
    assert cli.main(train_args(d, **{"--max-iter": "100"})) == 0
    capsys.readouterr()
    model = Model.load(str(d / "model.mkl"))
    assert model.diagnostics["halt"] == "converged"
    assert int(model.diagnostics["iterations"]) > 1


def test_bad_env_boolean_exits_2(seq_setup, capsys, monkeypatch):
    d = seq_setup
    monkeypatch.setenv("MTL_UNIFORM", "maybe")
    assert cli.main(train_args(d)) == 2
    assert "MTL_UNIFORM" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "eval", "weights"])
def test_bad_env_value_stops_only_the_commands_that_read_it(
    seq_setup, capsys, monkeypatch, command
):
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    monkeypatch.setenv("MTL_MAX_ITER", "x")  # only `train` has --max-iter
    argv = {
        "predict": ["predict", "-m", str(d / "model.mkl"), "--data", str(d / "test_bare.txt")],
        "eval": ["eval", "--task", "seq", "--gold", str(d / "test.txt"),
                 "--pred", str(d / "test.txt")],
        "weights": ["weights", "-m", str(d / "model.mkl")],
    }[command]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(train_args(d)) == 2
    assert "bad value for MTL_MAX_ITER" in capsys.readouterr().err


@pytest.mark.parametrize(
    "var,value,command",
    [("MTL_TASK", "foo", "train"), ("MTL_DECODER", "foo", "train"), ("MTL_SCHEME", "xyz", "eval")],
)
def test_env_value_outside_the_flag_choices_exits_2(
    seq_setup, capsys, monkeypatch, var, value, command
):
    d = seq_setup
    (d / "train.conll").write_text(dependency_text(6, seed=53))
    if command == "train":
        argv = ["train", "--data", str(d / "train.conll"), "-o", str(d / "model.mkl"), "-e", "0.2"]
        if var != "MTL_TASK":
            argv += ["--task", "dep"]
    else:
        argv = ["eval", "--task", "seq", "--gold", str(d / "test.txt"),
                "--pred", str(d / "test.txt")]
    monkeypatch.setenv(var, value)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: bad value for {var}: '{value}'" in err and "Traceback" not in err
    assert not (d / "model.mkl").exists()


@pytest.mark.parametrize("command", ["eval", "weights"])
def test_a_command_without_the_env_flag_ignores_its_variable(
    seq_setup, capsys, monkeypatch, command
):
    # `eval --task` reads no variable, and `weights` has no --task
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    monkeypatch.setenv("MTL_TASK", "foo")
    argv = {
        "eval": ["eval", "--task", "seq", "--gold", str(d / "test.txt"),
                 "--pred", str(d / "test.txt")],
        "weights": ["weights", "-m", str(d / "model.mkl")],
    }[command]
    assert cli.main(argv) == 0
    capsys.readouterr()


# a value for the MTL_ variable of every flag that some command has, each
# one its flag accepts
ENV_RAW = {
    "task": "dep", "templates": "t.txt", "data": "d.txt", "model": "m.mkl", "c": "2.5",
    "epsilon": "0.25", "max_iter": "7", "uniform": "yes", "c_times_n": "on", "jobs": "3",
    "decoder": "nonprojective", "single_root": "true", "fixed_groups": "U00,B",
    "scheme": "bie", "output": "o.txt", "vocab": "v.txt", "kv": "1", "csv": "1",
    "help": "1", "gold": "g.txt", "pred": "p.txt",
}
# per command: its required flags, given on the command line, which wins
# over any variable, and what each flag that reads its variable parses
ENV_COMMANDS = {
    "train": (["train"], {
        "task": "dep", "templates": "t.txt", "data": "d.txt", "model": "m.mkl", "c": 2.5,
        "epsilon": 0.25, "max_iter": 7, "uniform": True, "c_times_n": True, "jobs": 3,
        "decoder": "nonprojective", "single_root": True, "fixed_groups": "U00,B",
    }),
    "predict": (["predict", "-m", "m", "--data", "x"], {"jobs": 3}),
    "eval": (["eval", "--task", "seq", "--gold", "g", "--pred", "p"], {"scheme": "bie"}),
    "weights": (["weights", "-m", "m"], {}),
}


@pytest.mark.parametrize("command", sorted(ENV_COMMANDS))
def test_which_flags_read_the_environment(monkeypatch, command):
    argv, read = ENV_COMMANDS[command]
    for name in os.environ:
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)
    plain = vars(cli.build_parser().parse_args(argv))
    for dest, raw in ENV_RAW.items():
        monkeypatch.setenv(cli.ENV_PREFIX + dest.upper(), raw)
    from_env = vars(cli.build_parser().parse_args(argv))
    changed = {k: from_env.get(k) for k in plain | from_env if from_env.get(k) != plain.get(k)}
    assert changed == read


@pytest.mark.parametrize("how", ["flag", "env"])
def test_c_times_n_scales_c_by_the_corpus_size(seq_setup, capsys, monkeypatch, how):
    d = seq_setup
    if how == "flag":
        args = train_args(d, **{"-c": "0.25", "--c-times-n": True})
    else:
        monkeypatch.setenv("MTL_C_TIMES_N", "1")
        args = train_args(d, **{"-c": "0.25"})
    assert cli.main(args) == 0
    err = capsys.readouterr().err
    assert "n=12 " in err and " C=3 " in err  # 0.25 times the 12 training sentences
    assert Model.load(str(d / "model.mkl")).diagnostics["C"] == "3"


def test_uniform_env_flag(seq_setup, capsys, monkeypatch):
    d = seq_setup
    monkeypatch.setenv("MTL_UNIFORM", "yes")
    assert cli.main(train_args(d)) == 0
    capsys.readouterr()
    model = Model.load(str(d / "model.mkl"))
    assert model.diagnostics["mode"] == "uniform"
    m = len(model.task.group_ids)
    assert all(abs(mu_j - 1 / m) < 1e-12 for mu_j in model.mu)


def test_fixed_groups_flag(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d, **{"--fixed-groups": "U00,B"})) == 0
    capsys.readouterr()
    model = Model.load(str(d / "model.mkl"))
    m = len(model.task.group_ids)
    for gid in ("U00", "B"):
        assert model.mu[model.task.group_ids.index(gid)] == pytest.approx(1 / m)


# ---------------------------------------------------------------- determinism


def test_jobs_do_not_change_the_model(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    one = Model.load(str(d / "model.mkl")).payload()
    assert cli.main(train_args(d, **{"--jobs": "3"})) == 0
    three = Model.load(str(d / "model.mkl")).payload()
    capsys.readouterr()
    assert one == three


# ---------------------------------------------------------------- robustness

# rules that read past the sentence or join several macros by "/", and
# lines that break a template file: a column the corpus lacks, the reserved
# index, a rule without a body or without an index, an empty macro, and
# arbitrary text
RULES = st.sampled_from([
    "U00:%x[0,0]", "U01:%x[-1,0]/%x[0,0]", "U02:%x[2,1]/%x[-3,0]/%x[0,1]", "U03:%x[0,1]",
    "B", "# note", "",
])
BAD_LINES = st.sampled_from(["U09:%x[0,7]", "B:%x[0,0]", "U00", "%x[0,0]", "U04:%x[0,0]/"])
# values that feature strings cannot tell apart from their own syntax
VALUE = st.sampled_from(["a", "b", "a/b", "/", ":", "x:y", "a/b:c", "_B-1", "_B+1"])
LABELED_TOKEN = st.tuples(VALUE, VALUE, st.sampled_from(["L0", "L1", "L/2"])).map(" ".join)


@st.composite
def defective(draw, lines, bad):
    """`lines`, and in one draw of four one line replaced by a `bad` one."""
    lines = list(lines)
    if draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(bad)
    return "\n".join(lines) + "\n"


@st.composite
def template_text(draw):
    rules = draw(st.lists(RULES, min_size=1, max_size=5, unique=True))
    return draw(defective(rules, BAD_LINES | st.text(max_size=20)))


@st.composite
def corpus_text(draw, labeled):
    """A column corpus, now and then with a defect: a token line with too
    few or too many columns, or a line of arbitrary text."""
    token = LABELED_TOKEN if labeled else LABELED_TOKEN.map(lambda line: line.rsplit(" ", 1)[0])
    sentences = draw(st.lists(st.lists(token, min_size=1, max_size=5), min_size=1, max_size=4))
    lines = [line for sentence in sentences for line in [*sentence, ""]]
    bad = st.sampled_from(["a", "a b c d e", "a/b x:y"]) | st.text(max_size=12)
    return draw(defective(lines, bad))


@settings(max_examples=30, deadline=None)
@given(
    template_text(),
    corpus_text(labeled=True),
    corpus_text(labeled=False),
)
def test_mutated_templates_and_corpora_end_in_a_clean_exit(templates, train, test):
    # train, then predict when a model was saved: exit 0, 1 or 2, never an exception
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "templates.txt").write_text(templates, encoding="utf-8")
        (d / "train.txt").write_text(train, encoding="utf-8")
        (d / "test.txt").write_text(test, encoding="utf-8")
        assert cli.main(train_args(d, **{"--max-iter": "20"})) in (0, 1, 2)
        if (d / "model.mkl").exists():
            code = cli.main([
                "predict", "-m", str(d / "model.mkl"),
                "--data", str(d / "test.txt"), "-o", str(d / "pred.txt"), "--jobs", "1",
            ])
            assert code in (0, 1, 2)
