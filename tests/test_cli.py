"""End-to-end command tests through cli.main: exit codes, stream separation,
environment overrides, and the full train/predict/eval/weights loop."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mklsp
from mklsp import cli, solver
from mklsp.corpus import read_dependency_corpus
from mklsp.dependency import is_arborescence, is_projective
from mklsp.model import Model
from mklsp.synthetic import SEQ_TEMPLATES, dependency_text, sequence_text


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

    assert not train_and_predict().single_root
    assert max(root_children(tmp_path / "pred.conll")) > 1

    if how == "flag":
        model = train_and_predict("--single-root")
    else:
        monkeypatch.setenv("MTL_SINGLE_ROOT", "1")
        model = train_and_predict()
    assert model.single_root is True and model.decoder == decoder
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


def test_template_error_exits_1(seq_setup, capsys):
    d = seq_setup
    (d / "templates.txt").write_text("U00:%x[0,0]\nU00:%x[1,0]\n")
    assert cli.main(train_args(d)) == 1
    assert "error:" in capsys.readouterr().err


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


def test_non_finite_barrier_output_exits_1(seq_setup, capsys, monkeypatch):
    def broken(G, Qpin, q, C, free_mass, alpha0):
        return np.full(q.size, np.nan), np.full(len(G), np.nan)

    monkeypatch.setattr(solver, "_barrier_qcqp", broken)
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
    assert model.group_ids == ["B"]
    assert model.weights[0].size == len(model.labels) ** 2
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


def test_uniform_env_flag(seq_setup, capsys, monkeypatch):
    d = seq_setup
    monkeypatch.setenv("MTL_UNIFORM", "yes")
    assert cli.main(train_args(d)) == 0
    capsys.readouterr()
    model = Model.load(str(d / "model.mkl"))
    assert model.diagnostics["mode"] == "uniform"
    m = len(model.group_ids)
    assert all(abs(mu_j - 1 / m) < 1e-12 for mu_j in model.mu)


def test_fixed_groups_flag(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d, **{"--fixed-groups": "U00,B"})) == 0
    capsys.readouterr()
    model = Model.load(str(d / "model.mkl"))
    m = len(model.group_ids)
    for gid in ("U00", "B"):
        assert model.mu[model.group_ids.index(gid)] == pytest.approx(1 / m)


# ---------------------------------------------------------------- determinism


def test_jobs_do_not_change_the_model(seq_setup, capsys):
    d = seq_setup
    assert cli.main(train_args(d)) == 0
    one = Model.load(str(d / "model.mkl")).payload()
    assert cli.main(train_args(d, **{"--jobs": "3"})) == 0
    three = Model.load(str(d / "model.mkl")).payload()
    capsys.readouterr()
    assert one == three
