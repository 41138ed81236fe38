"""On-disk model format: round trips, checksums, corruption detection, and
task reconstruction from the stored blocks."""

import hashlib
import io
import json
import struct

import numpy as np
import pytest

from mklsp import cli
from mklsp.dependency import DependencyTask, parse_edge_templates
from mklsp.model import MAGIC, Model, ModelFormatError
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

DEP_TEMPLATES = "P00:head.CPOSTAG/mod.CPOSTAG\nP01:head.FORM/mod.FORM\n"


def trained_sequence_model(n=10, seed=41):
    instances, table = load_sequence(sequence_text(n, seed=seed))
    task = SequenceTask.build(parse_templates(SEQ_TEMPLATES), instances, table)
    compiled = [task.compile(i) for i in instances]
    out = train(task, compiled, SolverConfig(C=1.0, epsilon=0.1))
    model = Model.from_sequence(
        task, SEQ_TEMPLATES, 2, out.mu, out.weights, {"halt": out.halt_reason}
    )
    return model, task, instances


def trained_dependency_model(n=8, seed=42):
    instances = load_dependency(dependency_text(n, seed=seed))
    specs = parse_edge_templates(DEP_TEMPLATES)
    task = DependencyTask.build(specs, instances, decoder="nonprojective")
    compiled = [task.compile(i) for i in instances]
    out = train(task, compiled, SolverConfig(C=1.0, epsilon=0.2))
    model = Model.from_dependency(task, DEP_TEMPLATES, out.mu, out.weights)
    return model, task, instances


def test_sequence_round_trip(tmp_path):
    model, task, instances = trained_sequence_model()
    path = tmp_path / "m.mkl"
    checksum = model.save(str(path))
    assert len(checksum) == 64

    loaded = Model.load(str(path))
    assert loaded.task_kind == "seq"
    assert loaded.group_ids == model.group_ids
    assert loaded.labels == model.labels
    assert loaded.template_text == model.template_text
    assert loaded.n_columns == 2
    assert loaded.diagnostics == {"halt": "converged"}
    assert np.array_equal(loaded.mu, model.mu)
    for a, b in zip(loaded.weights, model.weights, strict=True):
        assert np.array_equal(a, b)
    assert loaded.payload() == model.payload()

    rebuilt = loaded.build_task()
    for inst in instances[:5]:
        a, _ = task.decode(model.weights, task.compile(inst))
        b, _ = rebuilt.decode(loaded.weights, rebuilt.compile(inst))
        assert a == b


def test_dependency_round_trip(tmp_path):
    model, task, instances = trained_dependency_model()
    path = tmp_path / "m.mkl"
    model.save(str(path))
    loaded = Model.load(str(path))
    assert loaded.task_kind == "dep"
    assert loaded.decoder == "nonprojective"
    assert loaded.labels == []
    assert loaded.n_columns == 10
    rebuilt = loaded.build_task()
    assert rebuilt.decoder == "nonprojective"
    for inst in instances[:5]:
        a, _ = task.decode(model.weights, task.compile(inst))
        b, _ = rebuilt.decode(loaded.weights, rebuilt.compile(inst))
        assert a == b


def test_payload_is_time_independent(tmp_path):
    model, _, _ = trained_sequence_model()
    c1 = model.save(str(tmp_path / "a.mkl"))
    c2 = model.save(str(tmp_path / "b.mkl"))
    assert c1 == c2
    body_a = (tmp_path / "a.mkl").read_bytes()
    body_b = (tmp_path / "b.mkl").read_bytes()
    assert body_a.split(b"\n\n", 1)[1] == body_b.split(b"\n\n", 1)[1]


def test_header_carries_magic_created_checksum(tmp_path):
    model, _, _ = trained_sequence_model()
    checksum = model.save(str(tmp_path / "m.mkl"))
    head = (tmp_path / "m.mkl").read_bytes().split(b"\n\n", 1)[0].decode().split("\n")
    assert head[0] == MAGIC
    assert head[1].startswith("created=")
    assert head[2] == f"checksum={checksum}"


def test_checksum_mismatch_detected(tmp_path):
    model, _, _ = trained_sequence_model()
    path = tmp_path / "m.mkl"
    model.save(str(path))
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    with pytest.raises(ModelFormatError, match="checksum"):
        Model.read(io.BytesIO(bytes(data)))


def test_truncated_payload_detected(tmp_path):
    model, _, _ = trained_sequence_model()
    path = tmp_path / "m.mkl"
    model.save(str(path))
    data = path.read_bytes()
    with pytest.raises(ModelFormatError):
        Model.read(io.BytesIO(data[:-20]))


def test_bad_magic_and_header_lines():
    with pytest.raises(ModelFormatError, match="terminator"):
        Model.read(io.BytesIO(b"MKLSP1\nchecksum=00"))
    with pytest.raises(ModelFormatError, match="magic"):
        Model.read(io.BytesIO(b"OTHER9\nchecksum=00\n\n"))
    with pytest.raises(ModelFormatError, match="malformed header"):
        Model.read(io.BytesIO(b"MKLSP1\nnoequals\n\n"))
    with pytest.raises(ModelFormatError, match="checksum"):
        Model.read(io.BytesIO(b"MKLSP1\ncreated=now\n\n"))


def signed(blocks):
    """A model file around payload `blocks`, with a checksum that matches."""
    payload = b"".join(struct.pack("<Q", len(b)) + b for b in blocks)
    digest = hashlib.sha256(payload).hexdigest()
    return f"{MAGIC}\nchecksum={digest}\n\n".encode() + payload


@pytest.fixture(scope="module")
def seq_model():
    return trained_sequence_model()[0]


def with_meta(model, edit):
    """`model`'s signed file after `edit` changed its meta object in place."""
    blocks = model._payload_blocks()
    meta = json.loads(blocks[0])
    edit(meta)
    blocks[0] = json.dumps(meta).encode()
    return signed(blocks)


def test_block_count_must_match_group_count(tmp_path):
    model, _, _ = trained_sequence_model()
    # drop the final weight block but keep lengths consistent
    raw = signed(model._payload_blocks()[:-1])
    with pytest.raises(ModelFormatError, match="blocks"):
        Model.read(io.BytesIO(raw))


@pytest.mark.parametrize("key", ["task", "n_columns", "groups", "labels"])
def test_meta_without_required_key_is_a_format_error(seq_model, tmp_path, capsys, key):
    raw = with_meta(seq_model, lambda meta: meta.pop(key))
    with pytest.raises(ModelFormatError, match=key):
        Model.read(io.BytesIO(raw))
    path = tmp_path / "m.mkl"
    path.write_bytes(raw)
    assert cli.main(["weights", "-m", str(path)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("task", 3),
        ("n_columns", "2"),
        ("n_columns", True),
        ("groups", "U00"),
        ("groups", [0, 1]),
        ("labels", None),
        ("labels", [1]),
        ("decoder", 0),
        ("single_root", "no"),
        ("diagnostics", [["a", "b"]]),
    ],
)
def test_meta_value_of_wrong_type_is_a_format_error(seq_model, key, value):
    raw = with_meta(seq_model, lambda meta: meta.__setitem__(key, value))
    with pytest.raises(ModelFormatError, match=key):
        Model.read(io.BytesIO(raw))


def test_meta_must_be_an_object(seq_model):
    blocks = seq_model._payload_blocks()
    blocks[0] = b"[]"
    with pytest.raises(ModelFormatError, match="object"):
        Model.read(io.BytesIO(signed(blocks)))


def test_model_field_validation():
    with pytest.raises(ValueError, match="task kind"):
        Model("tree", "", 10, [], [], [], np.zeros(0), [])
    with pytest.raises(ValueError, match="align"):
        Model("seq", "", 2, ["U00"], [], [], np.zeros(1), [])
    with pytest.raises(ValueError, match="mu"):
        Model("seq", "", 2, ["U00"], [], [["a"]], np.zeros(2), [np.zeros(1)])


def test_empty_alphabet_block_round_trips(tmp_path):
    # the transition group stores no strings; [] must survive a round trip
    model, _, _ = trained_sequence_model()
    assert model.alphabets[-1] == []
    path = tmp_path / "m.mkl"
    model.save(str(path))
    assert Model.load(str(path)).alphabets[-1] == []


def test_rebuilt_task_keeps_alphabets_frozen(tmp_path):
    model, _, _ = trained_sequence_model()
    path = tmp_path / "m.mkl"
    model.save(str(path))
    rebuilt = Model.load(str(path)).build_task()
    before = [len(a) for a in rebuilt.alphabets]
    from mklsp.corpus import SequenceInstance

    rebuilt.compile(SequenceInstance([("neverseen", "x9")]))
    assert [len(a) for a in rebuilt.alphabets] == before


# ---------------------------------------------------------------- parameter blocks


@pytest.fixture(scope="module")
def dep_model():
    return trained_dependency_model()[0]


def with_blocks(model, edit):
    """`model`'s signed file after `edit(blocks, m)` changed its payload blocks."""
    blocks = model._payload_blocks()
    edit(blocks, len(model.group_ids))
    return signed(blocks)


def floats(values):
    return np.asarray(values, dtype="<f8").tobytes()


def test_short_observation_weight_block_is_a_format_error(seq_model):
    def edit(blocks, m):
        blocks[3 + m] = blocks[3 + m][:-8]

    with pytest.raises(ModelFormatError, match="U00.*weights, expected"):
        Model.read(io.BytesIO(with_blocks(seq_model, edit)))


def test_transition_block_must_hold_k_squared_weights(seq_model):
    k = len(seq_model.labels)
    assert seq_model.group_ids[-1] == "B" and seq_model.weights[-1].size == k * k

    def edit(blocks, m):
        blocks[-1] += floats([0.0] * k)

    with pytest.raises(ModelFormatError, match=f"'B' has {k * k + k} weights, expected {k * k}"):
        Model.read(io.BytesIO(with_blocks(seq_model, edit)))


def test_short_dependency_weight_block_is_a_format_error(dep_model, tmp_path, capsys):
    def edit(blocks, m):
        blocks[3 + m] = blocks[3 + m][:-8]

    raw = with_blocks(dep_model, edit)
    with pytest.raises(ModelFormatError, match="P00.*weights, expected"):
        Model.read(io.BytesIO(raw))
    (tmp_path / "m.mkl").write_bytes(raw)
    (tmp_path / "in.conll").write_text(dependency_text(2, seed=43))
    code = cli.main([
        "predict", "-m", str(tmp_path / "m.mkl"), "--data", str(tmp_path / "in.conll"),
        "-o", str(tmp_path / "out.conll"), "--jobs", "1",
    ])
    assert code == 1
    assert "expected" in capsys.readouterr().err


def test_ragged_float_block_is_a_format_error(dep_model):
    def edit(blocks, m):
        blocks[-1] += b"\0"

    with pytest.raises(ModelFormatError, match="not whole float64s"):
        Model.read(io.BytesIO(with_blocks(dep_model, edit)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_is_a_format_error(seq_model, bad):
    def edit(blocks, m):
        w = np.frombuffer(blocks[3 + m], dtype="<f8").copy()
        w[0] = bad
        blocks[3 + m] = floats(w)

    with pytest.raises(ModelFormatError, match="non-finite"):
        Model.read(io.BytesIO(with_blocks(seq_model, edit)))


@pytest.mark.parametrize(
    "change,match",
    [
        (lambda mu: np.where(np.arange(mu.size) == 0, np.nan, mu), "non-finite"),
        (lambda mu: mu * 5.0, "simplex"),
        (lambda mu: np.append(mu[:-1], mu[-1] + 1e-6), "simplex"),
        (lambda mu: 2.0 * np.eye(mu.size)[0] - np.eye(mu.size)[1], "simplex"),  # sums to 1
        (lambda mu: mu[:-1] / mu[:-1].sum(), "simplex"),
    ],
    ids=["nan", "times-5", "sum-off-by-1e-6", "negative", "one-short"],
)
def test_mu_off_the_simplex_is_a_format_error(dep_model, change, match):
    def edit(blocks, m):
        blocks[2] = floats(change(np.frombuffer(blocks[2], dtype="<f8")))

    with pytest.raises(ModelFormatError, match=match):
        Model.read(io.BytesIO(with_blocks(dep_model, edit)))
