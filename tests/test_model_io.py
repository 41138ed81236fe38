"""On-disk model format: round trips, checksums, corruption detection, and
task reconstruction from the stored blocks."""

import hashlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mklsp import cli
from mklsp.corpus import DependencyInstance, LabelTable, SequenceInstance
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
from mklsp.templates import MAX_OFFSET, parse_templates

from _oracles import compile_edges, reference_instantiate

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


def trained_dependency_model(n=8, seed=42, decoder="nonprojective", single_root=False):
    instances = load_dependency(dependency_text(n, seed=seed))
    specs = parse_edge_templates(DEP_TEMPLATES)
    task = DependencyTask.build(specs, instances, decoder, single_root)
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
    assert isinstance(loaded.task, SequenceTask)
    assert loaded.task.group_ids == model.task.group_ids
    assert loaded.task.labels.labels() == model.task.labels.labels()
    assert loaded.template_text == model.template_text
    assert loaded.n_columns == 2
    assert loaded.diagnostics == {"halt": "converged"}
    assert np.array_equal(loaded.mu, model.mu)
    for a, b in zip(loaded.weights, model.weights, strict=True):
        assert np.array_equal(a, b)
    assert loaded.payload() == model.payload()

    rebuilt = loaded.build_task()
    a, _ = task.decode_corpus(model.weights, [task.compile(i) for i in instances[:5]])
    b, _ = rebuilt.decode_corpus(loaded.weights, [rebuilt.compile(i) for i in instances[:5]])
    assert a == b


def test_dependency_round_trip(tmp_path):
    model, task, instances = trained_dependency_model()
    path = tmp_path / "m.mkl"
    model.save(str(path))
    loaded = Model.load(str(path))
    assert isinstance(loaded.task, DependencyTask)
    assert loaded.task.decoder == "nonprojective"
    assert json.loads(loaded._payload_blocks()[0])["labels"] == []
    assert loaded.n_columns == 10
    assert loaded.payload() == model.payload()
    rebuilt = loaded.build_task()
    assert rebuilt.decoder == "nonprojective"
    a, _ = task.decode_corpus(model.weights, [task.compile(i) for i in instances[:5]])
    b, _ = rebuilt.decode_corpus(loaded.weights, [rebuilt.compile(i) for i in instances[:5]])
    assert a == b


@pytest.mark.parametrize(
    "decoder,single_root",
    [("projective", False), ("projective", True), ("nonprojective", True)],
)
def test_dependency_payload_round_trip(tmp_path, decoder, single_root):
    model, _, _ = trained_dependency_model(decoder=decoder, single_root=single_root)
    path = tmp_path / "m.mkl"
    model.save(str(path))
    loaded = Model.load(str(path))
    assert loaded.task.decoder == decoder and loaded.task.single_root is single_root
    assert loaded.payload() == model.payload()


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


def test_empty_alphabet_block_round_trips(tmp_path):
    # the transition group stores no strings; its empty block must survive a round trip
    model, _, _ = trained_sequence_model()
    m = len(model.task.group_ids)
    assert model._payload_blocks()[2 + m] == b""
    path = tmp_path / "m.mkl"
    model.save(str(path))
    loaded = Model.load(str(path))
    assert loaded._payload_blocks()[2 + m] == b""
    assert len(loaded.task.alphabets) == m - 1


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
    edit(blocks, len(model.task.group_ids))
    return signed(blocks)


def floats(values):
    return np.asarray(values, dtype="<f8").tobytes()


def test_short_observation_weight_block_is_a_format_error(seq_model):
    def edit(blocks, m):
        blocks[3 + m] = blocks[3 + m][:-8]

    with pytest.raises(ModelFormatError, match="U00.*weights, expected"):
        Model.read(io.BytesIO(with_blocks(seq_model, edit)))


def test_transition_block_must_hold_k_squared_weights(seq_model):
    k = seq_model.task.k
    assert seq_model.task.group_ids[-1] == "B" and seq_model.weights[-1].size == k * k

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


# ---------------------------------------------------------------- template and text blocks


@pytest.fixture(scope="module")
def predict_inputs(tmp_path_factory):
    """Unlabeled inputs for `mklsp predict`, one per task kind."""
    d = tmp_path_factory.mktemp("predict")
    rows = [" ".join(line.split()[:-1]) for line in sequence_text(3, seed=44).splitlines()]
    (d / "seq.txt").write_text("\n".join(rows) + "\n")
    (d / "dep.conll").write_text(dependency_text(3, seed=45))
    return d


def predict_exit_code(raw, kind, d):
    """Exit code of `mklsp predict` with the model file `raw`."""
    (d / "m.mkl").write_bytes(raw)
    data = d / ("seq.txt" if kind == "seq" else "dep.conll")
    return cli.main([
        "predict", "-m", str(d / "m.mkl"), "--data", str(data),
        "-o", str(d / "out.txt"), "--jobs", "1",
    ])


def with_template(model, text):
    def edit(blocks, m):
        blocks[1] = text

    return with_blocks(model, edit)


SEQ_LINES = SEQ_TEMPLATES.splitlines()[1:]  # U00..U03 and B, comment dropped
FAR = MAX_OFFSET + 1  # a few hundred signed bytes must not make a task pad sentences this far


@pytest.mark.parametrize(
    "text,match",
    [
        (b"U00:%x[0,0]", "defines groups"),
        (b"U00:%x[0,9]\nB", "column 9"),
        ("\n".join([*SEQ_LINES[:3], "U03:%x[0,9]", "B"]).encode(), "column 9"),
        ("\n".join([SEQ_LINES[1], SEQ_LINES[0], *SEQ_LINES[2:]]).encode(), "defines groups"),
        ("\n".join(SEQ_LINES[:4]).encode(), "defines groups"),
        ("\n".join(["B", *SEQ_LINES[:4]]).encode(), None),  # B's line may come first
        (b"U00 %x[0,0]", "template block"),
        (b"U00:%x[0,0]\n\xff", "not UTF-8"),
        ("\n".join([SEQ_LINES[0], f"U01:%x[-{FAR},0]", *SEQ_LINES[2:]]).encode(),
         f"line 2: offset -{FAR} is more than"),
    ],
    ids=["one-rule", "column-9-one-rule", "column-9", "swapped", "no-B", "B-first",
         "unparsable", "not-utf8", "offset-past-limit"],
)
def test_seq_template_block_must_define_exactly_the_groups(
    seq_model, predict_inputs, text, match
):
    raw = with_template(seq_model, text)
    if match is None:
        assert Model.read(io.BytesIO(raw)).template_text == text.decode()
        assert predict_exit_code(raw, "seq", predict_inputs) == 0
        return
    with pytest.raises(ModelFormatError, match=match):
        Model.read(io.BytesIO(raw))
    assert predict_exit_code(raw, "seq", predict_inputs) == 1


@pytest.mark.parametrize(
    "text,match",
    [
        (b"P00:head.CPOSTAG/mod.CPOSTAG", "defines groups"),
        (b"P01:head.FORM/mod.FORM\nP00:head.CPOSTAG/mod.CPOSTAG", "defines groups"),
        (b"P00:head.SHAPE\nP01:head.FORM", "template block"),
        (b"U00:%x[0,0]\nU01:%x[0,1]", "template block"),
        (b"P00:head.FORM\nP01:head.\xc3", "not UTF-8"),
        (f"P00:head.CPOSTAG/mod.CPOSTAG\nP01:head+{FAR}.FORM/mod.FORM".encode(),
         f"line 2: offset {FAR} is more than"),
    ],
    ids=["one-rule", "swapped", "bad-field", "seq-rules", "not-utf8", "offset-past-limit"],
)
def test_dep_template_block_must_define_exactly_the_groups(
    dep_model, predict_inputs, text, match
):
    raw = with_template(dep_model, text)
    with pytest.raises(ModelFormatError, match=match):
        Model.read(io.BytesIO(raw))
    assert predict_exit_code(raw, "dep", predict_inputs) == 1


@pytest.mark.parametrize("kind", ["seq", "dep"])
def test_alphabet_block_must_be_utf8(seq_model, dep_model, kind):
    def edit(blocks, m):
        blocks[3] += b"\n\xff\xfe"

    raw = with_blocks(seq_model if kind == "seq" else dep_model, edit)
    with pytest.raises(ModelFormatError, match="not UTF-8"):
        Model.read(io.BytesIO(raw))


@pytest.mark.parametrize(
    "key,value",
    [("task", "tree"), ("decoder", "greedy"), ("labels", ["L0", "L1", "L0"])],
)
def test_meta_value_out_of_range_is_a_format_error(seq_model, key, value):
    # repeated labels would load and then write every tag under one name
    raw = with_meta(seq_model, lambda meta: meta.__setitem__(key, value))
    with pytest.raises(ModelFormatError, match=key):
        Model.read(io.BytesIO(raw))


def test_read_rejects_misaligned_alphabets(seq_model):
    # an extra group in front shifts every alphabet off its template rule
    def edit(blocks, m):
        blocks[3 + m : 3 + m] = [floats(np.zeros(seq_model.task.k))]
        blocks[3:3] = [b"U00:x"]
        meta = json.loads(blocks[0])
        meta["groups"].insert(0, "U09")
        blocks[0] = json.dumps(meta).encode()

    with pytest.raises(ModelFormatError, match="defines groups"):
        Model.read(io.BytesIO(with_blocks(seq_model, edit)))


def test_build_task_returns_the_task_read(seq_model):
    model = Model.read(io.BytesIO(signed(seq_model._payload_blocks())))
    model.template_text = "not a template"  # read parsed it; build_task does not
    assert model.build_task() is model.task


@pytest.mark.parametrize("kind", ["seq", "dep"])
def test_alphabet_block_repeating_a_string_is_a_format_error(
    seq_model, dep_model, predict_inputs, capsys, kind
):
    def edit(blocks, m):  # the last string becomes the first; the size stays
        strings = blocks[3].split(b"\n")
        blocks[3] = b"\n".join([*strings[:-1], strings[0]])

    raw = with_blocks(seq_model if kind == "seq" else dep_model, edit)
    with pytest.raises(ModelFormatError, match="duplicate feature string"):
        Model.read(io.BytesIO(raw))
    capsys.readouterr()
    assert predict_exit_code(raw, kind, predict_inputs) == 1
    assert cli.main(["weights", "-m", str(predict_inputs / "m.mkl")]) == 1
    err = capsys.readouterr().err
    assert err.count("duplicate feature string") == 2 and "Traceback" not in err


def test_transition_block_holding_strings_is_a_format_error(seq_model):
    def edit(blocks, m):
        blocks[2 + m] = b"B:x"

    with pytest.raises(ModelFormatError, match="'B' interns no strings"):
        Model.read(io.BytesIO(with_blocks(seq_model, edit)))


# strings that no edge firing spells, each beside P00's own alphabet
DEAD_STRINGS = [
    "P01:R:1:N/V",  # another template's index
    "P00:X:1:N/V",  # a direction other than R or L
    "P00:R:x:N/V",  # a distance that is no number
    "P00:R:7:N/V",  # a number that is no distance bucket
    "P00:R:1:N",  # too few slashes for two selectors
    "P00:R:1",
    "P00",
    "",
]


def test_unparsable_alphabet_strings_are_dead_entries(dep_model, predict_inputs):
    # they load, fire nothing and leave every other feature as it was; a
    # string with more "/" than selectors fires for values that hold a "/"
    extra = [*DEAD_STRINGS, "P00:R:1:N/V/X"]

    def edit(blocks, m):
        blocks[3] = b"\n".join([blocks[3], *(s.encode() for s in extra)])
        blocks[3 + m] += floats(np.ones(len(extra)))

    raw = with_blocks(dep_model, edit)
    task = Model.read(io.BytesIO(raw)).task
    specs = task.extractor.specs
    alphabets = task.extractor.alphabets
    slashed = [("a", "a", "N", "N"), ("b", "b", "V/X", "V/X")]
    sentences = [i.tokens for i in load_dependency(dependency_text(3, seed=45))] + [slashed]
    for tokens in sentences:
        got = task.compile(DependencyInstance(tokens, None)).group_edges
        for group, ref in zip(got, compile_edges(specs, alphabets, tokens), strict=True):
            for a, b in zip(group, ref, strict=True):
                assert np.array_equal(a, b)
    u, v, f = task.compile(DependencyInstance(slashed, None)).group_edges[0]
    assert {(1, 2, alphabets[0].index("P00:R:1:N/V/X"))} <= set(zip(u, v, f))
    assert predict_exit_code(raw, "dep", predict_inputs) == 0


# strings beside each tagger group's own alphabet: dead ones, which no
# firing spells, and live ones that only their exact spelling fires
TAGGER_STRINGS = {
    "U00": ["U05:a", "U00a", "", "U00:x/y"],
    "U05": ["U00:a/b", "U05:a", "U05:_B-1", "U05:a/b/c", "U05:x:y/a"],
}


def test_hand_written_tagger_strings_match_only_their_own_spelling():
    text = "U00:%x[0,0]\nU05:%x[-1,0]/%x[0,0]\nB\n"
    table = LabelTable(["X"])
    table.freeze()
    trained = [SequenceInstance([("a",), ("b",)], [0, 0])]
    task = SequenceTask.build(parse_templates(text), trained, table)
    weights = [np.zeros(d) for d in task.group_dims]
    model = Model.from_sequence(task, text, 1, np.full(3, 1 / 3), weights)

    def edit(blocks, m):
        for j, extra in enumerate(TAGGER_STRINGS.values()):
            blocks[3 + j] = b"\n".join([blocks[3 + j], *(s.encode() for s in extra)])
            blocks[3 + m + j] += floats(np.ones(len(extra)))

    loaded = Model.read(io.BytesIO(with_blocks(model, edit))).task
    alphabets = [list(a) for a in loaded.alphabets]
    assert [a[-len(TAGGER_STRINGS[g]) :] for g, a in zip(TAGGER_STRINGS, alphabets)] == list(
        TAGGER_STRINGS.values()
    )
    fired = set()
    for words in ["a b", "a/b c", "a b/c", "x/y", "x:y a", "U05:a", "_B-1", "a b c"]:
        tokens = [(w,) for w in words.split()]
        feats = loaded.compile(SequenceInstance(tokens)).feats
        for spec, strings, ids in zip(loaded.specs, alphabets, feats, strict=True):
            want = [reference_instantiate(spec, tokens, t) for t in range(len(tokens))]
            assert [strings[i] if i >= 0 else None for i in ids.tolist()] == [
                s if s in strings else None for s in want
            ]
            fired.update(strings[i] for i in ids.tolist() if i >= 0)
    # each live hand-written string fired, no dead one did
    assert {"U00:x/y", "U05:a/b/c", "U05:x:y/a"} <= fired
    assert not fired & {"U05:a", "U00a", "", "U00:a/b", "U05:_B-1"}


# ---------------------------------------------------------------- fuzzing

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
EXTRA_RULES = ["U09:%x[0,7]", "U04:%x[-2,1]", "P00:head.FORM", "P02:between.POSTAG", "B", "U00"]


def mutate(blocks, meta, template_lines, draw):
    """`blocks` with one random defect: a block truncated, a byte flipped, a
    block deleted or duplicated, one meta value or the template text replaced."""
    blocks = list(blocks)
    j = draw(st.integers(0, len(blocks) - 1))
    kind = draw(st.sampled_from(["truncate", "flip", "delete", "duplicate", "meta", "template"]))
    if kind == "truncate":
        blocks[j] = blocks[j][: draw(st.integers(0, max(len(blocks[j]) - 1, 0)))]
    elif kind == "flip" and blocks[j]:
        i = draw(st.integers(0, len(blocks[j]) - 1))
        flipped = blocks[j][i] ^ draw(st.integers(1, 255))
        blocks[j] = blocks[j][:i] + bytes([flipped]) + blocks[j][i + 1 :]
    elif kind == "delete":
        del blocks[j]
    elif kind == "duplicate":
        blocks.insert(j, blocks[j])
    elif kind == "meta":
        words = [*meta["groups"], *meta["labels"], "seq", "dep", "projective", "nonprojective"]
        value = draw(JSON_VALUES | st.sampled_from(words) | st.lists(st.sampled_from(words)))
        blocks[0] = json.dumps({**meta, draw(st.sampled_from(sorted(meta))): value}).encode()
    elif kind == "template":
        lines = st.lists(st.sampled_from([*template_lines, *EXTRA_RULES]), max_size=6)
        blocks[1] = draw(lines.map("\n".join) | st.text(max_size=20)).encode()
    return blocks


@pytest.mark.parametrize("kind", ["seq", "dep"])
@given(data=st.data())
def test_mutated_model_is_rejected_or_runs(seq_model, dep_model, predict_inputs, kind, data):
    model = seq_model if kind == "seq" else dep_model
    blocks = model._payload_blocks()
    lines = model.template_text.splitlines()
    raw = signed(mutate(blocks, json.loads(blocks[0]), lines, data.draw))
    try:
        Model.read(io.BytesIO(raw))
    except ModelFormatError:
        return
    assert predict_exit_code(raw, kind, predict_inputs) in (0, 1)
    assert cli.main(["weights", "-m", str(predict_inputs / "m.mkl")]) in (0, 1)
