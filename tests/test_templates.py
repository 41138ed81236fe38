import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mklsp.corpus import LabelTable, SequenceInstance
from mklsp.dependency import parse_edge_templates
from mklsp.model import MAGIC, Model
from mklsp.sequence import SequenceTask
from mklsp.templates import (
    MAX_OFFSET,
    OBSERVATION,
    TRANSITION,
    TemplateError,
    boundary_symbol,
    index_corpus,
    parse_templates,
    validate_columns,
)

from _oracles import instantiate_all, reference_instantiate

TOKENS = [("John",), ("hit",), ("ball",)]


def make_corpus(sentences):
    table = LabelTable()
    return [
        SequenceInstance([(w,) for w in words], [table.intern("X")] * len(words))
        for words in sentences
    ]


def test_parse_unigram():
    (spec,) = parse_templates("U02:%x[0,0]")
    assert spec.index == "U02"
    assert spec.kind == OBSERVATION
    assert spec.macros == ((0, 0),)


def test_parse_multi_macro():
    (spec,) = parse_templates("U05:%x[-2,0]/%x[-1,0]/%x[0,0]")
    assert spec.macros == ((-2, 0), (-1, 0), (0, 0))


def test_parse_transition():
    (spec,) = parse_templates("B")
    assert spec.kind == TRANSITION
    assert spec.macros == ()


def test_comments_and_blanks_skipped():
    specs = parse_templates("# header\n\nU00:%x[0,0]\n   \n# tail\nB\n")
    assert [s.index for s in specs] == ["U00", "B"]


def test_duplicate_index_rejected():
    with pytest.raises(TemplateError, match="U00"):
        parse_templates("U00:%x[0,0]\nU00:%x[1,0]")


def test_observation_rule_may_not_use_the_transition_index():
    with pytest.raises(TemplateError, match="line 1: index 'B'"):
        parse_templates("B:%x[0,0]\nU01:%x[0,1]")
    with pytest.raises(TemplateError, match="line 2: index 'B'"):
        parse_templates("U00:%x[0,0]\nB:%x[-1,0]/%x[0,0]")


def test_duplicate_transition_rejected():
    with pytest.raises(TemplateError):
        parse_templates("B\nB")


@pytest.mark.parametrize("line", ["U00:%x[0]", "U00:%x[a,0]", "U00:x[0,0]", "U00:", ":%x[0,0]"])
def test_malformed_macro_rejected(line):
    with pytest.raises(TemplateError):
        parse_templates(line)


def test_offsets_beyond_the_limit_are_rejected():
    # every sentence is padded as far as the largest offset reaches, so an
    # unbounded one would exhaust memory before any feature is read
    specs = parse_templates(f"U00:%x[{MAX_OFFSET},0]\nU01:%x[-{MAX_OFFSET},0]/%x[0,0]")
    assert [s.macros[0][0] for s in specs] == [MAX_OFFSET, -MAX_OFFSET]
    for offset in (MAX_OFFSET + 1, -MAX_OFFSET - 1, 10**20):
        with pytest.raises(TemplateError, match=f"line 2: offset {offset} is more than"):
            parse_templates(f"U00:%x[0,0]\nU01:%x[0,0]/%x[{offset},0]")


def test_file_order_preserved():
    specs = parse_templates("U10:%x[0,0]\nU02:%x[1,0]\nB\nU00:%x[0,0]/%x[1,0]")
    assert [s.index for s in specs] == ["U10", "U02", "B", "U00"]


def test_boundary_symbols():
    assert boundary_symbol(-1, 3) == "_B-1"
    assert boundary_symbol(-2, 3) == "_B-2"
    assert boundary_symbol(3, 3) == "_B+1"
    assert boundary_symbol(4, 3) == "_B+2"
    assert boundary_symbol(0, 3) is None
    assert boundary_symbol(2, 3) is None


def test_instantiate_inside():
    (spec,) = parse_templates("U01:%x[-1,0]")
    assert reference_instantiate(spec, TOKENS, 1) == "U01:John"
    assert instantiate_all(spec, TOKENS)[1] == "U01:John"


def test_instantiate_left_boundary():
    (spec,) = parse_templates("U01:%x[-1,0]")
    assert reference_instantiate(spec, TOKENS, 0) == "U01:_B-1"
    assert instantiate_all(spec, TOKENS)[0] == "U01:_B-1"


def test_instantiate_right_boundary():
    (spec,) = parse_templates("U06:%x[0,0]/%x[1,0]")
    assert reference_instantiate(spec, TOKENS, 2) == "U06:ball/_B+1"
    assert instantiate_all(spec, TOKENS)[2] == "U06:ball/_B+1"


def test_instantiate_total_over_positions():
    specs = parse_templates("U07:%x[-2,0]/%x[2,0]")
    for t in range(3):
        s = reference_instantiate(specs[0], TOKENS, t)
        assert s.startswith("U07:")


@given(
    st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xyz")), max_size=6),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 1)), min_size=1, max_size=3),
)
def test_instantiate_all_matches_per_position(tokens, macros):
    body = "/".join(f"%x[{row},{col}]" for row, col in macros)
    (spec,) = parse_templates(f"U09:{body}")
    assert instantiate_all(spec, tokens) == [
        reference_instantiate(spec, tokens, t) for t in range(len(tokens))
    ]


def test_validate_columns():
    specs = parse_templates("U00:%x[0,2]")
    validate_columns(specs, 3)
    with pytest.raises(TemplateError, match="column 2"):
        validate_columns(specs, 2)


def test_index_corpus_single_instantiation():
    specs = parse_templates("U02:%x[0,0]")
    (alphabet,) = index_corpus(specs, make_corpus([["a"]]))
    # plain read-only data: nothing can add a string once indexing is done
    assert alphabet == ("U02:a",) and isinstance(alphabet, tuple)


def test_index_corpus_set_semantics():
    specs = parse_templates("U02:%x[0,0]")
    one = index_corpus(specs, make_corpus([["a", "b"]]))
    two = index_corpus(specs, make_corpus([["a", "b"], ["b", "a"]]))
    assert one[0] == two[0]


def test_index_corpus_distinct_values_count():
    specs = parse_templates("U02:%x[0,0]")
    corpus = make_corpus([["a", "b", "c"], ["d", "e"]])
    (alphabet,) = index_corpus(specs, corpus)
    assert len(alphabet) == 5


def test_index_corpus_first_seen_order():
    specs = parse_templates("U02:%x[0,0]")
    (alphabet,) = index_corpus(specs, make_corpus([["b", "a"], ["c", "a"]]))
    assert alphabet == ("U02:b", "U02:a", "U02:c")


def test_feature_strings_embed_template_index():
    # with the index prefixed, cross-group strings never collide, so the
    # total distinct count is exactly the sum of group sizes
    specs = parse_templates("U00:%x[0,0]\nU01:%x[0,0]")
    corpus = make_corpus([["a", "b", "a"]])
    alphabets = index_corpus(specs, corpus)
    all_strings = [s for a in alphabets for s in a]
    assert len(set(all_strings)) == sum(len(a) for a in alphabets)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=-3, max_value=3))
def test_boundary_symbol_total(length, offset):
    for t in range(length):
        pos = t + offset
        sym = boundary_symbol(pos, length)
        if 0 <= pos < length:
            assert sym is None
        elif pos < 0:
            assert sym == f"_B{pos}"
        else:
            assert sym == f"_B+{pos - length + 1}"


# values a feature string cannot tell apart from its own syntax: the "/"
# that joins macro values, the ":" after the index, look-alikes of the
# boundary sentinels, and the empty value
TRICKY = st.sampled_from(["a/b", "b/c", "/", ":", "x:y", "_B-1", "_B+1", ""])
TOKEN = st.tuples(st.sampled_from("abc") | TRICKY, st.sampled_from("bc") | TRICKY)
SENTENCE = st.lists(TOKEN, min_size=1, max_size=5)
# offsets reach past either end of a sentence, and a rule may repeat a macro
MACRO = st.tuples(st.integers(-6, 6), st.integers(0, 1)).map(lambda m: "%x[{},{}]".format(*m))


@st.composite
def template_text(draw):
    rules = [
        f"U{j}:" + "/".join(draw(st.lists(MACRO, min_size=1, max_size=3)))
        for j in range(draw(st.integers(1, 3)))
    ]
    return "\n".join(rules)


def reference_alphabets(specs, corpus):
    """Per template, its strings in the order first seen over (sentence, position)."""
    return [
        list(
            dict.fromkeys(
                reference_instantiate(spec, tokens, t)
                for tokens in corpus
                for t in range(len(tokens))
            )
        )
        for spec in specs
    ]


def check_index_and_compile(text, corpus, unseen):
    """`index_corpus` interns the reference alphabets and `compile` fires the
    ids of the reference strings, on the corpus and on unseen sentences."""
    specs = parse_templates(text)
    table = LabelTable(["X"])
    instances = [SequenceInstance(tokens, [0] * len(tokens)) for tokens in corpus]
    alphabets = reference_alphabets(specs, corpus)
    assert [list(a) for a in index_corpus(specs, instances)] == alphabets
    task = SequenceTask.build(specs, instances, table)
    ids = [{s: i for i, s in enumerate(alphabet)} for alphabet in alphabets]
    for tokens in [*corpus, *unseen]:
        want = [
            [known.get(reference_instantiate(spec, tokens, t), -1) for t in range(len(tokens))]
            for spec, known in zip(specs, ids)
        ]
        feats = task.compile(SequenceInstance(tokens)).feats
        assert all(f.dtype == np.int64 for f in feats)
        assert [f.tolist() for f in feats] == want
    return task


@given(st.lists(SENTENCE, min_size=1, max_size=3), st.lists(SENTENCE, max_size=2), template_text())
def test_index_and_compile_match_per_position_reference(corpus, unseen, text):
    check_index_and_compile(text, corpus, unseen)


def test_values_holding_a_slash_match_by_string():
    # a feature is its string, so forms (a/b, c) and (a, b/c) fire the same
    # two-macro feature "U05:a/b/c"
    task = check_index_and_compile(
        "U05:%x[-1,0]/%x[0,0]", [[("a/b",), ("c",)]], [[("a",), ("b/c",)], [("a/b/c",)]]
    )
    strings = task.alphabets[0]
    assert "U05:a/b/c" in strings
    (f,) = task.compile(SequenceInstance([("a",), ("b/c",)])).feats
    assert [strings[i] if i >= 0 else None for i in f.tolist()] == [None, "U05:a/b/c"]


def read_back(task, text):
    """The task of `task`'s model as `Model.read` rebuilds it from the saved bytes."""
    m = len(task.group_ids)
    model = Model.from_sequence(
        task, text, 2, np.full(m, 1.0 / m), [np.zeros(d) for d in task.group_dims]
    )
    payload = model.payload()
    header = f"{MAGIC}\nchecksum={hashlib.sha256(payload).hexdigest()}\n\n".encode("ascii")
    return Model.read(io.BytesIO(header + payload)).task


@given(st.lists(SENTENCE, min_size=1, max_size=3), st.lists(SENTENCE, max_size=2), template_text())
def test_read_task_compiles_like_the_built_task(corpus, unseen, text):
    task = check_index_and_compile(text, corpus, unseen)
    loaded = read_back(task, text)
    for tokens in [*corpus, *unseen]:
        a, b = task.compile(SequenceInstance(tokens)), loaded.compile(SequenceInstance(tokens))
        assert a.feats.dtype == b.feats.dtype and a.feats.shape == b.feats.shape
        assert np.array_equal(a.feats, b.feats)


# Framing: comments, blank and whitespace-only lines are skipped, CRLF reads
# like LF, a final newline is optional, and errors name the same line.
TEMPLATES_FRAMED = "# tagger\n\n  \nU00:%x[0,0]\n\t\n\n# pair\n U01:%x[-1,0]/%x[0,1] \nB"
EDGE_TEMPLATES_FRAMED = "\n# parser\nP00:head.FORM\n \n\nP01:head.POSTAG/between.POSTAG/mod.POSTAG"


@pytest.mark.parametrize(
    "parse,text,indices",
    [
        (parse_templates, TEMPLATES_FRAMED, ["U00", "U01", "B"]),
        (parse_edge_templates, EDGE_TEMPLATES_FRAMED, ["P00", "P01"]),
    ],
)
def test_template_framing_is_read_alike(parse, text, indices):
    specs = parse(text)
    assert [s.index for s in specs] == indices
    assert parse(text.replace("\n", "\r\n")) == specs
    assert parse(text + "\n") == specs


@pytest.mark.parametrize(
    "parse,text,message",
    [
        # a repeated index on a line whose body is malformed
        (parse_templates, "U00:%x[0,0]\n\n# c\nU00:%x[0]", "line 4: malformed macro '%x[0]'"),
        (parse_templates, "U00:%x[0,0]\nU00:%x[0,0]/%x[101,0]",
         "line 2: offset 101 is more than 100 away"),
        (parse_templates, "B\n \nB:%x[0,0]", "line 3: index 'B' is reserved for transitions"),
        (parse_templates, "B\nU00:%x[0,0]\nB", "line 3: duplicate template index 'B'"),
        (parse_templates, "U00:%x[0,0]\nU01", "line 2: expected 'Index:%x[row,col]/...' or 'B', "
                                             "got 'U01'"),
        (parse_edge_templates, "P00:head.FORM\n# c\nP00:head.SHAPE",
         "line 3: malformed selector 'head.SHAPE'"),
        (parse_edge_templates, "P00:head.FORM\nP00:between+1.FORM",
         "line 2: 'between' takes no offset"),
        (parse_edge_templates, "P00:head.FORM\n\nP00:mod.FORM", "line 3: duplicate template index 'P00'"),
        (parse_edge_templates, "B", "line 1: expected 'Index:selector/...', got 'B'"),
    ],
)
def test_template_errors_keep_their_line_and_order(parse, text, message):
    for framed in (text, text.replace("\n", "\r\n")):
        with pytest.raises(TemplateError) as err:
            parse(framed)
        assert str(err.value) == message
