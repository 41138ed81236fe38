import numpy as np
import pytest
from hypothesis import given, strategies as st

from mklsp.corpus import LabelTable, SequenceInstance
from mklsp.templates import (
    OBSERVATION,
    TRANSITION,
    FeatureAlphabet,
    TemplateError,
    boundary_symbol,
    index_corpus,
    instantiate,
    instantiate_all,
    parse_templates,
    validate_columns,
)

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
    assert instantiate(spec, TOKENS, 1) == "U01:John"


def test_instantiate_left_boundary():
    (spec,) = parse_templates("U01:%x[-1,0]")
    assert instantiate(spec, TOKENS, 0) == "U01:_B-1"


def test_instantiate_right_boundary():
    (spec,) = parse_templates("U06:%x[0,0]/%x[1,0]")
    assert instantiate(spec, TOKENS, 2) == "U06:ball/_B+1"


def test_instantiate_total_over_positions():
    specs = parse_templates("U07:%x[-2,0]/%x[2,0]")
    for t in range(3):
        s = instantiate(specs[0], TOKENS, t)
        assert s.startswith("U07:")


@given(
    st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xyz")), max_size=6),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 1)), min_size=1, max_size=3),
)
def test_instantiate_all_matches_per_position(tokens, macros):
    body = "/".join(f"%x[{row},{col}]" for row, col in macros)
    (spec,) = parse_templates(f"U09:{body}")
    assert instantiate_all(spec, tokens) == [
        instantiate(spec, tokens, t) for t in range(len(tokens))
    ]


@given(st.lists(st.sampled_from("abcd"), max_size=8), st.lists(st.sampled_from("abcde")))
def test_batch_intern_and_lookup_match_one_at_a_time(first, second):
    one, batch = FeatureAlphabet("U00"), FeatureAlphabet("U00")
    for s in first:
        one.intern(s)
    batch.intern_all(first)
    assert batch.strings() == one.strings()
    ids = batch.lookup_all(second)
    assert ids.dtype == np.int64
    assert ids.tolist() == [-1 if one.lookup(s) is None else one.lookup(s) for s in second]


def test_validate_columns():
    specs = parse_templates("U00:%x[0,2]")
    validate_columns(specs, 3)
    with pytest.raises(TemplateError, match="column 2"):
        validate_columns(specs, 2)


def test_index_corpus_single_instantiation():
    specs = parse_templates("U02:%x[0,0]")
    (alphabet,) = index_corpus(specs, make_corpus([["a"]]))
    assert len(alphabet) == 1
    assert alphabet.frozen


def test_index_corpus_set_semantics():
    specs = parse_templates("U02:%x[0,0]")
    one = index_corpus(specs, make_corpus([["a", "b"]]))
    two = index_corpus(specs, make_corpus([["a", "b"], ["b", "a"]]))
    assert one[0].strings() == two[0].strings()


def test_index_corpus_distinct_values_count():
    specs = parse_templates("U02:%x[0,0]")
    corpus = make_corpus([["a", "b", "c"], ["d", "e"]])
    (alphabet,) = index_corpus(specs, corpus)
    assert len(alphabet) == 5


def test_index_corpus_first_seen_order():
    specs = parse_templates("U02:%x[0,0]")
    (alphabet,) = index_corpus(specs, make_corpus([["b", "a"], ["c", "a"]]))
    assert alphabet.strings() == ["U02:b", "U02:a", "U02:c"]


def test_frozen_alphabet_rejects_new():
    a = FeatureAlphabet("U00", ["U00:x"], frozen=True)
    assert a.lookup("U00:x") == 0
    assert a.lookup("U00:y") is None
    with pytest.raises(ValueError, match="frozen"):
        a.intern("U00:y")
    a.intern_all(["U00:x"])
    with pytest.raises(ValueError, match="frozen"):
        a.intern_all(["U00:x", "U00:y"])
    assert a.strings() == ["U00:x"]


def test_feature_strings_embed_template_index():
    # with the index prefixed, cross-group strings never collide, so the
    # total distinct count is exactly the sum of group sizes
    specs = parse_templates("U00:%x[0,0]\nU01:%x[0,0]")
    corpus = make_corpus([["a", "b", "a"]])
    alphabets = index_corpus(specs, corpus)
    all_strings = [s for a in alphabets for s in a.strings()]
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
