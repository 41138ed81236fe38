"""Scheme codecs and the three evaluation reports, pinned on hand-worked
examples small enough to count by eye."""

from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from mklsp.corpus import DependencyInstance, LabelTable, SequenceInstance
from mklsp.metrics import (
    LabelCodec,
    bie_segments,
    bio_entities,
    build_segmentation_vocabulary,
    evaluate_dependency,
    evaluate_sequence,
    prf,
)


def seq(chars, tags, table):
    return SequenceInstance([(c,) for c in chars], [table.intern(t) for t in tags])


def dep(heads):
    toks = [(f"w{i}", "_", "N", "N") for i in range(len(heads))]
    return DependencyInstance(toks, list(heads))


# ---------------------------------------------------------------- bie spans


def test_bie_segments_basic():
    assert bie_segments(["B", "E", "B"]) == [(0, 1), (2, 2)]
    assert bie_segments(["B", "I", "E"]) == [(0, 2)]
    assert bie_segments(["B"]) == [(0, 0)]
    assert bie_segments([]) == []


def test_bie_segments_lenient_on_illformed_tags():
    # an I or E with no open word starts one; trailing open words close at
    # the end; B after B closes the previous word
    assert bie_segments(["I", "E"]) == [(0, 1)]
    assert bie_segments(["E", "B", "B"]) == [(0, 0), (1, 1), (2, 2)]
    assert bie_segments(["B", "I"]) == [(0, 1)]
    assert bie_segments(["E", "I", "I"]) == [(0, 0), (1, 2)]


def test_bie_segments_rejects_foreign_tag():
    with pytest.raises(ValueError, match="B/I/E"):
        bie_segments(["B", "O"])


# the round trip below encodes its partitions with this
def bie_encode(spans: Sequence[tuple[int, int]], length: int) -> list[str]:
    """Tags for a segmentation; spans must partition [0, length)."""
    tags: list[str] = []
    expect = 0
    for s, e in spans:
        if s != expect or e < s:
            raise ValueError(f"spans do not partition the sentence at {s}..{e}")
        if e == s:
            tags.append("B")
        else:
            tags.extend(["B"] + ["I"] * (e - s - 1) + ["E"])
        expect = e + 1
    if expect != length:
        raise ValueError(f"spans cover {expect} of {length} positions")
    return tags


def test_bie_encode_fixtures():
    assert bie_encode([(0, 1), (2, 2)], 3) == ["B", "E", "B"]
    assert bie_encode([(0, 2)], 3) == ["B", "I", "E"]
    assert bie_encode([(0, 0)], 1) == ["B"]
    assert bie_encode([], 0) == []


@pytest.mark.parametrize(
    "spans,length",
    [
        ([(0, 0), (2, 2)], 3),  # gap
        ([(0, 1), (1, 2)], 3),  # overlap
        ([(0, 0)], 2),  # short
        ([(1, 1)], 2),  # does not start at 0
    ],
)
def test_bie_encode_rejects_non_partitions(spans, length):
    with pytest.raises(ValueError):
        bie_encode(spans, length)


@st.composite
def partitions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    inner = st.sets(st.integers(min_value=1, max_value=n - 1)) if n > 1 else st.just(set())
    cuts = sorted(draw(inner) | {0, n})
    return [(s, e - 1) for s, e in zip(cuts, cuts[1:])], n


@given(partitions())
def test_bie_round_trip(case):
    spans, n = case
    assert bie_segments(bie_encode(spans, n)) == spans


# ---------------------------------------------------------------- bio chunks


def test_bio_entities_basic():
    tags = ["B-PER", "I-PER", "O", "B-LOC"]
    assert bio_entities(tags) == [("PER", 0, 1), ("LOC", 3, 3)]
    assert bio_entities(["O", "O"]) == []
    assert bio_entities(["B-X"]) == [("X", 0, 0)]


def test_bio_entities_continuation_rules():
    # I without a matching open chunk starts one
    assert bio_entities(["O", "I-PER"]) == [("PER", 1, 1)]
    # changing type inside an I run splits the chunk
    assert bio_entities(["B-PER", "I-LOC"]) == [("PER", 0, 0), ("LOC", 1, 1)]
    # B-X immediately after X closes and reopens
    assert bio_entities(["B-X", "B-X"]) == [("X", 0, 0), ("X", 1, 1)]


def test_bio_entities_rejects_foreign_tag():
    with pytest.raises(ValueError, match="BIO"):
        bio_entities(["B"])


# ---------------------------------------------------------------- prf


def test_prf_zero_denominators():
    assert prf(0, 0, 0) == prf(0, 0, 0)
    assert prf(0, 0, 0).f1 == 0.0
    assert prf(3, 0, 0).precision == 0.0
    assert prf(0, 3, 0).recall == 0.0


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.data(),
)
def test_prf_harmonic_mean(n_gold, n_pred, data):
    n_correct = data.draw(st.integers(min_value=0, max_value=min(n_gold, n_pred)))
    out = prf(n_gold, n_pred, n_correct)
    assert 0.0 <= out.precision <= 1.0 and 0.0 <= out.recall <= 1.0
    if out.precision == 0.0 or out.recall == 0.0:
        assert out.f1 == 0.0
    else:
        expect = 2 * out.precision * out.recall / (out.precision + out.recall)
        assert out.f1 == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------- word segmentation


def seg_case():
    table = LabelTable()
    gold = seq("abc", ["B", "E", "B"], table)  # words ab | c
    pred_tags = ["B", "B", "E"]  # words a | bc
    pred = [table.intern(t) for t in pred_tags]
    return table, gold, pred


def test_segmentation_all_words_shifted_scores_zero():
    table, gold, pred = seg_case()
    rep = evaluate_sequence([gold], [pred], LabelCodec("bie", table))
    assert rep.word.precision == 0.0
    assert rep.word.recall == 0.0
    assert rep.word.f1 == 0.0
    assert rep.token_accuracy == pytest.approx(1 / 3)
    assert rep.riv is None


def test_segmentation_identity_scores_one():
    table, gold, _ = seg_case()
    rep = evaluate_sequence([gold], [gold.labels], LabelCodec("bie", table))
    assert rep.word.precision == 1.0 and rep.word.recall == 1.0 and rep.word.f1 == 1.0
    assert rep.token_accuracy == 1.0


def test_segmentation_riv_counts_in_vocabulary_words_only():
    table, gold, pred = seg_case()
    codec = LabelCodec("bie", table)
    rep = evaluate_sequence([gold], [pred], codec, vocabulary={"ab"})
    assert rep.riv == 0.0 and rep.n_iv_gold == 1 and rep.n_iv_correct == 0
    rep = evaluate_sequence([gold], [gold.labels], codec, vocabulary={"ab"})
    assert rep.riv == 1.0 and rep.n_iv_gold == 1 and rep.n_iv_correct == 1
    # "c" is out of vocabulary, so a perfect parse still has n_iv == 1
    rep = evaluate_sequence([gold], [gold.labels], codec, vocabulary=set())
    assert rep.riv == 0.0 and rep.n_iv_gold == 0


def test_segmentation_riv_requires_vocabulary():
    table, gold, _ = seg_case()
    rep = evaluate_sequence([gold], [gold.labels], LabelCodec("bie", table))
    assert rep.riv is None and rep.n_iv_gold == 0 and rep.n_iv_correct == 0


def test_build_segmentation_vocabulary():
    table = LabelTable()
    insts = [seq("abc", ["B", "E", "B"], table), seq("ab", ["B", "E"], table)]
    assert build_segmentation_vocabulary(insts, LabelCodec("bie", table)) == {"ab", "c"}


# ---------------------------------------------------------------- entities


def entity_case():
    table = LabelTable()
    gold = seq("wxyz", ["B-PER", "I-PER", "O", "O"], table)
    return table, gold


def test_entity_boundary_error_scores_zero():
    table, gold = entity_case()
    pred = [table.intern(t) for t in ["B-PER", "O", "O", "O"]]
    rep = evaluate_sequence([gold], [pred], LabelCodec("bio", table))
    assert rep.overall.precision == 0.0
    assert rep.overall.recall == 0.0
    assert rep.overall.f1 == 0.0


def test_entity_extra_prediction_halves_precision():
    table, gold = entity_case()
    pred = [table.intern(t) for t in ["B-PER", "I-PER", "O", "B-LOC"]]
    rep = evaluate_sequence([gold], [pred], LabelCodec("bio", table))
    assert rep.overall.precision == pytest.approx(0.5)
    assert rep.overall.recall == pytest.approx(1.0)
    assert rep.overall.f1 == pytest.approx(2 / 3)
    assert rep.per_type["PER"].f1 == 1.0
    assert rep.per_type["LOC"].n_gold == 0 and rep.per_type["LOC"].n_pred == 1
    assert rep.per_type["LOC"].f1 == 0.0


def test_entity_identity_scores_one():
    table, gold = entity_case()
    rep = evaluate_sequence([gold], [gold.labels], LabelCodec("bio", table))
    assert rep.overall.f1 == 1.0
    assert rep.per_type == {"PER": rep.per_type["PER"]}
    assert rep.per_type["PER"].n_gold == 1


# ---------------------------------------------------------------- raw / errors


def test_raw_scheme_reports_token_accuracy_only():
    table = LabelTable()
    gold = seq("ab", ["X", "Y"], table)
    pred = [table.intern(t) for t in ["X", "X"]]
    rep = evaluate_sequence([gold], [pred], LabelCodec("raw", table))
    assert rep.token_accuracy == pytest.approx(0.5)
    assert rep.n_tokens == 2 and rep.n_correct == 1


def test_codec_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="scheme"):
        LabelCodec("iobes", LabelTable())


def test_evaluate_sequence_shape_errors():
    table = LabelTable()
    gold = seq("ab", ["X", "Y"], table)
    codec = LabelCodec("raw", table)
    with pytest.raises(ValueError, match="gold sentences"):
        evaluate_sequence([gold], [], codec)
    with pytest.raises(ValueError, match="length"):
        evaluate_sequence([gold], [[0]], codec)
    unlabeled = SequenceInstance([("a",)])
    with pytest.raises(ValueError, match="labeled"):
        evaluate_sequence([unlabeled], [[0]], codec)


# ---------------------------------------------------------------- trees


def test_dependency_three_of_four_heads():
    rep = evaluate_dependency([dep([0, 1, 1, 3])], [[0, 1, 1, 2]])
    assert rep.accuracy == pytest.approx(0.75)
    assert rep.complete == 0.0
    assert rep.n_tokens == 4 and rep.n_correct_heads == 3


def test_dependency_complete_counts_whole_sentences():
    gold = [dep([0, 1]), dep([2, 0])]
    pred = [[0, 1], [1, 2]]  # first exact, second fully wrong
    rep = evaluate_dependency(gold, pred)
    assert rep.accuracy == pytest.approx(0.5)
    assert rep.complete == pytest.approx(0.5)
    assert rep.n_complete == 1 and rep.n_sentences == 2


def test_dependency_identity():
    gold = [dep([0, 1, 2]), dep([2, 0, 2])]
    rep = evaluate_dependency(gold, [g.heads for g in gold])
    assert rep.accuracy == 1.0 and rep.complete == 1.0


def test_dependency_shape_errors():
    with pytest.raises(ValueError, match="gold sentences"):
        evaluate_dependency([dep([0])], [])
    with pytest.raises(ValueError, match="length"):
        evaluate_dependency([dep([0, 1])], [[0]])
    bare = DependencyInstance([("w", "_", "N", "N")], None)
    with pytest.raises(ValueError, match="HEAD"):
        evaluate_dependency([bare], [[0]])


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6), st.data())
def test_dependency_complete_iff_every_head_right(gold_heads, data):
    pred = [
        data.draw(st.integers(min_value=0, max_value=3)) for _ in gold_heads
    ]
    rep = evaluate_dependency([dep(gold_heads)], [pred])
    assert (rep.complete == 1.0) == (rep.accuracy == 1.0)
    assert (rep.complete == 1.0) == (pred == gold_heads)
