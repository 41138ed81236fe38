"""Edge templates, tree decoders against exhaustive search, validators, and
the parsing task protocol."""

import inspect
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mklsp.corpus import DependencyInstance
from mklsp.dependency import (
    FIELDS,
    DependencyTask,
    augment,
    cle_decode,
    decode_single_root,
    default_edge_templates,
    distance_bucket,
    eisner_decode,
    instantiate_edge,
    instantiate_edges,
    is_arborescence,
    is_projective,
    parent_loss,
    parse_edge_templates,
)
from mklsp.synthetic import dependency_text, load_dependency
from mklsp.templates import TemplateError

from _oracles import (
    candidate_edges,
    compile_edges,
    edge_alphabets,
    feature_counts,
    reference_cle_decode,
    reference_edge_scores,
    reference_eisner_decode,
    reference_joint_feature_map,
    reference_single_root,
    tree_best,
    tree_tables,
    valid_arborescence,
    valid_projective,
)


def toy_sentence():
    toks = [("the", "the", "D", "DT"), ("dog", "dog", "N", "NN"), ("ran", "run", "V", "VB")]
    return DependencyInstance(toks, [2, 3, 0])


# ---------------------------------------------------------------- templates


def test_parse_edge_templates():
    specs = parse_edge_templates("P00:head.FORM\nP01:mod-1.CPOSTAG/between.CPOSTAG\n")
    assert [s.index for s in specs] == ["P00", "P01"]
    a, b = specs[0].selectors, specs[1].selectors
    assert (a[0].anchor, a[0].offset, a[0].column) == ("head", 0, 0)
    assert (b[0].anchor, b[0].offset) == ("mod", -1)
    assert specs[1].between_column == 2
    assert specs[0].between_column is None


@pytest.mark.parametrize(
    "text,match",
    [
        ("P00:head.FORM\nP00:mod.FORM", "duplicate"),
        ("P00:between.CPOSTAG/between.CPOSTAG", "at most one"),
        ("P00:between+1.CPOSTAG", "no offset"),
        ("P00:head.SHAPE", "malformed"),
        ("P00 head.FORM", "expected"),
        ("P00:head+1", "malformed"),
    ],
)
def test_parse_edge_templates_errors(text, match):
    with pytest.raises(TemplateError, match=match):
        parse_edge_templates(text)


def test_default_edge_templates_parse():
    specs = parse_edge_templates(default_edge_templates())
    assert len(specs) >= 10
    assert len({s.index for s in specs}) == len(specs)
    assert any(s.between_column is not None for s in specs)


def test_distance_buckets():
    assert [distance_bucket(d) for d in [1, 2, 3, 4]] == [1, 2, 3, 4]
    assert distance_bucket(5) == 5 and distance_bucket(7) == 5 and distance_bucket(9) == 5
    assert distance_bucket(10) == 10 and distance_bucket(12) == 10 and distance_bucket(40) == 10


def test_instantiate_edge_embeds_direction_and_distance():
    toks = augment(toy_sentence().tokens)
    (spec,) = parse_edge_templates("P00:head.CPOSTAG/mod.CPOSTAG")
    assert instantiate_edge(spec, toks, 3, 2) == ["P00:L:1:V/N"]
    assert instantiate_edge(spec, toks, 0, 3) == ["P00:R:3:<root>/V"]


def test_instantiate_edge_boundary_symbols():
    toks = augment(toy_sentence().tokens)
    (spec,) = parse_edge_templates("P00:mod+1.FORM")
    assert instantiate_edge(spec, toks, 0, 3) == ["P00:R:3:_B+1"]


def test_between_features_one_per_distinct_value():
    toks = augment(
        [("a", "a", "X", "X"), ("b", "b", "Y", "Y"), ("c", "c", "X", "X"), ("d", "d", "Z", "Z")]
    )
    (spec,) = parse_edge_templates("P20:head.CPOSTAG/between.CPOSTAG/mod.CPOSTAG")
    # between 1 and 4 sit X, Y; X repeats but appears once, first-seen order
    assert instantiate_edge(spec, toks, 1, 4) == [
        "P20:R:3:X/Y/Z",
        "P20:R:3:X/X/Z",
    ]
    # adjacent pair: nothing between, no features at all
    assert instantiate_edge(spec, toks, 1, 2) == []


# small vocabularies, so that between values repeat within a span
TOKEN = st.tuples(
    st.sampled_from("abc"), st.sampled_from("ab"), st.sampled_from("XY"), st.sampled_from("XYZ")
)
SENTENCE = st.lists(TOKEN, min_size=1, max_size=8)
FIELD = st.sampled_from(sorted(FIELDS))


@st.composite
def edge_template(draw, index):
    selectors = []
    for _ in range(draw(st.integers(1, 4))):
        anchor = draw(st.sampled_from(["head", "mod"]))
        offset = draw(st.integers(-2, 2))
        shift = f"{offset:+d}" if offset else ""
        selectors.append(f"{anchor}{shift}.{draw(FIELD)}")
    if draw(st.booleans()):
        selectors.insert(draw(st.integers(0, len(selectors))), f"between.{draw(FIELD)}")
    return f"{index}:" + "/".join(selectors)


@st.composite
def edge_template_specs(draw):
    lines = [draw(edge_template(f"P{j}")) for j in range(draw(st.integers(1, 3)))]
    return parse_edge_templates("\n".join([*lines, "PB:between.CPOSTAG"]))


@given(SENTENCE, edge_template_specs())
def test_instantiate_edges_matches_per_edge_definition(sentence, specs):
    toks = augment(sentence)
    for spec in specs:
        heads, mods, strings = instantiate_edges(spec, toks)
        want = [
            (u, v, s)
            for u, v in candidate_edges(len(toks))
            for s in instantiate_edge(spec, toks, u, v)
        ]
        assert list(zip(heads.tolist(), mods.tolist(), strings)) == want
        assert heads.dtype == mods.dtype == np.int64


@given(st.lists(SENTENCE, min_size=1, max_size=3), SENTENCE, edge_template_specs())
def test_build_and_compile_match_per_edge_reference(corpus, unseen, specs):
    instances = [DependencyInstance(s, None) for s in corpus]
    task = DependencyTask.build(specs, instances)
    alphabets = edge_alphabets(specs, instances)
    assert [a.strings() for a in task.extractor.alphabets] == alphabets
    for tokens in [*corpus, unseen]:
        got = task.compile(DependencyInstance(tokens, None)).group_edges
        for group, ref in zip(got, compile_edges(specs, alphabets, tokens), strict=True):
            for a, b in zip(group, ref, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)


# ---------------------------------------------------------------- decoders


def test_eisner_two_token_fixture():
    # chain beats the flat tree: s(0,1) + s(1,2) = 10 vs s(0,1) + s(0,2) = 6
    S = np.zeros((3, 3))
    S[0, 1], S[1, 2], S[0, 2], S[2, 1] = 5.0, 5.0, 1.0, 1.0
    heads, score = eisner_decode(S)
    assert heads == [0, 1]
    assert score == pytest.approx(10.0)


def test_cle_two_token_fixture():
    S = np.zeros((3, 3))
    S[0, 2], S[2, 1] = 4.0, 3.0  # root -> 2 -> 1
    S[0, 1], S[1, 2] = 1.0, 1.0
    heads, score = cle_decode(S)
    assert heads == [2, 0]
    assert score == pytest.approx(7.0)


def test_eisner_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(120):
        l = int(rng.integers(1, 7))
        S = rng.uniform(-1.0, 1.0, size=(l + 1, l + 1))
        heads, score = eisner_decode(S)
        _, want = tree_best(S, projective=True)
        assert score == pytest.approx(want, abs=1e-9)
        assert valid_arborescence(heads) and valid_projective(heads)
        cols = np.arange(1, l + 1)
        assert S[heads, cols].sum() == pytest.approx(score, abs=1e-9)


def test_cle_matches_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(120):
        l = int(rng.integers(1, 6))
        S = rng.uniform(-1.0, 1.0, size=(l + 1, l + 1))
        heads, score = cle_decode(S)
        _, want = tree_best(S, projective=False)
        assert score == pytest.approx(want, abs=1e-9)
        assert valid_arborescence(heads)
        cols = np.arange(1, l + 1)
        assert S[heads, cols].sum() == pytest.approx(score, abs=1e-9)


def test_cle_recovers_nonprojective_tree():
    # edges 0->2, 2->4, 4->1, 1->3 cross; Eisner must settle for less
    S = np.full((5, 5), -10.0)
    for u, v in [(0, 2), (2, 4), (4, 1), (1, 3)]:
        S[u, v] = 5.0
    heads, score = cle_decode(S)
    assert heads == [4, 0, 1, 2]
    assert not is_projective(heads)
    _, eisner_score = eisner_decode(S)
    assert eisner_score < score


def test_decoders_reject_bad_shapes():
    for bad in [np.zeros((1, 1)), np.zeros((2, 3)), np.zeros(4)]:
        with pytest.raises(ValueError, match="scores"):
            eisner_decode(bad)
        with pytest.raises(ValueError, match="scores"):
            cle_decode(bad)


def test_decoders_ignore_root_column_and_diagonal():
    rng = np.random.default_rng(23)
    S = rng.uniform(-1, 1, size=(4, 4))
    noisy = S.copy()
    noisy[:, 0] = 99.0
    np.fill_diagonal(noisy, 99.0)
    assert eisner_decode(S) == eisner_decode(noisy)
    assert cle_decode(S) == cle_decode(noisy)


def test_single_root_decoding():
    rng = np.random.default_rng(24)
    for projective in (True, False):
        for _ in range(60):
            l = int(rng.integers(1, 6))
            S = rng.uniform(-1.0, 1.0, size=(l + 1, l + 1))
            heads, score = decode_single_root(S, projective)
            assert heads.count(0) == 1
            assert valid_arborescence(heads)
            if projective:
                assert valid_projective(heads)
            trees, proj = tree_tables(l)
            if projective:
                trees = trees[proj]
            singles = trees[(trees == 0).sum(axis=1) == 1]
            cols = np.arange(1, l + 1)
            want = S[singles, cols].sum(axis=1).max()
            assert score == pytest.approx(float(want), abs=1e-9)


@st.composite
def score_tables(draw, max_l, elements):
    l = draw(st.integers(1, max_l))
    # every entry drawn on its own: a shared fill value would give the root
    # every column and leave no cycle to contract
    return draw(arrays(np.float64, (l + 1, l + 1), elements=elements, fill=st.nothing()))


@st.composite
def seeded_tables(draw, max_l, tied):
    """Scores drawn by numpy from a seed: uniform floats (no ties), or
    integers in -9..9, which tie often and close many cycles."""
    l = draw(st.integers(1, max_l))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tied:
        return rng.integers(-9, 10, size=(l + 1, l + 1)).astype(float)
    return rng.uniform(-1.0, 1.0, size=(l + 1, l + 1))


FLOAT_SCORES = st.floats(-1e6, 1e6)
TIED_SCORES = st.integers(-2, 2).map(float)  # few values, so optimal trees tie


@given(
    st.one_of(
        score_tables(30, FLOAT_SCORES),
        score_tables(30, TIED_SCORES),
        seeded_tables(30, tied=True),
    )
)
def test_cle_matches_reference(S):
    # same tree and bit-identical score, ties included
    assert cle_decode(S) == reference_cle_decode(S)


@given(st.one_of(score_tables(30, FLOAT_SCORES), score_tables(30, TIED_SCORES)))
def test_eisner_matches_reference(S):
    # same tree and bit-identical score, ties included
    assert eisner_decode(S) == reference_eisner_decode(S)


def test_eisner_long_chain_needs_no_recursion():
    # in a right-branching chain each span nests the next, so a recursive
    # backtrack needs one frame per token
    l = 150
    S = np.zeros((l + 1, l + 1))
    S[np.arange(l), np.arange(1, l + 1)] = 1.0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        heads, score = eisner_decode(S)
    finally:
        sys.setrecursionlimit(limit)
    assert heads == list(range(l))
    assert score == float(l)


def test_cle_long_chain_needs_no_recursion():
    # every token's best heads are its two neighbours, so each contraction
    # closes one 2-cycle and nests the next: one level per token
    l = 150
    S = np.full((l + 1, l + 1), -100.0)
    k = np.arange(1, l)
    S[k, k + 1] = S[k + 1, k] = 10.0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        heads, score = cle_decode(S)
    finally:
        sys.setrecursionlimit(limit)
    assert valid_arborescence(heads)
    assert heads.count(0) == 1
    assert all(abs(h - v) == 1 for v, h in enumerate(heads, start=1) if h)
    assert score == -100.0 + 10.0 * (l - 1)


def check_single_root(S, projective):
    """decode_single_root's tree is valid with one root child and as good as
    the per-child reference; returns (its heads, the reference heads)."""
    heads, score = decode_single_root(S, projective)
    want_heads, want = reference_single_root(S, projective)
    assert heads.count(0) == 1
    assert valid_arborescence(heads)
    if projective:
        assert valid_projective(heads)
    assert score == pytest.approx(want, abs=1e-9)
    return heads, want_heads


@given(
    st.one_of(
        score_tables(12, st.floats(-1.0, 1.0)),
        score_tables(12, TIED_SCORES),
        seeded_tables(12, tied=True),
    ),
    st.booleans(),
)
def test_single_root_matches_reference(S, projective):
    check_single_root(S, projective)


@given(seeded_tables(12, tied=False), st.booleans())
def test_single_root_heads_match_reference_without_ties(S, projective):
    heads, want_heads = check_single_root(S, projective)
    assert heads == want_heads


# ---------------------------------------------------------------- validators


def test_validators():
    assert is_arborescence([0, 1]) and is_projective([0, 1])
    assert is_arborescence([2, 0]) and is_projective([2, 0])
    assert not is_arborescence([2, 1])  # cycle, unreachable from root
    assert not is_arborescence([0, 5])  # head out of range
    assert not is_arborescence([1, 0])  # token is its own head
    assert is_arborescence([2, 0, 2, 2])
    assert not is_projective([4, 0, 1, 2])  # crossing edges


def test_parent_loss():
    assert parent_loss([0, 1, 2], [0, 1, 2]) == 0.0
    assert parent_loss([0, 1], [1, 0]) == 2.0
    assert parent_loss([0, 1, 1], [0, 1, 2]) == 1.0
    with pytest.raises(ValueError, match="length"):
        parent_loss([0], [0, 1])


# ---------------------------------------------------------------- task


def toy_parse_task(decoder="projective"):
    corpus = [toy_sentence(), DependencyInstance([("cats", "cat", "N", "NN")], [0])]
    specs = parse_edge_templates(
        "P00:head.CPOSTAG/mod.CPOSTAG\nP01:head.FORM\nP02:between.CPOSTAG\n"
    )
    return DependencyTask.build(specs, corpus, decoder=decoder), corpus


def test_task_shapes():
    task, _ = toy_parse_task()
    assert task.group_ids == ["P00", "P01", "P02"]
    assert len(task.group_ids) == 3
    assert all(d > 0 for d in task.group_dims)


def test_edge_scores_are_linear_in_tree_features():
    task, corpus = toy_parse_task()
    rng = np.random.default_rng(25)
    weights = [rng.uniform(-1, 1, size=d) for d in task.group_dims]
    flat = np.concatenate(weights)
    inst = task.compile(corpus[0])
    S = task.edge_scores(flat, inst)
    trees, _ = tree_tables(inst.n)
    for heads in trees[:12]:
        heads = heads.tolist()
        from_edges = S[heads, np.arange(1, inst.n + 1)].sum()
        from_phi = flat[task.tree_ids(inst, heads)].sum()
        assert from_phi == pytest.approx(float(from_edges), abs=1e-9)


def test_edge_scores_match_reference():
    corpus = load_dependency(dependency_text(8, seed=3))
    specs = parse_edge_templates(default_edge_templates())
    one_token = DependencyInstance([("n1", "n1", "N", "N")], None)
    unseen = DependencyInstance([("martian", "martian", "Q", "QQ"), ("n2", "n2", "N", "N")], None)
    rng = np.random.default_rng(27)
    for decoder in ("projective", "nonprojective"):
        task = DependencyTask.build(specs, corpus, decoder=decoder)
        weights = [rng.uniform(-1, 1, size=d) for d in task.group_dims]
        for inst in [*corpus, one_token, unseen]:
            compiled = task.compile(inst)
            got = task.edge_scores(np.concatenate(weights), compiled)
            want = reference_edge_scores(weights, compiled)
            assert got.shape == want.shape == (compiled.n + 1,) * 2
            assert got.tobytes() == want.tobytes()
        # the frozen alphabets know no "Q" tag, so some groups fire nothing
        assert any(f.size == 0 for _, _, f in task.compile(unseen).group_edges)


def tree_corpus():
    """Per decoder, a frozen task and its compiled sentences, each with its
    raw instance and the per-group (u, v, id) reference layout: a corpus
    with gold trees, then a one-token sentence and one with a tag the
    alphabets never saw (both without gold)."""
    corpus = load_dependency(dependency_text(6, seed=9))
    specs = parse_edge_templates(default_edge_templates())
    extra = [
        DependencyInstance([("n1", "n1", "N", "N")], None),
        DependencyInstance([("martian", "martian", "Q", "QQ"), ("n2", "n2", "N", "N")], None),
    ]
    out = {}
    for decoder in ("projective", "nonprojective"):
        task = DependencyTask.build(specs, corpus, decoder=decoder)
        alphabets = [a.strings() for a in task.extractor.alphabets]
        out[decoder] = task, [
            (inst, task.compile(inst), compile_edges(specs, alphabets, inst.tokens))
            for inst in [*corpus, *extra]
        ]
    return out


TREE_CORPUS = tree_corpus()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(TREE_CORPUS)), st.data())
def test_tree_ids_match_per_group_mask(decoder, data):
    task, compiled = TREE_CORPUS[decoder]
    offsets = np.cumsum([0, *task.group_dims])
    for raw, inst, layout in compiled:
        # one copy per firing; the per-group view derived from it is the
        # (u, v, id) triples of every candidate edge in order
        assert inst.cells.shape == inst.ids.shape == (inst.bounds[-1],)
        for got, want in zip(inst.group_edges, layout, strict=True):
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)

        # any head vector in range, trees or not: the mask reads cells
        heads = data.draw(st.lists(st.integers(0, inst.n), min_size=inst.n, max_size=inst.n))
        ids = task.tree_ids(inst, heads)
        want = np.concatenate(
            [f + off for f, off in zip(reference_joint_feature_map(inst, heads), offsets)]
        )
        assert ids.dtype == np.int64
        assert np.array_equal(ids, want)  # the same firings in the same order
        if raw.heads is not None:
            got, loss = task.corpus_feature_ids([inst], [heads])
            assert np.array_equal(got, ids)
            assert loss == parent_loss(raw.heads, heads)
    assert compiled[-2][1].n == 1
    assert any(f.size == 0 for _, _, f in compiled[-1][1].group_edges)  # unseen tag


def test_feature_map_rejects_wrong_length():
    task, corpus = toy_parse_task()
    inst = task.compile(corpus[0])
    with pytest.raises(ValueError, match="size"):
        task.tree_ids(inst, [0])
    for heads in ([0, 1, 4], [0, -1, 1]):
        with pytest.raises(ValueError, match="range"):
            task.tree_ids(inst, heads)


def test_most_violated_matches_enumeration():
    for decoder in ("projective", "nonprojective"):
        task, corpus = toy_parse_task(decoder)
        rng = np.random.default_rng(26)
        weights = [rng.uniform(-1, 1, size=d) for d in task.group_dims]
        compiled = [task.compile(inst) for inst in corpus]
        outputs, values = task.decode_corpus(weights, compiled, augmented=True)
        assert len(outputs) == len(values) == len(compiled)
        for inst, heads, value in zip(compiled, outputs, values):
            S = task.edge_scores(np.concatenate(weights), inst)
            _, want = tree_best(S, decoder == "projective", augment_gold=inst.gold.tolist())
            assert value == pytest.approx(want, abs=1e-9)
            assert valid_arborescence(heads)


def test_most_violated_prefers_gold_under_large_margin():
    task, corpus = toy_parse_task()
    inst = task.compile(corpus[0])
    gold = task.gold_output(inst)
    weights = [np.zeros(d) for d in task.group_dims]
    # reward exactly the gold edges through the P01 head-form group
    u, v, f = inst.group_edges[1]
    for uu, vv, ff in zip(u, v, f):
        if gold[vv - 1] == uu:
            weights[1][ff] += 100.0
    (heads,), _ = task.decode_corpus(weights, [inst], augmented=True)
    assert heads == gold


def test_gold_protocol_and_errors():
    task, corpus = toy_parse_task()
    inst = task.compile(corpus[0])
    assert task.gold_output(inst) == [2, 3, 0]
    gold_ids = task.tree_ids(inst, task.gold_output(inst))
    offsets = np.cumsum([0, *task.group_dims])
    want = feature_counts(task, inst, [2, 3, 0])
    assert Counter(gold_ids.tolist()) == {
        int(off) + f: c for off, counts in zip(offsets, want) for f, c in counts.items()
    }
    bare = task.compile(DependencyInstance(corpus[0].tokens, None))
    with pytest.raises(ValueError, match="gold"):
        task.gold_output(bare)
    with pytest.raises(ValueError, match="gold"):
        task.decode_corpus([np.zeros(d) for d in task.group_dims], [inst, bare], augmented=True)
    with pytest.raises(ValueError, match="decoder"):
        DependencyTask(task.extractor, decoder="transition")


def test_unseen_edge_features_are_dropped():
    task, corpus = toy_parse_task()
    inst = task.compile(DependencyInstance([("martian", "martian", "Q", "QQ")], None))
    assert inst.n == 1
    for u, v, f in inst.group_edges:
        assert (f >= 0).all()
    # Q cpos never indexed, so group P00 has no firing edges at all
    assert inst.group_edges[0][2].size == 0
