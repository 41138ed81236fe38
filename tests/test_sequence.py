"""Chain decoders against exhaustive enumeration, plus the feature map and
loss plumbing the solver relies on."""

import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mklsp import sequence
from mklsp.corpus import LabelTable, SequenceInstance, read_sequence_corpus
from mklsp.model import Model
from mklsp.sequence import (
    CompiledSequence,
    SequenceScorer,
    SequenceTask,
    decode_chunks,
    loss_augmented_decode,
    viterbi_decode,
)
from mklsp.solver import SolverConfig, parallel_decode, train
from mklsp.synthetic import SEQ_TEMPLATES, load_sequence, sequence_text
from mklsp.templates import parse_templates

from _oracles import (
    dense_emissions,
    feature_counts,
    reference_sequence_compile,
    reference_viterbi,
    sequence_best,
)


def random_case(rng, l, k, n_groups=2, transition=True, max_dim=5):
    """A synthetic compiled sentence plus a scorer with random weights."""
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_groups)]
    feats = [rng.integers(-1, d, size=l).astype(np.int64) for d in dims]
    tables = [rng.uniform(-1.0, 1.0, size=(d, k)) for d in dims]
    trans = rng.uniform(-1.0, 1.0, size=(k, k)) if transition else None
    gold = rng.integers(0, k, size=l).astype(np.int64)
    inst = CompiledSequence(l, feats, gold)
    return SequenceScorer(tables, trans, k), inst


def zero_scorer(k, *dims, transition=True):
    tables = [np.zeros((d, k)) for d in dims]
    trans = np.zeros((k, k)) if transition else None
    return SequenceScorer(tables, trans, k)


# ---------------------------------------------------------------- decoders


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(150):
        l = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        scorer, inst = random_case(rng, l, k, transition=bool(rng.integers(2)))
        labels, score = viterbi_decode(scorer, inst)
        emit = dense_emissions(inst.feats, scorer.emissions, k)
        want_labels, want_score = sequence_best(emit, scorer.transitions)
        assert labels == want_labels
        assert score == pytest.approx(want_score, abs=1e-9)


def test_loss_augmented_matches_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(150):
        l = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        scorer, inst = random_case(rng, l, k)
        gold = [int(y) for y in inst.gold]
        labels, score = loss_augmented_decode(scorer, inst, gold)
        emit = dense_emissions(inst.feats, scorer.emissions, k)
        want_labels, want_score = sequence_best(emit, scorer.transitions, augment_gold=gold)
        assert labels == want_labels
        assert score == pytest.approx(want_score, abs=1e-9)


@st.composite
def tagged_batches(draw):
    """A scorer and a batch of compiled sentences of mixed lengths (0..6):
    float tables, or -2..2 integer tables whose optima tie often, either
    holding -0.0; one to four labels, no to two groups, transitions or none."""
    k = draw(st.integers(1, 4))
    values = draw(st.sampled_from([st.floats(-1e6, 1e6), st.integers(-2, 2).map(float)]))
    values = values | st.just(-0.0)
    dims = draw(st.lists(st.integers(1, 4), max_size=2))
    tables = [draw(arrays(np.float64, (d, k), elements=values)) for d in dims]
    trans = draw(st.none() | arrays(np.float64, (k, k), elements=values))
    instances = []
    for l in draw(st.lists(st.integers(0, 6), min_size=1, max_size=8)):
        feats = np.array(
            [draw(arrays(np.int64, l, elements=st.integers(-1, d - 1))) for d in dims],
            dtype=np.int64,
        ).reshape(len(dims), l)
        gold = draw(arrays(np.int64, l, elements=st.integers(0, k - 1)))
        instances.append(CompiledSequence(l, feats, gold))
    return SequenceScorer(tables, trans, k), instances


def bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(tagged_batches(), st.booleans(), st.integers(1, 1000))
def test_chunked_decode_matches_reference(case, augmented, cells):
    # same labels and bit-identical scores as the earlier per-sentence DP and
    # the per-sentence decoders, ties included, whatever the chunk budget:
    # at 1 cell every sentence is a chunk of its own
    scorer, instances = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_CHUNK_CELLS", cells)
        outputs, scores = decode_chunks(scorer, instances, augmented)
    assert scores.dtype == np.float64
    assert len(outputs) == len(scores) == len(instances)
    for inst, labels, score in zip(instances, outputs, scores):
        gold = inst.gold.tolist() if augmented else None
        if augmented:
            alone = loss_augmented_decode(scorer, inst, gold)
        else:
            alone = viterbi_decode(scorer, inst)
        if inst.length == 0:
            want = ([], 0.0)
        else:
            emit = (
                dense_emissions(inst.feats, scorer.emissions, scorer.k)
                if len(inst.feats)
                else np.zeros((inst.length, scorer.k))
            )
            want = reference_viterbi(emit, scorer.transitions, augment_gold=gold)
        assert labels == alone[0] == want[0]
        assert bits(score) == bits(alone[1]) == bits(want[1])


def test_augmented_decode_needs_every_gold():
    # an empty sentence is not decoded, but it still needs gold to augment
    scorer = zero_scorer(2, 3)
    labeled = CompiledSequence(2, np.array([[0, 2]]), np.array([0, 1]))
    unlabeled = [
        CompiledSequence(2, np.array([[1, -1]]), None),
        CompiledSequence(0, np.empty((1, 0), dtype=np.int64), None),
    ]
    for bare in unlabeled:
        with pytest.raises(ValueError, match="gold"):
            decode_chunks(scorer, [labeled, bare], augmented=True)
        assert decode_chunks(scorer, [labeled, bare])[0][1] == [0] * bare.length


def test_all_zero_weights_tie_breaks_to_first_label():
    scorer = zero_scorer(3, 2, 4)
    inst = CompiledSequence(4, [np.array([0, 1, 1, 0]), np.array([3, -1, 0, 2])], None)
    labels, score = viterbi_decode(scorer, inst)
    assert labels == [0, 0, 0, 0]
    assert score == 0.0


def test_zero_transitions_reduce_to_positionwise_argmax():
    rng = np.random.default_rng(13)
    scorer, inst = random_case(rng, 5, 4, transition=False)
    labels, _ = viterbi_decode(scorer, inst)
    emit = dense_emissions(inst.feats, scorer.emissions, 4)
    assert labels == [int(np.argmax(row)) for row in emit]


def test_loss_augmented_zero_weights_flips_every_position():
    # with w = 0 the augmented objective is pure Hamming loss, so any
    # labeling disagreeing everywhere scores l; ties pick the smallest
    scorer = zero_scorer(2, 3)
    inst = CompiledSequence(2, [np.array([0, 2])], np.array([0, 0]))
    labels, score = loss_augmented_decode(scorer, inst, [0, 0])
    assert labels == [1, 1]
    assert score == 2.0


def test_loss_augmented_prefers_gold_when_margin_is_large():
    rng = np.random.default_rng(14)
    for _ in range(20):
        scorer, inst = random_case(rng, 5, 3)
        # give every position a firing feature of its own, then boost the
        # gold label far beyond the +1 loss bonus
        gold = [int(y) for y in inst.gold]
        inst.feats[0] = np.arange(5, dtype=np.int64)
        table = np.zeros((5, 3))
        table[np.arange(5), gold] = 100.0
        scorer.emissions[0] = table
        labels, _ = loss_augmented_decode(scorer, inst, gold)
        assert labels == gold


def test_decode_empty_sentence():
    scorer = zero_scorer(3, 2)
    inst = CompiledSequence(0, [np.empty(0, dtype=np.int64)], None)
    assert viterbi_decode(scorer, inst) == ([], 0.0)
    assert loss_augmented_decode(scorer, inst, []) == ([], 0.0)


def test_viterbi_dominates_any_labeling():
    rng = np.random.default_rng(15)
    scorer, inst = random_case(rng, 6, 3)
    _, best = viterbi_decode(scorer, inst)
    emit = dense_emissions(inst.feats, scorer.emissions, 3)
    for _ in range(50):
        y = rng.integers(0, 3, size=6)
        value = emit[np.arange(6), y].sum()
        value += scorer.transitions[y[:-1], y[1:]].sum()
        assert best >= value - 1e-9


# ---------------------------------------------------------------- hamming


def test_hamming_loss_values():
    # the loss `corpus_feature_ids` returns: positions labeled unlike gold
    task, corpus = toy_task()
    long, short = (task.compile(inst) for inst in corpus)  # gold [0, 1, 1] and [0]
    for labels, loss in [([0, 1, 1], 0), ([1, 0, 0], 3), ([0, 1, 0], 1)]:
        assert task.corpus_feature_ids([long], [labels])[1] == loss
    assert task.corpus_feature_ids([long, short], [[0, 1, 0], [1]])[1] == 2


# ---------------------------------------------------------------- task


def toy_task(transition=True):
    text = "U00:%x[0,0]\nU01:%x[0,1]\n" + ("B\n" if transition else "")
    specs = parse_templates(text)
    table = LabelTable()
    corpus = [
        SequenceInstance(
            [("dogs", "N"), ("bark", "V"), ("bark", "V")],
            [table.intern("S"), table.intern("P"), table.intern("P")],
        ),
        SequenceInstance([("cats", "N")], [table.intern("S")]),
    ]
    table.freeze()
    return SequenceTask.build(specs, corpus, table), corpus


def synthetic_task(transition):
    instances, table = load_sequence(sequence_text(12, seed=3))
    text = SEQ_TEMPLATES if transition else SEQ_TEMPLATES.replace("B\n", "")
    return SequenceTask.build(parse_templates(text), instances, table)


SYNTHETIC_TASKS = {flag: synthetic_task(flag) for flag in (False, True)}


@st.composite
def labeled_corpora(draw):
    """A synthetic task, with or without the transition group, and drawn
    sentences (lengths 0, 1 or mixed, firing any of its ids or none) with
    gold labels and a drawn labeling each."""
    task = SYNTHETIC_TASKS[draw(st.booleans())]
    k = task.k
    lengths = draw(
        st.sampled_from([st.just(0), st.just(1), st.integers(0, 7)]).flatmap(
            lambda size: st.lists(size, min_size=1, max_size=6)
        )
    )
    instances, outputs = [], []
    for l in lengths:
        ids = [st.integers(-1, len(a) - 1) for a in task.alphabets]
        feats = np.array(
            [draw(arrays(np.int64, l, elements=e)) for e in ids], dtype=np.int64
        ).reshape(len(ids), l)
        gold = draw(arrays(np.int64, l, elements=st.integers(0, k - 1)))
        instances.append(CompiledSequence(l, feats, gold))
        outputs.append(draw(st.lists(st.integers(0, k - 1), min_size=l, max_size=l)))
    return task, instances, outputs


@settings(max_examples=100, deadline=None)
@given(labeled_corpora())
def test_corpus_feature_ids_match_per_sentence_counts(case):
    # the flat ids over the concatenated corpus are, as a multiset, the
    # firings counted one position at a time, sentence by sentence, and
    # the loss is the summed Hamming loss
    task, instances, outputs = case
    ids, loss = task.corpus_feature_ids(instances, outputs)
    assert ids.dtype == np.int64
    offsets = np.cumsum([0, *task.group_dims])[:-1]
    want = Counter()
    for inst, y in zip(instances, outputs):
        for off, counts in zip(offsets, feature_counts(task, inst, y)):
            want.update({int(off) + key: int(n) for key, n in counts.items()})
    assert Counter(ids.tolist()) == want
    assert loss == sum(
        int((inst.gold != np.array(y, dtype=np.int64)).sum()) for inst, y in zip(instances, outputs)
    )
    long = max(range(len(instances)), key=lambda i: instances[i].length)
    wrong = list(outputs)
    wrong[long] = [*outputs[long], 0]
    with pytest.raises(ValueError, match="length"):
        task.corpus_feature_ids(instances, wrong)
    if instances[long].length:
        wrong[long] = outputs[long][:-1]
        with pytest.raises(ValueError, match="length"):
            task.corpus_feature_ids(instances, wrong)
    bare = list(instances)
    bare[long] = CompiledSequence(instances[long].length, instances[long].feats, None)
    with pytest.raises(ValueError, match="gold"):
        task.corpus_feature_ids(bare, outputs)


def fired(task, inst, labels):
    """Per group, the group-local weight ids `labels` fire over one sentence,
    one entry per firing, cut from the flat ids of `corpus_feature_ids`."""
    ids, _ = task.corpus_feature_ids([inst], [labels])
    offsets = np.cumsum([0, *task.group_dims])
    return [ids[(lo <= ids) & (ids < hi)] - lo for lo, hi in zip(offsets[:-1], offsets[1:])]


def test_task_shapes_and_ids():
    task, _ = toy_task()
    assert task.k == 2
    assert task.group_ids == ["U00", "U01", "B"]
    # U00 sees 3 distinct forms, U01 sees 2 tags; flat dim is d * k
    assert task.group_dims == [6, 4, 4]
    assert len(task.group_ids) == 3


def test_feature_map_counts_frequencies():
    task, corpus = toy_task()
    inst = task.compile(corpus[0])
    phi = fired(task, inst, [0, 1, 1])
    assert len(phi) == 3 and all(ids.dtype == np.int64 for ids in phi)
    k = task.k
    # U00: dogs@S once, bark@P twice
    u00 = Counter(phi[0].tolist())
    d_dogs, d_bark = map(task.alphabets[0].index, ["U00:dogs", "U00:bark"])
    assert u00 == {d_dogs * k + 0: 1.0, d_bark * k + 1: 2.0}
    # transitions: S->P once, P->P once
    b = Counter(phi[2].tolist())
    assert b == {0 * k + 1: 1.0, 1 * k + 1: 1.0}


def test_feature_map_singleton_sentence_has_no_transitions():
    task, corpus = toy_task()
    inst = task.compile(corpus[1])
    phi = fired(task, inst, [0])
    assert phi[2].size == 0
    assert phi[0].size == 1 and phi[1].size == 1


def test_feature_map_rejects_wrong_length():
    task, corpus = toy_task()
    inst = task.compile(corpus[0])
    with pytest.raises(ValueError, match="length"):
        task.corpus_feature_ids([inst], [[0]])


def test_score_equals_weight_dot_feature_map():
    task, corpus = toy_task()
    rng = np.random.default_rng(17)
    weights = [rng.uniform(-1, 1, size=d) for d in task.group_dims]
    scorer = task.scorer(weights)
    inst = task.compile(corpus[0])
    emit = dense_emissions(inst.feats, scorer.emissions, task.k)
    for _ in range(20):
        y = [int(v) for v in rng.integers(0, task.k, size=inst.length)]
        path = emit[np.arange(inst.length), y].sum()
        path += scorer.transitions[np.array(y[:-1]), np.array(y[1:])].sum()
        ids = fired(task, inst, y)
        assert sum(w[f].sum() for w, f in zip(weights, ids)) == pytest.approx(path, abs=1e-9)


def test_unseen_feature_is_silent():
    task, _ = toy_task()
    inst = task.compile(SequenceInstance([("zebra", "N")]))
    assert inst.feats[0][0] == -1  # form never indexed
    assert inst.feats[1][0] >= 0  # tag N was


def test_solver_protocol_round_trip():
    task, corpus = toy_task()
    inst = task.compile(corpus[0])
    assert task.gold_output(inst) == [0, 1, 1]
    gold_ids = fired(task, inst, task.gold_output(inst))
    assert [Counter(ids.tolist()) for ids in gold_ids] == feature_counts(task, inst, [0, 1, 1])
    weights = [np.zeros(d) for d in task.group_dims]
    (labels,), (value,) = task.decode_corpus(weights, [inst], augmented=True)
    assert value == pytest.approx(sum(a != b for a, b in zip([0, 1, 1], labels)))
    unlabeled = task.compile(SequenceInstance([("dogs", "N")]))
    with pytest.raises(ValueError, match="gold"):
        task.gold_output(unlabeled)
    with pytest.raises(ValueError, match="gold"):
        task.decode_corpus(weights, [inst, unlabeled], augmented=True)


def test_decode_ignores_gold_column():
    task, corpus = toy_task()
    rng = np.random.default_rng(18)
    weights = [rng.uniform(-1, 1, size=d) for d in task.group_dims]
    labeled = task.compile(corpus[0])
    bare = task.compile(SequenceInstance(corpus[0].tokens))
    a_labels, a_scores = task.decode_corpus(weights, [labeled])
    b_labels, b_scores = task.decode_corpus(weights, [bare])
    assert a_labels == b_labels
    assert a_scores.tobytes() == b_scores.tobytes()


# ---------------------------------------------------------------- batched compile

# values a reader can read (no whitespace, none empty), some holding the "/"
# that joins macro values and look-alikes of the boundary sentinels, and a
# hand-built sentence may also hold the empty value
READ_VALUE = st.sampled_from(["a", "b", "c", "a/b", "b/c", "/", ":", "_B-1", "_B+1"])
HAND_VALUE = READ_VALUE | st.just("")
# offsets past either end of any drawn sentence, a rule of one to three macros
COMPILE_RULE = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(0, 1)).map(lambda m: "%x[{},{}]".format(*m)),
    min_size=1, max_size=3,
)


def sentences_of(value, min_size=1):
    return st.lists(
        st.lists(st.tuples(value, value), min_size=min_size, max_size=5), min_size=1, max_size=4
    )


@settings(max_examples=150, deadline=None)
@given(
    sentences_of(READ_VALUE),
    sentences_of(HAND_VALUE, min_size=0),
    st.lists(COMPILE_RULE, min_size=1, max_size=3),
    st.data(),
)
def test_batched_compile_matches_per_sentence_reference(read, hand, rules, data):
    # a task built from sentences the reader made (or the same ones built by
    # hand), some groups dropped (emptied) as a trained model stores them,
    # compiles the reader's sentences and hand-built ones in one pass, in a
    # drawn order: every sentence's feats equal its compile alone
    text = "".join("".join(f"{a} {b} L\n" for a, b in s) + "\n" for s in read)
    table = LabelTable()
    from_reader = read_sequence_corpus(io.StringIO(text), label_table=table)
    assert [inst.tokens for inst in from_reader] == read
    specs = parse_templates("\n".join(f"U{j}:" + "/".join(r) for j, r in enumerate(rules)))
    built = SequenceTask.build(specs, from_reader, table)
    by_hand = SequenceTask.build(specs, [SequenceInstance(s, [0] * len(s)) for s in read], table)
    assert built.alphabets == by_hand.alphabets
    dropped = data.draw(st.lists(st.booleans(), min_size=len(rules), max_size=len(rules)))
    alphabets = [() if drop else a for drop, a in zip(dropped, built.alphabets)]
    task = SequenceTask(specs, alphabets, table)
    sentences = [*from_reader, *(SequenceInstance(s) for s in hand)]
    order = data.draw(st.permutations(range(len(sentences))))
    compiled = [task.compile(sentences[i]) for i in order]
    for i, inst in zip(order, compiled):
        want = reference_sequence_compile(task, sentences[i].tokens)
        assert inst.feats.dtype == np.int64 and inst.feats.shape == want.shape
        assert np.array_equal(inst.feats, want)
        assert inst.length == len(sentences[i])
        labels = sentences[i].labels
        assert (inst.gold is None) == (labels is None)
        assert labels is None or inst.gold.tolist() == labels
    # one batch: every sentence a view of one array
    assert len({id(inst.feats.base) for inst in compiled if inst.length}) <= 1


def test_compile_is_pending_until_read():
    task, corpus = toy_task()
    first, second = task.compile(corpus[0]), task.compile(corpus[1])
    assert first._source is not None and second._source is not None
    assert second.gold.tolist() == [0]  # one read compiles both
    assert first._source is None and first.feats.base is second.feats.base
    # a decode pass compiles only the pending sentences it is given
    third, fourth = task.compile(corpus[0]), task.compile(corpus[1])
    task.decode_corpus([np.zeros(d) for d in task.group_dims], [fourth])
    assert fourth._source is None and third._source is not None
    assert np.array_equal(third.feats, first.feats)


def test_two_job_training_and_predict_of_pending_sentences_match_one_job():
    # the trainer compiles the corpus before its workers fork; predict
    # workers each compile their own range
    instances, table = load_sequence(sequence_text(30, seed=5))
    models, predictions = [], []
    for jobs in (1, 2):
        task = SequenceTask.build(parse_templates(SEQ_TEMPLATES), instances, table)
        config = SolverConfig(C=1.0, epsilon=0.05, jobs=jobs)
        result = train(task, [task.compile(i) for i in instances], config)
        models.append(
            Model.from_sequence(task, SEQ_TEMPLATES, 2, result.mu, result.weights, {}).payload()
        )
        held_out, _ = load_sequence(sequence_text(9, seed=6))
        pending = [task.compile(i) for i in held_out]
        predictions.append(parallel_decode(task, result.weights, pending, jobs, augmented=False))
        assert all(inst._source is not None for inst in pending) == (jobs == 2)
    assert models[0] == models[1]
    assert predictions[0] == predictions[1]
