"""Edge templates, tree decoders against exhaustive search, validators, and
the parsing task protocol."""

import hashlib
import importlib.util
import inspect
import io
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mklsp import dependency, solver
from mklsp.corpus import DependencyInstance
from mklsp.dependency import (
    FIELDS,
    DependencyTask,
    augment,
    cle_decode,
    default_edge_templates,
    eisner_decode,
    is_arborescence,
    is_projective,
    parse_edge_templates,
)
from mklsp.model import MAGIC, Model
from mklsp.synthetic import dependency_text, load_dependency
from mklsp.templates import MAX_OFFSET, TemplateError

from _oracles import (
    candidate_edges,
    compile_edges,
    distance_bucket,
    edge_alphabets,
    feature_counts,
    instantiate_edges,
    parent_loss,
    reference_cle_decode,
    reference_compile,
    reference_edge_scores,
    reference_eisner_decode,
    reference_instantiate_edge,
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
    (spec,) = parse_edge_templates(f"P00:head+{MAX_OFFSET}.FORM/mod-{MAX_OFFSET}.POSTAG")
    assert [sel.offset for sel in spec.selectors] == [MAX_OFFSET, -MAX_OFFSET]


@pytest.mark.parametrize(
    "text,match",
    [
        ("P00:head.FORM\nP00:mod.FORM", "duplicate"),
        ("P00:between.CPOSTAG/between.CPOSTAG", "at most one"),
        ("P00:between+1.CPOSTAG", "no offset"),
        ("P00:head.SHAPE", "malformed"),
        ("P00 head.FORM", "expected"),
        ("P00:head+1", "malformed"),
        # every sentence is padded as far as offsets reach
        (f"P00:head.FORM\nP01:head+{MAX_OFFSET + 1}.FORM", f"line 2: offset {MAX_OFFSET + 1} "),
        (f"P00:mod-{MAX_OFFSET + 1}.FORM", f"line 1: offset -{MAX_OFFSET + 1} "),
        (f"P00:head+{10**20}.FORM", "is more than"),
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


def edge_strings(spec, toks, u, v):
    """The strings the whole-sentence reference `instantiate_edges` gives
    edge u -> v."""
    heads, mods, strings = instantiate_edges(spec, toks)
    return [s for h, m, s in zip(heads.tolist(), mods.tolist(), strings) if (h, m) == (u, v)]


def fired_strings(spec, toks, u, v):
    """The strings of the features that the package fires on edge u -> v,
    with `spec` indexed on the sentence itself."""
    inst = DependencyInstance(toks[1:], None)
    task = DependencyTask.build([spec], [inst])
    strings = task.extractor.alphabets[0]
    heads, mods, ids = task.compile(inst).group_edges[0]
    return [strings[f] for h, m, f in zip(heads.tolist(), mods.tolist(), ids) if (h, m) == (u, v)]


def test_instantiate_edge_embeds_direction_and_distance():
    toks = augment(toy_sentence().tokens)
    (spec,) = parse_edge_templates("P00:head.CPOSTAG/mod.CPOSTAG")
    for (u, v), want in [((3, 2), ["P00:L:1:V/N"]), ((0, 3), ["P00:R:3:<root>/V"])]:
        assert reference_instantiate_edge(spec, toks, u, v) == edge_strings(spec, toks, u, v)
        assert edge_strings(spec, toks, u, v) == fired_strings(spec, toks, u, v) == want


def test_instantiate_edge_boundary_symbols():
    toks = augment(toy_sentence().tokens)
    (spec,) = parse_edge_templates("P00:mod+1.FORM")
    assert reference_instantiate_edge(spec, toks, 0, 3) == ["P00:R:3:_B+1"]
    assert edge_strings(spec, toks, 0, 3) == fired_strings(spec, toks, 0, 3) == ["P00:R:3:_B+1"]


def test_between_features_one_per_distinct_value():
    toks = augment(
        [("a", "a", "X", "X"), ("b", "b", "Y", "Y"), ("c", "c", "X", "X"), ("d", "d", "Z", "Z")]
    )
    (spec,) = parse_edge_templates("P20:head.CPOSTAG/between.CPOSTAG/mod.CPOSTAG")
    # between 1 and 4 sit X, Y; X repeats but appears once, first-seen order
    want = ["P20:R:3:X/Y/Z", "P20:R:3:X/X/Z"]
    assert reference_instantiate_edge(spec, toks, 1, 4) == edge_strings(spec, toks, 1, 4) == want
    assert fired_strings(spec, toks, 1, 4) == want
    # adjacent pair: nothing between, no features at all
    assert reference_instantiate_edge(spec, toks, 1, 2) == edge_strings(spec, toks, 1, 2) == []
    assert fired_strings(spec, toks, 1, 2) == []


# values that a feature string cannot tell apart from its own syntax: the
# "/" that joins selector values, the ":" after the prefix, look-alikes of
# the boundary sentinels and the root token, and the empty value
TRICKY = st.sampled_from(["a/b", "b/c", "/", ":", "x:y", "_B-1", "_B+1", "<root>", ""])


def column(plain):
    return st.sampled_from(plain) | TRICKY


# small vocabularies, so that between values repeat within a span
TOKEN = st.tuples(column("abc"), column("ab"), column("XY"), column("XYZ"))
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
def edge_template_text(draw):
    lines = [draw(edge_template(f"P{j}")) for j in range(draw(st.integers(1, 3)))]
    return "\n".join([*lines, "PB:between.CPOSTAG"])


def edge_template_specs():
    return edge_template_text().map(parse_edge_templates)


@given(SENTENCE, edge_template_specs())
def test_instantiate_edges_matches_per_edge_definition(sentence, specs):
    toks = augment(sentence)
    for spec in specs:
        heads, mods, strings = instantiate_edges(spec, toks)
        want = [
            (u, v, s)
            for u, v in candidate_edges(len(toks))
            for s in reference_instantiate_edge(spec, toks, u, v)
        ]
        assert list(zip(heads.tolist(), mods.tolist(), strings)) == want
        assert heads.dtype == mods.dtype == np.int64


def check_build_and_compile(specs, corpus, unseen):
    """`build` interns the reference alphabets and `compile` fires the
    reference (u, v, id) triples, on the corpus and on unseen sentences."""
    instances = [DependencyInstance(s, None) for s in corpus]
    task = DependencyTask.build(specs, instances)
    alphabets = edge_alphabets(specs, instances)
    assert [list(a) for a in task.extractor.alphabets] == alphabets
    for tokens in [*corpus, *unseen]:
        got = task.compile(DependencyInstance(tokens, None)).group_edges
        for group, ref in zip(got, compile_edges(specs, alphabets, tokens), strict=True):
            for a, b in zip(group, ref, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)
    return task


@given(st.lists(SENTENCE, min_size=1, max_size=3), SENTENCE, edge_template_specs())
def test_build_and_compile_match_per_edge_reference(corpus, unseen, specs):
    check_build_and_compile(specs, corpus, [unseen])


def test_keys_too_wide_for_one_stage_match_per_edge_reference(monkeypatch):
    # with a tiny key limit every slot gets a stage of its own, and `build`
    # re-ranks its keys before each row it folds in
    monkeypatch.setattr(dependency, "_KEY_LIMIT", 64)
    corpus = [inst.tokens for inst in load_dependency(dependency_text(5, seed=9))]
    unseen = [[("a/b", "a", "N", "N"), ("x:y", "_B-1", "V", "<root>"), *corpus[0][:3]]]
    specs = parse_edge_templates(default_edge_templates())
    lookups = []
    lookup = dependency._KeyTable.lookup

    def counted(self, keys, unseen):
        lookups.append(keys.shape)
        return lookup(self, keys, unseen)

    monkeypatch.setattr(dependency._KeyTable, "lookup", counted)
    task = check_build_and_compile(specs, corpus, unseen)
    assert len(task.extractor.keys.stages) == max(len(s.selectors) for s in specs)
    # one lookup per compiled sentence, its plain and between firings together
    sizes = [len(toks) + 1 for toks in [*corpus, *unseen]]
    assert len(lookups) == len(sizes)
    plain = sum(s.between_column is None for s in specs)
    for (rows, firings), size in zip(lookups, sizes):
        assert rows == 1 + task.extractor.layout.width
        assert firings > plain * (size - 1) ** 2  # the between templates fire too


def test_values_holding_a_slash_match_by_string():
    # a feature is its string, so FORMs (a/b, c) and (a, b/c) fire the same
    # head/modifier feature "P00:R:1:a/b/c"
    (spec,) = parse_edge_templates("P00:head.FORM/mod.FORM")
    trained = DependencyInstance([("a/b", "_", "X", "X"), ("c", "_", "X", "X")], None)
    task = DependencyTask.build([spec], [trained])
    strings = task.extractor.alphabets[0]
    assert "P00:R:1:a/b/c" in strings
    alone = task.compile(DependencyInstance([("a", "_", "X", "X"), ("b/c", "_", "X", "X")], None))
    # one batch numbers its unseen values once: both sentences code b/c
    # alike, next to the unseen d/e and x/y, which hold "/" too
    rest = ("_", "X", "X")
    batch = [
        task.compile(DependencyInstance([("a", *rest), ("b/c", *rest), (last, *rest)], None))
        for last in ("d/e", "x/y")
    ]
    task.extractor.expand(batch)
    for inst in [alone, *batch]:
        u, v, f = inst.group_edges[0]
        fired = {(a, b): strings[c] for a, b, c in zip(u.tolist(), v.tolist(), f.tolist())}
        assert fired == {(1, 2): "P00:R:1:a/b/c"}


def read_back(task, template_text):
    """The task of `task`'s model as `Model.read` rebuilds it from the saved bytes."""
    m = len(task.group_ids)
    model = Model.from_dependency(
        task, template_text, np.full(m, 1.0 / m), [np.zeros(d) for d in task.group_dims]
    )
    payload = model.payload()
    header = f"{MAGIC}\nchecksum={hashlib.sha256(payload).hexdigest()}\n\n".encode("ascii")
    return Model.read(io.BytesIO(header + payload)).task


@given(st.lists(SENTENCE, min_size=1, max_size=3), SENTENCE, edge_template_text())
def test_read_task_compiles_like_the_built_task(corpus, unseen, template_text):
    specs = parse_edge_templates(template_text)
    task = DependencyTask.build(specs, [DependencyInstance(s, None) for s in corpus])
    loaded = read_back(task, template_text)
    for tokens in [*corpus, unseen]:
        inst = DependencyInstance(tokens, None)
        a, b = task.compile(inst), loaded.compile(inst)
        assert a.ends is task.extractor.ends and b.ends is loaded.extractor.ends
        for name in ("cells", "ids", "ends"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
        for x_group, y_group in zip(a.group_edges, b.group_edges, strict=True):
            for x, y in zip(x_group, y_group, strict=True):
                assert x.dtype == y.dtype and np.array_equal(x, y)


# tokens whose values the training corpora never hold: q, Q, or a drawn value
# of TRICKY, several of which hold "/"
STREAM_TOKEN = st.tuples(column("abq"), column("aq"), column("XQ"), column("XZQ"))


@st.composite
def between_first_template_text(draw):
    """Templates whose first is a ``between`` template and whose last is a
    plain one, so firings do not come in template order."""
    lines = [draw(edge_template(f"P{j}")) for j in range(draw(st.integers(0, 2)))]
    return "\n".join(["PB:mod.POSTAG/between.FORM", *lines, "PZ:head.CPOSTAG/mod-1.FORM"])


def check_compiled(task, specs, alphabets, tokens):
    compiled = task.compile(DependencyInstance(tokens, None))
    for name in ("cells", "ids"):
        a = getattr(compiled, name)
        assert a.dtype == np.int64 and a.ndim == 1 and a.flags.c_contiguous
    assert compiled.cells.shape == compiled.ids.shape
    assert compiled.ends is task.extractor.ends  # one array shared by every sentence
    want = compile_edges(specs, alphabets, tokens)
    for group, ref in zip(compiled.group_edges, want, strict=True):
        for a, b in zip(group, ref, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(SENTENCE, min_size=1, max_size=3),
    between_first_template_text(),
    edge_template_text(),
    st.data(),
)
def test_length_plans_compile_any_stream_like_the_reference(corpus, text_a, text_b, data):
    # The tasks of one template set share a plan per sentence length.  Three
    # tasks, two template sets and a model read back, compile one stream in
    # turns, whose lengths (a one-token sentence among them) are first seen
    # mid-stream: `build` plans only the corpus's lengths.
    dependency._edge_layout.cache_clear()
    instances = [DependencyInstance(s, None) for s in corpus]
    built = {}
    for name, text in (("a", text_a), ("b", text_b)):
        specs = parse_edge_templates(text)
        task = DependencyTask.build(specs, instances)
        built[name] = task, specs, task.extractor.alphabets
    task_a, specs_a, alphabets_a = built["a"]
    assert not task_a.extractor.layout.in_order
    built["read"] = read_back(task_a, text_a), specs_a, alphabets_a
    stream = data.draw(st.lists(st.lists(STREAM_TOKEN, min_size=2, max_size=9), max_size=4))
    one_token = [data.draw(STREAM_TOKEN)]
    stream.insert(data.draw(st.integers(0, len(stream))), one_token)
    stream.insert(len(stream) // 2, corpus[0])
    for tokens in stream:
        for name in data.draw(st.permutations(sorted(built))):
            task, specs, alphabets = built[name]
            check_compiled(task, specs, alphabets, tokens)
    assert 2 in task_a.extractor.layout._plans


def test_tasks_of_one_template_set_share_one_layout_and_its_plans():
    dependency._edge_layout.cache_clear()
    text = default_edge_templates()
    corpus = load_dependency(dependency_text(4, seed=5))
    task = DependencyTask.build(parse_edge_templates(text), corpus)
    layout, extractor = task.extractor.layout, task.extractor
    loaded = read_back(task, text)
    again = dependency.EdgeFeatureExtractor(parse_edge_templates(text), extractor.alphabets)
    assert loaded.extractor.layout is layout and again.layout is layout
    # `build` planned the corpus's lengths; expanding them again builds no plan
    plans = dict(layout._plans)
    assert sorted(plans) == sorted({len(inst.tokens) + 1 for inst in corpus})
    new = DependencyInstance([("n1", "n1", "N", "N")] * (max(plans) + 2), None)
    for t in (task, loaded):
        for inst in [*corpus, new]:
            t.compile(inst).ids
    assert sorted(layout._plans) == sorted([*plans, max(plans) + 3])
    assert all(layout._plans[n] is plan for n, plan in plans.items())
    # plans are shared, so none of their arrays can be written
    for plan in layout._plans.values():
        for a in plan:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0
    with pytest.raises(ValueError, match="read-only"):
        extractor.ends[0] = 1


def check_expanded(task, compiled, tokens):
    """`compiled`'s arrays equal the per-sentence compile of `tokens`."""
    want = reference_compile(task.extractor, tokens)
    for a, b in zip((compiled.cells, compiled.ids), want, strict=True):
        assert a.dtype == np.int64 and a.ndim == 1 and a.flags.c_contiguous
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(SENTENCE, min_size=1, max_size=3),
    st.one_of(between_first_template_text(), edge_template_text()),
    st.integers(1, 600),
    st.data(),
)
def test_batched_expansion_matches_per_sentence_compile(corpus, text, budget, data):
    # A stream of mixed lengths (one-token sentences among them) with values
    # the training corpus lacks, some holding "/", expanded by a firing
    # budget so small that one length spans several batches: some sentences
    # read alone before any batch, then drawn subsets, then the whole stream.
    specs = parse_edge_templates(text)
    task = DependencyTask.build(specs, [DependencyInstance(s, None) for s in corpus])
    stream = data.draw(st.lists(st.lists(STREAM_TOKEN, min_size=1, max_size=7), max_size=12))
    stream += [corpus[0], [data.draw(STREAM_TOKEN)]]
    compiled = [task.compile(DependencyInstance(tokens, None)) for tokens in stream]
    indices = st.integers(0, len(stream) - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dependency, "_FIRINGS", budget)
        for i in data.draw(st.lists(indices, max_size=3)):
            compiled[i].group_edges  # expands this sentence alone
        for subset in data.draw(st.lists(st.lists(indices, max_size=8), max_size=3)):
            task.extractor.expand([compiled[i] for i in subset])
        task.extractor.expand(compiled)
    assert all(inst.firings is not None for inst in compiled)
    for inst, tokens in zip(compiled, stream):
        check_expanded(task, inst, tokens)
    alphabets = task.extractor.alphabets
    check_compiled(task, specs, alphabets, stream[-1])


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [101, 102])
@pytest.mark.parametrize("name", ["dep-eisner", "dep-subproblem"])
def test_expansion_matches_per_sentence_compile_on_benchmark_corpora(name, seed):
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, seed)
    train = load_dependency(inputs.train_text)
    test = load_dependency(inputs.test_input_text)
    task = DependencyTask.build(
        parse_edge_templates(default_edge_templates()), train, workload.decoder
    )
    for corpus in (train, test):
        compiled = [task.compile(inst) for inst in corpus]
        task.extractor.expand(compiled)
        for inst, raw in zip(compiled, corpus):
            check_expanded(task, inst, raw.tokens)


@pytest.mark.parametrize("name", ["dep-eisner", "dep-subproblem"])
def test_build_alphabets_do_not_depend_on_the_firing_budget(name, monkeypatch):
    # the budget only sets when `build` drops repeated keys: as soon as the
    # firings since the last merge outnumber the distinct keys, or once at
    # the end; first-seen order is the same
    workloads = load_workloads()
    train = load_dependency(workloads.make_inputs(workloads.WORKLOADS[name], 101).train_text)
    specs = parse_edge_templates(default_edge_templates())
    merges = []
    first_seen = dependency._first_seen

    def counted(keys):
        merges[-1] += 1
        return first_seen(keys)

    monkeypatch.setattr(dependency, "_first_seen", counted)
    alphabets = []
    for budget in (1, 2**20):
        monkeypatch.setattr(dependency, "_FIRINGS", budget)
        merges.append(0)
        alphabets.append(DependencyTask.build(specs, train).extractor.alphabets)
    assert merges[0] >= 10 and merges[1] == 1
    assert alphabets[0] == alphabets[1]


def test_firings_run_once_per_batch_not_per_sentence(monkeypatch):
    # 120 sentences of three lengths: compile does no numpy work per
    # sentence, and one decode expands them in a few same-length batches
    specs = parse_edge_templates(default_edge_templates())
    corpus = [
        inst
        for l in (3, 4, 5)
        for inst in load_dependency(dependency_text(40, seed=l, min_len=l, max_len=l))
    ]
    task = DependencyTask.build(specs, corpus)
    calls = []
    firings = dependency._EdgeLayout.firings

    def counted(self, n, codes):
        calls.append((n, len(codes)))
        return firings(self, n, codes)

    monkeypatch.setattr(dependency._EdgeLayout, "firings", counted)
    compiled = [task.compile(inst) for inst in corpus]
    assert calls == []
    weights = [np.zeros(d) for d in task.group_dims]
    task.decode_corpus(weights, compiled)
    assert sorted({n for n, _ in calls}) == [4, 5, 6]
    assert sum(b for _, b in calls) == len(compiled)
    assert 8 * len(calls) <= len(compiled)
    batches = len(calls)
    # expanded once: decoding again and counting rows add no firing pass
    task.decode_corpus(weights, compiled, augmented=True)
    solver.gold_counts(task, compiled)
    assert len(calls) == batches
    # `train` expands its corpus in `gold_counts`, before a pool forks
    again = [task.compile(inst) for inst in corpus]
    solver.gold_counts(task, again)
    assert all(inst.firings is not None for inst in again)
    assert len(calls) == 2 * batches


def longest_run(occupied):
    """The most consecutive occupied slots, wrapping around the end."""
    if occupied.all():
        return occupied.size
    start = int(np.argmin(occupied))  # a free slot: no run wraps past it
    rolled = np.roll(occupied, -start)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], rolled.astype(np.int8), [0]))))
    return int((edges[1::2] - edges[::2]).max(initial=0))


@st.composite
def key_tables(draw):
    """Distinct non-negative int64 keys below 2**62: random sets, arithmetic
    progressions with power-of-two strides, or nothing."""
    kind = draw(st.sampled_from(["random", "progression", "empty"]))
    if kind == "random":
        keys = draw(st.sets(st.integers(0, 2**62 - 1), max_size=400))
        keys |= draw(st.sets(st.integers(0, 3000), max_size=400))
    elif kind == "progression":
        stride = 2 ** draw(st.integers(0, 50))
        count = draw(st.integers(1, 3000))
        start = draw(st.integers(0, 2**62 - 1 - stride * (count - 1)))
        keys = range(start, start + stride * count, stride)
    else:
        keys = []
    return np.array(sorted(keys), dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(key_tables(), st.sampled_from([1, 2, 8]), st.data())
def test_hashed_stage_ranks_like_searchsorted(table, window, data):
    stage = dependency._HashedRanks(table)
    occupied = stage.ranks >= 0
    assert occupied.size >= 4 * table.size and occupied.size & (occupied.size - 1) == 0
    assert occupied.sum() == table.size
    assert np.array_equal(np.sort(stage.keys[occupied]), table)
    assert np.array_equal(table[stage.ranks[occupied]], stage.keys[occupied])
    # misses: neighbours of the keys, -1, the ends of the int64 range, draws
    misses = np.concatenate(
        (
            table[:50] - 1,
            table[-50:] + 1,
            np.array([-1, -(2**63), 2**63 - 1, 2**62 - 1, 0], dtype=np.int64),
            np.array(data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50)),
                     dtype=np.int64),
        )
    )
    needles = np.concatenate((table, misses, table[::-1]))
    want = np.minimum(table.searchsorted(needles), table.size - 1) if table.size else None
    if table.size:
        want = np.where(table[want] == needles, want, -1)
    else:
        want = np.full(needles.size, -1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dependency, "_WINDOW", window)
        got = stage.rank(needles)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # a lookup takes one round for the home slots, then one per window of
    # slots until a needle stops, so the longest run of occupied slots
    # bounds the rounds: at most 1 + ceil(run / window), here 1 + 3 rounds
    # of eight slots
    assert longest_run(occupied) <= 24


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


def decode_single_root(scores, projective):
    """`_decode`'s single-root tree of one sentence's scores, a batch of one."""
    S = dependency._masked(scores)
    return dependency._decode(S[None], [S.shape[0]], projective, single_root=True)[0]


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


@st.composite
def raw_slabs(draw):
    """A masked padded batch as `_decode` takes it: sentences of 2..16 nodes
    in drawn order, integer scores in -2..2, some columns all one value."""
    sizes = draw(st.lists(st.integers(2, 16), min_size=1, max_size=4))
    tables = []
    for n in sizes:
        M = draw(arrays(np.float64, (n, n), elements=TIED_SCORES, fill=st.nothing()))
        for v in draw(st.lists(st.integers(1, n - 1), max_size=3)):
            M[:, v] = draw(TIED_SCORES)
        tables.append(M)
    L = max(sizes)
    S = np.full((len(sizes), L, L), dependency.NEG)
    for b, M in enumerate(tables):
        S[b, : len(M), : len(M)] = M
    return dependency._mask(S), sizes, tables


@settings(max_examples=120, deadline=None)
@given(raw_slabs(), st.booleans(), st.booleans())
def test_batched_cle_matches_reference_on_raw_slabs(slab, projective, single_root):
    # every sentence of the batch as decoded alone by the per-sentence
    # reference of either decoder; ties resolve alike, and no lane of the
    # batch reads -inf - -inf (the RuntimeWarning fails the test)
    S, sizes, tables = slab
    trees = dependency._decode(S, sizes, projective, single_root)
    reference = reference_eisner_decode if projective else reference_cle_decode
    for (heads, score), M in zip(trees, tables):
        if single_root:
            assert (heads, score) == decode_single_root(M, projective)
            assert score == reference_single_root(M, projective)[1]
            assert heads.count(0) == 1 and valid_arborescence(heads)
        else:
            want_heads, want = reference(M)
            assert heads == want_heads
            assert np.float64(score).tobytes() == np.float64(want).tobytes()
        if projective:
            assert valid_projective(heads)


def test_tree_of_negative_zeros_scores_positive_zero():
    # a score is summed from 0, as Python's sum is, so -0.0 edges give +0.0
    for projective in (True, False):
        for single_root in (False, True):
            S = dependency._masked(np.full((3, 3), -0.0))[None]
            ((_, score),) = dependency._decode(S, [3], projective, single_root)
            assert np.float64(score).tobytes() == np.float64(0.0).tobytes()


def nested_cycles(l):
    """Scores whose maximum arborescence takes l - 1 nested contractions:
    k -> k+1 scores 5 and k+1 -> k 4, so 1 and 2 close the first cycle and
    each later token closes one with the node that contracted the ones
    before it."""
    S = np.full((l + 1, l + 1), -100.0)
    k = np.arange(1, l)
    S[k, k + 1], S[k + 1, k] = 5.0, 4.0
    return S


def test_cle_deepest_nesting_in_a_batch():
    # nests of 2..8 tokens share chunks with cycle-free and one-token
    # sentences; the 8-token nest contracts 7 times, into slots 9..15 of
    # its chunk's 16-node slab
    rooted = np.full((9, 9), -100.0)
    rooted[0] = 1.0  # every token takes the root
    tables = [nested_cycles(l) for l in (2, 3, 5, 8)] + [rooted[:2, :2], rooted[:5, :5], rooted]
    tables += [np.zeros((2, 2)), nested_cycles(8), np.zeros((2, 2))]
    extractor, _ = SENTENCE_POOL
    task = DependencyTask(extractor, "nonprojective")
    sentences = [SimpleNamespace(n=len(M) - 1, firings=(), scores=M) for M in tables]
    slots = []
    contract = dependency._contract

    def spy(S, heads, cycles, slot):
        slots.append(slot)
        return contract(S, heads, cycles, slot)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dependency, "_CHART_CELLS", 3 * 9 * 9)
        mp.setattr(dependency, "_contract", spy)
        mp.setattr(DependencyTask, "_scores", lambda self, flat, inst, augmented: inst.scores)
        outputs, values = task.decode_corpus([np.zeros(1)], sentences)
    assert max(slots) == 15
    for heads, value, M in zip(outputs, values, tables):
        want_heads, want = reference_cle_decode(M)
        assert heads == want_heads
        assert value.tobytes() == np.float64(want).tobytes()
    assert outputs[3] == [0, 1, 2, 3, 4, 5, 6, 7]


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
        alphabets = task.extractor.alphabets
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
        assert inst.cells.shape == inst.ids.shape and inst.ends is task.extractor.ends
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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(TREE_CORPUS)), st.data())
def test_corpus_feature_ids_match_per_sentence_counts(decoder, data):
    task, compiled = TREE_CORPUS[decoder]
    gold = [(raw, inst) for raw, inst, _ in compiled if raw.heads is not None]
    offsets = np.cumsum([0, *task.group_dims])
    outputs = [
        data.draw(st.lists(st.integers(0, inst.n), min_size=inst.n, max_size=inst.n))
        for _, inst in gold
    ]
    ids, loss = task.corpus_feature_ids([inst for _, inst in gold], outputs)
    want = Counter()
    for (_, inst), heads in zip(gold, outputs):
        for off, counts in zip(offsets, feature_counts(task, inst, heads)):
            want.update({int(off) + f: int(c) for f, c in counts.items()})
    assert ids.dtype == np.int64
    assert Counter(ids.tolist()) == want
    hamming = sum(h != g for (raw, _), out in zip(gold, outputs) for h, g in zip(out, raw.heads))
    assert isinstance(loss, float) and loss == hamming


def test_corpus_feature_ids_errors():
    task, compiled = TREE_CORPUS["projective"]
    (_, inst, _), (_, other, _) = compiled[:2]
    good = [0] * other.n
    with pytest.raises(ValueError, match="size"):
        task.corpus_feature_ids([inst, other], [[0] * (inst.n + 1), good])
    with pytest.raises(ValueError, match="range"):
        task.corpus_feature_ids([inst, other], [[inst.n + 1] * inst.n, good])
    bare = compiled[-2][1]  # no gold heads
    with pytest.raises(ValueError, match="gold"):
        task.corpus_feature_ids([inst, bare], [[0] * inst.n, [0] * bare.n])


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


def sentence_pool():
    """An edge feature extractor and one compiled sentence of each length 1..30."""
    corpus = [
        load_dependency(dependency_text(1, seed=l, min_len=l, max_len=l))[0] for l in range(1, 31)
    ]
    task = DependencyTask.build(parse_edge_templates(default_edge_templates()), corpus)
    return task.extractor, [task.compile(inst) for inst in corpus]


SENTENCE_POOL = sentence_pool()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["projective", "nonprojective"]),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.integers(1, 2000),
)
def test_batched_decoding_matches_each_sentence_alone(
    decoder, lengths, seed, tied, augmented, cells
):
    # sentences of mixed lengths in drawn order, cut into chunks by a slab
    # budget that may hold less than one sentence; integer weights in -2..2
    # make scores tie, so first-maximum tie-breaking is checked too
    extractor, pool = SENTENCE_POOL
    task = DependencyTask(extractor, decoder)
    projective = decoder == "projective"
    compiled = [pool[l - 1] for l in lengths]
    rng = np.random.default_rng(seed)
    if tied:
        weights = [rng.integers(-2, 3, size=d).astype(float) for d in task.group_dims]
    else:
        weights = [rng.uniform(-1.0, 1.0, size=d) for d in task.group_dims]
    rooted = DependencyTask(extractor, decoder, single_root=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dependency, "_CHART_CELLS", cells)
        outputs, values = task.decode_corpus(weights, compiled, augmented)
        rooted_outputs, rooted_values = rooted.decode_corpus(weights, compiled, augmented)
    assert values.dtype == rooted_values.dtype == np.float64
    assert values.shape == rooted_values.shape == (len(compiled),)
    for i, inst in enumerate(compiled):
        S = task.edge_scores(np.concatenate(weights), inst)
        if augmented:
            S += 1.0
            S[inst.gold, np.arange(1, inst.n + 1)] -= 1.0
        heads, value = (reference_eisner_decode if projective else reference_cle_decode)(S)
        assert outputs[i] == heads
        assert values[i].tobytes() == np.float64(value).tobytes()
        heads, value = decode_single_root(S, projective)
        assert rooted_outputs[i] == heads
        assert rooted_values[i].tobytes() == np.float64(value).tobytes()
        # the uncharged total, summed edge by edge from the left
        assert value == sum(S[h, v] for v, h in enumerate(heads, start=1))


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
