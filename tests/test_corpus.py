import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mklsp import corpus
from mklsp.corpus import (
    CorpusFormatError,
    LabelTable,
    SequenceInstance,
    SequenceTable,
    find_cycle,
    read_dependency_corpus,
    read_sequence_corpus,
    size_chunks,
    write_dependency_corpus,
    write_sequence_corpus,
)

from _oracles import (
    reference_read_sequence_corpus,
    reference_write_sequence_corpus,
    write_sequence_corpus_per_token,
)


def seq(text, **kw):
    table = kw.pop("label_table", LabelTable())
    return read_sequence_corpus(io.StringIO(text), label_table=table, **kw), table


def conll_line(i, head, form="w", pos="N"):
    return f"{i}\t{form}\t{form}\t{pos}\t{pos}\t_\t{head}\t_\t_\t_"


def dep(heads_per_sentence):
    rows = []
    for heads in heads_per_sentence:
        for i, h in enumerate(heads, start=1):
            rows.append(conll_line(i, h))
        rows.append("")
    return read_dependency_corpus(io.StringIO("\n".join(rows) + "\n"))


class TestSequenceRead:
    def test_basic_two_tokens(self):
        insts, table = seq("John NNP B-PER\nruns VBZ O\n\n")
        assert len(insts) == 1
        inst = insts[0]
        assert inst.tokens == [("John", "NNP"), ("runs", "VBZ")]
        assert table.labels() == ["B-PER", "O"]
        assert inst.labels == [0, 1]

    def test_empty_stream(self):
        insts, _ = seq("")
        assert insts == []

    def test_column_mismatch_reports_line(self):
        with pytest.raises(CorpusFormatError, match="line 2"):
            seq("a b X\nc Y\n\n")

    def test_missing_trailing_blank_line_ok(self):
        insts, _ = seq("a b X")
        assert len(insts) == 1

    def test_multiple_sentences(self):
        insts, _ = seq("a X\n\nb X\nc Y\n\n")
        assert [len(i.tokens) for i in insts] == [1, 2]

    def test_unlabeled_mode(self):
        insts = read_sequence_corpus(io.StringIO("a b\nc d\n\n"), labeled=False)
        assert insts[0].labels is None
        assert insts[0].tokens == [("a", "b"), ("c", "d")]

    def test_labeled_requires_table(self):
        with pytest.raises(ValueError, match="label_table"):
            read_sequence_corpus(io.StringIO("a X\n\n"), labeled=True)

    def test_expected_columns_enforced(self):
        with pytest.raises(CorpusFormatError, match="line 1"):
            read_sequence_corpus(
                io.StringIO("a b\n\n"), expected_columns=3, labeled=False
            )


class TestSequenceWrite:
    def test_round_trip_normalized(self):
        text = "a b X\nc d Y\n\ne f X\n\n"
        insts, table = seq(text)
        out = io.StringIO()
        write_sequence_corpus(insts, out, table)
        assert out.getvalue() == text

    def test_labels_override(self):
        insts, table = seq("a X\nb Y\n\n")
        out = io.StringIO()
        write_sequence_corpus(insts, out, table, labels_override=[[1, 0]])
        assert out.getvalue() == "a Y\nb X\n\n"

    def test_unlabeled_write(self):
        insts = read_sequence_corpus(io.StringIO("a b\n\n"), labeled=False)
        out = io.StringIO()
        write_sequence_corpus(insts, out)
        assert out.getvalue() == "a b\n\n"


class TestDependencyRead:
    def test_single_token(self):
        (inst,) = dep([[0]])
        assert inst.heads == [0]
        assert len(inst.tokens) == 1

    def test_chain(self):
        (inst,) = dep([[2, 0]])
        assert inst.heads == [2, 0]

    def test_cycle_rejected(self):
        with pytest.raises(CorpusFormatError, match="sentence 1"):
            dep([[2, 1]])

    def test_head_out_of_range(self):
        with pytest.raises(CorpusFormatError, match="HEAD"):
            dep([[3, 0]])

    def test_multiple_root_children_allowed(self):
        (inst,) = dep([[0, 0]])
        assert inst.heads == [0, 0]

    def test_token_columns(self):
        text = "1\tJohn\tjohn\tN\tNNP\t_\t0\t_\t_\t_\n\n"
        (inst,) = read_dependency_corpus(io.StringIO(text))
        assert inst.tokens == [("John", "john", "N", "NNP")]

    def test_unannotated_heads(self):
        text = conll_line(1, "_") + "\n" + conll_line(2, "_") + "\n\n"
        (inst,) = read_dependency_corpus(io.StringIO(text))
        assert inst.heads is None

    def test_mixed_heads_rejected(self):
        text = conll_line(1, "_") + "\n" + conll_line(2, 0) + "\n\n"
        with pytest.raises(CorpusFormatError):
            read_dependency_corpus(io.StringIO(text))

    def test_wrong_field_count(self):
        with pytest.raises(CorpusFormatError, match="10"):
            read_dependency_corpus(io.StringIO("1\tw\tw\tN\n\n"))

    def test_bad_id_sequence(self):
        text = conll_line(1, 0) + "\n" + conll_line(3, 1) + "\n\n"
        with pytest.raises(CorpusFormatError):
            read_dependency_corpus(io.StringIO(text))


class TestDependencyWrite:
    def test_echoes_unknown_fields(self):
        text = "1\tw\tlem\tC\tP\tfeat=x\t0\trel\tph\tpd\n\n"
        insts = read_dependency_corpus(io.StringIO(text))
        out = io.StringIO()
        write_dependency_corpus(insts, out)
        assert out.getvalue() == text

    def test_heads_override(self):
        (inst,) = dep([[0, 1]])
        out = io.StringIO()
        write_dependency_corpus([inst], out, heads_override=[[2, 0]])
        lines = out.getvalue().strip().split("\n")
        assert lines[0].split("\t")[6] == "2"
        assert lines[1].split("\t")[6] == "0"


def test_find_cycle():
    assert find_cycle([0]) is None
    assert find_cycle([2, 0]) is None
    assert find_cycle([0, 0]) is None
    assert find_cycle([2, 1]) == [1, 2]
    assert find_cycle([3, 1, 2]) == [1, 3, 2]
    # the walk from token 1 enters the cycle 2 -> 3 -> 2 at token 2
    assert find_cycle([2, 3, 2]) == [2, 3]
    assert find_cycle([0, 3, 2]) == [2, 3]


@given(
    st.lists(st.integers(0, 30), max_size=40),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(1, 2000),
)
def test_size_chunks_fill_the_budget_in_stable_size_order(sizes, a, b, budget):
    def cost(n):
        return a * n + b

    chunks = size_chunks(sizes, cost, budget)
    assert [i for chunk in chunks for i in chunk] == sorted(
        range(len(sizes)), key=sizes.__getitem__
    )
    for chunk, after in zip(chunks, chunks[1:] + [None]):
        assert chunk
        # within budget unless alone, and full: the next item would not fit
        width = cost(sizes[chunk[-1]])
        assert len(chunk) == 1 or len(chunk) * width <= budget
        if after is not None:
            assert (len(chunk) + 1) * cost(sizes[after[0]]) > budget


def test_label_table_first_seen_and_freeze():
    t = LabelTable()
    assert t.intern("b") == 0
    assert t.intern("a") == 1
    assert t.intern("b") == 0
    t.freeze()
    with pytest.raises(ValueError):
        t.intern("c")
    assert t.label_of(1) == "a"
    assert t.intern("a") == 1  # a frozen table still maps the labels it has
    assert t.labels() == ["b", "a"]


words = st.lists(
    st.text(alphabet="abcxyz", min_size=1, max_size=4), min_size=1, max_size=5
)


@given(st.lists(words, min_size=1, max_size=4))
def test_sequence_write_read_round_trip(sentences):
    table = LabelTable()
    text = ""
    for sent in sentences:
        for w in sent:
            text += f"{w} L\n"
        text += "\n"
    insts = read_sequence_corpus(io.StringIO(text), label_table=table)
    out = io.StringIO()
    write_sequence_corpus(insts, out, table)
    assert out.getvalue() == text


# no tab, newline or carriage return, so every value stays one field
field_values = st.text(alphabet="abcXY_-=|. ", min_size=1, max_size=4)


@st.composite
def labeled_sentences(draw):
    """Sentences of one to three columns (none empty, some sentences empty)
    with label ids, a label table, and per sentence ids or None to override
    them with."""
    table = LabelTable()
    for name in draw(st.lists(st.text("LXY-", min_size=1, max_size=3), min_size=1, max_size=3)):
        table.intern(name)
    columns = draw(st.integers(1, 3))
    ids = st.integers(0, len(table) - 1)
    instances, override = [], []
    for _ in range(draw(st.integers(0, 4))):
        l = draw(st.integers(0, 4))
        tokens = [
            tuple(draw(st.lists(field_values, min_size=columns, max_size=columns)))
            for _ in range(l)
        ]
        labels = draw(st.none() | st.lists(ids, min_size=l, max_size=l))
        instances.append(SequenceInstance(tokens, labels))
        override.append(draw(st.lists(ids, min_size=l, max_size=l)))
    return instances, table, override


@given(labeled_sentences(), st.sampled_from(["table", "override", "none"]))
def test_sequence_writer_bytes_match_per_token_writer(case, mode):
    # one write per sentence gives the bytes the per-token writer gives; with
    # labels but no table both raise and leave the same sentences written
    instances, table, override = case
    kwargs = {
        "table": {"label_table": table},
        "override": {"label_table": table, "labels_override": override},
        "none": {},
    }[mode]
    outputs = []
    for writer in (write_sequence_corpus, write_sequence_corpus_per_token):
        out = io.StringIO()
        try:
            writer(instances, out, **kwargs)
            outputs.append((out.getvalue(), None))
        except ValueError as exc:
            outputs.append((out.getvalue(), str(exc)))
    assert outputs[0] == outputs[1]


@st.composite
def conll_sentences(draw):
    """Rows of one CoNLL-X sentence: a tree over random heads, or every HEAD
    "_", and arbitrary values in the other fields."""
    n = draw(st.integers(min_value=1, max_value=6))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for j, token in enumerate(order):  # each token hangs off the root or an earlier one
        heads[token - 1] = draw(st.sampled_from([0, *order[:j]]))
    annotated = draw(st.booleans())
    rows = []
    for i in range(1, n + 1):
        values = draw(st.lists(field_values, min_size=9, max_size=9))
        values[5] = str(heads[i - 1]) if annotated else "_"
        rows.append([str(i), *values])
    return rows


@given(st.lists(conll_sentences(), min_size=1, max_size=4))
def test_dependency_write_read_round_trip(sentences):
    text = "".join("".join("\t".join(row) + "\n" for row in rows) + "\n" for rows in sentences)
    insts = read_dependency_corpus(io.StringIO(text))
    assert [inst.fields for inst in insts] == sentences
    out = io.StringIO()
    write_dependency_corpus(insts, out)
    assert out.getvalue() == text
    assert read_dependency_corpus(io.StringIO(out.getvalue())) == insts


SEQ_TEXT = "naïve JJ B\ncafé NN E\n\nx NN B\n\n"
CONLL_TEXT = "\n".join([conll_line(1, 2, form="naïve"), conll_line(2, 0), "", conll_line(1, 0)])


@pytest.mark.parametrize("as_path", [str, lambda p: p], ids=["str", "Path"])
def test_path_and_stream_read_alike(tmp_path, as_path):
    seq_file, conll_file = tmp_path / "train.txt", tmp_path / "train.conll"
    seq_file.write_text(SEQ_TEXT, encoding="utf-8")
    conll_file.write_text(CONLL_TEXT, encoding="utf-8")

    path_table, stream_table = LabelTable(), LabelTable()
    from_path = read_sequence_corpus(as_path(seq_file), label_table=path_table)
    from_stream = read_sequence_corpus(io.StringIO(SEQ_TEXT), label_table=stream_table)
    assert from_path == from_stream and len(from_path) == 2
    assert path_table.labels() == stream_table.labels() == ["B", "E"]
    bare = read_sequence_corpus(as_path(seq_file), labeled=False)
    assert bare == read_sequence_corpus(io.StringIO(SEQ_TEXT), labeled=False)

    from_path = read_dependency_corpus(as_path(conll_file))
    assert from_path == read_dependency_corpus(io.StringIO(CONLL_TEXT))
    assert [inst.heads for inst in from_path] == [[2, 0], [0]]
    assert from_path[0].tokens[0][0] == "naïve"


# Framing: blank and whitespace-only lines end a sentence however many there
# are, CRLF reads like LF (a StringIO does not translate it), a final newline
# is optional, and errors name the line they would name in LF text.
SEQ_FRAMED = "\n \t\nnaïve JJ B\ncafé  NN\tE\n\n\n   \nx NN B\n\t\ny NN E"
SEQ_PLAIN = "naïve JJ B\ncafé NN E\n\nx NN B\n\ny NN E\n"
CONLL_FRAMED = "\n".join(
    ["", " ", conll_line(1, 2, form="naïve"), conll_line(2, 0), "", "\t\t", "",
     conll_line(1, 0), " \t ", conll_line(1, 0), conll_line(2, 1)]
)
CONLL_PLAIN = "\n".join(
    [conll_line(1, 2, form="naïve"), conll_line(2, 0), "", conll_line(1, 0), "",
     conll_line(1, 0), conll_line(2, 1), ""]
)


def framings(tmp_path, text):
    """`text` as LF and CRLF, each as a path and as a StringIO."""
    sources = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        raw = text.replace("\n", newline)
        path = tmp_path / name
        path.write_bytes(raw.encode("utf-8"))
        sources += [(f"{name}-path", path), (f"{name}-stream", io.StringIO(raw))]
    return sources


def strip_last_column(text):
    return "\n".join(" ".join(line.split()[:-1]) if line.split() else line
                     for line in text.split("\n"))


def test_sequence_framing_is_read_alike(tmp_path):
    expected, labels = seq(SEQ_PLAIN)
    assert len(expected) == 3
    for name, source in framings(tmp_path, SEQ_FRAMED):
        table = LabelTable()
        assert read_sequence_corpus(source, label_table=table) == expected, name
        assert table.labels() == labels.labels(), name
    bare = [SequenceInstance(inst.tokens) for inst in expected]
    for name, source in framings(tmp_path, strip_last_column(SEQ_FRAMED)):
        assert read_sequence_corpus(source, labeled=False) == bare, name


def test_dependency_framing_is_read_alike(tmp_path):
    expected = read_dependency_corpus(io.StringIO(CONLL_PLAIN))
    assert [inst.heads for inst in expected] == [[2, 0], [0], [0, 1]]
    for name, source in framings(tmp_path, CONLL_FRAMED):
        assert read_dependency_corpus(source) == expected, name


@pytest.mark.parametrize(
    "text,message",
    [
        # a bad ID and, on a later line of the same sentence, a wrong field count
        ("\n".join([conll_line(1, 0), conll_line(3, 1), "1\tw\tw"]),
         "line 3: expected 10 tab-separated fields, got 3"),
        ("\n".join([conll_line(1, 0), " ", conll_line(1, 0), conll_line(3, 1)]),
         "line 4: ID '3' out of order (expected 2)"),
        # a sentence's HEAD error before a later sentence's field count
        ("\n".join([conll_line(1, 1), "", "", "1\tw"]),
         "sentence 1: HEAD assignment is not a tree (cycle)"),
        ("\n".join([conll_line(1, 0), "\t", conll_line(1, "_"), conll_line(2, 1)]),
         "sentence 2: HEAD must be fully annotated or fully missing"),
    ],
)
def test_dependency_errors_keep_their_line_and_order(tmp_path, text, message):
    for name, source in framings(tmp_path, text):
        with pytest.raises(CorpusFormatError) as err:
            read_dependency_corpus(source)
        assert str(err.value) == message, name


@pytest.mark.parametrize(
    "text,kw,message",
    [
        ("a b X\n \n\nc Y", {}, "line 4: expected 3 columns, got 2"),
        ("a X\nb\n\nc Y", {"expected_columns": 1}, "line 1: expected 1 columns, got 2"),
        ("a\n\nb c", {"expected_columns": 1}, "line 1: a labeled corpus needs at least 2 columns"),
    ],
)
def test_sequence_errors_keep_their_line(tmp_path, text, kw, message):
    for name, source in framings(tmp_path, text):
        with pytest.raises(CorpusFormatError) as err:
            read_sequence_corpus(source, label_table=LabelTable(), **kw)
        assert str(err.value) == message, name


# The tagger reader against the line-by-line reference: lines hold runs of
# any whitespace `str.split` splits at, including characters that
# `str.splitlines` would end a line at but file iteration does not (\x0b,
# \x0c, \x1c, \x85, U+2028) and a lone \r (a line end only in a file, where
# universal newlines apply); lines end in \n or \r\n, the last one maybe
# not at all, and blank lines may hold whitespace.
SPACE_CHARS = " \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\r"
SPACES = st.text(st.sampled_from(SPACE_CHARS), min_size=1, max_size=3)
FIELDS = st.text(st.sampled_from("abXYé/:_-"), min_size=1, max_size=3)


@st.composite
def column_files(draw):
    """Text of a column file whose lines mostly hold `columns` fields."""
    columns = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["token"] * 6 + ["blank", "odd"]))
        if kind == "blank":
            lines.append(draw(st.just("") | SPACES))
            continue
        n = columns if kind == "token" else draw(st.integers(1, 4))
        fields = draw(st.lists(FIELDS, min_size=n, max_size=n))
        line = draw(SPACES).join(fields)
        lines.append(draw(st.just("") | SPACES) + line + draw(st.just("") | SPACES))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final line end
    return text


def read_both(text, as_path, directory, **kw):
    """(result or (error type, message), label order) of the reader and of
    the reference on `text`, each from its own path or StringIO, each
    with its own copy of the label table `kw` may hold."""
    outcomes = []
    for reader in (read_sequence_corpus, reference_read_sequence_corpus):
        table = kw.get("label_table")
        if table is not None:
            table = LabelTable(table.labels())
            if kw["frozen"]:
                table.freeze()
        if as_path:
            source = directory / "corpus.txt"
            source.write_bytes(text.encode("utf-8"))
        else:
            source = io.StringIO(text)
        try:
            got = reader(source, expected_columns=kw.get("expected_columns"),
                         label_table=table, labeled=kw.get("labeled", True))
        except (CorpusFormatError, ValueError) as exc:
            got = (type(exc), str(exc))
        outcomes.append((got, None if table is None else table.labels()))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(
    column_files(),
    st.booleans(),
    st.booleans(),
    st.none() | st.integers(0, 3),
    st.lists(st.sampled_from(["a", "X", "Y", "b"]), max_size=3, unique=True),
    st.booleans(),
    st.sampled_from([1, 2, 5, 1 << 16]),
)
def test_sequence_reader_matches_line_by_line_reference(
    tmp_path_factory, text, as_path, labeled, expected, known, frozen, block
):
    # whatever the block of characters the fields are counted in: at 1 every
    # field and line end falls on a block's edge
    directory = tmp_path_factory.mktemp("read", numbered=True)
    table = LabelTable(known) if labeled else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_BLOCK", block)
        new, ref = read_both(text, as_path, directory, label_table=table, frozen=frozen,
                             expected_columns=expected, labeled=labeled)
    assert new == ref


@pytest.mark.parametrize("as_path", [False, True])
def test_sequence_reader_error_order_and_line_ends(tmp_path, as_path):
    # a frozen table's unknown label in sentence 1 is raised before a bad
    # column count in sentence 3
    text = "a b X\nc d Z\n\ne f X\n\ng X\n"
    table = LabelTable(["X"])
    new, ref = read_both(text, as_path, tmp_path, label_table=table, frozen=True)
    assert new == ref
    assert new[0] == (ValueError, "label table is frozen; unknown label 'Z'")
    # the same file with a known label: the column count of line 6 is raised
    fixed = text.replace("Z", "X")
    new, ref = read_both(fixed, as_path, tmp_path, label_table=table, frozen=True)
    assert new == ref == ((CorpusFormatError, "line 6: expected 3 columns, got 2"), ["X"])
    # characters `str.splitlines` ends a line at are spaces inside a line
    text = "a\x1cb X\nc\x85d\u2028 Y\x0b\n\x0c\nx\x1dy Z\x1e\n"
    new, ref = read_both(text, as_path, tmp_path, label_table=LabelTable(), frozen=False)
    assert new == ref
    tokens = [[len(inst), inst.tokens] for inst in new[0]]
    assert tokens == [[2, [("a", "b"), ("c", "d")]], [1, [("x", "y")]]]


@settings(max_examples=150, deadline=None)
@given(column_files(), st.booleans(), st.sampled_from(["table", "override", "none"]), st.data())
def test_sequence_writer_matches_per_sentence_reference(text, labeled, mode, data):
    # sentences as the reader makes them, with and without a label column,
    # written back with the table's labels, with others, or with no table
    table = LabelTable()
    try:
        instances = read_sequence_corpus(io.StringIO(text), label_table=table, labeled=labeled)
    except CorpusFormatError:
        return
    if not len(table):
        table.intern("L")
    labels = st.integers(0, len(table) - 1)
    override = [data.draw(st.lists(labels, min_size=len(i), max_size=len(i))) for i in instances]
    kwargs = {
        "table": {"label_table": table},
        "override": {"label_table": table, "labels_override": override},
        "none": {},
    }[mode]
    outputs = []
    for writer in (write_sequence_corpus, reference_write_sequence_corpus):
        out = io.StringIO()
        try:
            writer(instances, out, **kwargs)
            outputs.append((out.getvalue(), None))
        except ValueError as exc:
            outputs.append((out.getvalue(), str(exc)))
    assert outputs[0] == outputs[1]


def test_sequence_writer_checks_the_labelings():
    insts, table = seq("a X\nb Y\n\nc X\n")
    with pytest.raises(ValueError, match="one labeling per sentence"):
        write_sequence_corpus(insts, io.StringIO(), table, labels_override=[[0, 1]])
    with pytest.raises(ValueError, match="length"):
        write_sequence_corpus(insts, io.StringIO(), table, labels_override=[[0], [1]])


def test_sentences_view_one_table_and_gather_joins_others():
    insts, table = seq("a b X\nc d Y\n\ne f X\n\ng h Y\n")
    whole = SequenceTable.gather(insts)
    assert whole is insts[0].table and whole.offsets == [0, 2, 3, 4]
    assert whole.columns == [["a", "c", "e", "g"], ["b", "d", "f", "h"]]
    assert whole.labels.tolist() == [0, 1, 0, 1]
    hand = SequenceInstance([("x", "y")], [1])
    mixed = SequenceTable.gather([insts[2], hand, insts[0], insts[1]])
    assert mixed.offsets == [0, 1, 2, 4, 5]
    assert mixed.columns == [["g", "x", "a", "c", "e"], ["h", "y", "b", "d", "f"]]
    assert mixed.labels.tolist() == [1, 1, 0, 1, 0]
    bare = SequenceTable.gather([insts[0], SequenceInstance([("x", "y")])])
    assert bare.labels is None and bare.offsets == [0, 2, 3]
    with pytest.raises(ValueError, match="column counts"):
        SequenceTable.gather([insts[0], SequenceInstance([("x",)])])
    with pytest.raises(ValueError, match="one label per token"):
        SequenceInstance([("x",)], [0, 1])
    # a sentence is equal to another with the same tokens and labels
    assert insts[1] == SequenceInstance([("e", "f")], [0]) != SequenceInstance([("e", "f")])
    assert SequenceInstance([(), ()]).tokens == [(), ()]


def test_no_code_point_above_the_space_table_is_a_space():
    # the reader takes every code point past its table for a non-space
    last = len(corpus._SPACE) - 2
    assert chr(last).isspace()
    assert not any(chr(c).isspace() for c in range(last + 1, sys.maxunicode + 1))
    assert corpus._SPACE.tolist() == [chr(c).isspace() for c in range(last + 1)] + [False]
