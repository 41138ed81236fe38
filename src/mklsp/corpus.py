"""Corpus formats and instances.

Two on-disk formats are supported:

* the column token format (CRF++-style): one token per line,
  whitespace-separated columns, sentences separated by a blank line; when a
  file is labeled, the last column is the gold label;
* CoNLL-X: ten tab-separated fields per token
  (ID FORM LEMMA CPOSTAG POSTAG FEATS HEAD DEPREL PHEAD PDEPREL), ``_`` for a
  missing value.  Only the six named fields are interpreted; the rest are
  preserved on read and echoed back on write.

Both are framed alike: a blank or whitespace-only line ends a sentence,
however many come in a row, and CRLF reads like LF.  Every format error
names its line, a HEAD error its sentence, and a sentence's errors are
raised before any error of a later sentence.

A column file is read whole into one `SequenceTable`: one list per column
over every token of the corpus, label ids, and sentence offsets.  Its lines
end at ``\n`` (a path is opened with universal newlines, so ``\r\n`` and
``\r`` end lines there), and each line's fields are counted over arrays of
the text's code points, a block of them at a time, as ``str.split`` splits
them, so no Python call is made per line.  A `SequenceInstance` is a view
of one sentence of a table, and `write_sequence_corpus` writes a table's
columns with one join.  CoNLL-X is read through `_sentences`, one row per
line.

`size_chunks` is the one batching policy of both decoders: a pass's
instances, stable-sorted by size, cut into chunks within a cost budget.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

Token = tuple[str, ...]
"""A token is its tuple of observation-column strings."""


class CorpusFormatError(ValueError):
    """Raised when an input file violates the corpus format."""


class LabelTable:
    """Bidirectional label <-> id map; ids are assigned in first-seen order."""

    __slots__ = ("_labels", "_ids", "_frozen")

    def __init__(self, labels: Iterable[str] = ()):
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._frozen = False
        for lab in labels:
            self.intern(lab)

    def __len__(self) -> int:
        return len(self._labels)

    def freeze(self) -> None:
        self._frozen = True

    def intern(self, label: str) -> int:
        idx = self._ids.get(label)
        if idx is None:
            if self._frozen:
                raise ValueError(f"label table is frozen; unknown label {label!r}")
            idx = len(self._labels)
            self._ids[label] = idx
            self._labels.append(label)
        return idx

    def intern_all(self, labels: Sequence[str]) -> np.ndarray:
        """The int64 ids of `labels`, each interned in order as `intern` would."""
        ids = self._ids
        for label in dict.fromkeys(labels):
            if label not in ids:
                self.intern(label)
        return np.fromiter(map(ids.__getitem__, labels), dtype=np.int64, count=len(labels))

    def label_of(self, idx: int) -> str:
        return self._labels[idx]

    def labels(self) -> list[str]:
        return list(self._labels)

    def __repr__(self) -> str:
        return f"LabelTable({self._labels!r})"


class SequenceTable:
    """A tagger corpus by column: `columns[c][t]` is observation column c of
    token t, the tokens of every sentence in order; `labels[t]` is token t's
    label id (int64), or `labels` is None for an unlabeled corpus; sentence s
    holds tokens `offsets[s]` to `offsets[s + 1]` (a list of ints)."""

    __slots__ = ("columns", "labels", "offsets")

    def __init__(self, columns: list[list[str]], labels: np.ndarray | None, offsets: list[int]):
        self.columns = columns
        self.labels = labels
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def sentences(self) -> list["SequenceInstance"]:
        view = SequenceInstance.view
        return [view(self, lo, hi) for lo, hi in zip(self.offsets, self.offsets[1:])]

    @classmethod
    def gather(cls, instances: Sequence["SequenceInstance"]) -> "SequenceTable":
        """The sentences of `instances` in order as one table: the table they
        view when they are all its sentences in order, else a new one that
        joins their runs of adjacent sentences.  `labels` is None unless
        every sentence has labels."""
        if instances:
            table = instances[0].table
            if (
                len(instances) == len(table)
                and all(inst.table is table for inst in instances)
                and list(map(_LO, instances)) == table.offsets[:-1]
            ):
                return table
        runs: list[list] = []  # [table, lo, hi] of adjacent sentences of one table
        for inst in instances:
            if runs and runs[-1][0] is inst.table and runs[-1][2] == inst.lo:
                runs[-1][2] = inst.hi
            else:
                runs.append([inst.table, inst.lo, inst.hi])
        widths = {len(t.columns) for t, lo, hi in runs if hi > lo}
        if len(widths) > 1:
            raise ValueError(f"sentences with different column counts {sorted(widths)}")
        columns = [
            list(chain.from_iterable(t.columns[c][lo:hi] for t, lo, hi in runs if hi > lo))
            for c in range(widths.pop() if widths else 0)
        ]
        labels = None
        if all(t.labels is not None for t, _, _ in runs):
            parts = [t.labels[lo:hi] for t, lo, hi in runs]
            labels = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        offsets = [0]
        for inst in instances:
            offsets.append(offsets[-1] + inst.hi - inst.lo)
        return cls(columns, labels, offsets)


class SequenceInstance:
    """One sentence of the column format: tokens `lo` to `hi` of a
    `SequenceTable`.

    `tokens` holds observation columns only, one tuple per token; the gold
    label column (when the source file was labeled) lives in `labels` as ids
    of a `LabelTable`, or `labels` is None.  Both are built when read.
    `SequenceInstance(tokens, labels)` makes a sentence that is the one
    sentence of a table of its own; `read_sequence_corpus` makes views of
    one table.  Sentences are equal when their tokens and labels are.
    """

    __slots__ = ("table", "lo", "hi")

    def __init__(self, tokens: Sequence[Token], labels: Sequence[int] | None = None):
        if len({*map(len, tokens)}) > 1:
            raise ValueError("every token of a sentence needs the same column count")
        if labels is not None:
            if len(labels) != len(tokens):
                raise ValueError("one label per token required")
            labels = np.array(labels, dtype=np.int64)
        columns = [list(column) for column in zip(*tokens)]
        self.table = SequenceTable(columns, labels, [0, len(tokens)])
        self.lo, self.hi = 0, len(tokens)

    @classmethod
    def view(cls, table: SequenceTable, lo: int, hi: int) -> "SequenceInstance":
        inst = cls.__new__(cls)
        inst.table, inst.lo, inst.hi = table, lo, hi
        return inst

    @property
    def tokens(self) -> list[Token]:
        columns = [column[self.lo : self.hi] for column in self.table.columns]
        return list(zip(*columns)) if columns else [()] * len(self)

    @property
    def labels(self) -> list[int] | None:
        labels = self.table.labels
        return None if labels is None else labels[self.lo : self.hi].tolist()

    def __len__(self) -> int:
        return self.hi - self.lo

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceInstance):
            return NotImplemented
        return self.tokens == other.tokens and self.labels == other.labels

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SequenceInstance({self.tokens!r}, {self.labels!r})"


_LO = attrgetter("lo")


@dataclass
class DependencyInstance:
    """One CoNLL-X sentence.

    `tokens` carries (FORM, LEMMA, CPOSTAG, POSTAG) per word; `heads[i]` is
    the head position of word i+1 (0 = artificial root), or None when the
    source had no annotation.  `fields` keeps the verbatim ten-column rows so
    unparsed fields round-trip.
    """

    tokens: list[Token]
    heads: list[int] | None
    fields: list[list[str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)


def _text(source: str | Path | IO[str]) -> str:
    """All of `source`: a path is opened as UTF-8 and closed, an open text
    stream is read to its end and left open."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    return source.read()


def _sentences(source: str | Path | IO[str], sep: str) -> Iterator[tuple[int, list[list[str]]]]:
    """Each sentence of `source` as its first line number and its rows.

    A blank or whitespace-only line ends a sentence.  Any other line is one
    row: stripped of its line end and split at every `sep`.
    """
    path = isinstance(source, (str, Path))
    with open(source, encoding="utf-8") if path else nullcontext(source) as lines:
        rows: list[list[str]] = []
        first = 1  # the line number of rows[0]
        for line in lines:
            if not line.isspace():
                rows.append(line.rstrip("\r\n").split(sep))
                continue
            if rows:
                yield first, rows
                first += len(rows)
                rows = []
            first += 1
        if rows:
            yield first, rows


# `str.isspace` of every code point to U+3000, the last one that is a space,
# then False for any code point above it
_SPACE = np.array([*map(str.isspace, map(chr, range(0x3001))), False])


# characters per numpy pass of `_line_fields`, which keeps its arrays small
_BLOCK = 1 << 16


def _line_fields(text: str) -> np.ndarray:
    """The number of fields `str.split` finds on each line of `text`, the
    lines cut at ``\n``, counted over arrays of its code points, a block
    of them at a time."""
    starts = [np.zeros(0, dtype=np.intp)]  # where each field starts
    ends = [np.zeros(0, dtype=np.intp)]  # where each line ends
    after_space = True
    for lo in range(0, len(text), _BLOCK):
        part = text[lo : lo + _BLOCK]
        if part.isascii():
            points = np.frombuffer(part.encode("ascii"), dtype=np.uint8)
        else:
            points = np.frombuffer(part.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        space = np.take(_SPACE, points, mode="clip")  # above U+3000 reads the last, False
        # a field starts at a non-space after a space or at the start of the text
        begins = ~space
        begins[0] &= after_space
        begins[1:] &= space[:-1]
        after_space = bool(space[-1])
        starts.append(np.flatnonzero(begins) + lo)
        ends.append(np.flatnonzero(points == 10) + lo)
    fields_at, lines_end = np.concatenate(starts), np.concatenate(ends)
    return np.diff(fields_at.searchsorted(lines_end), prepend=0, append=fields_at.size)


def read_sequence_corpus(
    source,
    *,
    expected_columns: int | None = None,
    label_table: LabelTable | None = None,
    labeled: bool = True,
) -> list[SequenceInstance]:
    """Read the column token format into one `SequenceTable` and return
    views of its sentences, in file order.

    When `labeled`, the last column of each line is interned into
    `label_table` (required in that case).  `expected_columns` pins the file
    column count; otherwise the first token line sets it.  The first error
    in file order is raised, as a line-by-line reader would raise it: the
    labels of the sentences before a sentence with a bad line are interned
    first, so a frozen table's unknown label there wins.
    """
    if labeled and label_table is None:
        raise ValueError("label_table is required for labeled corpora")
    text = _text(source)
    counts = _line_fields(text)
    lines = np.flatnonzero(counts)  # the index of every token line
    if not lines.size:
        return []
    n_cols = int(counts[lines[0]]) if expected_columns is None else expected_columns
    # a token line after a blank line (or first) starts a sentence
    starts = np.flatnonzero(np.diff(lines, prepend=-2) > 1)
    fields = text.split()
    bad = np.flatnonzero(counts[lines] != n_cols)
    if labeled and n_cols < 2:
        bad = np.zeros(1, dtype=np.intp)  # every line fails one check or the other
    if bad.size:
        t = int(bad[0])
        lineno, got = int(lines[t]) + 1, int(counts[lines[t]])
        before = int(starts[starts.searchsorted(t, side="right") - 1])  # its sentence's first
        if labeled and before:
            label_table.intern_all(fields[n_cols - 1 : before * n_cols : n_cols])
        if got != n_cols:
            raise CorpusFormatError(f"line {lineno}: expected {n_cols} columns, got {got}")
        raise CorpusFormatError(f"line {lineno}: a labeled corpus needs at least 2 columns")
    columns = [fields[c::n_cols] for c in range(n_cols)]
    labels = label_table.intern_all(columns.pop()) if labeled else None
    return SequenceTable(columns, labels, [*starts.tolist(), int(lines.size)]).sentences()


def write_sequence_corpus(
    instances: Sequence[SequenceInstance],
    dest: IO[str],
    label_table: LabelTable | None = None,
    labels_override: Sequence[Sequence[int]] | None = None,
) -> None:
    """Write the column format back, normalized.

    Normalized means single-space column separators and a blank line after
    every sentence.  A label column is appended when label ids are available
    (from `labels_override` or the instances) and `label_table` is given;
    without `label_table`, sentences are written up to the first one with
    labels and tokens, then ValueError is raised, as it is for a labeling
    whose length is not its sentence's.  The sentences are
    gathered into one table (`SequenceTable.gather`) and each run of
    sentences alike (empty, unlabeled or labeled) is written with one join.
    """
    names = None if label_table is None else label_table.labels()
    if labels_override is None:
        ids = [inst.labels for inst in instances]
    elif len(labels_override) != len(instances):
        raise ValueError("one labeling per sentence required")
    else:
        ids = labels_override
    table = SequenceTable.gather(instances)
    lengths = list(map(len, instances))
    # runs of sentences alike: empty (0), unlabeled (1) or labeled (2)
    kinds = [0 if not l else 1 if y is None else 2 for y, l in zip(ids, lengths)]
    s = 0
    for kind, run in groupby(kinds):
        e = s + len(list(run))
        labels = None
        if kind == 2:
            if names is None:
                raise ValueError("label_table is required to write labels")
            if list(map(len, ids[s:e])) != lengths[s:e]:
                raise ValueError("labeling length does not match the sentence")
            labels = list(map(names.__getitem__, chain.from_iterable(ids[s:e])))
        dest.write("\n" * (e - s) if kind == 0 else _column_text(table, s, e, labels))
        s = e


def _column_text(table: SequenceTable, s: int, e: int, labels: list[str] | None) -> str:
    """Sentences s..e-1 of `table`, none of them empty, as normalized text:
    each token's fields (then its label, if `labels`) joined by single
    spaces, a line per token, and a blank line after each sentence."""
    offsets = table.offsets
    lo, hi = offsets[s], offsets[e]
    fields = [column[lo:hi] for column in table.columns]
    if labels is not None:
        fields.append(labels)
    # the pieces, token by token: each field, then a space, or after the last
    # field the line end, and after a sentence's last token a blank line too
    k = 2 * len(fields)
    pieces = [" "] * (k * (hi - lo))
    for c, values in enumerate(fields):
        pieces[2 * c :: k] = values
    ends = ["\n"] * (hi - lo)
    for end in offsets[s + 1 : e + 1]:
        ends[end - lo - 1] = "\n\n"
    if k:
        pieces[k - 1 :: k] = ends
        return "".join(pieces)
    return "".join(ends)


def find_cycle(heads: Sequence[int]) -> list[int] | None:
    """The first cycle met walking up from tokens 1..n in turn, or None.

    `heads[v - 1]` is the head of token v, 0 the root; values must already
    be range-checked to [0, len(heads)].  None means every token reaches
    the root; multiple children of the root are allowed.  A cycle is listed
    in walk order, starting at the token where the walk closed it.
    """
    n = len(heads)
    state = [0] * (n + 1)  # 0 unvisited, 1 on current path, 2 done
    state[0] = 2
    for start in range(1, n + 1):
        path = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = heads[node - 1]
        if state[node] == 1:
            return path[path.index(node) :]
        for visited in path:
            state[visited] = 2
    return None


def size_chunks(
    sizes: Sequence[int], cost: Callable[[int], int], budget: int
) -> list[list[int]]:
    """Indices of `sizes`, stable-sorted by size and cut into consecutive
    chunks: B items whose largest size is L keep B * cost(L) within
    `budget`; a chunk holds at least one."""
    chunks: list[list[int]] = []
    for i in sorted(range(len(sizes)), key=sizes.__getitem__):
        if chunks and (len(chunks[-1]) + 1) * cost(sizes[i]) <= budget:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


_CONLL_FIELDS = 10
_HEAD_FIELD = 6


def read_dependency_corpus(source) -> list[DependencyInstance]:
    """Read CoNLL-X sentences.

    HEAD must be all-annotated or all ``_`` within a sentence (the latter for
    prediction input).  Annotated heads must encode a tree rooted at 0.
    """
    instances: list[DependencyInstance] = []
    for first, rows in _sentences(source, "\t"):
        if {*map(len, rows)} != {_CONLL_FIELDS}:
            lineno, cols = next(r for r in enumerate(rows, first) if len(r[1]) != _CONLL_FIELDS)
            raise CorpusFormatError(
                f"line {lineno}: expected {_CONLL_FIELDS} tab-separated fields, "
                f"got {len(cols)}"
            )
        tokens: list[Token] = []
        raw_heads: list[str] = []
        for i, cols in enumerate(rows):
            if cols[0] != str(i + 1):
                raise CorpusFormatError(
                    f"line {first + i}: ID {cols[0]!r} out of order (expected {i + 1})"
                )
            tokens.append((cols[1], cols[2], cols[3], cols[4]))
            raw_heads.append(cols[_HEAD_FIELD])
        sent_no, n = len(instances) + 1, len(rows)
        heads: list[int] | None
        if all(h == "_" for h in raw_heads):
            heads = None
        elif any(h == "_" for h in raw_heads):
            raise CorpusFormatError(
                f"sentence {sent_no}: HEAD must be fully annotated or fully missing"
            )
        else:
            try:
                heads = [int(h) for h in raw_heads]
            except ValueError:
                raise CorpusFormatError(f"sentence {sent_no}: non-integer HEAD") from None
            for h in heads:
                if not 0 <= h <= n:
                    raise CorpusFormatError(
                        f"sentence {sent_no}: HEAD {h} out of range 0..{n}"
                    )
            if find_cycle(heads) is not None:
                raise CorpusFormatError(
                    f"sentence {sent_no}: HEAD assignment is not a tree (cycle)"
                )
        instances.append(DependencyInstance(tokens, heads, rows))
    return instances


def write_dependency_corpus(
    instances: Sequence[DependencyInstance],
    dest: IO[str],
    heads_override: Sequence[Sequence[int]] | None = None,
) -> None:
    """Echo CoNLL-X rows, with HEAD replaced when predictions are supplied."""
    for i, inst in enumerate(instances):
        heads = heads_override[i] if heads_override is not None else inst.heads
        for t, cols in enumerate(inst.fields):
            out = list(cols)
            if heads is not None:
                out[_HEAD_FIELD] = str(heads[t])
            dest.write("\t".join(out))
            dest.write("\n")
        dest.write("\n")
