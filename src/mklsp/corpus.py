"""Corpus formats and instances.

Two on-disk formats are supported:

* the column token format (CRF++-style): one token per line,
  whitespace-separated columns, sentences separated by a blank line; when a
  file is labeled, the last column is the gold label;
* CoNLL-X: ten tab-separated fields per token
  (ID FORM LEMMA CPOSTAG POSTAG FEATS HEAD DEPREL PHEAD PDEPREL), ``_`` for a
  missing value.  Only the six named fields are interpreted; the rest are
  preserved on read and echoed back on write.

Both are read through one sentence reader, `_sentences`: a blank or
whitespace-only line ends a sentence, however many come in a row, and CRLF
reads like LF.  Every format error names its line, a HEAD error its
sentence, and a sentence's errors are raised before the next one is read.

`size_chunks` is the one batching policy of both decoders: a pass's
instances, stable-sorted by size, cut into chunks within a cost budget.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import add
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

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

    def label_of(self, idx: int) -> str:
        return self._labels[idx]

    def labels(self) -> list[str]:
        return list(self._labels)

    def __repr__(self) -> str:
        return f"LabelTable({self._labels!r})"


@dataclass
class SequenceInstance:
    """One sentence of the column format.

    `tokens` holds observation columns only; the gold label column (when the
    source file was labeled) lives in `labels` as ids of a `LabelTable`.
    """

    tokens: list[Token]
    labels: list[int] | None = None

    def __len__(self) -> int:
        return len(self.tokens)


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


def _sentences(
    source: str | Path | IO[str], split: Callable[[str], list[str]]
) -> Iterator[tuple[int, list[list[str]]]]:
    """Each sentence of `source` as its first line number and its rows.

    A path is opened as UTF-8 and closed at the end; an open text stream is
    left open.  `split` cuts each line into a row, and a line that splits to
    nothing is blank and ends a sentence.
    """
    path = isinstance(source, (str, Path))
    with open(source, encoding="utf-8") if path else nullcontext(source) as lines:
        rows: list[list[str]] = []
        first = 1  # the line number of rows[0]
        for line in lines:
            cols = split(line)
            if cols:
                rows.append(cols)
                continue
            if rows:
                yield first, rows
                first += len(rows)
                rows = []
            first += 1
        if rows:
            yield first, rows


def read_sequence_corpus(
    source,
    *,
    expected_columns: int | None = None,
    label_table: LabelTable | None = None,
    labeled: bool = True,
) -> list[SequenceInstance]:
    """Read the column token format.

    When `labeled`, the last column of each line is interned into
    `label_table` (required in that case).  `expected_columns` pins the file
    column count; otherwise the first token line sets it.  Sentences are
    returned in file order.
    """
    if labeled and label_table is None:
        raise ValueError("label_table is required for labeled corpora")
    instances: list[SequenceInstance] = []
    n_cols = expected_columns
    for first, rows in _sentences(source, str.split):
        if n_cols is None:
            n_cols = len(rows[0])
        for lineno, cols in enumerate(rows, start=first):
            if len(cols) != n_cols:
                raise CorpusFormatError(
                    f"line {lineno}: expected {n_cols} columns, got {len(cols)}"
                )
            if labeled and n_cols < 2:
                raise CorpusFormatError(
                    f"line {lineno}: a labeled corpus needs at least 2 columns"
                )
        if labeled:
            tokens = [tuple(cols[:-1]) for cols in rows]
            instances.append(SequenceInstance(tokens, [label_table.intern(c[-1]) for c in rows]))
        else:
            instances.append(SequenceInstance(list(map(tuple, rows))))
    return instances


def write_sequence_corpus(
    instances: Sequence[SequenceInstance],
    dest: IO[str],
    label_table: LabelTable | None = None,
    labels_override: Sequence[Sequence[int]] | None = None,
) -> None:
    """Write the column format back, normalized.

    Normalized means single-space column separators and a blank line after
    every sentence.  A label column is appended when label ids are available
    (from `labels_override` or the instances) and `label_table` is given.
    """
    names = None if label_table is None else label_table.labels()
    for i, inst in enumerate(instances):
        ids = labels_override[i] if labels_override is not None else inst.labels
        tokens = inst.tokens
        if ids is not None and tokens:
            if names is None:
                raise ValueError("label_table is required to write labels")
            tokens = map(add, tokens, [(names[ids[t]],) for t in range(len(tokens))])
        # one write per sentence: its token lines, then the blank line
        rows = list(map(" ".join, tokens))
        rows.append("\n")
        dest.write("\n".join(rows))


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


def _tab_fields(line: str) -> list[str]:
    """A CoNLL-X line's tab-separated fields; none for a blank line."""
    return [] if line.isspace() else line.rstrip("\r\n").split("\t")


def read_dependency_corpus(source) -> list[DependencyInstance]:
    """Read CoNLL-X sentences.

    HEAD must be all-annotated or all ``_`` within a sentence (the latter for
    prediction input).  Annotated heads must encode a tree rooted at 0.
    """
    instances: list[DependencyInstance] = []
    for first, rows in _sentences(source, _tab_fields):
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
