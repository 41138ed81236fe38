"""Corpus formats and instances.

Two on-disk formats are supported:

* the column token format (CRF++-style): one token per line,
  whitespace-separated columns, sentences separated by a blank line; when a
  file is labeled, the last column is the gold label;
* CoNLL-X: ten tab-separated fields per token
  (ID FORM LEMMA CPOSTAG POSTAG FEATS HEAD DEPREL PHEAD PDEPREL), ``_`` for a
  missing value.  Only the six named fields are interpreted; the rest are
  preserved on read and echoed back on write.

`size_chunks` is the one batching policy of both decoders: a pass's
instances, stable-sorted by size, cut into chunks within a cost budget.
"""

from __future__ import annotations

from contextlib import contextmanager
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


@contextmanager
def _lines(source: str | Path | IO[str]) -> Iterator[IO[str]]:
    """The lines of a path, opened as UTF-8 and closed on exit, or of an
    open text stream, left open."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield handle
    else:
        yield source


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
    tokens: list[Token] = []
    labels: list[int] = []
    n_cols = expected_columns

    def flush() -> None:
        nonlocal tokens, labels
        if tokens:
            instances.append(SequenceInstance(tokens, labels if labeled else None))
            tokens, labels = [], []

    with _lines(source) as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                flush()
                continue
            cols = line.split()
            if n_cols is None:
                n_cols = len(cols)
            if len(cols) != n_cols:
                raise CorpusFormatError(
                    f"line {lineno}: expected {n_cols} columns, got {len(cols)}"
                )
            if labeled:
                if n_cols < 2:
                    raise CorpusFormatError(
                        f"line {lineno}: a labeled corpus needs at least 2 columns"
                    )
                tokens.append(tuple(cols[:-1]))
                labels.append(label_table.intern(cols[-1]))
            else:
                tokens.append(tuple(cols))
    flush()
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


def read_dependency_corpus(source) -> list[DependencyInstance]:
    """Read CoNLL-X sentences.

    HEAD must be all-annotated or all ``_`` within a sentence (the latter for
    prediction input).  Annotated heads must encode a tree rooted at 0.
    """
    instances: list[DependencyInstance] = []
    rows: list[tuple[int, list[str]]] = []

    def flush() -> None:
        nonlocal rows
        if not rows:
            return
        sent_no = len(instances) + 1
        n = len(rows)
        tokens: list[Token] = []
        raw_heads: list[str] = []
        fields: list[list[str]] = []
        for i, (lineno, cols) in enumerate(rows):
            if cols[0] != str(i + 1):
                raise CorpusFormatError(
                    f"line {lineno}: ID {cols[0]!r} out of order (expected {i + 1})"
                )
            tokens.append((cols[1], cols[2], cols[3], cols[4]))
            raw_heads.append(cols[_HEAD_FIELD])
            fields.append(cols)
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
        instances.append(DependencyInstance(tokens, heads, fields))
        rows = []

    with _lines(source) as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                flush()
                continue
            cols = line.split("\t")
            if len(cols) != _CONLL_FIELDS:
                raise CorpusFormatError(
                    f"line {lineno}: expected {_CONLL_FIELDS} tab-separated fields, "
                    f"got {len(cols)}"
                )
            rows.append((lineno, cols))
    flush()
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
