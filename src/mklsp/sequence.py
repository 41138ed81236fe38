"""Linear-chain sequence labeling: the fired weight ids and Hamming loss
of a corpus, exact Viterbi and loss-augmented Viterbi decoders.

Feature layout per observation group j: the flat weight index of feature f
conjoined with label y is ``f * k + y``.  The optional transition group (one
weight per label pair, no observation conjunction) uses ``prev * k + cur``
and always sits last.

`SequenceTask` parses its alphabet strings into key tables when it is made,
after `build` and after `Model.read` alike.  `compile` only records a
sentence: the first read of a recorded sentence's `feats` or `gold`
compiles every sentence its task still holds recorded, and a decode pass
or a row first compiles the recorded sentences it is given (so a forked
worker compiles only its own range).  A batch is gathered into one column
table (`corpus.SequenceTable`), each kept rule's key lookup is mapped once
over that table's key stream (see `templates.TemplateKeys`) into one
(G, tokens) array of feature ids, and each sentence's `feats` and `gold`
are views into the batch's arrays.  The ids a row counts over all
sentences of one batch, in order, are read from those arrays.  A rule
whose alphabet is empty (a group a trained model dropped) fires nothing:
`compile` computes no key for it, its compiled sentences carry no row for
it, and neither the scorer nor the counted ids read it.

A corpus is decoded in padded chunks: the sentences of a pass are
stable-sorted by length and cut into chunks of B sentences within a fixed
budget of array cells (see `_CHUNK_CELLS`), each right-aligned in one
(L, B) grid, so every sentence ends at L - 1.  Emissions are gathered per group from the
table transposed with a zero column appended, which silent ids (-1) read,
into a (k, L, B) array with the batch innermost; one DP per chunk takes one
step per position.  The per-sentence decoders are a chunk of one through
the same DP.  Ties break toward the lexicographically smallest label
sequence: the DP runs backward to get exact suffix values, then each
sequence is rebuilt front to back taking the first argmax at each
position, from a virtual start label with zero transitions held through a
sentence's padding.  Each sentence sees the float operations it would see
alone, up to adding +0.0 (exact, as no running sum is -0.0), so chunking
moves no label and no score.  The ids a corpus fires are counted over one
concatenation of its sentences, or over its batch's arrays.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter, is_
from typing import Sequence

import numpy as np

from .corpus import LabelTable, SequenceInstance, SequenceTable, size_chunks
from .templates import (
    OBSERVATION,
    TRANSITION,
    TemplateKeys,
    TemplateSpec,
    index_corpus,
    key_table,
)


@dataclass
class SequenceScorer:
    """Dense view of the weights: per-group emissions (d_j, k) + transitions."""

    emissions: list[np.ndarray]
    transitions: np.ndarray | None
    k: int


class CompiledSequence:
    """A sentence reduced to firing feature ids (-1 where a group is silent):
    `feats` (G, l) int64, one row per observation group the task fires, and
    `gold` its label ids or None.

    One that `SequenceTask.compile` made is pending until `feats` or `gold`
    is first read; then its task compiles it with every sentence still
    pending (see `compile_pending`), and both are views into that batch's
    arrays.
    """

    __slots__ = ("length", "_feats", "_gold", "_source", "_batch", "_index", "__weakref__")

    def __init__(self, length: int, feats, gold: np.ndarray | None):
        self.length = length  # token count
        self._feats, self._gold = feats, gold
        self._source = None  # (task, instance) while pending
        self._batch = None  # the `_Batch` it was compiled in, as its `_index`-th sentence
        self._index = 0

    @property
    def feats(self):
        if self._source is not None:
            self._source[0].compile_pending()
        return self._feats

    @property
    def gold(self) -> np.ndarray | None:
        if self._source is not None:
            self._source[0].compile_pending()
        return self._gold


@dataclass
class _Batch:
    """The arrays of sentences compiled together, in order: `feats`
    (G, total) and `gold` (total,), None unless every sentence has labels."""

    lengths: list[int]
    feats: np.ndarray
    gold: np.ndarray | None


_BATCH, _INDEX = attrgetter("_batch"), attrgetter("_index")


def compile_all(instances: Sequence[CompiledSequence]) -> None:
    """Compile the pending sentences of `instances`, and no other, one batch
    per task; a forked decode worker compiles only its own range this way."""
    batches: dict = {}
    for inst in instances:
        if inst._source is not None:
            batches.setdefault(inst._source[0], []).append(inst)
    for task, batch in batches.items():
        task._compile_batch(batch)


# most array cells (8 bytes each) one chunk of B sentences of length L
# allocates, unless one sentence alone needs more: B * L * (3k + G + 1) in
# its (k, L, B) emissions, their gather and suffix values, its (G, L, B)
# feature ids and (L, B) labels, and B * k * k in one DP step's temporary.
# A DP step reduces the middle axis of that temporary, so a small B is slow
# at large k: at k = 45 a budget of 2^16 decodes slower than one batch per
# length would, 2^17 about as fast
_CHUNK_CELLS = 1 << 17


def _viterbi(
    tables: Sequence[np.ndarray],
    trans: np.ndarray,
    members: Sequence[CompiledSequence],
    augmented: bool,
) -> tuple[list[list[int]], np.ndarray]:
    """Best labels and their scores of a chunk of sentences, sorted by length.

    `tables` are the emission tables transposed, (k, d + 1) with a zero last
    column, so a silent id (-1) adds +0.0; `trans` is (k, k).  Sentence b is
    right-aligned in the (L, B) grid: it starts at L - l_b, and positions
    before its start are padding that no real position reads.
    """
    sizes = np.array([inst.length for inst in members])
    k, width, b = trans.shape[0], int(sizes[-1]), sizes.size
    start = width - sizes
    # the grid cell (t, owner) of every token, in chunk order
    owner = np.repeat(np.arange(b), sizes)
    t = np.arange(owner.size) - np.repeat(np.cumsum(sizes), sizes) + width
    emit = np.zeros((k, width, b))
    if tables:
        feats = np.full((len(tables), width, b), -1, dtype=np.int64)
        feats[:, t, owner] = np.concatenate([inst.feats for inst in members], axis=1)
        for f, table in zip(feats, tables):
            emit += np.take(table, f, axis=1)
    if augmented:
        emit += 1.0
        emit[np.concatenate([inst.gold for inst in members]), t, owner] -= 1.0
    # exact suffix values: suf[t, y, b] = best score of positions t.. given y at t
    suf = np.empty((width, k, b))
    suf[width - 1] = emit[:, width - 1]
    for s in range(width - 2, -1, -1):
        suf[s] = emit[:, s] + (trans[:, :, None] + suf[s + 1]).max(axis=1)
    # front to back from a virtual label k, which every padding cell keeps:
    # step[y, p] is the transition p -> y, zero from k
    step = np.vstack([trans, np.zeros((1, k))]).T
    labels = np.empty((width, b), dtype=np.int64)
    prev = np.full(b, k)
    for s in range(width):
        prev = labels[s] = np.where(start <= s, (step[:, prev] + suf[s]).argmax(axis=0), k)
    cols = np.arange(b)
    total = suf[start, labels[start, cols], cols]
    return [row[lo:] for row, lo in zip(labels.T.tolist(), start.tolist())], total


def decode_chunks(
    scorer: SequenceScorer, instances: Sequence[CompiledSequence], augmented: bool = False
) -> tuple[list[list[int]], np.ndarray]:
    """The labeling of every sentence and its score, one DP per chunk.

    Plain Viterbi, or with `augmented` the loss-augmented argmax against
    each sentence's gold labels.  Every sentence gets the labels and the
    bit-identical score it gets decoded alone; an empty one gets ([], 0.0).
    """
    if augmented and any(inst.gold is None for inst in instances):
        raise ValueError("instance has no gold labels")
    k = scorer.k
    zero = np.zeros((1, k))
    tables = [np.ascontiguousarray(np.vstack([e, zero]).T) for e in scorer.emissions]
    trans = np.zeros((k, k)) if scorer.transitions is None else scorer.transitions
    outputs: list[list[int]] = [[] for _ in instances]
    scores = np.zeros(len(instances))
    nonempty = [i for i, inst in enumerate(instances) if inst.length]
    lengths = [instances[i].length for i in nonempty]
    per_token = 3 * k + len(tables) + 1
    for part in size_chunks(lengths, lambda l: l * per_token + k * k, _CHUNK_CELLS):
        chunk = [nonempty[j] for j in part]
        labels, total = _viterbi(tables, trans, [instances[i] for i in chunk], augmented)
        for i, y in zip(chunk, labels):
            outputs[i] = y
        scores[chunk] = total
    return outputs, scores


def viterbi_decode(scorer: SequenceScorer, inst: CompiledSequence) -> tuple[list[int], float]:
    """Exact argmax labeling and its score."""
    (labels,), scores = decode_chunks(scorer, [inst])
    return labels, float(scores[0])


def loss_augmented_decode(
    scorer: SequenceScorer, inst: CompiledSequence, gold: Sequence[int]
) -> tuple[list[int], float]:
    """Argmax of score(y) + Hamming(gold, y) and that augmented value."""
    target = CompiledSequence(inst.length, inst.feats, np.asarray(gold, dtype=np.int64))
    (labels,), scores = decode_chunks(scorer, [target], augmented=True)
    return labels, float(scores[0])


class SequenceTask:
    """Binds templates, alphabets, and the label set for one model.

    `specs` is the whole rule list: its observation rules own the groups,
    one alphabet each, in order, and a ``B`` rule adds the transition group.
    `kept` lists the observation groups whose alphabet is not empty, the
    rows of every compiled sentence's `feats`.
    """

    def __init__(
        self,
        specs: Sequence[TemplateSpec],
        alphabets: Sequence[tuple[str, ...]],
        labels: LabelTable,
    ):
        self.specs = [s for s in specs if s.kind == OBSERVATION]
        self.alphabets = list(alphabets)
        self.labels = labels
        self.transition = any(s.kind == TRANSITION for s in specs)
        if len(self.specs) != len(self.alphabets):
            raise ValueError("one alphabet per observation template required")
        self.kept = [j for j, alphabet in enumerate(self.alphabets) if alphabet]
        self.keys = TemplateKeys([self.specs[j] for j in self.kept])
        self.lookups = [key_table(self.specs[j], self.alphabets[j]) for j in self.kept]
        # weak, so a pending sentence no one holds is freed, not kept in a cycle
        self._pending: list[weakref.ref] = []

    @classmethod
    def build(
        cls,
        specs: Sequence[TemplateSpec],
        corpus: Sequence[SequenceInstance],
        labels: LabelTable,
    ) -> "SequenceTask":
        if not specs:
            raise ValueError("template file defines no feature groups")
        return cls(specs, index_corpus(specs, corpus), labels)

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def group_ids(self) -> list[str]:
        ids = [s.index for s in self.specs]
        if self.transition:
            ids.append("B")
        return ids

    @property
    def group_dims(self) -> list[int]:
        k = self.k
        dims = [len(a) * k for a in self.alphabets]
        if self.transition:
            dims.append(k * k)
        return dims

    def compile(self, instance: SequenceInstance) -> CompiledSequence:
        """The sentence, pending: compiled when its `feats` or `gold` is read."""
        compiled = CompiledSequence(len(instance), None, None)
        compiled._source = (self, instance)
        self._pending.append(weakref.ref(compiled))
        return compiled

    def compile_pending(self) -> None:
        """Compile, in one batch, every sentence still pending."""
        pending, self._pending = self._pending, []
        compile_all([c for ref in pending if (c := ref()) is not None])

    def _compile_batch(self, batch: Sequence[CompiledSequence]) -> None:
        """Compile pending sentences of this task together: their sentences
        are gathered into one table (`SequenceTable.gather`), and each kept
        rule's lookup maps that table's key stream (`TemplateKeys`) once."""
        table = SequenceTable.gather([inst._source[1] for inst in batch])
        g, total = len(self.kept), table.offsets[-1]
        keys = self.keys(table)
        ids = chain.from_iterable(map(get, k, repeat(-1)) for get, k in zip(self.lookups, keys))
        feats = np.fromiter(ids, dtype=np.int64, count=g * total).reshape(g, total)
        offsets = table.offsets
        done = _Batch([inst.length for inst in batch], feats, table.labels)
        for index, (inst, lo, hi) in enumerate(zip(batch, offsets, offsets[1:])):
            sentence = inst._source[1]
            labels = sentence.table.labels
            inst._feats = feats[:, lo:hi]
            inst._gold = None if labels is None else labels[sentence.lo : sentence.hi]
            inst._source, inst._batch, inst._index = None, done, index

    def scorer(self, weights: Sequence[np.ndarray]) -> SequenceScorer:
        k = self.k
        emissions = [weights[j].reshape(len(self.alphabets[j]), k) for j in self.kept]
        trans = weights[-1].reshape(k, k) if self.transition else None
        return SequenceScorer(emissions, trans, k)

    # --- solver-facing protocol ---

    def gold_output(self, inst: CompiledSequence) -> list[int]:
        if inst.gold is None:
            raise ValueError("instance has no gold labels")
        return [int(y) for y in inst.gold]

    def decode_corpus(
        self,
        weights: Sequence[np.ndarray],
        instances: Sequence[CompiledSequence],
        augmented: bool = False,
    ) -> tuple[list[list[int]], np.ndarray]:
        """Best (or with `augmented`, loss-augmented) labeling of every
        sentence and its score, by chunk (see `decode_chunks`)."""
        compile_all(instances)
        return decode_chunks(self.scorer(weights), instances, augmented)

    def corpus_feature_ids(
        self, instances: Sequence[CompiledSequence], outputs: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, int]:
        """The flat weight ids `outputs` fire over the corpus (group j's ids
        offset by the sizes of the groups before it), one entry per firing,
        and their summed Hamming loss, over the corpus concatenated once; when
        `instances` are every sentence of one compiled batch in order, over
        that batch's arrays."""
        k = self.k
        compile_all(instances)
        batch = instances[0]._batch if instances else None
        whole = (
            batch is not None
            and len(batch.lengths) == len(instances)
            and all(map(is_, map(_BATCH, instances), repeat(batch)))
            and list(map(_INDEX, instances)) == list(range(len(instances)))
        )
        lengths = batch.lengths if whole else [inst.length for inst in instances]
        if any(len(y) != l for y, l in zip(outputs, lengths, strict=True)):
            raise ValueError("labeling length does not match the sentence")
        if whole and batch.gold is not None:
            gold, feats = batch.gold, batch.feats
        else:
            if any(inst.gold is None for inst in instances):
                raise ValueError("instance has no gold labels")
            gold = np.concatenate([inst.gold for inst in instances])
            feats = np.concatenate([inst.feats for inst in instances], axis=1)
        y = np.fromiter(chain.from_iterable(outputs), dtype=np.int64, count=gold.size)
        offsets = np.cumsum([0, *self.group_dims])[:-1].tolist()
        ids = []
        for f, j in zip(feats, self.kept, strict=True):
            off = offsets[j]
            on = f >= 0
            ids.append(f[on] * k + y[on] + off)
        if self.transition:
            # no transition from a sentence's last token into the next one's first
            inner = np.ones(max(y.size - 1, 0), dtype=bool)
            ends = np.cumsum(lengths)[:-1]
            inner[ends[(ends > 0) & (ends < y.size)] - 1] = False
            ids.append((y[:-1] * k + y[1:])[inner] + offsets[-1])
        return np.concatenate(ids), int((y != gold).sum())
