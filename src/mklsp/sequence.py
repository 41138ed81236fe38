"""Linear-chain sequence labeling: the fired weight ids and Hamming loss
of a corpus, exact Viterbi and loss-augmented Viterbi decoders.

Feature layout per observation group j: the flat weight index of feature f
conjoined with label y is ``f * k + y``.  The optional transition group (one
weight per label pair, no observation conjunction) uses ``prev * k + cur``
and always sits last.

`SequenceTask` parses its alphabet strings into key tables when it is made,
after `build` and after `Model.read` alike; `compile` looks up every rule's
keys (see `templates`) in one pass into a (G, l) array of feature ids.  A
rule whose alphabet is empty (a group a trained model dropped) fires
nothing: `compile` computes no key for it, its compiled sentences carry no
row for it, and neither the scorer nor the counted ids read it.

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
concatenation of its sentences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .corpus import LabelTable, SequenceInstance, size_chunks
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


@dataclass
class CompiledSequence:
    """A sentence reduced to firing feature ids (-1 where a group is silent)."""

    length: int  # token count
    feats: np.ndarray  # (G, l) int64, one row per observation group the task fires
    gold: np.ndarray | None


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
        g, l = len(self.kept), len(instance.tokens)
        keys = self.keys(instance.tokens)
        ids = chain.from_iterable(map(get, k, repeat(-1)) for get, k in zip(self.lookups, keys))
        feats = np.fromiter(ids, dtype=np.int64, count=g * l).reshape(g, l)
        gold = None
        if instance.labels is not None:
            gold = np.asarray(instance.labels, dtype=np.int64)
        return CompiledSequence(len(instance.tokens), feats, gold)

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
        return decode_chunks(self.scorer(weights), instances, augmented)

    def corpus_feature_ids(
        self, instances: Sequence[CompiledSequence], outputs: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, int]:
        """The flat weight ids `outputs` fire over the corpus (group j's ids
        offset by the sizes of the groups before it), one entry per firing,
        and their summed Hamming loss, over the corpus concatenated once."""
        k = self.k
        lengths = [inst.length for inst in instances]
        if any(len(y) != l for y, l in zip(outputs, lengths, strict=True)):
            raise ValueError("labeling length does not match the sentence")
        if any(inst.gold is None for inst in instances):
            raise ValueError("instance has no gold labels")
        gold = np.concatenate([inst.gold for inst in instances])
        y = np.fromiter(chain.from_iterable(outputs), dtype=np.int64, count=gold.size)
        feats = np.concatenate([inst.feats for inst in instances], axis=1)
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
