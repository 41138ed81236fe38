"""Linear-chain sequence labeling: the fired weight ids and Hamming loss
of a corpus, exact Viterbi and loss-augmented Viterbi decoders.

Feature layout per observation group j: the flat weight index of feature f
conjoined with label y is ``f * k + y``.  The optional transition group (one
weight per label pair, no observation conjunction) uses ``prev * k + cur``
and always sits last.

`SequenceTask` parses its alphabet strings into key tables when it is made,
after `build` and after `Model.read` alike; `compile` looks up every rule's
keys (see `templates`) in one pass into a (G, l) array of feature ids.

A corpus is decoded and counted by length bucket: the sentences of one
length are stacked into (B, l) feature-id arrays, their emissions gathered
into one (B, l, k) array, and the DP takes one step per position on
(B, k, k).  The per-sentence decoders are a bucket of one through the same
DP.  Ties break toward the lexicographically smallest label sequence: the
DP runs backward to get exact suffix values, then each sequence is rebuilt
front to back taking the first argmax at each position.  Each sentence of
a bucket sees the float operations it would see alone, so bucketing moves
no label and no score.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .corpus import LabelTable, SequenceInstance
from .templates import (
    OBSERVATION,
    TRANSITION,
    FeatureAlphabet,
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
    feats: np.ndarray  # (G, l) int64, one row per observation group
    gold: np.ndarray | None


def _emissions(scorer: SequenceScorer, feats: Sequence[np.ndarray], shape) -> np.ndarray:
    """Label scores of every position, (*shape, k), summed in group order."""
    emit = np.zeros((*shape, scorer.k))
    for f, table in zip(feats, scorer.emissions, strict=True):
        firing = f >= 0
        emit[firing] += table[f[firing]]
    return emit


def _viterbi(emit: np.ndarray, trans: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Best labels (B, l) and their scores (B,) of a (B, l, k) emission stack."""
    b, l, k = emit.shape
    if trans is None:
        trans = np.zeros((k, k))
    # exact suffix values: suf[:, t, y] = best score of positions t.. given y at t
    suf = np.empty_like(emit)
    suf[:, l - 1] = emit[:, l - 1]
    for t in range(l - 2, -1, -1):
        suf[:, t] = emit[:, t] + (trans + suf[:, t + 1, None, :]).max(axis=2)
    labels = np.empty((b, l), dtype=np.int64)
    labels[:, 0] = suf[:, 0].argmax(axis=1)
    total = suf[np.arange(b), 0, labels[:, 0]]
    for t in range(1, l):
        labels[:, t] = (trans[labels[:, t - 1]] + suf[:, t]).argmax(axis=1)
    return labels, total


def _buckets(instances: Sequence[CompiledSequence]):
    """Per sentence length: the corpus positions of its B sentences, the
    sentences, their feature ids stacked (G, B, l), and (B, l)."""
    by_length: dict[int, list[int]] = {}
    for i, inst in enumerate(instances):
        by_length.setdefault(inst.length, []).append(i)
    for length, index in by_length.items():
        members = [instances[i] for i in index]
        feats = np.array([inst.feats for inst in members], dtype=np.int64).swapaxes(0, 1)
        yield index, members, feats, (len(index), length)


def _stacked_gold(members: Sequence[CompiledSequence]) -> np.ndarray:
    if any(inst.gold is None for inst in members):
        raise ValueError("instance has no gold labels")
    return np.array([inst.gold for inst in members], dtype=np.int64)


def decode_buckets(
    scorer: SequenceScorer, instances: Sequence[CompiledSequence], augmented: bool = False
) -> tuple[list[list[int]], np.ndarray]:
    """The labeling of every sentence and its score, one DP per length.

    Plain Viterbi, or with `augmented` the loss-augmented argmax against
    each sentence's gold labels.  Every sentence gets the labels and the
    bit-identical score it gets decoded alone.
    """
    outputs: list[list[int]] = [[] for _ in instances]
    scores = np.zeros(len(instances))
    for index, members, feats, shape in _buckets(instances):
        gold = _stacked_gold(members) if augmented else None
        if shape[1] == 0:
            continue
        emit = _emissions(scorer, feats, shape)
        if augmented:
            emit += 1.0
            emit[np.arange(shape[0])[:, None], np.arange(shape[1]), gold] -= 1.0
        labels, total = _viterbi(emit, scorer.transitions)
        for i, y in zip(index, labels.tolist()):
            outputs[i] = y
        scores[index] = total
    return outputs, scores


def viterbi_decode(scorer: SequenceScorer, inst: CompiledSequence) -> tuple[list[int], float]:
    """Exact argmax labeling and its score."""
    (labels,), scores = decode_buckets(scorer, [inst])
    return labels, float(scores[0])


def loss_augmented_decode(
    scorer: SequenceScorer, inst: CompiledSequence, gold: Sequence[int]
) -> tuple[list[int], float]:
    """Argmax of score(y) + Hamming(gold, y) and that augmented value."""
    target = CompiledSequence(inst.length, inst.feats, np.asarray(gold, dtype=np.int64))
    (labels,), scores = decode_buckets(scorer, [target], augmented=True)
    return labels, float(scores[0])


class SequenceTask:
    """Binds templates, alphabets, and the label set for one model."""

    def __init__(
        self,
        specs: Sequence[TemplateSpec],
        alphabets: Sequence[FeatureAlphabet],
        labels: LabelTable,
        transition: bool,
    ):
        self.specs = [s for s in specs if s.kind == OBSERVATION]
        self.alphabets = list(alphabets)
        self.labels = labels
        self.transition = transition
        if len(self.specs) != len(self.alphabets):
            raise ValueError("one alphabet per observation template required")
        self.keys = TemplateKeys(self.specs)
        self.lookups = [key_table(s, a.strings()) for s, a in zip(self.specs, self.alphabets)]

    @classmethod
    def build(
        cls,
        specs: Sequence[TemplateSpec],
        corpus: Sequence[SequenceInstance],
        labels: LabelTable,
    ) -> "SequenceTask":
        obs = [s for s in specs if s.kind == OBSERVATION]
        transition = any(s.kind == TRANSITION for s in specs)
        if not obs and not transition:
            raise ValueError("template file defines no feature groups")
        return cls(obs, index_corpus(obs, corpus), labels, transition)

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
        g, l = len(self.specs), len(instance.tokens)
        keys = self.keys(instance.tokens)
        ids = chain.from_iterable(map(get, k, repeat(-1)) for get, k in zip(self.lookups, keys))
        feats = np.fromiter(ids, dtype=np.int64, count=g * l).reshape(g, l)
        gold = None
        if instance.labels is not None:
            gold = np.asarray(instance.labels, dtype=np.int64)
        return CompiledSequence(len(instance.tokens), feats, gold)

    def scorer(self, weights: Sequence[np.ndarray]) -> SequenceScorer:
        k = self.k
        emissions = [
            w.reshape(len(a), k) for w, a in zip(weights, self.alphabets, strict=False)
        ]
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
        sentence and its score, by length bucket."""
        return decode_buckets(self.scorer(weights), instances, augmented)

    def corpus_feature_ids(
        self, instances: Sequence[CompiledSequence], outputs: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, int]:
        """The flat weight ids `outputs` fire over the corpus (group j's ids
        offset by the sizes of the groups before it), one entry per firing,
        and their summed Hamming loss, by length bucket."""
        k = self.k
        offsets = np.cumsum([0, *self.group_dims])[:-1].tolist()
        ids = []
        loss = 0
        for index, members, feats, shape in _buckets(instances):
            if any(len(outputs[i]) != shape[1] for i in index):
                raise ValueError("labeling length does not match the sentence")
            y = np.array([outputs[i] for i in index], dtype=np.int64)
            loss += int((y != _stacked_gold(members)).sum())
            for f, off in zip(feats, offsets):
                on = f >= 0
                ids.append(f[on] * k + y[on] + off)
            if self.transition:
                ids.append((y[:, :-1] * k + y[:, 1:]).ravel() + offsets[-1])
        return np.concatenate(ids), loss
