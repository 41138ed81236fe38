"""Linear-chain sequence labeling: joint feature map, Hamming loss, exact
Viterbi and loss-augmented Viterbi decoders.

Feature layout per observation group j: the flat weight index of feature f
conjoined with label y is ``f * k + y``.  The optional transition group (one
weight per label pair, no observation conjunction) uses ``prev * k + cur``
and always sits last.

Both decoders break score ties toward the lexicographically smallest label
sequence: the DP runs backward to get exact suffix values, then the sequence
is rebuilt front to back taking the first argmax at each position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import LabelTable, SequenceInstance
from .templates import (
    OBSERVATION,
    TRANSITION,
    FeatureAlphabet,
    TemplateSpec,
    index_corpus,
    instantiate_all,
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
    feats: list[np.ndarray]  # per observation group, int64 array of length l
    gold: np.ndarray | None


def hamming_loss(gold: Sequence[int], other: Sequence[int]) -> float:
    """Number of positions labeled differently."""
    if len(gold) != len(other):
        raise ValueError("sequences differ in length")
    return float(sum(a != b for a, b in zip(gold, other)))


def _emissions(scorer: SequenceScorer, inst: CompiledSequence) -> np.ndarray:
    l, k = inst.length, scorer.k
    emit = np.zeros((l, k))
    for feats, table in zip(inst.feats, scorer.emissions, strict=True):
        firing = feats >= 0
        if firing.any():
            emit[firing] += table[feats[firing]]
    return emit


def _decode_from_emissions(
    emit: np.ndarray, trans: np.ndarray | None
) -> tuple[list[int], float]:
    l, k = emit.shape
    if trans is None:
        trans = np.zeros((k, k))
    # exact suffix values: suf[t, y] = best score of positions t.. given y at t
    suf = np.empty((l, k))
    suf[l - 1] = emit[l - 1]
    for t in range(l - 2, -1, -1):
        suf[t] = emit[t] + (trans + suf[t + 1][None, :]).max(axis=1)
    labels = [int(np.argmax(suf[0]))]
    total = float(suf[0][labels[0]])
    for t in range(1, l):
        labels.append(int(np.argmax(trans[labels[-1]] + suf[t])))
    return labels, total


def viterbi_decode(scorer: SequenceScorer, inst: CompiledSequence) -> tuple[list[int], float]:
    """Exact argmax labeling and its score."""
    if inst.length == 0:
        return [], 0.0
    return _decode_from_emissions(_emissions(scorer, inst), scorer.transitions)


def loss_augmented_decode(
    scorer: SequenceScorer, inst: CompiledSequence, gold: Sequence[int]
) -> tuple[list[int], float]:
    """Argmax of score(y) + Hamming(gold, y) and that augmented value."""
    if inst.length == 0:
        return [], 0.0
    emit = _emissions(scorer, inst)
    emit += 1.0
    emit[np.arange(inst.length), np.asarray(gold, dtype=np.int64)] -= 1.0
    return _decode_from_emissions(emit, scorer.transitions)


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
        feats = [
            alphabet.lookup_all(instantiate_all(spec, instance.tokens))
            for spec, alphabet in zip(self.specs, self.alphabets, strict=True)
        ]
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

    def joint_feature_map(
        self, inst: CompiledSequence, labels: Sequence[int]
    ) -> list[np.ndarray]:
        """Weight ids fired along `labels`, per group, one entry per firing."""
        y = np.asarray(labels, dtype=np.int64)
        if y.size != inst.length:
            raise ValueError("labeling length does not match the sentence")
        k = self.k
        ids = []
        for feats in inst.feats:
            on = feats >= 0
            ids.append(feats[on] * k + y[on])
        if self.transition:
            ids.append(y[:-1] * k + y[1:])
        return ids

    # --- solver-facing protocol ---

    def gold_output(self, inst: CompiledSequence) -> list[int]:
        if inst.gold is None:
            raise ValueError("instance has no gold labels")
        return [int(y) for y in inst.gold]

    def loss(self, gold: Sequence[int], other: Sequence[int]) -> float:
        return hamming_loss(gold, other)

    def most_violated(
        self, weights: Sequence[np.ndarray], inst: CompiledSequence
    ) -> tuple[list[int], float]:
        return loss_augmented_decode(self.scorer(weights), inst, self.gold_output(inst))

    def decode(
        self, weights: Sequence[np.ndarray], inst: CompiledSequence
    ) -> tuple[list[int], float]:
        return viterbi_decode(self.scorer(weights), inst)
