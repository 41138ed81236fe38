"""Evaluation: token accuracy, word segmentation P/R/F1 (+R_iv), phrase
P/R/F1 for BIO chunks, and head accuracy / complete rate for trees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import DependencyInstance, LabelTable, SequenceInstance

SCHEMES = ("raw", "bie", "bio")


@dataclass(frozen=True)
class LabelCodec:
    """Pairs a label table with the tagging scheme used for evaluation."""

    scheme: str
    table: LabelTable

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")

    def to_strings(self, ids: Sequence[int]) -> list[str]:
        return [self.table.label_of(i) for i in ids]


def bie_segments(tags: Sequence[str]) -> list[tuple[int, int]]:
    """Word spans (start, end) inclusive from B/I/E character tags.

    Every position belongs to exactly one span.  Ill-formed transitions (an
    I or E with no open word) start a new word at that character.
    """
    spans: list[tuple[int, int]] = []
    start: int | None = None
    for i, tag in enumerate(tags):
        if tag == "B":
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif tag == "I":
            if start is None:
                start = i
        elif tag == "E":
            if start is None:
                start = i
            spans.append((start, i))
            start = None
        else:
            raise ValueError(f"not a B/I/E tag: {tag!r}")
    if start is not None:
        spans.append((start, len(tags) - 1))
    return spans


def bio_entities(tags: Sequence[str]) -> list[tuple[str, int, int]]:
    """(type, start, end) phrases from BIO tags.

    An I-X continuing nothing (after O, start, or a different type) opens a
    new phrase, matching common chunk-evaluation behaviour.
    """
    entities: list[tuple[str, int, int]] = []
    cur_type: str | None = None
    start = 0
    for i, tag in enumerate(tags):
        if tag == "O":
            if cur_type is not None:
                entities.append((cur_type, start, i - 1))
                cur_type = None
        elif tag.startswith("B-"):
            if cur_type is not None:
                entities.append((cur_type, start, i - 1))
            cur_type, start = tag[2:], i
        elif tag.startswith("I-"):
            t = tag[2:]
            if cur_type != t:
                if cur_type is not None:
                    entities.append((cur_type, start, i - 1))
                cur_type, start = t, i
        else:
            raise ValueError(f"not a BIO tag: {tag!r}")
    if cur_type is not None:
        entities.append((cur_type, start, len(tags) - 1))
    return entities


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    n_correct: int


def prf(n_gold: int, n_pred: int, n_correct: int) -> PRF:
    p = n_correct / n_pred if n_pred else 0.0
    r = n_correct / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p > 0 and r > 0 else 0.0
    return PRF(p, r, f, n_gold, n_pred, n_correct)


@dataclass(frozen=True)
class AccuracyReport:
    token_accuracy: float
    n_tokens: int
    n_correct: int


@dataclass(frozen=True)
class SegmentationReport:
    token_accuracy: float
    word: PRF
    riv: float | None
    n_iv_gold: int
    n_iv_correct: int


@dataclass(frozen=True)
class EntityReport:
    token_accuracy: float
    overall: PRF
    per_type: dict[str, PRF]


@dataclass(frozen=True)
class DependencyReport:
    accuracy: float
    complete: float
    n_tokens: int
    n_correct_heads: int
    n_sentences: int
    n_complete: int


def _token_accuracy(
    gold: Sequence[SequenceInstance], pred: Sequence[Sequence[int]]
) -> tuple[float, int, int]:
    total = correct = 0
    for inst, ids in zip(gold, pred, strict=True):
        if inst.labels is None:
            raise ValueError("gold instances must be labeled")
        if len(ids) != len(inst.labels):
            raise ValueError("prediction length does not match gold sentence length")
        total += len(ids)
        correct += sum(a == b for a, b in zip(inst.labels, ids))
    return (correct / total if total else 0.0), total, correct


def build_segmentation_vocabulary(
    instances: Sequence[SequenceInstance], codec: LabelCodec
) -> set[str]:
    """Word strings of the gold segmentation of a (training) corpus."""
    vocab: set[str] = set()
    for inst in instances:
        tags = codec.to_strings(inst.labels)
        for s, e in bie_segments(tags):
            vocab.add("".join(tok[0] for tok in inst.tokens[s : e + 1]))
    return vocab


def evaluate_sequence(
    gold: Sequence[SequenceInstance],
    pred: Sequence[Sequence[int]],
    codec: LabelCodec,
    vocabulary: set[str] | None = None,
):
    """Score predictions against gold labels.

    Returns an AccuracyReport (scheme 'raw'), a SegmentationReport ('bie',
    word-level scores; R_iv when a training vocabulary is supplied), or an
    EntityReport ('bio', per-type and overall phrase scores).
    """
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predictions")
    acc, n_tok, n_ok = _token_accuracy(gold, pred)
    if codec.scheme == "raw":
        return AccuracyReport(acc, n_tok, n_ok)

    if codec.scheme == "bie":
        n_gold = n_pred = n_correct = 0
        n_iv = n_iv_ok = 0
        for inst, ids in zip(gold, pred, strict=True):
            gold_spans = set(bie_segments(codec.to_strings(inst.labels)))
            pred_spans = set(bie_segments(codec.to_strings(ids)))
            matched = gold_spans & pred_spans
            n_gold += len(gold_spans)
            n_pred += len(pred_spans)
            n_correct += len(matched)
            if vocabulary is not None:
                for span in gold_spans:
                    s, e = span
                    word = "".join(tok[0] for tok in inst.tokens[s : e + 1])
                    if word in vocabulary:
                        n_iv += 1
                        if span in matched:
                            n_iv_ok += 1
        riv = (n_iv_ok / n_iv if n_iv else 0.0) if vocabulary is not None else None
        return SegmentationReport(acc, prf(n_gold, n_pred, n_correct), riv, n_iv, n_iv_ok)

    # bio
    counts: dict[str, list[int]] = {}  # type -> [gold, pred, correct]
    for inst, ids in zip(gold, pred, strict=True):
        gold_ents = set(bio_entities(codec.to_strings(inst.labels)))
        pred_ents = set(bio_entities(codec.to_strings(ids)))
        for kind, *_ in gold_ents | pred_ents:
            counts.setdefault(kind, [0, 0, 0])
        for ent in gold_ents:
            counts[ent[0]][0] += 1
        for ent in pred_ents:
            counts[ent[0]][1] += 1
        for ent in gold_ents & pred_ents:
            counts[ent[0]][2] += 1
    per_type = {kind: prf(*counts[kind]) for kind in sorted(counts)}
    overall = prf(
        sum(c[0] for c in counts.values()),
        sum(c[1] for c in counts.values()),
        sum(c[2] for c in counts.values()),
    )
    return EntityReport(acc, overall, per_type)


def evaluate_dependency(
    gold: Sequence[DependencyInstance], pred: Sequence[Sequence[int]]
) -> DependencyReport:
    """Head accuracy over tokens and the fraction of fully correct sentences."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predictions")
    n_tok = n_ok = n_complete = 0
    for inst, heads in zip(gold, pred, strict=True):
        if inst.heads is None:
            raise ValueError("gold instances must carry HEAD annotation")
        if len(heads) != len(inst.heads):
            raise ValueError("prediction length does not match gold sentence length")
        hits = sum(a == b for a, b in zip(inst.heads, heads))
        n_tok += len(heads)
        n_ok += hits
        n_complete += hits == len(heads)
    n_sent = len(gold)
    return DependencyReport(
        accuracy=n_ok / n_tok if n_tok else 0.0,
        complete=n_complete / n_sent if n_sent else 0.0,
        n_tokens=n_tok,
        n_correct_heads=n_ok,
        n_sentences=n_sent,
        n_complete=n_complete,
    )
