"""Edge-factored dependency parsing: edge feature templates, projective
(cubic-time span DP) and non-projective (maximum arborescence) decoders,
parent loss, and the tree-level feature map.

Edge templates reuse the template-file syntax with field selectors instead
of %x macros: ``P03:head.POSTAG/mod.POSTAG``.  Selector anchors are ``head``,
``mod`` (with optional ``+n``/``-n`` token offsets) and ``between`` (no
offset), fields are FORM, LEMMA, CPOSTAG, POSTAG.  A ``between`` selector
emits one feature per distinct field value strictly between head and
modifier.  Every feature string embeds the template index, the attachment
direction, and the bucketed head-modifier distance.

Model checksums rest on one invariant: each template's alphabet lists its
strings in first-seen order over (sentence, head, modifier, between
position), heads outer and modifiers inner.  `EdgeFeatureExtractor.build`
and `DependencyTask.compile` both get their strings from `instantiate_edges`,
which yields them in exactly that order for a whole sentence at once.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import add
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import DependencyInstance, find_cycle
from .templates import FeatureAlphabet, TemplateError, boundary_symbol

ROOT_TOKEN = ("<root>", "<root>", "<root>", "<root>")
FIELDS = {"FORM": 0, "LEMMA": 1, "CPOSTAG": 2, "POSTAG": 3}
NEG = float("-inf")

_SELECTOR = re.compile(r"^(head|mod|between)([+-]\d+)?\.(FORM|LEMMA|CPOSTAG|POSTAG)$")


@dataclass(frozen=True)
class EdgeSelector:
    anchor: str  # "head" | "mod" | "between"
    offset: int
    column: int


@dataclass(frozen=True)
class EdgeTemplateSpec:
    index: str
    selectors: tuple[EdgeSelector, ...]

    @property
    def between_column(self) -> int | None:
        for sel in self.selectors:
            if sel.anchor == "between":
                return sel.column
        return None


def parse_edge_templates(text: str) -> list[EdgeTemplateSpec]:
    """Parse edge templates, preserving file order."""
    specs: list[EdgeTemplateSpec] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        index, sep, body = line.partition(":")
        if not sep or not index or not body:
            raise TemplateError(f"line {lineno}: expected 'Index:selector/...', got {raw!r}")
        selectors = []
        n_between = 0
        for part in body.split("/"):
            m = _SELECTOR.match(part)
            if m is None:
                raise TemplateError(f"line {lineno}: malformed selector {part!r}")
            anchor, offset, fieldname = m.group(1), m.group(2), m.group(3)
            if anchor == "between":
                if offset is not None:
                    raise TemplateError(f"line {lineno}: 'between' takes no offset")
                n_between += 1
                if n_between > 1:
                    raise TemplateError(f"line {lineno}: at most one 'between' selector")
            selectors.append(EdgeSelector(anchor, int(offset or 0), FIELDS[fieldname]))
        if index in seen:
            raise TemplateError(f"line {lineno}: duplicate template index {index!r}")
        seen.add(index)
        specs.append(EdgeTemplateSpec(index, tuple(selectors)))
    return specs


def default_edge_templates() -> str:
    """The template file shipped with the package."""
    return (
        importlib.resources.files("mklsp")
        .joinpath("data/parse_templates.txt")
        .read_text(encoding="utf-8")
    )


def distance_bucket(distance: int) -> int:
    """Bucket |head - mod|: exact below 5, then 5 for [5,10), 10 for >= 10."""
    if distance >= 10:
        return 10
    if distance >= 5:
        return 5
    return distance


def augment(tokens: Sequence[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Positions 0..l with the synthetic root token at 0."""
    return [ROOT_TOKEN, *tokens]


class _EdgeFrame(NamedTuple):
    """The candidate edges of a sentence with n positions (root included)."""

    heads: tuple[int, ...]
    mods: tuple[int, ...]
    head_ids: np.ndarray  # read-only int64 copies of heads / mods
    mod_ids: np.ndarray
    prefixes: tuple[str, ...]  # "dir:dist:" per edge
    spans: tuple[int, ...]  # lo * n + hi per edge


@lru_cache(maxsize=256)
def _edge_frame(n: int) -> _EdgeFrame:
    pairs = [(u, v) for u in range(n) for v in range(1, n) if u != v]
    heads = tuple(u for u, _ in pairs)
    mods = tuple(v for _, v in pairs)
    head_ids = np.array(heads, dtype=np.int64)
    mod_ids = np.array(mods, dtype=np.int64)
    head_ids.flags.writeable = False
    mod_ids.flags.writeable = False
    prefixes = tuple(
        f"{'R' if u < v else 'L'}:{distance_bucket(abs(u - v))}:" for u, v in pairs
    )
    spans = tuple(min(u, v) * n + max(u, v) for u, v in pairs)
    return _EdgeFrame(heads, mods, head_ids, mod_ids, prefixes, spans)


def _between_values(aug_tokens: Sequence[tuple[str, ...]], column: int) -> list[tuple[str, ...]]:
    """Distinct values strictly inside each span (first seen first), at lo * n + hi.

    Each left end keeps one running list as the right end moves, so no span
    is scanned twice; spans that add no new value share the previous tuple.
    """
    n = len(aug_tokens)
    values = [tok[column] for tok in aug_tokens]
    table: list[tuple[str, ...]] = [()] * (n * n)
    for lo in range(n - 2):
        seen: list[str] = []
        current: tuple[str, ...] = ()
        for hi in range(lo + 2, n):
            value = values[hi - 1]
            if value not in seen:
                seen.append(value)
                current = tuple(seen)
            table[lo * n + hi] = current
    return table


def instantiate_edges(
    spec: EdgeTemplateSpec, aug_tokens: Sequence[tuple[str, ...]]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Feature strings of `spec` over every candidate edge of one sentence.

    Returns ``(heads, mods, strings)``: entry i is a string of edge
    ``heads[i] -> mods[i]``, over the edges u = 0..n-1 (outer), v = 1..n-1
    (inner), u != v, of the augmented tokens; the int64 arrays may be
    read-only.  A string is ``index:direction:distance:`` and the selectors'
    values joined by ``/``, a position outside the sentence reading its
    boundary sentinel.  Without a ``between`` selector each edge has one
    string; with one, an edge has a string per distinct value strictly
    between head and modifier (first seen first), so adjacent pairs have
    none.  Each selector's column of values is read once per sentence, and
    the strings are joined edge-parallel.
    """
    n = len(aug_tokens)
    frame = _edge_frame(n)
    n_edges = len(frame.heads)
    prefixes = map(f"{spec.index}:".__add__, frame.prefixes)
    parts = []  # per selector: its value on every edge (None for between)
    for sel in spec.selectors:
        if sel.anchor == "between":
            parts.append(None)
            continue
        column = [
            aug_tokens[p][sel.column] if 0 <= p < n else boundary_symbol(p, n)
            for p in range(sel.offset, sel.offset + n)
        ]
        anchors = frame.heads if sel.anchor == "head" else frame.mods
        parts.append(map(column.__getitem__, anchors))

    between_col = spec.between_column
    if between_col is None:
        strings = list(map(add, prefixes, map("/".join, zip(*parts))))
        return frame.head_ids, frame.mod_ids, strings

    b = parts.index(None)
    # "x/y/" before and "/z" after the between value; empty without selectors
    before = map("/".join, zip(*parts[:b], repeat("", n_edges)))
    after = map("/".join, zip(repeat("", n_edges), *parts[b + 1 :]))
    table = _between_values(aug_tokens, between_col)
    values = list(map(table.__getitem__, frame.spans))
    counts = list(map(len, values))
    strings = list(
        map(
            "".join,
            zip(
                chain.from_iterable(map(repeat, map(add, prefixes, before), counts)),
                chain.from_iterable(values),
                chain.from_iterable(map(repeat, after, counts)),
            ),
        )
    )
    return np.repeat(frame.head_ids, counts), np.repeat(frame.mod_ids, counts), strings


class EdgeFeatureExtractor:
    """Edge templates plus their frozen alphabets."""

    def __init__(self, specs: Sequence[EdgeTemplateSpec], alphabets: Sequence[FeatureAlphabet]):
        self.specs = list(specs)
        self.alphabets = list(alphabets)
        if len(self.specs) != len(self.alphabets):
            raise ValueError("one alphabet per edge template required")

    @classmethod
    def build(
        cls, specs: Sequence[EdgeTemplateSpec], corpus: Sequence[DependencyInstance]
    ) -> "EdgeFeatureExtractor":
        """Index every candidate edge of every sentence, first-seen order."""
        if not corpus:
            raise ValueError("cannot index an empty corpus")
        if not specs:
            raise ValueError("template file defines no feature groups")
        alphabets = [FeatureAlphabet(s.index) for s in specs]
        for inst in corpus:
            toks = augment(inst.tokens)
            for spec, alphabet in zip(specs, alphabets):
                alphabet.intern_all(instantiate_edges(spec, toks)[2])
        for alphabet in alphabets:
            alphabet.freeze()
        return cls(specs, alphabets)


def parent_loss(gold: Sequence[int], other: Sequence[int]) -> float:
    """Number of tokens whose head differs."""
    if len(gold) != len(other):
        raise ValueError("head sequences differ in length")
    return float(sum(a != b for a, b in zip(gold, other)))


def is_arborescence(heads: Sequence[int]) -> bool:
    """Heads in range, no token its own head, every token reaches root 0."""
    n = len(heads)
    for v, h in enumerate(heads, start=1):
        if not 0 <= h <= n or h == v:
            return False
    return find_cycle(heads) is None


def is_projective(heads: Sequence[int]) -> bool:
    """No two edges cross (intervals nest or are disjoint)."""
    edges = [(min(h, v), max(h, v)) for v, h in enumerate(heads, start=1)]
    for i in range(len(edges)):
        a1, b1 = edges[i]
        for a2, b2 in edges[i + 1 :]:
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return False
    return True


def _masked(scores: np.ndarray) -> np.ndarray:
    S = np.array(scores, dtype=float, copy=True)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 2:
        raise ValueError("scores must be (l+1) x (l+1) with l >= 1")
    S[:, 0] = NEG
    np.fill_diagonal(S, NEG)
    return S


def eisner_decode(scores: np.ndarray) -> tuple[list[int], float]:
    """Highest-scoring projective tree by the complete/incomplete span DP.

    `scores[u, v]` is the score of attaching modifier v (1..l) to head u
    (0..l); column 0 and the diagonal are ignored.  The charts are filled one
    span width w at a time, every span of that width at once.  A chart X is
    kept left-anchored, ``L[s, w] = X[s, s+w]``, where it is read by left end,
    and right-anchored, ``R[t, w] = X[t-w, t]``, where it is read by right
    end, so the split candidates of a whole diagonal are two plain slices:
    ``LCR[:n-w, :w] + RCL[w:, w-1::-1]`` for the incomplete spans.  Ties go
    to the first maximum over ascending split points, as in a cell-by-cell
    fill, which is deterministic but carries no lexicographic guarantee.
    The backtrack walks an explicit stack, so sentence length is not bound
    by the recursion limit.
    """
    S = _masked(scores)
    n = S.shape[0]
    LCR, RCR, LCL, RCL, LIR, RIL = (np.full((n, n), NEG) for _ in range(6))
    for chart in (LCR, RCR, LCL, RCL):
        chart[:, 0] = 0.0
    # split offsets from the left end, left-anchored like the charts
    bI, bCL, bCR = (np.zeros((n, n), dtype=np.intp) for _ in range(3))
    rows = np.arange(n)

    for w in range(1, n):
        m = n - w  # spans of width w: s = 0..m-1, t = w..n-1
        ar = rows[:m]
        vals = LCR[:m, :w] + RCL[w:, w - 1 :: -1]
        r = vals.argmax(axis=1)
        best = vals[ar, r]
        bI[:m, w] = r
        LIR[:m, w] = best + S.diagonal(w)
        RIL[w:, w] = best + S.diagonal(-w)  # NEG when s == 0 via the mask
        vals = LCL[:m, :w] + RIL[w:, w:0:-1]
        r = vals.argmax(axis=1)
        bCL[:m, w] = r
        LCL[:m, w] = RCL[w:, w] = vals[ar, r]
        vals = LIR[:m, 1 : w + 1] + RCR[w:, w - 1 :: -1]
        r = vals.argmax(axis=1)
        bCR[:m, w] = r + 1
        LCR[:m, w] = RCR[w:, w] = vals[ar, r]

    heads = [0] * (n - 1)
    stack = [(0, n - 1, "CR")]
    while stack:
        s, t, state = stack.pop()
        w = t - s
        if w == 0:
            continue
        if state == "CR":
            r = s + int(bCR[s, w])
            stack += [(s, r, "IR"), (r, t, "CR")]
        elif state == "CL":
            r = s + int(bCL[s, w])
            stack += [(s, r, "CL"), (r, t, "IL")]
        else:
            if state == "IR":
                heads[t - 1] = s
            else:
                heads[s - 1] = t
            r = s + int(bI[s, w])
            stack += [(s, r, "CR"), (r + 1, t, "CL")]
    return heads, float(LCR[0, n - 1])


def cle_decode(scores: np.ndarray) -> tuple[list[int], float]:
    """Maximum spanning arborescence rooted at 0 (greedy + cycle contraction).

    Root out-degree is unconstrained.  Greedy head selection takes the
    smallest head index among ties.
    """
    S = _masked(scores)
    heads = _cle(S)[1:].tolist()
    return heads, _tree_score(S, heads)


def _tree_score(S: np.ndarray, heads: Sequence[int]) -> float:
    return float(sum(S[h, v] for v, h in enumerate(heads, start=1)))


def _cle(S: np.ndarray) -> np.ndarray:
    """Heads of the maximum arborescence of masked scores (entry 0 unused).

    Every node takes its best head, the smallest among ties.  A cycle among
    them is contracted to node c over the outside nodes: a -> c scores a's
    best gain from taking over a cycle node's head, c -> a the best cycle
    edge into a.  The tree on that matrix breaks the cycle where it enters.
    Contractions run in a loop and their expansions come off a stack, so
    the nesting depth (up to one per token) is not bound by the recursion
    limit.
    """
    stack = []
    while True:
        bh = S.argmax(axis=0)
        cycle = find_cycle(bh[1:].tolist())
        if cycle is None:
            break
        cyc = np.array(cycle)
        out = np.flatnonzero(np.bincount(cyc, minlength=S.shape[0]) == 0)  # 0 stays first
        c = out.size  # the contracted cycle's index
        gains = S[out[:, None], cyc] - S[bh[cyc], cyc]
        enter = gains.argmax(axis=1)  # where each outside node would enter the cycle
        exits = cyc[S[cyc[:, None], out].argmax(axis=0)]  # the cycle node heading each
        S2 = np.full((c + 1, c + 1), NEG)
        S2[:c, :c] = S[out[:, None], out]
        S2[:c, c] = gains.max(axis=1)
        S2[c, :c] = S[exits, out]
        stack.append((bh, cyc, out, enter, exits))
        S = S2
    while stack:
        sub = bh  # heads on the contracted matrix
        bh, cyc, out, enter, exits = stack.pop()
        c = out.size
        into = sub[1:c]  # cycle nodes keep their heads but the one entered
        bh[out[1:]] = np.where(into == c, exits[1:], np.append(out, -1)[into])
        bh[cyc[enter[sub[c]]]] = out[sub[c]]
    return bh


def decode_single_root(scores: np.ndarray, projective: bool) -> tuple[list[int], float]:
    """Best tree with exactly one child of the root, in one decode.

    Root edges are charged 1 + (l+1)(max - min) over the finite scores, more
    than two trees' scores can differ, so the best charged tree has one root
    child (Gabow & Tarjan's root penalty); its total uses the uncharged
    scores.  Ties may resolve unlike a search over each root child in turn.
    """
    S = _masked(scores)
    charged = S.copy()
    charged[0] -= 1.0 + S.shape[0] * np.ptp(S[np.isfinite(S)])
    heads, _ = (eisner_decode if projective else cle_decode)(charged)
    return heads, _tree_score(S, heads)


@dataclass
class CompiledDependency:
    """A sentence reduced to its edge-feature firings, each stored once.

    Firing i is weight id `ids[i]` of the flat feature space (group j's ids
    offset by the sizes of the groups before it) on the edge whose flat
    index in the (n+1) x (n+1) score matrix is `cells[i]` = u * (n+1) + v.
    Firings run group by group, in candidate-edge order within a group;
    group j's are ``[bounds[j], bounds[j+1])``, and `offsets[j]` is its
    first flat id.
    """

    n: int  # token count, excluding root
    cells: np.ndarray
    ids: np.ndarray
    bounds: np.ndarray
    offsets: np.ndarray
    gold: np.ndarray | None

    @property
    def group_edges(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per group, the (u, v, group-local feature id) int64 arrays of its
        firings, derived from `cells` and `ids`."""
        size = self.n + 1
        edges = []
        for j, (lo, hi) in enumerate(zip(self.bounds[:-1], self.bounds[1:])):
            u, v = np.divmod(self.cells[lo:hi], size)
            edges.append((u, v, self.ids[lo:hi] - self.offsets[j]))
        return edges


class DependencyTask:
    """Binds an edge feature extractor and a decoder choice for one model."""

    def __init__(
        self,
        extractor: EdgeFeatureExtractor,
        decoder: str = "projective",
        single_root: bool = False,
    ):
        if decoder not in ("projective", "nonprojective"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.extractor = extractor
        self.decoder = decoder
        self.single_root = single_root
        offsets = np.cumsum([0, *self.group_dims], dtype=np.int64)[:-1]
        offsets.flags.writeable = False
        self._offsets = offsets  # shared by every compiled sentence

    @classmethod
    def build(
        cls,
        specs: Sequence[EdgeTemplateSpec],
        corpus: Sequence[DependencyInstance],
        decoder: str = "projective",
        single_root: bool = False,
    ) -> "DependencyTask":
        return cls(EdgeFeatureExtractor.build(specs, corpus), decoder, single_root)

    @property
    def group_ids(self) -> list[str]:
        return [s.index for s in self.extractor.specs]

    @property
    def group_dims(self) -> list[int]:
        return [len(a) for a in self.extractor.alphabets]

    def compile(self, instance: DependencyInstance) -> CompiledDependency:
        toks = augment(instance.tokens)
        size = len(toks)
        cells, ids = [], []
        for spec, alphabet, offset in zip(
            self.extractor.specs, self.extractor.alphabets, self._offsets.tolist(), strict=True
        ):
            heads, mods, strings = instantiate_edges(spec, toks)
            found = alphabet.lookup_all(strings)
            known = found >= 0  # unknown strings fire nothing
            cells.append(heads[known] * size + mods[known])
            ids.append(found[known] + offset)
        bounds = np.cumsum([0, *map(len, ids)], dtype=np.int64)
        gold = None
        if instance.heads is not None:
            gold = np.asarray(instance.heads, dtype=np.int64)
        return CompiledDependency(
            size - 1, np.concatenate(cells), np.concatenate(ids), bounds, self._offsets, gold
        )

    def edge_scores(self, weights: np.ndarray, inst: CompiledDependency) -> np.ndarray:
        """Dense (n+1) x (n+1) edge score matrix (column 0 / diagonal unused)
        under the concatenated weight vector `weights`.

        Each cell sums its firings' weights in group order, then firing order.
        """
        size = inst.n + 1
        return np.bincount(
            inst.cells, weights=weights[inst.ids], minlength=size * size
        ).reshape(size, size)

    def tree_ids(self, inst: CompiledDependency, heads: Sequence[int]) -> np.ndarray:
        """Flat weight ids fired by the tree's edges, one entry per firing:
        the firings whose cell the tree marks."""
        harr = np.asarray(heads, dtype=np.int64)
        if harr.shape != (inst.n,):
            raise ValueError("tree size does not match the sentence")
        size = inst.n + 1
        if inst.n and not 0 <= harr.min() <= harr.max() < size:
            raise ValueError("head index out of range")
        tree = np.zeros(size * size, dtype=bool)
        tree[harr * size + np.arange(1, size)] = True
        return inst.ids[tree[inst.cells]]

    def _run_decoder(self, S: np.ndarray) -> tuple[list[int], float]:
        if self.single_root:
            return decode_single_root(S, self.decoder == "projective")
        return (eisner_decode if self.decoder == "projective" else cle_decode)(S)

    # --- solver-facing protocol ---

    def gold_output(self, inst: CompiledDependency) -> list[int]:
        if inst.gold is None:
            raise ValueError("instance has no gold heads")
        return [int(h) for h in inst.gold]

    def decode_corpus(
        self,
        weights: Sequence[np.ndarray],
        instances: Sequence[CompiledDependency],
        augmented: bool = False,
    ) -> tuple[list[list[int]], np.ndarray]:
        """Best tree of every sentence and its score, one decode each.

        With `augmented`, the argmax of score(T) + parent_loss(gold, T),
        decoded with +1 on every off-gold edge, and that augmented value.
        """
        flat = np.concatenate(weights)
        outputs, scores = [], []
        for inst in instances:
            S = self.edge_scores(flat, inst)
            if augmented:
                if inst.gold is None:
                    raise ValueError("instance has no gold heads")
                S += 1.0
                S[inst.gold, np.arange(1, inst.n + 1)] -= 1.0
            heads, score = self._run_decoder(S)
            outputs.append(heads)
            scores.append(score)
        return outputs, np.array(scores)

    def corpus_feature_ids(
        self, instances: Sequence[CompiledDependency], outputs: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, float]:
        """The flat weight ids `outputs` fire over the corpus, one entry per
        firing, and their summed parent loss, sentence by sentence."""
        ids = []
        loss = 0.0
        for inst, out in zip(instances, outputs, strict=True):
            loss += parent_loss(self.gold_output(inst), out)
            ids.append(self.tree_ids(inst, out))
        return np.concatenate(ids), loss
