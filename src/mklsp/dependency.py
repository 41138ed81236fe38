"""Edge-factored dependency parsing: edge feature templates, projective
(cubic-time span DP) and non-projective (maximum arborescence) decoders,
parent loss, and the tree-level feature map.

Edge templates reuse the template-file syntax with field selectors instead
of %x macros: ``P03:head.POSTAG/mod.POSTAG``.  Selector anchors are ``head``,
``mod`` (with optional ``+n``/``-n`` token offsets, n at most 100)
and ``between`` (no offset), fields are FORM, LEMMA, CPOSTAG, POSTAG.  A
``between`` selector emits one feature per distinct field value strictly
between head and modifier.  Every feature string embeds the template
index, the attachment direction, and the bucketed head-modifier distance.

Features are integer keys.  A firing is (template, direction, distance
bucket, one value code per selector slot, the ``between`` slot included);
its string is ``index:direction:distance:`` and the slot values joined by
``/``.  `EdgeFeatureExtractor.build` keys every candidate edge of the
training corpus, template by template, in one numpy pass per sentence (see
`_EdgeLayout`), and writes strings only for the distinct keys.  The extractor
parses its alphabet strings back into a value vocabulary and hashed key
tables (`_KeyTable`) when it is made, the same way inside `build` and inside
`Model.read`, so features are looked up by key, not by string.  The index
arrays of that pass that depend only on the sentence length (the candidate
edges, where each selector reads on each edge, where each ``between``
template reads its field, which positions precede which) are a read-only
`_LengthPlan`, built the first time the layout meets a length.  A template
set has one layout, so `build`, the task it returns and every task that
`Model.read` makes of those templates share its plans and build each once.
The alphabets are plain tuples of strings, and the extractor's `ends` array
of group boundaries is shared by every compiled sentence.

`DependencyTask.compile` does a sentence's string work only: it keeps the
values its slots can read.  The rest runs in `EdgeFeatureExtractor.expand`,
once per batch of same-length sentences: the batch's values coded at once,
one firing pass over the codes, one key lookup, the drop of unknown
features and the split back into sentences.  `decode_corpus` and
`corpus_feature_ids` expand their corpus first, so `train` expands its
corpus in the parent process before any decode pool forks; a sentence
whose firings are read before any batch took it expands alone, with the
same arrays.

Both decoders run over padded batches: `decode_corpus` stable-sorts a
corpus's sentences by length, cuts them into chunks whose (B, L, L) slabs
stay within a fixed cell budget, each sentence's scores padded with -inf to
L, and hands every chunk to `_decode`, the one place that charges root
edges for a single root.  Each decoder takes a chunk as ``(S, sizes)`` and
returns its (B, L) head array and each sentence's score.  The projective
decoder, `eisner_decode(S, sizes)`, is Eisner's span DP, one per chunk.
Padding is exact: a span inside a sentence reads only chart cells of spans
inside it, so every tree and score are those of the sentence decoded
alone, bit for bit, ties included.  The non-projective decoder,
`cle_decode(S, sizes)` (maximum arborescence, Chu-Liu-Edmonds), runs in
rounds (`_cle`): one `argmax` gives every node of the slab its best head,
pointer jumping finds the sentences whose heads close a cycle, and each of
those contracts the cycle a one-sentence decode would contract into a new
node, slot ``L + round`` of a slab widened to L + (L - 2) nodes.  Only
those sentences go on to the next round.  No node is renumbered, and the
live nodes keep the order of a one-sentence contraction, real nodes first
and then slots in creation order, so every first-maximum tie, and with it
every tree and score, is the sentence's own.

Model checksums rest on one invariant: each template's alphabet lists its
strings in the order their keys are first seen over (sentence, head,
modifier, between position), heads outer and modifiers inner.  A feature is
still its string: values that hold a ``/`` can spell another key's string,
and then the two are one feature, interned once.  Such strings have more
``/`` than slots, so the key tables keep them as strings and the lookup
finds them by string, and only for firings with such a value.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from operator import add
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import DependencyInstance, find_cycle, size_chunks
from .templates import TemplateError, boundary_symbol, parse_offset, parse_rules

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
    return parse_rules(text, "'Index:selector/...'", _edge_rule, {})


def _edge_rule(index: str, body: str, lineno: int) -> EdgeTemplateSpec:
    selectors = []
    for part in body.split("/"):
        m = _SELECTOR.match(part)
        if m is None:
            raise TemplateError(f"line {lineno}: malformed selector {part!r}")
        anchor, offset, fieldname = m.groups("0")  # "0" when no offset is given
        if anchor == "between":
            if offset != "0":
                raise TemplateError(f"line {lineno}: 'between' takes no offset")
            if any(sel.anchor == "between" for sel in selectors):
                raise TemplateError(f"line {lineno}: at most one 'between' selector")
        selectors.append(EdgeSelector(anchor, parse_offset(offset, lineno), FIELDS[fieldname]))
    return EdgeTemplateSpec(index, tuple(selectors))


def default_edge_templates() -> str:
    """The template file shipped with the package."""
    return (
        importlib.resources.files("mklsp")
        .joinpath("data/parse_templates.txt")
        .read_text(encoding="utf-8")
    )


def augment(tokens: Sequence[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Positions 0..l with the synthetic root token at 0."""
    return [ROOT_TOKEN, *tokens]


_BUCKETS = (1, 2, 3, 4, 5, 10)
# (direction, distance bucket) as a feature string spells them -> their code
_DIR_DIST = {(d, str(b)): i for i, (d, b) in enumerate((d, b) for d in "RL" for b in _BUCKETS)}
_N_DIR_DIST = len(_DIR_DIST)
_KEY_LIMIT = 1 << 62  # integer keys stay below this, so no stage overflows int64
# firings per numpy pass, one per template per candidate edge: the most an
# `EdgeFeatureExtractor.expand` batch gathers (unless one sentence has more)
# and the fewest `build` gathers before it drops repeated keys; a batch holds
# about 80 bytes per firing while looked up (320 KiB with the default
# templates), which larger budgets, a little faster, add to `predict`'s peak
_FIRINGS = 1 << 13


def _prefixes(specs: Sequence[EdgeTemplateSpec]) -> list[str]:
    """``index:direction:distance:`` by stage-0 code, template * 12 + (direction, distance)."""
    return [f"{s.index}:{d}:{b}:" for s in specs for d, b in _DIR_DIST]


class _LengthPlan(NamedTuple):
    """The index arrays of `_EdgeLayout.firings` that depend on the sentence
    length alone, for a sentence with n positions (root included).  Its
    candidate edges are u = 0..n-1 outer, v = 1..n-1 inner, u != v; their
    arrays are int64, the other arrays each in the smallest integer type
    that holds it.  Plans are shared, so every array is read-only."""

    cells: np.ndarray  # per edge, u * n + v
    dir_dist: np.ndarray  # per edge, the code of (direction, distance bucket)
    lo: np.ndarray  # per edge, min(u, v)
    last: np.ndarray  # per edge, max(u, v) - 1, the last position strictly between
    at: np.ndarray  # (selectors, edges): where each selector reads, in the flat code array
    cols: np.ndarray  # (between templates, n): where each reads its between field
    earlier: np.ndarray  # (n, n): q at [q, p] when q < p, else -1
    below: np.ndarray  # (n, n): l at [l, p] when l < p, else -2


class _EdgeLayout:
    """Where each slot of each template reads its value, for any sentence.

    A slot is one selector of a template, in template order, with the
    ``between`` selector in its place; slots past a template's last read the
    pad.  A sentence is read as one flat array of value codes: per field that
    some selector reads, its values at positions ``reach[0] .. n - 1 +
    reach[1]`` (boundary sentinels outside the sentence), then the pad code 0.
    The index arrays that depend on the sentence length alone are built the
    first time a length is seen and kept, one `_LengthPlan` per length, as
    long as the layout lives.  A template set has one layout (`_edge_layout`),
    so its plans are built once and shared by every task of those templates.
    """

    def __init__(self, specs: Sequence[EdgeTemplateSpec]):
        n_templates = len(specs)
        self.width = max((len(s.selectors) for s in specs), default=0)
        self.fields = sorted({sel.column for s in specs for sel in s.selectors})
        offsets = [sel.offset for s in specs for sel in s.selectors]
        self.reach = (min([0, *offsets]), max([0, *offsets]))
        # a sentinel depends on the distance past the edge, not on the length
        self._left = [boundary_symbol(p, 0) for p in range(self.reach[0], 0)]
        self._right = [boundary_symbol(p, 0) for p in range(self.reach[1])]
        row = {f: i for i, f in enumerate(self.fields)}
        # the distinct head and mod selectors (anchor row of the edge frame,
        # field row, offset), then the pad
        selectors: dict[tuple[int, int, int], int] = {}
        slots = np.full((n_templates, self.width), -1, dtype=np.int64)
        for t, spec in enumerate(specs):
            for k, sel in enumerate(spec.selectors):
                if sel.anchor != "between":
                    key = (int(sel.anchor == "mod"), row[sel.column], sel.offset - self.reach[0])
                    slots[t, k] = selectors.setdefault(key, len(selectors))
        selectors[(2, len(self.fields), 0)] = pad = len(selectors)
        slots[slots < 0] = pad
        table = np.array([*selectors], dtype=np.int64).reshape(-1, 3)
        self._anchor, self._row, self._shift = table.T

        plain = [t for t, s in enumerate(specs) if s.between_column is None]
        between = [t for t, s in enumerate(specs) if s.between_column is not None]
        self._plain_prefix = np.array(plain, dtype=np.int64)[:, None] * _N_DIR_DIST
        self._plain_slots = slots[plain].T  # (width, plain templates)
        self._between_prefix = np.array(between, dtype=np.int64) * _N_DIR_DIST
        self._between_slots = slots[between]  # (between templates, width)
        # the row of `firings`' keys that holds each between template's value
        self._between_key_row = np.array(
            [1 + [sel.anchor for sel in specs[t].selectors].index("between") for t in between],
            dtype=np.int64,
        )
        self._between_field_row = np.array(
            [row[specs[t].between_column] for t in between], dtype=np.int64
        )
        # firings come plain block first, so they run in template order
        # exactly when every plain template comes before every between one
        self.in_order = not plain or not between or max(plain) < min(between)
        self._plans: dict[int, _LengthPlan] = {}

    def values(self, aug_tokens: Sequence[tuple[str, ...]]) -> list[str]:
        """The strings that a sentence's flat code array codes, pad excluded."""
        columns = list(zip(*aug_tokens))
        values: list[str] = []
        for f in self.fields:
            values += self._left
            values += columns[f]
            values += self._right
        return values

    def plan(self, n: int) -> _LengthPlan:
        """The `_LengthPlan` of sentences with n positions, built on first use."""
        plan = self._plans.get(n)
        if plan is None:
            u, v = np.divmod(np.arange(n * n, dtype=np.int64), n)
            keep = (v > 0) & (u != v)
            u, v = u[keep], v[keep]
            dist = np.abs(u - v)
            bucket = np.where(dist >= 10, 5, np.minimum(dist, 5) - 1)  # index into _BUCKETS
            size = n + self.reach[1] - self.reach[0]
            at = np.stack((u, v, 0 * u))[self._anchor] + (self._row * size + self._shift)[:, None]
            q = np.arange(n)
            cols = (self._between_field_row * size - self.reach[0])[:, None] + q
            signed = np.min_scalar_type(-n)  # holds -2 .. n - 1
            plan = _LengthPlan(
                u * n + v, (u > v) * len(_BUCKETS) + bucket,
                np.minimum(u, v), np.maximum(u, v) - 1,
                *(a.astype(np.min_scalar_type(a.max(initial=0))) for a in (at, cols)),
                np.where(q[:, None] < q, q[:, None], -1).astype(signed),
                np.where(q[:, None] < q, q[:, None], -2).astype(signed),
            )
            for a in plan:
                a.flags.writeable = False
            self._plans[n] = plan
        return plan

    def firings(self, n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every feature firing of a batch of sentences with n positions
        each (root included).

        `codes` is (B, size), row b the flat code array of sentence b, equal
        codes for equal strings.  A template fires once per candidate edge
        of its `_LengthPlan`, a ``between`` template once per distinct value
        strictly between head and modifier, first seen first.  Returns
        ``(keys, cells, owner)``: `keys` is (1 + width, firings), per firing
        its stage-0 code, template * 12 + (direction, distance), then its
        slot-value codes; `cells` holds the cell of each firing's edge and
        `owner` its sentence.  The templates without a ``between`` selector
        come first, sentence by sentence, template by template in edge
        order, then the ``between`` firings, sentence by sentence, those of
        a template in edge order.
        """
        plan = self.plan(n)
        batch = len(codes)
        by_selector = codes.take(plan.at, axis=1)  # [b, selector, edge]: its value's code
        b = j = e = spot = plan.cells[:0]
        if self._between_prefix.size:
            columns = codes.take(plan.cols, axis=1)  # [b, j, q]: between template j's field
            same = columns[:, :, :, None] == columns[:, :, None, :]  # [b, j, q, p]
            # the last position q < p that holds p's value, else -1
            prev = np.maximum.reduce(np.where(same, plan.earlier, -1), axis=2)
            # [b, j, l, p]: l < p and p's value is not seen in (l, p); inside
            # a span (lo, hi), the positions marked are its distinct values,
            # first seen first
            fresh = prev[:, :, None, :] <= plan.below
            b, j, e, spot = np.nonzero(
                fresh[:, :, plan.lo] & (np.arange(n) <= plan.last[:, None])
            )
        shape = (batch, len(self._plain_prefix), plan.cells.size)
        n_plain = shape[0] * shape[1] * shape[2]
        keys = np.empty((1 + self.width, n_plain + j.size), dtype=np.int64)
        cells = np.empty(n_plain + j.size, dtype=np.int64)
        owner = np.empty(n_plain + j.size, dtype=np.int64)
        plain = keys[:, :n_plain].reshape(len(keys), *shape)
        np.add(self._plain_prefix, plan.dir_dist, out=plain[0])
        for row, slots in zip(plain[1:], self._plain_slots):
            by_selector.take(slots, axis=1, out=row, mode="clip")
        np.copyto(cells[:n_plain].reshape(shape), plan.cells)
        np.copyto(owner[:n_plain].reshape(batch, -1), np.arange(batch)[:, None])
        if j.size:
            between = keys[:, n_plain:]
            np.add(self._between_prefix[j], plan.dir_dist[e], out=between[0])
            between[1:] = by_selector[b, self._between_slots[j].T, e]
            between[self._between_key_row[j], np.arange(j.size)] = columns[b, j, spot]
            plan.cells.take(e, out=cells[n_plain:])
            owner[n_plain:] = b
        return keys, cells, owner


@lru_cache(maxsize=32)
def _edge_layout(specs: tuple[EdgeTemplateSpec, ...]) -> _EdgeLayout:
    """The one layout of a template set, and with it its length plans."""
    return _EdgeLayout(specs)


class EdgeFeatureExtractor:
    """Edge templates plus their alphabets, the slot layout of the templates
    and the key table parsed from the alphabet strings.

    `ends[j]` is the first flat feature id of template j, the sizes of the
    alphabets before it summed, and `ends[-1]` the total; the array is
    read-only and shared by every compiled sentence.
    """

    def __init__(self, specs: Sequence[EdgeTemplateSpec], alphabets: Sequence[tuple[str, ...]]):
        self.specs = list(specs)
        self.alphabets = list(alphabets)
        if len(self.specs) != len(self.alphabets):
            raise ValueError("one alphabet per edge template required")
        self.ends = np.cumsum([0, *map(len, self.alphabets)], dtype=np.int64)
        self.ends.flags.writeable = False
        self.layout = _edge_layout(tuple(self.specs))
        offsets = self.ends[:-1].tolist()
        self.keys = _KeyTable(self.specs, self.alphabets, offsets, self.layout.width)

    @classmethod
    def build(
        cls, specs: Sequence[EdgeTemplateSpec], corpus: Sequence[DependencyInstance]
    ) -> "EdgeFeatureExtractor":
        """Index every candidate edge of every sentence, first-seen order.

        Each firing is keyed by integers, (template, direction, distance)
        and a code per slot value; strings are written only for the
        distinct keys, in the order their keys are first seen.
        """
        if not corpus:
            raise ValueError("cannot index an empty corpus")
        if not specs:
            raise ValueError("template file defines no feature groups")
        layout = _edge_layout(tuple(specs))
        vocab: dict[str, int] = {}
        # the distinct keys so far, first seen first, and the firings since
        distinct = np.zeros((layout.width + 1, 0), dtype=np.int64)
        pending, size = [], 0
        for inst in corpus:
            toks = augment(inst.tokens)
            codes = [vocab.setdefault(s, len(vocab)) for s in layout.values(toks)]
            keys, _, _ = layout.firings(len(toks), np.array([[*codes, 0]], dtype=np.int64))
            pending.append(keys)
            size += keys.shape[1]
            if size >= max(_FIRINGS, distinct.shape[1]):  # merges cost O(firings log firings)
                distinct = _first_seen(np.hstack((distinct, *pending)))
                pending, size = [], 0
        keys = _first_seen(np.hstack((distinct, *pending)))
        # per template, its keys in first-seen order
        owner = keys[0] // _N_DIR_DIST
        order = np.argsort(owner, kind="stable")
        keys, bounds = keys[:, order], np.searchsorted(owner[order], np.arange(len(specs) + 1))
        words, prefixes = list(vocab), _prefixes(specs)
        alphabets = []
        for t, spec in enumerate(specs):
            block = keys[: 1 + len(spec.selectors), bounds[t] : bounds[t + 1]].tolist()
            heads = map(prefixes.__getitem__, block[0])
            tails = map("/".join, zip(*(map(words.__getitem__, row) for row in block[1:])))
            alphabets.append(tuple(dict.fromkeys(map(add, heads, tails))))  # equal strings merge
        return cls(specs, alphabets)

    def expand(self, instances: Sequence["CompiledDependency"]) -> None:
        """Work out the firings of the sentences this extractor compiled
        that are not expanded yet, one batch of same-length sentences at a
        time: sorted by length, cut within `_FIRINGS` (see `size_chunks`)
        and split where the length changes.

        Per batch, one `_KeyTable.codes` codes the sentences' values, one
        `_EdgeLayout.firings` and one `_KeyTable.lookup` cover the batch,
        unknown firings are dropped, and a stable sort by sentence (and by
        group, when the layout is not in order) puts each sentence's firings
        in the order of a batch of one.  Each sentence gets arrays of its own.
        """
        todo = [inst for inst in instances if inst.firings is None and inst.extractor is self]
        sizes = [inst.n + 1 for inst in todo]
        cost = len(self.specs)
        for chunk in size_chunks(sizes, lambda n: cost * (n - 1) ** 2, _FIRINGS):
            for _, run in groupby(chunk, sizes.__getitem__):
                self._expand([todo[i] for i in run])

    def _expand(self, batch: list["CompiledDependency"]) -> None:
        codes, unseen = self.keys.codes([inst.values for inst in batch])
        keys, cells, owner = self.layout.firings(batch[0].n + 1, codes)
        ids = self.keys.lookup(keys, unseen)
        del keys  # freed before the filters allocate
        known = ids >= 0
        cells, ids, owner = cells[known], ids[known], owner[known]
        if len(batch) == 1 and self.layout.in_order:
            batch[0].firings = cells, ids
            return
        bounds = np.cumsum(np.bincount(owner, minlength=len(batch))).tolist()
        # both blocks of `firings` run by sentence, so the stable sort merges
        # two sorted runs; group j's ids lie in [ends[j], ends[j + 1])
        if not self.layout.in_order:
            owner = owner * len(self.ends) + self.ends.searchsorted(ids, side="right")
        order = np.argsort(owner, kind="stable")
        for inst, lo, hi in zip(batch, [0, *bounds], bounds):
            inst.firings = cells[order[lo:hi]], ids[order[lo:hi]]


def _first_seen(keys: np.ndarray) -> np.ndarray:
    """The distinct columns of a non-negative int64 key matrix, in first-seen order.

    Rows fold into one integer key as long as it stays below 2**62; when the
    next row would not fit, the key so far is replaced by its rank among the
    distinct keys, which is below the column count.
    """
    if keys.shape[1] == 0:
        return keys
    key, bound = keys[0], int(keys[0].max()) + 1
    for row in keys[1:]:
        scale = int(row.max()) + 1
        if bound * scale > _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            key = key.reshape(-1)
            bound = int(key.max()) + 1
        key, bound = key * scale + row, bound * scale
    _, first = np.unique(key, return_index=True)
    return keys[:, np.sort(first)]


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, odd
_WINDOW = 8  # slots a lookup round looks at past the home slot


class _HashedRanks:
    """The rank of each key in a sorted table of distinct non-negative int64
    keys, -1 for any other int64, by open addressing.

    The slots are a power of two, at least four per key.  A key's home slot
    is the top bits of ``key * _GOLDEN mod 2**64`` (Fibonacci hashing), and
    a key that meets another key moves on to the next slot.  The table is
    built in rounds, every unplaced key at once: one claimant of each free
    slot wins it and the others move on.  A lookup also goes in rounds, each
    over the needles that met another key in an occupied slot.  Every hash
    operand is a uint64 array or an `np.uint64`, so no operand promotes the
    product to float64 and no scalar overflows.
    """

    def __init__(self, table: np.ndarray):
        bits = max(1, (4 * table.size - 1).bit_length())
        self.mask = (1 << bits) - 1
        self.shift = np.uint64(64 - bits)
        self.keys = np.full(1 << bits, -1, dtype=np.int64)
        self.ranks = np.full(1 << bits, -1, dtype=np.int64)  # -1: free
        todo, slot = np.arange(table.size), self._home(table)
        while todo.size:
            free = self.ranks[slot] < 0
            self.ranks[slot[free]] = todo[free]
            won = self.ranks[slot] == todo
            self.keys[slot[won]] = table[todo[won]]
            todo, slot = todo[~won], (slot[~won] + 1) & self.mask

    def _home(self, keys: np.ndarray) -> np.ndarray:
        slot = keys.view(np.uint64) * _GOLDEN
        slot >>= self.shift
        return slot.view(np.int64)  # below 2**bits, so the bits read the same

    def rank(self, needles: np.ndarray) -> np.ndarray:
        """Per needle (int64), its rank in the table, else -1.

        A needle stops at the slot that holds it or at a free slot, whose
        rank reads -1.  The first round looks at every needle's home slot;
        each later round looks at the next `_WINDOW` slots of the needles
        that have met another key at every slot so far.
        """
        slot = self._home(needles)
        todo = np.flatnonzero(self.keys.take(slot) != needles)
        todo = todo[self.keys.take(slot[todo]) >= 0]
        step = np.arange(1, _WINDOW + 1)
        while todo.size:
            window = (slot[todo, None] + step) & self.mask
            found = self.keys.take(window)
            stop = (found == needles[todo, None]) | (found < 0)
            stopped = stop.any(axis=1)
            at = np.where(stopped, stop.argmax(axis=1), _WINDOW - 1)
            slot[todo] = window[np.arange(todo.size), at]
            todo = todo[~stopped]
        return self.ranks.take(slot)


class _KeyTable:
    """Flat feature ids by integer key, parsed from the alphabet strings.

    A string ``index:direction:distance:tail`` of a template with K slots
    whose tail splits at ``/`` into exactly K values is the key (template,
    direction, distance, value codes).  A tail with more parts can only be
    fired by values that hold a ``/``; such strings stay strings, per
    template.  Strings of any other shape are dead: no firing spells them.

    Keys resolve in a few stages.  Stage 0 is (template, direction,
    distance); each later stage looks up ``rank * B**m + (its m codes in
    base B)``, rank being the key's position in the sorted table of the
    stage before.  B = V + 1 for a vocabulary of V values, and V is the code
    of every value the vocabulary lacks, which no key holds.  A stage takes
    as many slots as keep its keys below 2**62, and finds ranks through a
    hash table (`_HashedRanks`).  The tables are frozen, so compiling never
    changes them.
    """

    def __init__(self, specs, alphabets, offsets, width: int):
        self.vocab: dict[str, int] = {}
        self.slash: list[dict[str, int]] = [{} for _ in specs]
        blocks = []
        for t, (spec, alphabet, offset) in enumerate(zip(specs, alphabets, offsets)):
            k = len(spec.selectors)
            prefixes, tails, ids = [], [], []
            for i, s in enumerate(alphabet, start=offset):
                parts = s.split(":", 3)
                if len(parts) < 4 or parts[0] != spec.index:
                    continue
                dd = _DIR_DIST.get((parts[1], parts[2]))
                if dd is None:
                    continue
                slashes = parts[3].count("/")
                if slashes == k - 1:
                    prefixes.append(t * _N_DIR_DIST + dd)
                    tails.append(parts[3])
                    ids.append(i)
                elif slashes >= k:
                    self.slash[t][s] = i
            values = "/".join(tails).split("/") if tails else []
            for v in dict.fromkeys(values):
                self.vocab.setdefault(v, len(self.vocab))
            block = np.zeros((width + 2, len(ids)), dtype=np.int64)
            block[0], block[-1] = prefixes, ids
            block[1 : k + 1] = np.fromiter(
                map(self.vocab.__getitem__, values), dtype=np.int64, count=len(values)
            ).reshape(-1, k).T
            blocks.append(block)
        self.words = list(self.vocab)
        self.unseen = len(self.vocab)
        self.base = base = self.unseen + 1
        keys = np.hstack([np.zeros((width + 2, 0), dtype=np.int64), *blocks])
        rank, bound = keys[0], len(specs) * _N_DIR_DIST
        # per stage: its slots, its table, and the powers B**m .. B**0 that
        # weigh the rank before it and its m codes
        self.stages: list[tuple[range, np.ndarray, np.ndarray]] = []
        k = 0
        while k < width:
            m = 1
            while k + m < width and bound * base ** (m + 1) <= _KEY_LIMIT:
                m += 1
            key = rank
            for row in keys[1 + k : 1 + k + m]:
                key = key * base + row
            table, rank = np.unique(key, return_inverse=True)
            rank = rank.reshape(-1)
            self.stages.append(
                (range(k, k + m), _HashedRanks(table), base ** np.arange(m, -1, -1, dtype=np.int64))
            )
            bound, k = max(table.size, 1), k + m
        self.ids = np.full(rank.size + 1, -1, dtype=np.int64)  # rank -1 reads the last -1
        self.ids[rank] = keys[-1]
        self.prefixes = _prefixes(specs)
        self.widths = [len(s.selectors) for s in specs]

    def codes(self, rows: Sequence[list[str]]) -> tuple[np.ndarray, list[str]]:
        """The (B, size + 1) code array of B equal-length rows of values, each
        row a sentence's flat code array with the pad code 0 appended, and
        the values the vocabulary lacks: the i-th of them, in first-seen
        order over the batch, has code V + i, so equal codes mean equal
        strings throughout the batch."""
        values = list(chain.from_iterable(rows))
        codes = list(map(self.vocab.get, values))
        unseen: dict[str, int] = {}
        if None in codes:
            codes = [
                self.unseen + unseen.setdefault(s, len(unseen)) if c is None else c
                for c, s in zip(codes, values)
            ]
        array = np.zeros((len(rows), len(rows[0]) + 1), dtype=np.int64)
        array[:, :-1] = np.array(codes, dtype=np.int64).reshape(len(rows), -1)
        return array, list(unseen)

    def lookup(self, keys: np.ndarray, unseen: list[str]) -> np.ndarray:
        """Flat ids of firings, -1 where the alphabets lack the feature.

        `keys` is (1 + width, firings) as `_EdgeLayout.firings` gives it:
        per firing its stage-0 code and its slot-value codes; `unseen` holds
        the strings of codes V, V+1, ...  The slot codes are clamped to V in
        place.
        """
        # (firing, its template's strings, its string) where only the string
        # can match: a value holding "/" reads V once clamped.  No vocabulary
        # value holds "/", so only the unseen ones are looked at.
        by_string = []
        v = self.unseen
        slashed = [v + i for i, s in enumerate(unseen) if "/" in s]
        if slashed and any(self.slash):
            slots = keys[1:]
            for i in np.flatnonzero(np.isin(slots, slashed).any(axis=0)).tolist():
                p = int(keys[0, i])
                strings = self.slash[p // _N_DIR_DIST]
                if strings:
                    tail = slots[: self.widths[p // _N_DIR_DIST], i].tolist()
                    words = (self.words[c] if c < v else unseen[c - v] for c in tail)
                    by_string.append((i, strings, self.prefixes[p] + "/".join(words)))
        if unseen:
            np.minimum(keys[1:], v, out=keys[1:])
        rank = None
        for group, table, powers in self.stages:
            # einsum, not matmul: numpy's integer matmul is twice as slow
            if rank is None:  # the stage-0 code is row 0, right above the first slot
                key = np.einsum("i,ij->j", powers, keys[: 1 + group.stop])
            else:
                key = np.einsum("i,ij->j", powers[1:], keys[1 + group.start : 1 + group.stop])
                key += rank * powers[0]
            rank = table.rank(key)
            del key
        ids = self.ids[rank]
        for i, strings, s in by_string:
            ids[i] = strings.get(s, -1)
        return ids


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


def _mask(S: np.ndarray) -> np.ndarray:
    """Column 0 and the diagonal of every matrix in `S` set to -inf, in place."""
    diagonal = np.arange(S.shape[-1])
    S[..., 0] = NEG
    S[..., diagonal, diagonal] = NEG
    return S


def _masked(scores: np.ndarray) -> np.ndarray:
    S = np.array(scores, dtype=float, copy=True)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 2:
        raise ValueError("scores must be (l+1) x (l+1) with l >= 1")
    return _mask(S)


def eisner_decode(scores: np.ndarray, sizes: Sequence[int] | None = None):
    """Highest-scoring projective tree by the complete/incomplete span DP,
    and its score, the DP chart's total.

    `scores[u, v]` is the score of attaching modifier v (1..l) to head u
    (0..l); column 0 and the diagonal are ignored.  Ties go to the first
    maximum over ascending split points, as in a cell-by-cell fill, which is
    deterministic but carries no lexicographic guarantee.  Given `sizes`,
    `scores` is a masked padded batch laid out as for `_eisner`, left as it
    is, and the result is the batch's (B, L) head array (column 0 unused)
    and each sentence's total, all decoded by one `_eisner`; without,
    `scores` is one sentence's matrix, decoded as a batch of one, and the
    result its heads as a list and its score.
    """
    if sizes is None:
        S = _masked(scores)[None]
        heads, totals = _eisner(S, [S.shape[1]])
        return heads[0, 1:].tolist(), float(totals[0])
    return _eisner(scores, sizes)


def _best(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First maximum over the last axis: its index and its value."""
    r = vals.argmax(axis=-1)
    rows = vals.reshape(-1, vals.shape[-1])
    return r, rows[np.arange(len(rows)), r.reshape(-1)].reshape(r.shape)


# most cells B * L * L in one chunk's padded slab and, when projective, in
# each of its DP charts, unless one sentence alone needs more; seven float64
# arrays of this size are about 0.9 MiB
_CHART_CELLS = 1 << 14


def _eisner(S: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (B, L) head array of the best projective tree of every sentence
    of a padded batch (column 0 unused), and each tree's chart total.

    `S` is (B, n, n), masked by `_mask`; sentence b holds its (n_b, n_b)
    scores, root included, in ``S[b, :n_b, :n_b]`` and -inf beyond.  The
    charts are filled one span width w at a time, every span of that width
    of every sentence at once.  A chart X is kept left-anchored,
    ``L[b, s, w] = X[b, s, s+w]``, where it is read by left end, and
    right-anchored, ``R[b, t, w] = X[b, t-w, t]``, where it is read by right
    end, so the split candidates of a whole diagonal are two plain slices:
    ``LCR[:, :n-w, :w] + RCL[:, w:, w-1::-1]`` for the incomplete spans.

    Padding is exact: a span inside [0, n_b - 1] reads only chart cells of
    spans inside it, and scores inside it, so its value and back-pointers
    are those of the sentence decoded alone, bit for bit; the sentence's
    tree is backtracked from the span (0, n_b - 1).  The backtrack walks an
    explicit stack, so sentence length is not bound by the recursion limit.
    """
    B, n, _ = S.shape
    LCR, RCR, LCL, RCL, LIR, RIL = (np.full((B, n, n), NEG) for _ in range(6))
    for chart in (LCR, RCR, LCL, RCL):
        chart[:, :, 0] = 0.0
    # split offsets from the left end, left-anchored like the charts
    bI, bCL, bCR = (np.zeros((B, n, n), dtype=np.min_scalar_type(n)) for _ in range(3))

    for w in range(1, n):
        m = n - w  # spans of width w: s = 0..m-1, t = w..n-1
        r, best = _best(LCR[:, :m, :w] + RCL[:, w:, w - 1 :: -1])
        bI[:, :m, w] = r
        LIR[:, :m, w] = best + S.diagonal(w, axis1=1, axis2=2)
        RIL[:, w:, w] = best + S.diagonal(-w, axis1=1, axis2=2)  # NEG when s == 0 via the mask
        r, best = _best(LCL[:, :m, :w] + RIL[:, w:, w:0:-1])
        bCL[:, :m, w] = r
        LCL[:, :m, w] = RCL[:, w:, w] = best
        r, best = _best(LIR[:, :m, 1 : w + 1] + RCR[:, w:, w - 1 :: -1])
        bCR[:, :m, w] = r + 1
        LCR[:, :m, w] = RCR[:, w:, w] = best

    heads = np.zeros((B, n), dtype=np.int64)
    for b, size in enumerate(sizes):
        heads[b, 1:size] = _backtrack(*(a[b, :size, :size].tolist() for a in (bI, bCL, bCR)))
    return heads, LCR[np.arange(B), 0, np.asarray(sizes) - 1]


# span states: complete or incomplete, head at the left end (R) or right end (L)
_CR, _CL, _IR, _IL = range(4)


def _backtrack(bI: list, bCL: list, bCR: list) -> list[int]:
    """Heads of the tree that the back-pointers of one sentence spell."""
    heads = [0] * (len(bI) - 1)
    stack = [(0, len(bI) - 1, _CR)]
    while stack:
        s, t, state = stack.pop()
        w = t - s
        if w == 0:
            continue
        if state == _CR:
            r = s + bCR[s][w]
            stack += [(s, r, _IR), (r, t, _CR)]
        elif state == _CL:
            r = s + bCL[s][w]
            stack += [(s, r, _CL), (r, t, _IL)]
        else:
            if state == _IR:
                heads[t - 1] = s
            else:
                heads[s - 1] = t
            r = s + bI[s][w]
            stack += [(s, r, _CR), (r + 1, t, _CL)]
    return heads


def cle_decode(scores: np.ndarray, sizes: Sequence[int] | None = None):
    """Maximum spanning arborescence rooted at 0 (greedy + cycle contraction)
    and its score, summed edge by edge from the left.

    Root out-degree is unconstrained.  Greedy head selection takes the
    smallest head index among ties.  Given `sizes` or not, the layout and
    the result are those of `eisner_decode`, the batch decoded by one
    `_cle`.
    """
    if sizes is None:
        S = _masked(scores)[None]
        heads = _cle(S)
        return heads[0, 1:].tolist(), float(_tree_totals(S, heads, [S.shape[1]])[0])
    heads = _cle(scores)
    return heads, _tree_totals(scores, heads, sizes)


def _tree_totals(S: np.ndarray, heads: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The score on the (B, L, L) slab `S` of each sentence's tree in the
    (B, L) head array `heads` (column 0 unused).

    A score is one left-to-right `cumsum` from a 0.0 column, so it adds up
    exactly as Python's `sum` over the tree's edges does: an all -0.0 tree
    reads +0.0.
    """
    B, L = heads.shape
    edges = S[np.arange(B)[:, None], heads, np.arange(L)]  # [b, v] = S[b, head of v, v]
    edges[:, 0] = 0.0
    return edges.cumsum(axis=1)[np.arange(B), np.asarray(sizes) - 1]


def _cle(S: np.ndarray) -> np.ndarray:
    """The (B, L) head array of the maximum arborescence of each sentence of
    a masked padded batch (column 0 unused).

    Every node takes its best head, the smallest among ties, in one
    `argmax` over the batch.  Each sentence with a cycle among them
    contracts the cycle `find_cycle` would return to a new node, the slot
    ``L + round``, in a copy of its slab widened to L + (L - 2) nodes (an
    l-token sentence contracts at most l - 1 times): an outside node a -> slot
    scores a's best gain from taking over a cycle node's head, slot -> a the
    best cycle edge into a, and the cycle's rows and columns become -inf.
    The next round decodes the sentences that contracted, on the same slab.
    Indices are never renumbered: live nodes run real nodes first, then
    slots in creation order, the order of a contracted matrix whose outside
    nodes keep their order and whose new node comes last, so every tie
    resolves as it does in the sentence's own contraction.  Expansions come
    off a stack, deepest first; each breaks its cycle where the tree enters
    it.
    """
    B, L, _ = S.shape
    width = 2 * L - 2  # L >= 2
    found = np.zeros((B, width), dtype=np.int64)
    rows = np.arange(B)  # the batch row of each row of the live slab
    stack = []
    for slot in range(L, width + 1):  # the round of slot 2L - 2 finds no cycle
        heads = S.argmax(axis=1)
        cyclic, cycles = _first_cycles(heads)
        done = ~cyclic
        found[rows[done], : heads.shape[1]] = heads[done]
        if cycles is None:
            break
        rows, heads = rows[cyclic], heads[cyclic]
        if slot == L:  # the first contraction widens the slab, of its sentences only
            wide = np.full((rows.size, width, width), NEG)
            wide[:, :L, :L] = S[cyclic]
            S = wide
        elif not cyclic.all():
            S = S[cyclic]
        stack.append((slot, rows, heads, cycles, *_contract(S, heads, cycles, slot)))
    while stack:
        slot, rows, heads, cycles, enter, exits = stack.pop()
        sub = found[rows]  # heads on the contracted slab
        at = np.arange(rows.size)
        into = sub[at, slot]  # where the tree enters the cycle from
        tree = np.where(sub == slot, exits, sub)
        tree[at[:, None], cycles] = heads[at[:, None], cycles]  # cycle nodes keep their heads
        tree[at, cycles[at, enter[at, into]]] = into  # but the one entered
        found[rows] = tree
    return found[:, :L]


def _first_cycles(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Which rows of a (B, n) head array (``heads[:, 0] == 0``) hold a cycle,
    and per such row the cycle `find_cycle` would return, or None if no
    row does.

    Pointer jumping finds the nodes with no path to the root; the walk from
    the first of them closes the cycle at its first cycle node, found by
    binary lifting.  Each cycle is listed from that node in head order and
    continues around the cycle up to the longest one, so a shorter cycle's
    lanes repeat its own nodes.
    """
    B, n = heads.shape
    base = np.arange(0, B * n, n)[:, None]
    jumps = [heads + base]  # jumps[k][b, v]: the flat index of v's 2**k-th head
    for _ in range((n - 1).bit_length()):  # 2**k >= n - 1 steps reach root or a cycle
        jumps.append(jumps[-1].take(jumps[-1]))
    lost = jumps[-1] != base  # no path to the root
    cyclic = lost.any(axis=1)
    if not cyclic.any():
        return cyclic, None
    lost, base = lost[cyclic], base[cyclic]
    on = np.zeros(B * n, dtype=bool)
    on[jumps[-1][cyclic][lost]] = True  # every node on a cycle
    start = lost.argmax(axis=1) + base[:, 0]
    last = start  # the last node before the cycle on the walk from start
    for jump in reversed(jumps[:-1]):  # a walk meets its cycle in under n - 1 steps
        ahead = jump.take(last)
        last = np.where(on[ahead], last, ahead)
    flat = jumps[0].ravel()
    entry = np.where(on[start], start, flat[last])
    listed = [entry]
    node = flat[entry]
    closed = node == entry
    while not closed.all():
        listed.append(node)
        node = flat[node]
        closed |= node == entry
    return cyclic, np.array(listed).T - base


def _contract(
    S: np.ndarray, heads: np.ndarray, cycles: np.ndarray, slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """Contract each row's cycle of a (B, W, W) slab to node `slot`, in place.

    Returns, per row and node a, `enter`, the lane of the cycle node that
    a -> slot takes over, and `exits`, the cycle node of slot -> a; both
    are first maxima over the lanes, so a repeated lane never wins.
    """
    at = np.arange(len(S))[:, None]
    gains = S[at, :, cycles]  # [b, lane, a]: the cycle's edges in
    gains -= S[at, heads[at, cycles], cycles][:, :, None]  # less each greedy edge
    enter = gains.argmax(axis=1)
    out = S[at, cycles]  # [b, lane, a]: the cycle's edges out
    exits = cycles[at, out.argmax(axis=1)]
    S[:, :, slot] = gains.max(axis=1)
    S[:, slot, :] = out.max(axis=1)
    S[at, cycles] = NEG
    S[at, :, cycles] = NEG
    return enter, exits


def _root_charge(S: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Per sentence of a masked (B, L, L) batch, 1 + (l+1)(max - min) over
    its own finite scores: more than two of its trees' scores can differ."""
    finite = np.isfinite(S)
    top = np.where(finite, S, NEG).max(axis=(1, 2))
    bottom = np.where(finite, S, np.inf).min(axis=(1, 2))
    return 1.0 + np.asarray(sizes) * (top - bottom)


def _decode(
    S: np.ndarray, sizes: Sequence[int], projective: bool, single_root: bool
) -> list[tuple[list[int], float]]:
    """Best tree of every sentence of a masked padded batch laid out as for
    `_eisner`, and its score: one batched `eisner_decode` when `projective`,
    else one batched `cle_decode`.

    With `single_root`, every sentence's root edges are charged by
    `_root_charge`, so its best charged tree has exactly one root child
    (Gabow & Tarjan's root penalty), in one decode.  Row 0 is restored
    afterwards, and each tree's score is its uncharged total, summed edge by
    edge from the left (`_tree_totals`).  Ties may resolve unlike a search
    over each root child in turn.
    """
    if single_root:
        root = S[:, 0].copy()
        S[:, 0] -= _root_charge(S, sizes)[:, None]
    heads, totals = (eisner_decode if projective else cle_decode)(S, sizes)
    if single_root:
        S[:, 0] = root
        totals = _tree_totals(S, heads, sizes)
    return [(tree[: n - 1], t) for tree, n, t in zip(heads[:, 1:].tolist(), sizes, totals.tolist())]


class CompiledDependency:
    """A sentence reduced to the values its slots read and, once expanded,
    to its edge-feature firings, each stored once.

    `values` are the strings of the sentence's flat code array, pad
    excluded (see `_EdgeLayout.values`); the batch that expands the
    sentence codes them.  Its firings are worked out by
    `EdgeFeatureExtractor.expand`, batch by batch over the sentences of one
    length, or for this sentence alone the first time `cells` or `ids` is
    read before any batch took it.  Firing i
    is weight id `ids[i]` of the flat feature space (group j's ids offset by
    the sizes of the groups before it) on the edge whose flat index in the
    (n+1) x (n+1) score matrix is `cells[i]` = u * (n+1) + v.  Firings run
    group by group, in candidate-edge order within a group.  `ends` is the
    extractor's array of each group's first flat id, the total last, so
    group j's ids lie in ``[ends[j], ends[j+1])``.
    """

    def __init__(self, extractor: EdgeFeatureExtractor, n: int, values: list[str], gold):
        self.extractor = extractor
        self.n = n  # token count, excluding root
        self.values = values
        self.gold = gold
        self.firings: tuple[np.ndarray, np.ndarray] | None = None  # (cells, ids) once expanded

    @property
    def ends(self) -> np.ndarray:
        return self.extractor.ends

    def _expanded(self) -> tuple[np.ndarray, np.ndarray]:
        if self.firings is None:
            self.extractor.expand([self])
        return self.firings

    @property
    def cells(self) -> np.ndarray:
        return self._expanded()[0]

    @property
    def ids(self) -> np.ndarray:
        return self._expanded()[1]

    @property
    def group_edges(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per group, the (u, v, group-local feature id) int64 arrays of its
        firings, derived from `cells` and `ids`."""
        size = self.n + 1
        cells, ids = self._expanded()
        bounds = ids.searchsorted(self.ends)  # ids run group by group
        edges = []
        for lo, hi, first in zip(bounds[:-1], bounds[1:], self.ends[:-1]):
            u, v = np.divmod(cells[lo:hi], size)
            edges.append((u, v, ids[lo:hi] - first))
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
        """The sentence's values and gold heads, its firings left to the
        first batch that reads them (see `CompiledDependency`).

        Only the string work is done here: the values each template slot
        can read.  Their codes, the firings, their key lookup and the drop
        of features the alphabets lack run once per batch of same-length
        sentences in `EdgeFeatureExtractor.expand`, which `decode_corpus`
        and `corpus_feature_ids` call first, and give the same arrays as a
        sentence expanded alone.
        """
        toks = augment(instance.tokens)
        values = self.extractor.layout.values(toks)
        gold = None
        if instance.heads is not None:
            gold = np.asarray(instance.heads, dtype=np.int64)
        return CompiledDependency(self.extractor, len(toks) - 1, values, gold)

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

    def _scores(self, flat: np.ndarray, inst: CompiledDependency, augmented: bool) -> np.ndarray:
        """The sentence's edge scores, with +1 on every off-gold edge when
        `augmented`."""
        S = self.edge_scores(flat, inst)
        if augmented:
            if inst.gold is None:
                raise ValueError("instance has no gold heads")
            S += 1.0
            S[inst.gold, np.arange(1, inst.n + 1)] -= 1.0
        return S

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
        """Best tree of every sentence and its score.

        With `augmented`, the argmax of score(T) + the parent loss of T,
        decoded with +1 on every off-gold edge, and that augmented value.
        Each chunk of sentences (see `size_chunks`) is padded into one slab and
        decoded by `_decode`, for both decoders.
        """
        self.extractor.expand(instances)
        flat = np.concatenate(weights)
        projective = self.decoder == "projective"
        trees = [None] * len(instances)
        sizes = [inst.n + 1 for inst in instances]
        for chunk in size_chunks(sizes, lambda n: n * n, _CHART_CELLS):
            width = sizes[chunk[-1]]
            S = np.full((len(chunk), width, width), NEG)
            for b, i in enumerate(chunk):
                S[b, : sizes[i], : sizes[i]] = self._scores(flat, instances[i], augmented)
            batch = _decode(_mask(S), [sizes[i] for i in chunk], projective, self.single_root)
            for i, tree in zip(chunk, batch):
                trees[i] = tree
        return [heads for heads, _ in trees], np.array([score for _, score in trees])

    def corpus_feature_ids(
        self, instances: Sequence[CompiledDependency], outputs: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, float]:
        """The flat weight ids `outputs` fire over the corpus, one entry per
        firing, and their summed parent loss, counted in one comparison of
        the corpus's heads with its gold heads."""
        self.extractor.expand(instances)
        ids = []
        for inst, out in zip(instances, outputs, strict=True):
            if inst.gold is None:
                raise ValueError("instance has no gold heads")
            ids.append(self.tree_ids(inst, out))
        gold = np.concatenate([inst.gold for inst in instances])
        loss = np.count_nonzero(np.concatenate(outputs) != gold)
        return np.concatenate(ids), float(loss)
