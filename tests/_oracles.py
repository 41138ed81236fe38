"""Independent reference implementations used to check the package.

Everything here favors obviousness over speed: exhaustive enumeration,
face enumeration, dense grids, and dicts counted one firing at a time.
Nothing imports the package's solvers or decoders.

The feature-string references are the package's earlier per-item
definitions, kept as they were: `reference_instantiate` builds one tagger
feature at one position and `reference_instantiate_edge` the strings of
one edge.  `instantiate_all` and `instantiate_edges` are the tagger's and
the parser's earlier whole-sentence string instantiations, kept as they
were and tested against the former and the latter; the package now keys
tagger features by their values and edge features by integers, and never
builds these strings per position or per edge.  The edge alphabet and
compile references loop over edges one at a time with
`reference_instantiate_edge`.  The edge-score
reference adds one group at a time with `np.add.at`, the constraint-row
reference only reuses the package's containers, and the barrier
reference shares nothing with the package's primal-dual solver, not even
its constants.  The row-store references are the trainer's earlier
per-group loops over float rows, kept as they were: a tree's ids picked
group by group with an edge mask, the Gram row by `sparse_dot`, and the
primal recovery row by row.  The decoder references are the package's earlier
decoders, kept as they were: a Viterbi DP over one sentence at a time, a
span DP filled one cell at a time with a recursive backtrack, a maximum
arborescence contracted with dicts and Python loops, and a single-root
search that runs a whole decoder once per root child.  The tree
references share only the package's score masking and cycle walk.
`write_sequence_corpus_per_token` is the tagger corpus writer as it was,
two writes per token, and `reference_write_sequence_corpus` as it was
later, one write per sentence.  `reference_read_sequence_corpus` is the
tagger corpus reader as it was: file iteration, one `str.split` and one
label intern per line, one instance built from its token tuples per
sentence.  `reference_sequence_compile` is the tagger's earlier
per-sentence compile: every column padded with boundary sentinels, a
macro's values one slice of it, and one lookup per key.  `reference_compile` is the parser's earlier
per-sentence compile, kept as it was: one firing pass and one key lookup
per sentence, through the extractor's layout and key table, its values
coded as a batch of one.  `parent_loss` is the parser's loss counted one
token at a time.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from itertools import chain, repeat
from operator import add
from types import SimpleNamespace
from functools import lru_cache
from typing import Sequence

import numpy as np

from contextlib import nullcontext
from pathlib import Path

from mklsp.corpus import CorpusFormatError, SequenceInstance, find_cycle
from mklsp.dependency import NEG, EdgeTemplateSpec, _masked, augment
from mklsp.sparse import GroupedSparseVector, SparseVector, sparse_dot
from mklsp.templates import TemplateSpec, boundary_symbol


def write_sequence_corpus_per_token(instances, dest, label_table=None, labels_override=None):
    """The column format written back one token line at a time, two writes
    per token, then a blank line per sentence."""
    for i, inst in enumerate(instances):
        ids = labels_override[i] if labels_override is not None else inst.labels
        for t, token in enumerate(inst.tokens):
            parts = list(token)
            if ids is not None:
                if label_table is None:
                    raise ValueError("label_table is required to write labels")
                parts.append(label_table.label_of(ids[t]))
            dest.write(" ".join(parts))
            dest.write("\n")
        dest.write("\n")


def reference_write_sequence_corpus(instances, dest, label_table=None, labels_override=None):
    """The column format written back one sentence at a time: its token
    lines joined, the label appended to each token's tuple, one write."""
    names = None if label_table is None else label_table.labels()
    for i, inst in enumerate(instances):
        ids = labels_override[i] if labels_override is not None else inst.labels
        tokens = inst.tokens
        if ids is not None and tokens:
            if names is None:
                raise ValueError("label_table is required to write labels")
            tokens = map(add, tokens, [(names[ids[t]],) for t in range(len(tokens))])
        rows = list(map(" ".join, tokens))
        rows.append("\n")
        dest.write("\n".join(rows))


def _reference_sentences(source):
    """Each sentence of `source` as its first line number and its rows, by
    file iteration: a blank or whitespace-only line ends a sentence, any
    other line is one row split at runs of whitespace."""
    path = isinstance(source, (str, Path))
    with open(source, encoding="utf-8") if path else nullcontext(source) as lines:
        rows = []
        first = 1
        for line in lines:
            cols = line.split()
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


def reference_read_sequence_corpus(
    source, *, expected_columns=None, label_table=None, labeled=True
):
    """The column format read line by line: each sentence's column counts
    checked, then its labels interned, before the next sentence is read."""
    if labeled and label_table is None:
        raise ValueError("label_table is required for labeled corpora")
    instances = []
    n_cols = expected_columns
    for first, rows in _reference_sentences(source):
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


def _reference_sentence_keys(specs, tokens):
    """Per template, its keys at positions 0..l-1 of one sentence: each
    column padded with boundary sentinels, a macro's values one slice."""
    rows = [row for spec in specs for row, _ in spec.macros]
    before, after = max(0, -min(rows, default=0)), max(0, max(rows, default=0))
    left = [boundary_symbol(p, 0) for p in range(-before, 0)]
    right = [boundary_symbol(p, 0) for p in range(after)]
    l = len(tokens)
    if not l:
        return [()] * len(specs)
    padded = [[*left, *column, *right] for column in zip(*tokens)]
    values = [[padded[col][before + row : before + row + l] for row, col in spec.macros]
              for spec in specs]
    return [v[0] if len(v) == 1 else zip(*v) for v in values]


def reference_sequence_compile(task, tokens):
    """The (G, l) int64 feature ids of one sentence, compiled alone: one
    lookup per key of each kept rule, -1 for a key its alphabet lacks."""
    specs = [task.specs[j] for j in task.kept]
    keys = _reference_sentence_keys(specs, tokens)
    rows = [[get(key, -1) for key in k] for get, k in zip(task.lookups, keys)]
    return np.array(rows, dtype=np.int64).reshape(len(specs), len(tokens))


def reference_instantiate(spec: TemplateSpec, tokens: Sequence[tuple[str, ...]], t: int) -> str:
    """Feature string for observation template `spec` anchored at position `t`.

    Out-of-range macro positions read the distance-stamped boundary sentinel
    instead of a token column.  Columns must be valid for the corpus (checked
    once by `validate_columns`, not here).
    """
    parts = []
    for row, col in spec.macros:
        pos = t + row
        sym = boundary_symbol(pos, len(tokens))
        parts.append(tokens[pos][col] if sym is None else sym)
    return spec.index + ":" + "/".join(parts)


def instantiate_all(spec: TemplateSpec, tokens: Sequence[tuple[str, ...]]) -> list[str]:
    """Feature strings of `spec` at every position of one sentence.

    Entry t is ``spec.index + ":"`` followed by the macros' values read
    ``row`` positions from t and joined by ``/``.  An out-of-range position
    reads the distance-stamped boundary sentinel instead of a token column;
    columns must be valid for the corpus (checked once by `validate_columns`,
    not here).  Each macro's column of values is read once per sentence,
    then the columns are joined position by position.
    """
    l = len(tokens)
    columns = [
        [tokens[p][col] if 0 <= p < l else boundary_symbol(p, l) for p in range(row, row + l)]
        for row, col in spec.macros
    ]
    return list(map((spec.index + ":").__add__, map("/".join, zip(*columns))))


def dense_emissions(feats, tables, k):
    """Per-position label scores from firing feature ids (-1 = silent)."""
    l = len(feats[0])
    emit = np.zeros((l, k))
    for f, table in zip(feats, tables):
        for t in range(l):
            if f[t] >= 0:
                emit[t] += table[f[t]]
    return emit


def sequence_best(emit, trans=None, augment_gold=None):
    """Exhaustive argmax over all k^l labelings, first (lexicographically
    smallest) maximizer under exact float equality."""
    l, k = emit.shape
    emit = np.array(emit, dtype=float)
    if augment_gold is not None:
        emit += 1.0
        emit[np.arange(l), list(augment_gold)] -= 1.0
    labs = np.stack(np.meshgrid(*[np.arange(k)] * l, indexing="ij"), -1).reshape(-1, l)
    scores = emit[np.arange(l)[None, :], labs].sum(axis=1)
    if trans is not None and l > 1:
        scores += np.asarray(trans)[labs[:, :-1], labs[:, 1:]].sum(axis=1)
    i = int(np.argmax(scores))
    return labs[i].tolist(), float(scores[i])


def reference_viterbi(emit, trans=None, augment_gold=None):
    """Best labeling of one sentence and its score: the package's earlier
    per-sentence DP, kept as it was.  Exact suffix values backward, then
    the first argmax at each position front to back."""
    emit = np.array(emit, dtype=float)
    l, k = emit.shape
    if augment_gold is not None:
        emit += 1.0
        emit[np.arange(l), np.asarray(augment_gold, dtype=np.int64)] -= 1.0
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


@lru_cache(maxsize=None)
def tree_tables(l):
    """(all arborescences over nodes 0..l rooted at 0, projective mask)."""
    grids = np.meshgrid(*[np.arange(l + 1)] * l, indexing="ij")
    heads = np.stack(grids, axis=-1).reshape(-1, l)
    ok = np.ones(len(heads), dtype=bool)
    for i in range(l):
        ok &= heads[:, i] != i + 1
    heads = heads[ok]
    # a head vector is an arborescence iff every node reaches 0 by jumps
    cur = np.tile(np.arange(1, l + 1), (len(heads), 1))
    rows = np.arange(len(heads))[:, None]
    for _ in range(l):
        positive = cur > 0
        cur = np.where(positive, heads[rows, np.maximum(cur - 1, 0)], 0)
    trees = heads[(cur == 0).all(axis=1)]
    proj = np.ones(len(trees), dtype=bool)
    for v in range(1, l + 1):
        for u in range(v + 1, l + 1):
            a1 = np.minimum(trees[:, v - 1], v)
            b1 = np.maximum(trees[:, v - 1], v)
            a2 = np.minimum(trees[:, u - 1], u)
            b2 = np.maximum(trees[:, u - 1], u)
            cross = ((a1 < a2) & (a2 < b1) & (b1 < b2)) | (
                (a2 < a1) & (a1 < b2) & (b2 < b1)
            )
            proj &= ~cross
    trees.setflags(write=False)
    proj.setflags(write=False)
    return trees, proj


def tree_best(S, projective, augment_gold=None):
    """Exhaustive max over arborescences (optionally projective only)."""
    S = np.array(S, dtype=float)
    l = S.shape[0] - 1
    if augment_gold is not None:
        S += 1.0
        S[list(augment_gold), np.arange(1, l + 1)] -= 1.0
    trees, proj = tree_tables(l)
    if projective:
        trees = trees[proj]
    cols = np.arange(1, l + 1)
    scores = S[trees, cols].sum(axis=1)
    i = int(np.argmax(scores))
    return trees[i].tolist(), float(scores[i])


def valid_arborescence(heads):
    """Independent validity check by repeated parent jumps."""
    l = len(heads)
    if any(h < 0 or h > l for h in heads):
        return False
    for start in range(1, l + 1):
        node = start
        for _ in range(l):
            if node == 0:
                break
            node = heads[node - 1]
        if node != 0:
            return False
    return True


def valid_projective(heads):
    l = len(heads)
    for v in range(1, l + 1):
        for u in range(v + 1, l + 1):
            a1, b1 = sorted((heads[v - 1], v))
            a2, b2 = sorted((heads[u - 1], u))
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return False
    return True


def active_set_qp(q, H, C):
    """Exact max of q.a - 0.5 a'Ha over {a >= 0, sum a <= C}.

    Enumerates every face of the polytope (free-coordinate subset x
    sum-constraint binding or not) and the stationary point of each.
    """
    q = np.asarray(q, dtype=float)
    H = np.asarray(H, dtype=float)
    s = q.size
    best_v, best_x = 0.0, np.zeros(s)
    for r in range(1, s + 1):
        for F in itertools.combinations(range(s), r):
            F = list(F)
            Hff = H[np.ix_(F, F)]
            qf = q[F]
            for binding in (False, True):
                if binding:
                    K = np.zeros((r + 1, r + 1))
                    K[:r, :r] = Hff
                    K[:r, r] = 1.0
                    K[r, :r] = 1.0
                    sol = np.linalg.lstsq(K, np.append(qf, C), rcond=None)[0][:r]
                else:
                    sol = np.linalg.lstsq(Hff, qf, rcond=None)[0]
                if not np.all(np.isfinite(sol)) or sol.min() < -1e-12:
                    continue
                total = sol.sum()
                if binding:
                    if abs(total - C) > 1e-9 * max(1.0, C):
                        continue
                elif total > C * (1 + 1e-12):
                    continue
                x = np.zeros(s)
                x[F] = np.maximum(sol, 0.0)
                v = float(q @ x - 0.5 * x @ H @ x)
                if v > best_v:
                    best_v, best_x = v, x
    return best_v, best_x


def simplex_grid(m, steps):
    """All points of the m-simplex with coordinates that are k/steps."""
    pts = []
    for comp in itertools.combinations_with_replacement(range(m), steps):
        c = np.bincount(np.array(comp), minlength=m) / steps
        pts.append(c)
    return np.array(pts)


def qcqp_oracle(grams, q, C, rounds=4, steps=24):
    """Saddle value min over the mu-simplex of the exact face-enumerated QP.

    g(mu) is convex, so a full simplex grid refined around its running best
    cannot lose the basin.
    """
    m = len(grams)
    if m == 1:
        return active_set_qp(q, grams[0], C)[0]
    center = np.full(m, 1.0 / m)
    radius = 1.0
    best_v, best_mu = None, center
    for _ in range(rounds):
        cand = center + radius * (simplex_grid(m, steps) - 1.0 / m)
        cand = cand[(cand >= -1e-12).all(axis=1)]
        cand = np.maximum(cand, 0.0)
        cand /= cand.sum(axis=1, keepdims=True)
        seen = set()
        for mu in cand:
            key = tuple(np.round(mu, 12))
            if key in seen:
                continue
            seen.add(key)
            H = sum(mj * Q for mj, Q in zip(mu, grams))
            v = active_set_qp(q, 0.5 * (H + H.T), C)[0]
            if best_v is None or v < best_v:
                best_v, best_mu = v, mu
        center = best_mu
        radius /= steps / 4.0
    return best_v


def distance_bucket(distance: int) -> int:
    """Bucket |head - mod|: exact below 5, then 5 for [5,10), 10 for >= 10."""
    if distance >= 10:
        return 10
    if distance >= 5:
        return 5
    return distance


def reference_instantiate_edge(
    spec: EdgeTemplateSpec, aug_tokens: Sequence[tuple[str, ...]], u: int, v: int
) -> list[str]:
    """Feature strings for edge head u -> modifier v over augmented tokens.

    Without a ``between`` selector the result is a singleton; with one it has
    one entry per distinct between-field value (left-to-right first seen),
    and none at all for adjacent pairs.
    """
    n = len(aug_tokens)
    direction = "R" if u < v else "L"
    dist = distance_bucket(abs(u - v))
    parts: list[str | None] = []
    for sel in spec.selectors:
        if sel.anchor == "between":
            parts.append(None)
            continue
        pos = (u if sel.anchor == "head" else v) + sel.offset
        sym = boundary_symbol(pos, n)
        parts.append(aug_tokens[pos][sel.column] if sym is None else sym)
    prefix = f"{spec.index}:{direction}:{dist}:"
    between_col = spec.between_column
    if between_col is None:
        return [prefix + "/".join(parts)]
    lo, hi = (u, v) if u < v else (v, u)
    out: list[str] = []
    seen: set[str] = set()
    for pos in range(lo + 1, hi):
        value = aug_tokens[pos][between_col]
        if value in seen:
            continue
        seen.add(value)
        out.append(prefix + "/".join(value if p is None else p for p in parts))
    return out


@lru_cache(maxsize=256)
def _string_frame(n):
    """Heads, modifiers, "dir:dist:" prefixes and lo * n + hi span keys of the
    candidate edges over n positions, in `candidate_edges` order."""
    pairs = candidate_edges(n)
    heads = np.array([u for u, _ in pairs], dtype=np.int64)
    mods = np.array([v for _, v in pairs], dtype=np.int64)
    heads.flags.writeable = False
    mods.flags.writeable = False
    prefixes = tuple(
        f"{'R' if u < v else 'L'}:{distance_bucket(abs(u - v))}:" for u, v in pairs
    )
    spans = tuple(min(u, v) * n + max(u, v) for u, v in pairs)
    return heads, mods, prefixes, spans


def _between_values(aug_tokens, column):
    """Distinct values strictly inside each span (first seen first), at lo * n + hi.

    Each left end keeps one running list as the right end moves, so no span
    is scanned twice; spans that add no new value share the previous tuple.
    """
    n = len(aug_tokens)
    values = [tok[column] for tok in aug_tokens]
    table = [()] * (n * n)
    for lo in range(n - 2):
        seen = []
        current = ()
        for hi in range(lo + 2, n):
            value = values[hi - 1]
            if value not in seen:
                seen.append(value)
                current = tuple(seen)
            table[lo * n + hi] = current
    return table


def instantiate_edges(spec: EdgeTemplateSpec, aug_tokens: Sequence[tuple[str, ...]]):
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
    head_ids, mod_ids, frame_prefixes, spans = _string_frame(n)
    heads, mods = head_ids.tolist(), mod_ids.tolist()
    n_edges = len(heads)
    prefixes = map(f"{spec.index}:".__add__, frame_prefixes)
    parts = []  # per selector: its value on every edge (None for between)
    for sel in spec.selectors:
        if sel.anchor == "between":
            parts.append(None)
            continue
        column = [
            aug_tokens[p][sel.column] if 0 <= p < n else boundary_symbol(p, n)
            for p in range(sel.offset, sel.offset + n)
        ]
        anchors = heads if sel.anchor == "head" else mods
        parts.append(map(column.__getitem__, anchors))

    between_col = spec.between_column
    if between_col is None:
        strings = list(map(add, prefixes, map("/".join, zip(*parts))))
        return head_ids, mod_ids, strings

    b = parts.index(None)
    # "x/y/" before and "/z" after the between value; empty without selectors
    before = map("/".join, zip(*parts[:b], repeat("", n_edges)))
    after = map("/".join, zip(repeat("", n_edges), *parts[b + 1 :]))
    table = _between_values(aug_tokens, between_col)
    values = list(map(table.__getitem__, spans))
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
    return np.repeat(head_ids, counts), np.repeat(mod_ids, counts), strings


def parent_loss(gold: Sequence[int], other: Sequence[int]) -> float:
    """Number of tokens whose head differs."""
    if len(gold) != len(other):
        raise ValueError("head sequences differ in length")
    return float(sum(a != b for a, b in zip(gold, other)))


def candidate_edges(n):
    """Edges head u -> modifier v over positions 0..n-1, u outer, v inner."""
    return [(u, v) for u in range(n) for v in range(1, n) if u != v]


def edge_alphabets(specs, corpus):
    """Per-template feature strings, first seen over (sentence, head,
    modifier, between position)."""
    alphabets = [{} for _ in specs]
    for inst in corpus:
        toks = augment(inst.tokens)
        for u, v in candidate_edges(len(toks)):
            for spec, ids in zip(specs, alphabets):
                for s in reference_instantiate_edge(spec, toks, u, v):
                    ids.setdefault(s, len(ids))
    return [list(ids) for ids in alphabets]


def compile_edges(specs, alphabets, tokens):
    """Per-template (u, v, feature id) int64 arrays over every candidate edge
    in order, with strings missing from the alphabet dropped."""
    toks = augment(tokens)
    lookups = [{s: i for i, s in enumerate(strings)} for strings in alphabets]
    groups = []
    for spec, ids in zip(specs, lookups):
        us, vs, fs = [], [], []
        for u, v in candidate_edges(len(toks)):
            for s in reference_instantiate_edge(spec, toks, u, v):
                if s in ids:
                    us.append(u)
                    vs.append(v)
                    fs.append(ids[s])
        groups.append(tuple(np.asarray(x, dtype=np.int64) for x in (us, vs, fs)))
    return groups


def reference_compile(extractor, tokens):
    """The (cells, ids) of one sentence, its firings worked out alone: the
    firings the alphabets know, as flat ids, sorted by group when the
    layout's firings do not come in template order."""
    toks = augment(tokens)
    layout, keys, ends = extractor.layout, extractor.keys, extractor.ends
    codes, unseen = keys.codes([layout.values(toks)])
    firings, cells, _ = layout.firings(len(toks), codes)
    ids = keys.lookup(firings, unseen)
    known = ids >= 0
    cells, ids = cells[known], ids[known]
    if not layout.in_order:
        # group j's ids lie in [ends[j], ends[j + 1])
        order = np.argsort(ends.searchsorted(ids, side="right"), kind="stable")
        cells, ids = cells[order], ids[order]
    return cells, ids


def sparse_vector(entries):
    """SparseVector of a {index: value} dict: sorted int64 indices, zeros dropped."""
    items = sorted((i, v) for i, v in entries.items() if v != 0.0)
    return SparseVector(
        np.array([i for i, _ in items], dtype=np.int64),
        np.array([v for _, v in items], dtype=np.float64),
    )


def grouped_vector(dicts):
    return GroupedSparseVector([sparse_vector(d) for d in dicts])


def feature_counts(task, inst, output):
    """Per-group {weight id: firing count} of `output`, counted one firing at
    a time: by position for a tagger (ids f * k + y, transitions
    prev * k + cur last), by candidate edge on the tree for a parser."""
    if hasattr(inst, "feats"):
        k = task.k
        # one row of feats per observation group with an alphabet
        dicts = [{} for _ in task.alphabets]
        for j, feats in zip(task.kept, inst.feats, strict=True):
            d = dicts[j]
            for t in range(inst.length):
                if feats[t] >= 0:
                    key = int(feats[t]) * k + output[t]
                    d[key] = d.get(key, 0.0) + 1.0
        if task.transition:
            d = {}
            for t in range(1, inst.length):
                key = output[t - 1] * k + output[t]
                d[key] = d.get(key, 0.0) + 1.0
            dicts.append(d)
        return dicts
    dicts = []
    for us, vs, fs in inst.group_edges:
        d = {}
        for u, v, f in zip(us.tolist(), vs.tolist(), fs.tolist()):
            if output[v - 1] == u:
                d[f] = d.get(f, 0.0) + 1.0
        dicts.append(d)
    return dicts


def reference_edge_scores(weights, inst):
    """Dense (n+1) x (n+1) edge scores, one `np.add.at` per template group."""
    S = np.zeros((inst.n + 1, inst.n + 1))
    for w, (u, v, f) in zip(weights, inst.group_edges, strict=True):
        if f.size:
            np.add.at(S, (u, v), w[f])
    return S


def reference_joint_feature_map(inst, heads):
    """Group-local weight ids fired by a tree's edges, per group, one entry
    per firing: the parser's earlier per-group edge mask."""
    harr = np.asarray(heads, dtype=np.int64)
    return [f[harr[v - 1] == u] for u, v, f in inst.group_edges]


def reference_gram(rows):
    """The (groups, rows, rows) Gram tensor of the rows' per-group float
    parts, one `sparse_dot` per entry."""
    m = len(rows[0].p.groups)
    grams = np.zeros((m, len(rows), len(rows)))
    for j in range(m):
        for r, a in enumerate(rows):
            for t, b in enumerate(rows):
                grams[j, r, t] = sparse_dot(a.p.groups[j], b.p.groups[j])
    return grams


def reference_recover_primal(rows, alpha, mu, dims):
    """w_j = -mu_j * sum_r alpha_r p_j^r, densely, row by row."""
    weights = [np.zeros(d) for d in dims]
    for a_r, row in zip(alpha, rows, strict=True):
        if a_r == 0.0:
            continue
        for j, sv in enumerate(row.p.groups):
            if sv.nnz:
                weights[j][sv.indices] -= a_r * sv.values
    for j, mu_j in enumerate(mu):
        weights[j] *= mu_j
    return weights


def reference_constraint_row(task, instances, outputs):
    """The averaged constraint row by dict accumulation: per group, decoded
    counts minus gold counts summed over sentences, divided by n, as `p`
    (group-local sparse vectors) and the averaged loss `q`."""
    n = len(instances)
    acc = [defaultdict(float) for _ in task.group_dims]
    loss_total = 0.0
    for inst, out in zip(instances, outputs, strict=True):
        gold = task.gold_output(inst)
        assert len(out) == len(gold)
        loss_total += sum(a != b for a, b in zip(gold, out))
        decoded = feature_counts(task, inst, out)
        reference = feature_counts(task, inst, gold)
        for j in range(len(acc)):
            for i, v in decoded[j].items():
                acc[j][i] += v
            for i, v in reference[j].items():
                acc[j][i] -= v
    groups = [{i: v / n for i, v in d.items() if v != 0.0} for d in acc]
    return SimpleNamespace(p=grouped_vector(groups), q=loss_total / n)


# duality gap bound n_con / tbar at which the barrier stops, in units of
# min(1, |objective|): relative below 1, so a small optimum is certified as
# closely as a large one
BARRIER_GAP = 1e-10
NEWTON_BUDGET = 12_000  # Newton steps over all barrier stages


def reference_barrier_qcqp(
    grams_free: list[np.ndarray],
    Qpin: np.ndarray,
    q: np.ndarray,
    C: float,
    free_mass: float,
    alpha0: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Log-barrier path following for the epigraph form of the subproblem.

    Minimizes -q.a + 1/2 a'Qpin a + (free_mass/2) t subject to
    a'Q_j a <= t (one constraint per free group), a >= 0, sum(a) <= C.
    Returns the final alpha and the free-group multiplier estimates.

    The package's earlier log-barrier path following, kept as an
    independent reference for its primal-dual solver: barrier weight 1,
    raised tenfold per stage until n_con / tbar <= BARRIER_GAP * min(1,
    |objective|), each stage centred by Newton steps whose system is
    assembled one group at a time, every quadratic form computed on its
    own, and a step length from a 0.99 fraction-to-boundary cap and Armijo
    backtracking on the barrier value.
    Late in a stage this Armijo search can stall (see the tests).
    """
    s = q.size
    mf = len(grams_free)
    n_con = s + 1 + mf

    alpha = np.full(s, C / (2.0 * s))
    if alpha0 is not None and alpha0.size == s:
        lo = C * 1e-8 / s
        warm = np.maximum(alpha0, lo)
        total = warm.sum()
        if total >= C * (1.0 - 1e-3):
            warm *= C * (1.0 - 1e-3) / total
        alpha = 0.9 * warm + 0.1 * alpha
    gam = np.array([float(alpha @ Q @ alpha) for Q in grams_free])
    t = 2.0 * float(gam.max()) + 1.0 if mf else 0.0

    tbar = 1.0
    spent = 0
    while True:
        # center at the current barrier weight
        for _ in range(60):
            spent += 1
            Qa = [Q @ alpha for Q in grams_free]
            c_grp = t - np.array([float(alpha @ va) for va in Qa]) if mf else np.zeros(0)
            c_sum = C - float(alpha.sum())

            g_a = tbar * (Qpin @ alpha - q) - 1.0 / alpha + (1.0 / c_sum)
            # the scalar broadcast adds the rank-one (1/c^2) 11' sum-constraint block
            H_a = tbar * Qpin + np.diag(1.0 / alpha**2) + (1.0 / c_sum**2)
            g_t = tbar * free_mass / 2.0
            h_tt = 0.0
            h_ta = np.zeros(s)
            for j in range(mf):
                inv = 1.0 / c_grp[j]
                grad_c = -2.0 * Qa[j]  # d c_j / d alpha
                g_a += -inv * grad_c
                g_t += -inv
                H_a += inv * inv * np.outer(grad_c, grad_c) + inv * 2.0 * grams_free[j]
                h_ta += inv * inv * grad_c
                h_tt += inv * inv

            if mf:
                K = np.zeros((s + 1, s + 1))
                K[:s, :s] = H_a
                K[:s, s] = h_ta
                K[s, :s] = h_ta
                K[s, s] = h_tt
                grad = np.append(g_a, g_t)
            else:
                K = H_a
                grad = g_a
            try:
                step = -np.linalg.solve(K + 1e-12 * np.eye(K.shape[0]), grad)
            except np.linalg.LinAlgError:
                step = -grad / max(float(np.abs(np.diag(K)).max()), 1.0)
            decrement = -float(grad @ step)
            if decrement <= 2e-12:
                break

            da, dt = (step[:s], float(step[s])) if mf else (step, 0.0)
            # largest step that keeps every constraint strictly positive
            scale = 1.0
            neg = da < 0
            if neg.any():
                scale = min(scale, 0.99 * float((alpha[neg] / -da[neg]).min()))
            if da.sum() > 0:
                scale = min(scale, 0.99 * c_sum / float(da.sum()))
            for _ in range(80):
                a_new = alpha + scale * da
                t_new = t + scale * dt
                ok = a_new.min() > 0 and a_new.sum() < C
                if ok and mf:
                    ok = all(t_new - float(a_new @ Q @ a_new) > 0 for Q in grams_free)
                if ok:
                    break
                scale *= 0.5
            else:
                scale = 0.0
            if scale == 0.0:
                break
            # backtracking on the barrier value
            def value(a, tt):
                v = tbar * (-float(q @ a) + 0.5 * float(a @ Qpin @ a) + free_mass * tt / 2.0)
                v -= float(np.log(a).sum()) + np.log(C - a.sum())
                for Q in grams_free:
                    v -= np.log(tt - float(a @ Q @ a))
                return v

            base = value(alpha, t)
            slope = float(grad @ step)
            while scale > 1e-12:
                if value(alpha + scale * da, t + scale * dt) <= base + 0.25 * scale * slope:
                    break
                scale *= 0.5
            alpha = alpha + scale * da
            t = t + scale * dt
            if decrement <= 1e-10:
                break
        objective = -float(q @ alpha) + 0.5 * float(alpha @ Qpin @ alpha) + free_mass * t / 2.0
        gap = BARRIER_GAP * min(1.0, abs(objective))
        if n_con / tbar <= gap or tbar >= 1e14 or spent >= NEWTON_BUDGET:
            break
        tbar *= 10.0

    lambdas = (
        np.array([1.0 / (tbar * (t - float(alpha @ Q @ alpha))) for Q in grams_free])
        if mf
        else np.zeros(0)
    )
    return alpha, lambdas


def reference_eisner_decode(scores: np.ndarray) -> tuple[list[int], float]:
    """Highest-scoring projective tree by the complete/incomplete span DP.

    `scores[u, v]` is the score of attaching modifier v (1..l) to head u
    (0..l); column 0 and the diagonal are ignored.  Ties are resolved by the
    fixed iteration order (first maximum wins), which is deterministic but
    carries no lexicographic guarantee.
    """
    S = _masked(scores)
    n = S.shape[0]
    IL = np.full((n, n), NEG)
    IR = np.full((n, n), NEG)
    CL = np.full((n, n), NEG)
    CR = np.full((n, n), NEG)
    np.fill_diagonal(CL, 0.0)
    np.fill_diagonal(CR, 0.0)
    bI = np.zeros((n, n), dtype=np.int64)
    bCL = np.zeros((n, n), dtype=np.int64)
    bCR = np.zeros((n, n), dtype=np.int64)

    for span in range(1, n):
        for s in range(0, n - span):
            t = s + span
            vals = CR[s, s:t] + CL[s + 1 : t + 1, t]
            r = int(np.argmax(vals))
            bI[s, t] = s + r
            IR[s, t] = vals[r] + S[s, t]
            IL[s, t] = vals[r] + S[t, s]  # NEG when s == 0 via the mask
            valsL = CL[s, s:t] + IL[s:t, t]
            rL = int(np.argmax(valsL))
            bCL[s, t] = s + rL
            CL[s, t] = valsL[rL]
            valsR = IR[s, s + 1 : t + 1] + CR[s + 1 : t + 1, t]
            rR = int(np.argmax(valsR))
            bCR[s, t] = s + 1 + rR
            CR[s, t] = valsR[rR]

    heads = [0] * (n - 1)

    def backtrack(s: int, t: int, state: str) -> None:
        if s == t:
            return
        if state == "CR":
            r = bCR[s, t]
            backtrack(s, r, "IR")
            backtrack(r, t, "CR")
        elif state == "CL":
            r = bCL[s, t]
            backtrack(s, r, "CL")
            backtrack(r, t, "IL")
        elif state == "IR":
            heads[t - 1] = s
            r = bI[s, t]
            backtrack(s, r, "CR")
            backtrack(r + 1, t, "CL")
        else:  # IL
            heads[s - 1] = t
            r = bI[s, t]
            backtrack(s, r, "CR")
            backtrack(r + 1, t, "CL")

    backtrack(0, n - 1, "CR")
    return heads, float(CR[0, n - 1])


def reference_cle_decode(scores):
    """Maximum spanning arborescence rooted at 0 (greedy + cycle contraction).

    Root out-degree is unconstrained.  Greedy head selection takes the
    smallest head index among ties.
    """
    S = _masked(scores)
    heads_full = _reference_cle(S)
    heads = [int(h) for h in heads_full[1:]]
    total = float(sum(S[h, v] for v, h in enumerate(heads, start=1)))
    return heads, total


def _reference_cle(S):
    n = S.shape[0]
    bh = np.zeros(n, dtype=np.int64)
    bh[0] = -1
    for v in range(1, n):
        bh[v] = int(np.argmax(S[:, v]))

    cycle = find_cycle(bh[1:].tolist())
    if cycle is None:
        return bh

    in_cycle = np.zeros(n, dtype=bool)
    in_cycle[cycle] = True
    outside = [v for v in range(n) if not in_cycle[v]]  # keeps 0 first
    m = len(outside) + 1
    c = m - 1  # supernode id
    old_of = {new: old for new, old in enumerate(outside)}

    S2 = np.full((m, m), NEG)
    for a_new, a_old in enumerate(outside):
        for b_new, b_old in enumerate(outside):
            if a_new != b_new:
                S2[a_new, b_new] = S[a_old, b_old]
    enter_choice = {}  # outside node -> replaced cycle node
    exit_choice = {}  # outside node -> cycle node heading it
    for a_new, a_old in enumerate(outside):
        # edge into the cycle: gain from replacing v's current cycle edge
        gains = [S[a_old, v] - S[bh[v], v] for v in cycle]
        best = int(np.argmax(gains))
        enter_choice[a_old] = cycle[best]
        S2[a_new, c] = gains[best]
        # edge out of the cycle
        if a_old != 0:
            outs = [S[v, a_old] for v in cycle]
            best_out = int(np.argmax(outs))
            S2[c, a_new] = outs[best_out]
            exit_choice[a_old] = cycle[best_out]

    sub = _reference_cle(S2)

    heads = np.zeros(n, dtype=np.int64)
    heads[0] = -1
    for a_new, a_old in enumerate(outside):
        if a_old == 0:
            continue
        h_new = int(sub[a_new])
        heads[a_old] = exit_choice[a_old] if h_new == c else old_of[h_new]
    for v in cycle:
        heads[v] = bh[v]
    entry_parent = old_of[int(sub[c])]
    heads[enter_choice[entry_parent]] = entry_parent
    return heads


def reference_single_root(scores, projective):
    """Best tree with exactly one child of the root (re-run per candidate)."""
    S = np.asarray(scores, dtype=float)
    n = S.shape[0]
    decode = reference_eisner_decode if projective else reference_cle_decode
    best = None
    for child in range(1, n):
        masked = S.copy()
        keep = masked[0, child]
        masked[0, :] = NEG
        masked[0, child] = keep
        heads, total = decode(masked)
        if best is None or total > best[1]:
            best = (heads, total)
    assert best is not None
    return best
