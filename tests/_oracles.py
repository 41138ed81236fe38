"""Independent reference implementations used to check the package.

Everything here favors obviousness over speed: exhaustive enumeration,
face enumeration, dense grids, and dicts counted one firing at a time.
Nothing imports the package's solvers or decoders; the edge-feature
references loop over edges one at a time with the package's per-edge
definition, `instantiate_edge`, the edge-score reference adds one group
at a time with `np.add.at`, the constraint-row reference only reuses the
package's containers, and the barrier reference only the solver's
stopping constants.  The row-store references are the trainer's earlier
per-group loops over float rows, kept as they were: a tree's ids picked
group by group with an edge mask, the Gram row by `sparse_dot`, and the
primal recovery row by row.  The decoder references are the package's earlier
decoders, kept as they were: a Viterbi DP over one sentence at a time, a
span DP filled one cell at a time with a recursive backtrack, a maximum
arborescence contracted with dicts and Python loops, and a single-root
search that runs a whole decoder once per root child.  The tree
references share only the package's score masking and cycle walk.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from types import SimpleNamespace
from functools import lru_cache

import numpy as np

from mklsp.corpus import find_cycle
from mklsp.dependency import NEG, _masked, augment, instantiate_edge
from mklsp.solver import _BARRIER_GAP, _NEWTON_BUDGET
from mklsp.sparse import GroupedSparseVector, SparseVector, sparse_dot


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
                for s in instantiate_edge(spec, toks, u, v):
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
            for s in instantiate_edge(spec, toks, u, v):
                if s in ids:
                    us.append(u)
                    vs.append(v)
                    fs.append(ids[s])
        groups.append(tuple(np.asarray(x, dtype=np.int64) for x in (us, vs, fs)))
    return groups


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
        dicts = []
        for feats in inst.feats:
            d = {}
            for t in range(inst.length):
                if feats[t] >= 0:
                    key = int(feats[t]) * k + output[t]
                    d[key] = d.get(key, 0.0) + 1.0
            dicts.append(d)
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

    The stages, Newton system, stopping rules and budget of
    `mklsp.solver._barrier_qcqp`, implemented independently: the system is
    assembled one group at a time, every quadratic form is computed on its
    own, and the step length comes from a 0.99 fraction-to-boundary cap and
    Armijo backtracking on the barrier value instead of the damped Newton
    step.  Both follow the same central path to the same point, but late in
    a stage this Armijo search can stall (see the tests).
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
        if n_con / tbar <= _BARRIER_GAP or tbar >= 1e14 or spent >= _NEWTON_BUDGET:
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
