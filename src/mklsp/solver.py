"""Cutting-plane trainer with learned per-group weights on the simplex.

The outer loop alternates one separation-oracle pass (a loss-augmented
decode of every training instance, yielding an averaged constraint row)
with a restricted subproblem solve over the rows collected so far.  The
restricted subproblem is the saddle problem

    max_{alpha in A}  min_{mu in simplex}
        alpha . q  -  1/2 alpha' ( sum_j mu_j Q^j ) alpha

over A = {alpha >= 0, sum(alpha) <= C}, where Q^j is the Gram matrix of the
rows' group-j parts.  Groups with a pinned mu_j fold into
Qpin = sum_pinned mu_j Q^j; the free groups share the remaining simplex
mass M.  The subproblem is solved in its epigraph form

    min  -q.alpha + 1/2 alpha' Qpin alpha + (M/2) t
    s.t. alpha' Q^j alpha <= t  for every free group j,  alpha in A,

by log-barrier path following: centering by damped Newton steps, barrier
weight raised tenfold per stage.  The objective is a convex quadratic and
the barrier terms are -log of linear and of concave quadratic slacks, so
the barrier is self-concordant; the damped step 1/(1 + lambda), lambda
the Newton decrement, then stays inside the domain and needs no line
search.  The Gram matrices are one (groups, rows, rows) tensor, and each
Newton system is assembled from its product with alpha rather than group
by group.  Free mu_j are twice the multipliers of the group constraints,
rescaled to sum to M.  An exact QP in alpha at that mu
(projected gradient, then an exact solve on the active face) replaces the
barrier's alpha when it gives the higher dual value; with no free group
that QP is the whole solve.  Group weights recover as
w_j = -mu_j * sum_r alpha_r p_j^r.  Training stops when the decoded
violation R_emp exceeds the working-set value R_s by less than epsilon.

A row p^r is kept as exact integer counts over one flat feature space
(group j's ids offset by the sizes of the groups before it): decoded minus
gold counts, the gold ones taken once per training run; the row stands for
counts / n.  All rows share one store, so a new Gram row, the primal
recovery and every row's value are each a gather and a `bincount` over
the stored entries.  Gram entries are integer dots divided by n^2 once,
exact whatever the summation order.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# sparse_dot is unused here but stays importable as `solver.sparse_dot`,
# the name perfbench/tracing.py wraps
from .sparse import GroupedSparseVector, SparseVector, sparse_dot  # noqa: F401

_QP_MAX_ITER = 50_000
_BARRIER_GAP = 1e-8  # duality gap bound n_con / tbar at which the barrier stops
_NEWTON_BUDGET = 12_000  # Newton steps over all barrier stages


@dataclass
class SolverConfig:
    """Knobs of the trainer; defaults follow the common usage."""

    C: float
    epsilon: float = 0.5
    max_iterations: int = 500
    mode: str = "mkl"  # "mkl" learns group weights, "uniform" pins them
    jobs: int = 1
    fixed_groups: tuple[str, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be positive and finite, got {self.C!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.mode not in ("mkl", "uniform"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class ConstraintRow:
    """Averaged margin constraint: slack >= q + <w, counts> / n.

    The feature part lives in the flat feature space, where group j's ids
    are offset by `offsets[j]` (the sizes of the groups before it; the last
    entry is the total): `indices` are the sorted ids whose count is not
    zero and `counts` those exact int64 counts, decoded minus gold.
    """

    indices: np.ndarray
    counts: np.ndarray
    n: int
    q: float
    offsets: np.ndarray

    @property
    def p(self) -> GroupedSparseVector:
        """The feature part per group, counts / n at group-local indices."""
        cuts = np.searchsorted(self.indices, self.offsets).tolist()
        return GroupedSparseVector(
            [
                SparseVector(self.indices[lo:hi] - off, self.counts[lo:hi] / self.n)
                for lo, hi, off in zip(cuts[:-1], cuts[1:], self.offsets.tolist())
            ]
        )


class RowStore:
    """The rows of one training run as one CSR-like store over the flat
    feature space, with their per-group Gram tensor.

    Every stored entry has its flat feature id, exact integer count, row
    and group.  A Gram entry G[j, r, t] = <p_j^r, p_j^t> is an integer dot
    of counts divided by n^2 once: while the products and their sums stay
    below 2**53 it is exact in any summation order, so a new row's dots
    with every stored row come from one gather and one `bincount`.  The
    Gram buffer doubles when full instead of growing by a copy per row.
    """

    def __init__(self, dims: Sequence[int], n: int):
        self.offsets = np.cumsum([0, *dims], dtype=np.int64)
        self.dim = int(self.offsets[-1])
        self.n = n
        self.rows: list[ConstraintRow] = []
        self.q = np.zeros(0)
        self.index = np.zeros(0, dtype=np.int64)  # flat feature id per entry
        self.counts = np.zeros(0, dtype=np.int64)
        self.row = np.zeros(0, dtype=np.int64)
        self._cell = np.zeros(0, dtype=np.int64)  # row * m + group per entry
        self._gram = np.zeros((len(dims), 8, 8))

    @property
    def gram(self) -> np.ndarray:
        """The (groups, rows, rows) Gram tensor, a view of the buffer."""
        s = len(self.rows)
        return self._gram[:, :s, :s]

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-group views of a vector over the flat feature space."""
        return np.split(flat, self.offsets[1:-1])

    def add(self, row: ConstraintRow) -> None:
        """Append a row and its Gram row and column."""
        m = self._gram.shape[0]
        s = len(self.rows)
        group = np.searchsorted(self.offsets, row.indices, side="right") - 1
        self.rows.append(row)
        self.q = np.append(self.q, row.q)
        self.index = np.concatenate([self.index, row.indices])
        self.counts = np.concatenate([self.counts, row.counts])
        self.row = np.concatenate([self.row, np.full(row.indices.size, s)])
        self._cell = np.concatenate([self._cell, s * m + group])

        dense = np.zeros(self.dim, dtype=np.int64)
        dense[row.indices] = row.counts
        dots = np.bincount(
            self._cell, weights=dense[self.index] * self.counts, minlength=(s + 1) * m
        )
        if s + 1 > self._gram.shape[1]:
            grown = np.zeros((m, 2 * s, 2 * s))
            grown[:, :s, :s] = self.gram
            self._gram = grown
        self._gram[:, s, : s + 1] = self._gram[:, : s + 1, s] = (
            dots.reshape(s + 1, m).T / (self.n * self.n)
        )

    def values(self, weights: np.ndarray) -> np.ndarray:
        """Every row's value q^r + <w, p^r> under the concatenated weights."""
        dots = np.bincount(
            self.row, weights=weights[self.index] * self.counts, minlength=len(self.rows)
        )
        return self.q + dots / self.n


@dataclass
class SubproblemSolution:
    alpha: np.ndarray
    mu: np.ndarray
    dual_objective: float


@dataclass
class IterationRecord:
    iteration: int
    r_emp: float
    r_s: float
    gap: float
    dual_objective: float
    primal_objective: float
    working_set_size: int
    mu: np.ndarray
    # wall times in seconds, from time.perf_counter inside `train`: the whole
    # iteration and its phases (gram, subproblem and recovery are 0 on the
    # last iteration, which adds no row)
    wall_s: float
    decode_s: float
    row_s: float
    gram_s: float
    subproblem_s: float
    recover_s: float


@dataclass
class TrainResult:
    weights: list[np.ndarray]
    mu: np.ndarray
    alpha: np.ndarray
    rows: list[ConstraintRow]
    trace: list[IterationRecord] = field(repr=False)
    halt_reason: str = "max-iterations"

    @property
    def n_iterations(self) -> int:
        return len(self.trace)

    @property
    def final_gap(self) -> float:
        return self.trace[-1].gap if self.trace else float("nan")


def project_capped_simplex(x: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {a >= 0, sum(a) <= cap}."""
    clipped = np.maximum(x, 0.0)
    if clipped.sum() <= cap:
        return clipped
    # project onto the face {a >= 0, sum(a) = cap}
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - cap
    rho = np.nonzero(u * np.arange(1, x.size + 1) > css)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(x - tau, 0.0)


def solve_qp(
    q: np.ndarray, H: np.ndarray, cap: float, tol: float = 1e-8, x0: np.ndarray | None = None
) -> np.ndarray:
    """Maximize q.a - 1/2 a'Ha over {a >= 0, sum(a) <= cap}.

    Accelerated projected gradient with adaptive restart, then an exact
    refinement on the identified active face.
    """
    s = q.size
    if s == 0:
        return np.zeros(0)
    lipschitz = float(np.linalg.eigvalsh(H).max()) if s > 1 else float(max(H[0, 0], 0.0))
    if lipschitz <= 1e-300:
        alpha = np.zeros(s)
        j = int(np.argmax(q))
        if q[j] > 0:
            alpha[j] = cap
        return alpha

    x = project_capped_simplex(x0.copy() if x0 is not None else np.zeros(s), cap)
    y = x.copy()
    t = 1.0
    for _ in range(_QP_MAX_ITER):
        x_new = project_capped_simplex(y + (q - H @ y) / lipschitz, cap)
        if float((y - x_new) @ (x_new - x)) > 0.0:
            y = x_new.copy()  # momentum restart
            t = 1.0
        else:
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            t = t_new
        moved = float(np.linalg.norm(x_new - x))
        x = x_new
        residual = x - project_capped_simplex(x + (q - H @ x) / lipschitz, cap)
        if float(np.linalg.norm(residual)) <= tol and moved <= tol:
            break
    return _polish_qp(q, H, cap, x)


def _qp_value(q: np.ndarray, H: np.ndarray, a: np.ndarray) -> float:
    return float(q @ a - 0.5 * a @ H @ a)


def _polish_qp(q: np.ndarray, H: np.ndarray, cap: float, x: np.ndarray) -> np.ndarray:
    """Re-solve exactly on the active face found by the iterative method."""
    best = np.maximum(x, 0.0)
    if best.sum() > cap:
        best *= cap / best.sum()
    free = np.nonzero(best > 1e-10 * max(1.0, cap))[0]
    if free.size == 0:
        return best
    Hff = H[np.ix_(free, free)]
    qf = q[free]
    candidates = []
    try:
        sol = np.linalg.lstsq(Hff, qf, rcond=None)[0]
        candidates.append((sol, False))
    except np.linalg.LinAlgError:
        pass
    k = free.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = Hff
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([qf, [cap]])
    try:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        candidates.append((sol, True))
    except np.linalg.LinAlgError:
        pass
    value = _qp_value(q, H, best)
    for sol, binding in candidates:
        if not np.all(np.isfinite(sol)) or sol.min() < -1e-9:
            continue
        total = sol.sum()
        if binding:
            if total <= 0:
                continue
            sol = sol * (cap / total) if total > cap else sol
        elif total > cap * (1 + 1e-9):
            continue
        cand = np.zeros_like(x)
        cand[free] = np.maximum(sol, 0.0)
        if cand.sum() > cap:
            cand *= cap / cand.sum()
        cand_value = _qp_value(q, H, cand)
        if cand_value > value:
            best, value = cand, cand_value
    return best


def _dual_value(
    grams: np.ndarray,
    q: np.ndarray,
    alpha: np.ndarray,
    pinned_part: np.ndarray,
    free: np.ndarray,
    free_mass: float,
) -> float:
    """The dual value d(alpha) at the worst-case mu for the free groups."""
    gamma_sq = np.array([max(float(alpha @ Q @ alpha), 0.0) for Q in grams])
    quad = float(pinned_part @ gamma_sq)
    if free.any():
        quad += free_mass * float(gamma_sq[free].max())
    return float(q @ alpha) - 0.5 * quad


def _barrier_qcqp(
    G: np.ndarray,
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
    G holds the free Gram matrices as one (mf, s, s) tensor, so each Newton
    system comes from the single product G @ alpha and every group's
    quadratic form from (G @ a) @ a.

    Each centering step has length 1/(1 + lambda), lambda = sqrt(grad'K^-1
    grad) the Newton decrement.  For a self-concordant barrier (this one
    is: a convex quadratic plus -log of linear and concave quadratic
    slacks) that damped step stays in the Dikin ellipsoid, so inside the
    domain, and lowers the barrier by at least lambda - log(1 + lambda);
    near the center it tends to the full step and converges quadratically
    (Nesterov & Nemirovski 1994; Boyd & Vandenberghe 2004, 9.6).  No line
    search is needed.  Halving remains only as a strict-feasibility
    safeguard against rounding and against the gradient step taken when
    the system is singular; when 80 halvings fail, the stage ends.
    """
    s = q.size
    mf = len(G)
    assert mf >= 1, "the barrier needs a free group"
    n_con = s + 1 + mf
    ridge = 1e-12 * np.eye(s + 1)

    alpha = np.full(s, C / (2.0 * s))
    if alpha0 is not None and alpha0.size == s:
        lo = C * 1e-8 / s
        warm = np.maximum(alpha0, lo)
        total = warm.sum()
        if total >= C * (1.0 - 1e-3):
            warm *= C * (1.0 - 1e-3) / total
        alpha = 0.9 * warm + 0.1 * alpha
    t = 2.0 * float(((G @ alpha) @ alpha).max()) + 1.0

    tbar = 1.0
    spent = 0
    while True:
        # center at the current barrier weight
        for _ in range(60):
            spent += 1
            Qa = G @ alpha
            c_grp = t - Qa @ alpha
            c_sum = C - float(alpha.sum())
            inv = 1.0 / c_grp
            inv2 = inv * inv

            # group j's constraint c_j = t - a'Q_j a has gradient (-2 Q_j a, 1)
            g_a = tbar * (Qpin @ alpha - q) - 1.0 / alpha + (1.0 / c_sum) + 2.0 * (inv @ Qa)
            g_t = tbar * free_mass / 2.0 - float(inv.sum())
            # the scalar broadcast adds the rank-one (1/c^2) 11' sum-constraint block
            H_a = tbar * Qpin + np.diag(1.0 / alpha**2) + (1.0 / c_sum**2)
            H_a += 4.0 * ((Qa.T * inv2) @ Qa) + 2.0 * np.tensordot(inv, G, 1)
            K = np.empty((s + 1, s + 1))
            K[:s, :s] = H_a
            K[:s, s] = K[s, :s] = -2.0 * (inv2 @ Qa)
            K[s, s] = inv2.sum()
            grad = np.append(g_a, g_t)
            try:
                step = -np.linalg.solve(K + ridge, grad)
            except np.linalg.LinAlgError:
                step = -grad / max(float(np.abs(np.diag(K)).max()), 1.0)
            decrement = -float(grad @ step)
            if decrement <= 2e-12:
                break

            da, dt = step[:s], float(step[s])
            # damped Newton step; halving only guards strict feasibility
            scale = 1.0 / (1.0 + math.sqrt(decrement))
            for _ in range(80):
                a_new = alpha + scale * da
                t_new = t + scale * dt
                if (
                    a_new.min() > 0
                    and a_new.sum() < C
                    and (t_new - (G @ a_new) @ a_new).min() > 0
                ):
                    break
                scale *= 0.5
            else:
                break
            alpha, t = a_new, t_new
            if decrement <= 1e-10:
                break
        if n_con / tbar <= _BARRIER_GAP or tbar >= 1e14 or spent >= _NEWTON_BUDGET:
            break
        tbar *= 10.0

    lambdas = 1.0 / (tbar * (t - (G @ alpha) @ alpha))
    return alpha, lambdas


def solve_subproblem(
    grams: Sequence[np.ndarray],
    q: np.ndarray,
    C: float,
    *,
    pinned: np.ndarray | None = None,
    alpha0: np.ndarray | None = None,
) -> SubproblemSolution:
    """Solve the restricted saddle problem over the collected rows.

    `pinned` holds fixed mu entries (NaN where the group weight is free).
    Free groups are handled through the epigraph QCQP (one quadratic
    constraint per group) by an interior-point pass whose multipliers give
    mu; a fixed-mu exact QP polish then keeps whichever alpha scores the
    better dual value.  Returned alpha and mu are exactly feasible; a
    non-finite alpha or mu raises RuntimeError.
    """
    G = np.asarray(grams)
    m = len(G)
    s = q.size
    if m == 0:
        raise ValueError("no feature groups")
    if s == 0:
        raise ValueError("empty working set")
    if pinned is None:
        pinned = np.full(m, np.nan)
    fixed = ~np.isnan(pinned)
    free = ~fixed
    free_mass = 1.0 - float(pinned[fixed].sum()) if fixed.any() else 1.0
    if free_mass < -1e-9:
        raise ValueError("pinned group weights exceed the simplex")
    free_mass = max(free_mass, 0.0)

    pinned_part = np.where(fixed, pinned, 0.0)
    Qpin = (pinned_part[:, None, None] * G).sum(axis=0)
    Qpin = 0.5 * (Qpin + Qpin.T)

    mu = pinned_part.copy()
    if not free.any() or free_mass == 0.0:
        alpha = solve_qp(q, Qpin, C, x0=alpha0)
    else:
        G_free = G[free]
        alpha, lambdas = _barrier_qcqp(G_free, Qpin, q, C, free_mass, alpha0)
        if not (np.isfinite(alpha).all() and np.isfinite(lambdas).all()):
            raise RuntimeError("non-finite alpha or multipliers from the barrier")
        mu_free = 2.0 * lambdas
        total = mu_free.sum()
        if total > 0:
            mu_free *= free_mass / total
        else:
            mu_free = np.full(len(G_free), free_mass / len(G_free))
        mu[free] = mu_free
        # exact QP polish at the recovered mu; keep the better dual value
        H = Qpin + (mu_free[:, None, None] * G_free).sum(axis=0)
        H = 0.5 * (H + H.T)
        polished = solve_qp(q, H, C, x0=alpha)
        d_raw = _dual_value(G, q, alpha, pinned_part, free, free_mass)
        d_pol = _dual_value(G, q, polished, pinned_part, free, free_mass)
        if d_pol > d_raw:
            alpha = polished

    # exact feasibility cleanup
    alpha = np.maximum(alpha, 0.0)
    if alpha.sum() > C:
        alpha *= C / alpha.sum()
    mu = np.maximum(mu, 0.0)
    if not (np.isfinite(alpha).all() and np.isfinite(mu).all()):
        raise RuntimeError("non-finite alpha or mu from the subproblem")

    dual = _dual_value(G, q, alpha, pinned_part, free, free_mass)
    return SubproblemSolution(alpha, mu, dual)


def gold_counts(task, instances: Sequence) -> np.ndarray:
    """Exact int64 counts of the flat weight ids the gold outputs fire over
    the corpus; `train` takes them once and every row subtracts them."""
    golds = [task.gold_output(inst) for inst in instances]
    ids, _ = task.corpus_feature_ids(instances, golds)
    return np.bincount(ids, minlength=sum(task.group_dims))


def build_constraint_row(
    task, instances: Sequence, outputs: Sequence, gold: np.ndarray
) -> ConstraintRow:
    """Average the feature gaps and losses of the decoded outputs into a row.

    The feature part is the count of every flat weight id the decoded
    outputs fire over the corpus minus its `gold` count (see `gold_counts`),
    kept as exact integers; the row stands for those counts / n.
    """
    n = len(instances)
    if n == 0:
        raise ValueError("empty corpus")
    if len(outputs) != n:
        raise ValueError("one output per instance required")
    ids, loss_total = task.corpus_feature_ids(instances, outputs)
    counts = np.bincount(ids, minlength=gold.size) - gold
    indices = np.flatnonzero(counts)
    q = loss_total / n
    if q < 0:
        raise AssertionError("negative averaged loss")
    offsets = np.cumsum([0, *task.group_dims], dtype=np.int64)
    return ConstraintRow(indices, counts[indices], n, q, offsets)


def row_value(row: ConstraintRow, weights: np.ndarray) -> float:
    """q^r + <w, p^r> under the concatenated weight vector `weights`."""
    return row.q + float(weights[row.indices] @ row.counts) / row.n


def working_set_value(store: RowStore, weights: np.ndarray) -> float:
    """Largest row value, or 0 for an empty set (the slack lower bound)."""
    if not store.rows:
        return 0.0
    return float(store.values(weights).max())


def recover_primal(store: RowStore, alpha: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """w_j = -mu_j * sum_r alpha_r p_j^r, as one concatenated weight vector.

    One weighted `bincount` over the stored entries, in row order, so each
    weight gets the terms a row-by-row loop would subtract, in its order.
    """
    terms = alpha[store.row] * (store.counts / store.n)
    # astype: with no stored entry `bincount` returns int64 zeros
    flat = np.bincount(store.index, weights=-terms, minlength=store.dim).astype(np.float64)
    for w, mu_j in zip(store.split(flat), mu, strict=True):
        w *= mu_j
    return flat


def primal_objective(weights: np.ndarray, store: RowStore, C: float) -> float:
    """1/2 (sum_j ||w_j||)^2 + C * max(0, max_r row_value)."""
    reg = sum(float(np.linalg.norm(w)) for w in store.split(weights))
    return 0.5 * reg * reg + C * max(0.0, working_set_value(store, weights))


def rows_equal(a: ConstraintRow, b: ConstraintRow) -> bool:
    return (
        a.q == b.q
        and a.n == b.n
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.counts, b.counts)
    )


# set in each worker by `_pool_init`; fork hands the task and instances over
# without pickling them
_POOL_STATE: tuple | None = None


def _pool_init(task, instances: Sequence) -> None:
    global _POOL_STATE
    _POOL_STATE = (task, instances)


def _pool_decode(job: tuple) -> list:
    lo, hi, weights, augmented = job
    task, instances = _POOL_STATE
    return task.decode_corpus(weights, instances[lo:hi], augmented)[0]


class DecodePool:
    """`jobs` fork workers that hold one task and corpus for repeated
    decode passes; use it with `with` and pass it to `parallel_decode`
    together with that same `instances` object."""

    def __init__(self, task, instances: Sequence, jobs: int):
        self.instances = instances
        ctx = multiprocessing.get_context("fork")
        self.pool = ctx.Pool(processes=jobs, initializer=_pool_init, initargs=(task, instances))

    def __enter__(self) -> "DecodePool":
        return self

    def __exit__(self, *exc) -> None:
        self.pool.terminate()


def parallel_decode(
    task,
    weights: Sequence[np.ndarray],
    instances: Sequence,
    jobs: int,
    augmented: bool,
    pool=None,
) -> list:
    """Ordered decode of all instances, optionally across worker processes.

    With `jobs` > 1 each worker decodes one contiguous range of the
    instances through the same corpus-level decode as one job; only the
    range, the weights and `augmented` cross the pipe.  `pool`, a
    `DecodePool` over these same instances, is used when given; otherwise
    one is started for this call.
    """
    n = len(instances)
    jobs = min(jobs, n)
    if jobs <= 1:
        return task.decode_corpus(weights, instances, augmented)[0]
    bounds = [n * i // jobs for i in range(jobs + 1)]
    work = [(lo, hi, weights, augmented) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if pool is None:
        with DecodePool(task, instances, jobs) as own:
            parts = own.pool.map(_pool_decode, work, chunksize=1)
    elif pool.instances is not instances:
        raise ValueError("the decode pool holds another corpus")
    else:
        parts = pool.pool.map(_pool_decode, work, chunksize=1)
    return [out for part in parts for out in part]


def _format_record(record: IterationRecord, group_ids: Sequence[str]) -> str:
    mu_txt = ",".join(f"{g}:{m:.6f}" for g, m in zip(group_ids, record.mu))
    return (
        f"iter={record.iteration} r_emp={record.r_emp:.6e} r_s={record.r_s:.6e} "
        f"gap={record.gap:.6e} dual={record.dual_objective:.6e} "
        f"primal={record.primal_objective:.6e} rows={record.working_set_size} mu={mu_txt}"
    )


def train(
    task,
    instances: Sequence,
    config: SolverConfig,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run the cutting-plane loop until the gap drops below epsilon.

    `task` provides the structure-specific pieces, each over the whole corpus:

    - `group_dims`, `group_ids`: the weight-vector size and name per group;
    - `decode_corpus(weights, instances, augmented)`: the loss-augmented
      (or plain) argmax of every instance, as (outputs, scores);
    - `gold_output(instance)`: the gold output of one instance;
    - `corpus_feature_ids(instances, outputs)`: one int64 array of the flat
      weight ids the outputs fire over the corpus (group j's ids offset by
      the sizes of the groups before it), one entry per firing, so repeats
      count; and the summed task loss (>= 0) of the outputs against gold.

    The gold outputs' ids are counted once per call; each iteration's row
    is the exact integer count of the decoded ids minus those gold counts,
    kept with every earlier row in one `RowStore`.  With `jobs` > 1 one fork
    pool (`DecodePool`), started before the first iteration, decodes every
    oracle pass.
    Each `IterationRecord` carries the iteration's wall time and the time of
    its decode, row, Gram, subproblem and recovery phases.
    """
    n = len(instances)
    if n == 0:
        raise ValueError("cannot train on an empty corpus")
    dims = list(task.group_dims)
    ids = list(task.group_ids)
    m = len(dims)
    if m == 0:
        raise ValueError("task has no feature groups")
    unknown = [g for g in config.fixed_groups if g not in ids]
    if unknown:
        raise ValueError(f"unknown fixed groups: {unknown}")

    pinned = np.full(m, np.nan)
    if config.mode == "uniform":
        pinned[:] = 1.0 / m
    else:
        for g in config.fixed_groups:
            pinned[ids.index(g)] = 1.0 / m

    store = RowStore(dims, n)
    gold = gold_counts(task, instances)
    flat = np.zeros(store.dim)
    weights = store.split(flat)
    mu = np.full(m, 1.0 / m)
    alpha = np.zeros(0)
    dual = 0.0
    trace: list[IterationRecord] = []
    halt = None
    jobs = min(config.jobs, n)
    clock = time.perf_counter

    with DecodePool(task, instances, jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        for iteration in range(1, config.max_iterations + 1):
            start = clock()
            outputs = parallel_decode(task, weights, instances, jobs, augmented=True, pool=pool)
            decoded = clock()
            row = build_constraint_row(task, instances, outputs, gold)
            built = clock()
            r_emp = row_value(row, flat)
            r_s = working_set_value(store, flat)
            gap = r_emp - r_s
            gram_s = subproblem_s = recover_s = 0.0

            if gap < config.epsilon:
                halt = "converged"
            elif any(rows_equal(row, seen) for seen in store.rows):
                # exact duplicates imply gap <= 0, so this is a float-edge guard
                halt = "stalled"
            else:
                t0 = clock()
                store.add(row)
                t1 = clock()
                solution = solve_subproblem(
                    store.gram, store.q, config.C, pinned=pinned, alpha0=np.append(alpha, 0.0)
                )
                t2 = clock()
                alpha, mu, dual = solution.alpha, solution.mu, solution.dual_objective
                flat = recover_primal(store, alpha, mu)
                t3 = clock()
                gram_s, subproblem_s, recover_s = t1 - t0, t2 - t1, t3 - t2
                if not np.all(np.isfinite(flat)):
                    raise RuntimeError("non-finite weights from primal recovery")
                weights = store.split(flat)

            primal = primal_objective(flat, store, config.C)
            record = IterationRecord(
                iteration, r_emp, r_s, gap, dual, primal, len(store.rows), mu.copy(),
                wall_s=clock() - start, decode_s=decoded - start, row_s=built - decoded,
                gram_s=gram_s, subproblem_s=subproblem_s, recover_s=recover_s,
            )
            trace.append(record)
            if log:
                log(_format_record(record, ids))
            if halt:
                break

    return TrainResult(weights, mu, alpha, store.rows, trace, halt or "max-iterations")
