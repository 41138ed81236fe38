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

by log-barrier path following (damped Newton centering, barrier weight
raised tenfold per stage).  The free Gram matrices are stacked into one
(groups, rows, rows) tensor, and each Newton system is assembled from
that tensor's product with alpha rather than group by group; the summation
order this changed means model checksums from before it may differ in the
last bits.  Free mu_j are twice the multipliers of the group constraints,
rescaled to sum to M.  An exact QP in alpha at that mu
(projected gradient, then an exact solve on the active face) replaces the
barrier's alpha when it gives the higher dual value; with no free group
that QP is the whole solve.  Group weights recover as
w_j = -mu_j * sum_r alpha_r p_j^r.  Training stops when the decoded
violation R_emp exceeds the working-set value R_s by less than epsilon.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .sparse import GroupedSparseVector, SparseVector, sparse_dot

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
    """Averaged margin constraint: slack >= q + sum_j <w_j, p_j>."""

    p: GroupedSparseVector
    q: float


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
    grams: Sequence[np.ndarray],
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
    The free Gram matrices are stacked into one (mf, s, s) tensor G, so
    each Newton system comes from the single product G @ alpha and every
    group's quadratic form from (G @ a) @ a.
    """
    s = q.size
    mf = len(grams_free)
    assert mf >= 1, "the barrier needs a free group"
    n_con = s + 1 + mf
    G = np.stack(grams_free)
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

    def value(a, tt, c):
        """The barrier objective at (a, tt), given the group slacks c."""
        v = tbar * (-float(q @ a) + 0.5 * float(a @ Qpin @ a) + free_mass * tt / 2.0)
        v -= float(np.log(a).sum()) + np.log(C - a.sum())
        return v - float(np.log(c).sum())

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
                if a_new.min() > 0 and a_new.sum() < C:
                    c_new = t_new - (G @ a_new) @ a_new
                    if c_new.min() > 0:
                        break
                scale *= 0.5
            else:
                scale = 0.0
            if scale == 0.0:
                break
            # backtracking on the barrier value, from the trial point just found
            base = value(alpha, t, c_grp)
            slope = float(grad @ step)
            while scale > 1e-12:
                if value(a_new, t_new, c_new) <= base + 0.25 * scale * slope:
                    break
                scale *= 0.5
                a_new = alpha + scale * da
                t_new = t + scale * dt
                c_new = t_new - (G @ a_new) @ a_new
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
    m = len(grams)
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
    Qpin = np.zeros((s, s))
    for w_j, Q in zip(pinned_part, grams):
        if w_j > 0:
            Qpin += w_j * Q
    Qpin = 0.5 * (Qpin + Qpin.T)

    mu = np.where(fixed, pinned, 0.0)
    if not free.any() or free_mass == 0.0:
        if free.any():
            mu[free] = 0.0
        alpha = solve_qp(q, Qpin, C, x0=alpha0)
    else:
        grams_free = [grams[j] for j in range(m) if free[j]]
        alpha, lambdas = _barrier_qcqp(grams_free, Qpin, q, C, free_mass, alpha0)
        if not (np.isfinite(alpha).all() and np.isfinite(lambdas).all()):
            raise RuntimeError("non-finite alpha or multipliers from the barrier")
        mu_free = 2.0 * lambdas
        total = mu_free.sum()
        if total > 0:
            mu_free *= free_mass / total
        else:
            mu_free = np.full(len(grams_free), free_mass / len(grams_free))
        mu[free] = mu_free
        # exact QP polish at the recovered mu; keep the better dual value
        H = Qpin.copy()
        for mu_j, Q in zip(mu_free, grams_free):
            if mu_j > 0:
                H += mu_j * Q
        H = 0.5 * (H + H.T)
        polished = solve_qp(q, H, C, x0=alpha)
        d_raw = _dual_value(grams, q, alpha, pinned_part, free, free_mass)
        d_pol = _dual_value(grams, q, polished, pinned_part, free, free_mass)
        if d_pol > d_raw:
            alpha = polished

    # exact feasibility cleanup
    alpha = np.maximum(alpha, 0.0)
    if alpha.sum() > C:
        alpha *= C / alpha.sum()
    mu = np.maximum(mu, 0.0)
    if not (np.isfinite(alpha).all() and np.isfinite(mu).all()):
        raise RuntimeError("non-finite alpha or mu from the subproblem")

    dual = _dual_value(grams, q, alpha, pinned_part, free, free_mass)
    return SubproblemSolution(alpha, mu, dual)


def build_constraint_row(task, instances: Sequence, outputs: Sequence) -> ConstraintRow:
    """Average the feature gaps and losses of the decoded outputs into a row.

    Per group the feature part is (counts of the decoded ids - counts of the
    gold ids) / n, over every sentence; the counts are exact integers.
    """
    n = len(instances)
    if n == 0:
        raise ValueError("empty corpus")
    dims = task.group_dims
    decoded: list[list[np.ndarray]] = [[] for _ in dims]
    reference: list[list[np.ndarray]] = [[] for _ in dims]
    loss_total = 0.0
    for inst, out in zip(instances, outputs, strict=True):
        gold = task.gold_output(inst)
        loss_total += task.loss(gold, out)
        for acc, ids in zip(decoded, task.joint_feature_map(inst, out), strict=True):
            acc.append(ids)
        for acc, ids in zip(reference, task.joint_feature_map(inst, gold), strict=True):
            acc.append(ids)
    groups = []
    for d, dec, ref in zip(dims, decoded, reference, strict=True):
        counts = np.bincount(np.concatenate(dec), minlength=d)
        counts -= np.bincount(np.concatenate(ref), minlength=d)
        nonzero = np.flatnonzero(counts)
        groups.append(SparseVector(nonzero, counts[nonzero] / n))
    q = loss_total / n
    if q < 0:
        raise AssertionError("negative averaged loss")
    return ConstraintRow(GroupedSparseVector(groups), q)


def row_value(row: ConstraintRow, weights: Sequence[np.ndarray]) -> float:
    """q^r + sum_j <w_j, p_j^r>."""
    return row.q + row.p.dot_dense(list(weights))


def working_set_value(rows: Sequence[ConstraintRow], weights: Sequence[np.ndarray]) -> float:
    """Largest row value, or 0 for an empty set (the slack lower bound)."""
    if not rows:
        return 0.0
    return max(row_value(row, weights) for row in rows)


def recover_primal(
    rows: Sequence[ConstraintRow], alpha: np.ndarray, mu: np.ndarray, dims: Sequence[int]
) -> list[np.ndarray]:
    """w_j = -mu_j * sum_r alpha_r p_j^r, densely."""
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


def primal_objective(
    weights: Sequence[np.ndarray], rows: Sequence[ConstraintRow], C: float
) -> float:
    """1/2 (sum_j ||w_j||)^2 + C * max(0, max_r row_value)."""
    reg = sum(float(np.linalg.norm(w)) for w in weights)
    xi = max(0.0, working_set_value(rows, weights)) if rows else 0.0
    return 0.5 * reg * reg + C * xi


def rows_equal(a: ConstraintRow, b: ConstraintRow) -> bool:
    return a.q == b.q and a.p == b.p


# workers inherit this via fork, so nothing heavyweight crosses a pipe
_POOL_STATE: tuple | None = None


def _pool_decode(idx: int):
    task, weights, instances, augmented = _POOL_STATE
    fn = task.most_violated if augmented else task.decode
    return fn(weights, instances[idx])[0]


def parallel_decode(
    task, weights: Sequence[np.ndarray], instances: Sequence, jobs: int, augmented: bool
) -> list:
    """Ordered decode of all instances, optionally across worker processes."""
    if jobs <= 1 or len(instances) < 2:
        fn = task.most_violated if augmented else task.decode
        return [fn(weights, inst)[0] for inst in instances]
    global _POOL_STATE
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(instances) // (jobs * 4))
    _POOL_STATE = (task, weights, instances, augmented)
    try:
        with ctx.Pool(processes=jobs) as pool:
            return pool.map(_pool_decode, range(len(instances)), chunksize=chunk)
    finally:
        _POOL_STATE = None


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

    `task` provides the structure-specific pieces:

    - `group_dims`, `group_ids`: the weight-vector size and name per group;
    - `gold_output(inst)`: the gold output of a compiled instance;
    - `loss(gold, out)`: the task loss of `out`, >= 0;
    - `joint_feature_map(inst, out)`: per group, an int64 array of the weight
      ids `out` fires, one entry per firing, so repeats count;
    - `most_violated(weights, inst)` and `decode(weights, inst)`: the
      loss-augmented and the plain argmax, each as (output, score).
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

    weights = [np.zeros(d) for d in dims]
    rows: list[ConstraintRow] = []
    grams: list[np.ndarray] = [np.zeros((0, 0)) for _ in range(m)]
    qvec = np.zeros(0)
    mu = np.full(m, 1.0 / m)
    alpha = np.zeros(0)
    dual = 0.0
    trace: list[IterationRecord] = []
    halt = "max-iterations"

    for iteration in range(1, config.max_iterations + 1):
        outputs = parallel_decode(task, weights, instances, config.jobs, augmented=True)
        row = build_constraint_row(task, instances, outputs)
        r_emp = row_value(row, weights)
        r_s = working_set_value(rows, weights)
        gap = r_emp - r_s

        if gap < config.epsilon:
            record = IterationRecord(
                iteration, r_emp, r_s, gap, dual,
                primal_objective(weights, rows, config.C), len(rows), mu.copy(),
            )
            trace.append(record)
            if log:
                log(_format_record(record, ids))
            halt = "converged"
            break
        if any(rows_equal(row, seen) for seen in rows):
            # exact duplicates imply gap <= 0, so this is a float-edge guard
            record = IterationRecord(
                iteration, r_emp, r_s, gap, dual,
                primal_objective(weights, rows, config.C), len(rows), mu.copy(),
            )
            trace.append(record)
            if log:
                log(_format_record(record, ids))
            halt = "stalled"
            break

        rows.append(row)
        for j in range(m):
            old = grams[j]
            size = len(rows)
            grown = np.zeros((size, size))
            grown[: size - 1, : size - 1] = old
            for r, other in enumerate(rows):
                dot = sparse_dot(row.p.groups[j], other.p.groups[j])
                grown[size - 1, r] = dot
                grown[r, size - 1] = dot
            grams[j] = grown
        qvec = np.append(qvec, row.q)

        solution = solve_subproblem(
            grams,
            qvec,
            config.C,
            pinned=pinned,
            alpha0=np.append(alpha, 0.0),
        )
        alpha, mu, dual = solution.alpha, solution.mu, solution.dual_objective
        weights = recover_primal(rows, alpha, mu, dims)
        for w in weights:
            if not np.all(np.isfinite(w)):
                raise RuntimeError("non-finite weights from primal recovery")

        record = IterationRecord(
            iteration, r_emp, r_s, gap, dual,
            primal_objective(weights, rows, config.C), len(rows), mu.copy(),
        )
        trace.append(record)
        if log:
            log(_format_record(record, ids))

    return TrainResult(weights, mu, alpha, rows, trace, halt)
