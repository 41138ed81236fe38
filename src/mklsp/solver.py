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

by one infeasible-start primal-dual interior-point solve (Mehrotra's
predictor-corrector; see `_primal_dual`): every inequality has an explicit
slack and a multiplier, every call starts cold at alpha = C / (2s) on each
of its s rows, and it stops on relative residuals and the relative
surrogate gap, about ten to twenty Newton systems later.  The Gram
matrices are one (groups, rows, rows) tensor, and each Newton system is
assembled from its product with alpha rather than group by group.  Free
mu_j are twice the multipliers of the group constraints, rescaled to sum
to M; with no free group the same solve is the QP in alpha.  Group weights
recover as w_j = -mu_j * sum_r alpha_r p_j^r.  Training stops when the
decoded violation R_emp exceeds the working-set value R_s by less than
epsilon.

Every iteration's record is certified: its relative primal-dual gap
|primal - dual| / max(1, |primal|) must be at most 1e-6, or `train` raises
RuntimeError.  The last bits of alpha and mu depend on the solver's
arithmetic, and where groups tie exactly (identical Gram blocks) they can
flip a tied decode, so another solver may take another path to an equally
good model.

The interior-point solve never returns an exact zero in mu, so after the
loop `train` drops the groups the certificate allows (`_drop_groups`).
The candidates are the free groups in ascending mu; the prefix of them
whose summed mu stays within `MU_SUM_TOL` (1e-9) gets all-zero weights,
the working set's value and the primal are taken again, and the prefix
holds if its gap to the last record's dual is at most 1e-6, relative;
otherwise a bisection over shorter prefixes drops one that holds, or none.
Nothing makes the certificate monotone in the prefix length, so that is a
certified prefix, not always the longest.  The dropped groups get mu 0
in the result, no kept mu is rescaled (the sum still meets 1 within
`MU_SUM_TOL`), and the trace keeps the loop's values.  Pinned groups are
never dropped.

A row p^r is kept as exact integer counts over one flat feature space
(group j's ids offset by the sizes of the groups before it): decoded minus
gold counts, the gold ones taken once per training run; the row stands for
counts / n.  All rows share one store, so a new Gram row, the primal
recovery and every row's value are each a gather and a `bincount` over
the stored entries.  Gram entries are integer dots divided by n^2 once,
exact whatever the summation order.  A new row's value is that same sum
(`_values`), so a repeated row reads its stored value and closes the gap.
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

_TOL = 1e-12  # relative residuals and surrogate gap at which a subproblem solve stops
_MAX_NEWTON = 50  # Newton systems per solve before it gives up
_TO_BOUNDARY = 0.995  # share of the step to the nearest bound that a step takes
_MU_FLOOR = 0.1  # lowest centring target, as a share of the stopping gap
_STALLS = 3  # steps without a better point that end a solve on its rounding floor
_CERTIFIED_GAP = 1e-6  # largest relative primal-dual gap `train` accepts on a record
MU_SUM_TOL = 1e-9  # a trained mu sums to 1 within this; a dropped group's mu counts against it


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
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs!r}")


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
        return _values(self.q, self.index, self.counts, self.row, self.n, weights)


def _values(q, index, counts, row, n: int, weights: np.ndarray) -> np.ndarray:
    """q^r + <w, counts^r> / n for every row r, whose entries are where `row`
    is r, each dot summed left to right by `bincount`, stored row or new."""
    return q + np.bincount(row, weights=weights[index] * counts, minlength=q.size) / n


@dataclass
class SolveDiagnostics:
    """What one primal-dual subproblem solve did.

    `newton_systems` counts the Newton systems assembled (each is solved
    twice, for the predictor and the corrector); `surrogate_gap`,
    `primal_residual` and `dual_residual` are the relative measures of the
    point returned; `min_step` is the shortest step taken; `fallbacks`
    names, in order, the branches taken when the solve could not go on
    normally: "lstsq" (a singular system solved by least squares), "floor"
    (with the gap at tolerance, three steps found no better point: the
    residuals' rounding floor), "max-newton" (the Newton budget ran out),
    and "non-finite" (a system or step that is not finite ended the solve).
    """

    newton_systems: int = 0
    surrogate_gap: float = math.inf
    primal_residual: float = math.inf
    dual_residual: float = math.inf
    min_step: float = 1.0
    fallbacks: list[str] = field(default_factory=list)


@dataclass
class SubproblemSolution:
    alpha: np.ndarray
    mu: np.ndarray
    dual_objective: float
    diagnostics: SolveDiagnostics


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
    # |primal - dual| / max(1, |primal|), at most _CERTIFIED_GAP on every
    # record `train` returns, and the diagnostics of the iteration's
    # subproblem solve (None on the last iteration, which solves none)
    relative_gap: float
    subproblem: SolveDiagnostics | None


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


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest a with v + a dv >= 0 (inf when no entry of dv is negative)."""
    neg = dv < 0
    return float((v[neg] / -dv[neg]).min()) if neg.any() else math.inf


def _primal_dual(
    G: np.ndarray,
    Qpin: np.ndarray,
    q: np.ndarray,
    C: float,
    free_mass: float,
) -> tuple[np.ndarray, np.ndarray, SolveDiagnostics]:
    """Primal-dual interior-point solve of the epigraph form of the subproblem.

    Minimizes -q.a + 1/2 a'Qpin a + (free_mass/2) t subject to a >= 0,
    sum(a) <= C and t - a'Q_j a >= 0 for every free group j, the Q_j stacked
    in the (mf, s, s) tensor G.  With mf = 0 there is no t: it is the QP
    max q.a - 1/2 a'Qpin a over {a >= 0, sum(a) <= C}.  Returns alpha, the
    multipliers of the group rows and the diagnostics.

    The positive variables x = (a, w_s, w_g) are alpha and explicit slacks
    of the sum and group rows, whose primal residuals are
    r_s = C - sum(a) - w_s and r_g = t - a'Q_j a - w_g; z = (z_a, z_s, z_g)
    are their multipliers.  A start needs only x > 0 and z > 0; every solve
    starts cold, at a = C / (2s), so its result depends on its input alone.
    With w, z_a and z_s eliminated, each step solves one symmetric system in
    (da, dt, dz_g):

        [ H + diag(z_a/a) + (z_s/w_s) 11'    0    2 Qa'           ]
        [ 0                                  0   -1'              ]
        [ 2 Qa                              -1   -diag(w_g / z_g) ]

    with H = Qpin + 2 sum_j z_j Q_j and Qa = G @ a.  The group multipliers
    stay in the system: eliminating them too would add
    4 Qa' diag(z_g/w_g) Qa, whose huge entries on tied groups cancel against
    the t border and leave a dual residual of 1e-9 to 1e-8.  The system is
    solved once for Mehrotra's predictor (the affine direction) and once for
    the corrector, centred at sigma mu with sigma = (mu_aff / mu)^3 and
    carrying the predictor's second-order term (Mehrotra 1992; Boyd &
    Vandenberghe 2004, 11.7); the centring target never drops below a tenth
    of the stopping gap, so complementarity does not collapse ahead of the
    residuals.  One step length, 0.995 of the way to the nearest bound of x
    or z, moves every variable.

    The solve stops when the surrogate gap x.z and the dual residual, in
    units of max(1, |objective|), and every primal row relative to the size
    of its own terms are at most `_TOL`.  The dual residual counts
    C * max|r_a|: the most it can move the objective over
    {a >= 0, sum(a) <= C}, and what the trainer's primal value sees.  Once
    the gap is there, three steps without a better point end the solve on
    the rounding floor ("floor"); the best point seen is returned.  A
    singular system is solved by least squares; a non-finite one ends the
    solve.
    """
    s, mf = q.size, len(G)
    n = s + 1 + mf  # complementarity pairs
    half_mass = free_mass / 2.0
    info = SolveDiagnostics()

    alpha = np.full(s, C / (2.0 * s))
    gam = (G @ alpha) @ alpha
    t = float(gam.max()) if mf else 0.0
    # every pair starts at one complementarity product mu0, the size of the
    # objective's terms per pair; the group multipliers split M/2 evenly
    mu0 = (abs(float(q @ alpha)) + float(alpha @ Qpin @ alpha) + free_mass * t) / n or 1.0
    z_g = np.full(mf, half_mass / max(mf, 1))
    x = np.concatenate([alpha, [C - alpha.sum()], np.maximum(t - gam, mu0 / z_g)])
    z = mu0 / x
    z[s + 1 :] = z_g

    best = None  # (score, x, z, measures) of the best point seen
    stalls = 0
    while True:
        alpha, z_a, z_s, z_g = x[:s], z[:s], z[s], z[s + 1 :]
        Qa = G @ alpha
        gam = Qa @ alpha
        Pa = Qpin @ alpha
        r_a = Pa - q - z_a + z_s + 2.0 * (z_g @ Qa)  # stationarity in alpha
        r_t = half_mass - z_g.sum()  # stationarity in t
        r_p = np.append(C - alpha.sum(), t - gam) - x[s:]  # (r_s, r_g)
        comp = float(x @ z)

        scale = max(1.0, abs(-float(q @ alpha) + 0.5 * float(alpha @ Pa) + half_mass * t))
        # each primal row against the largest of its own terms
        terms = np.maximum.reduce(
            [np.append(C, np.full(mf, abs(t))), np.append(alpha.sum(), gam), x[s:]]
        )
        measures = (
            comp / scale,
            float((np.abs(r_p) / terms).max()),
            max(C * float(np.abs(r_a).max()) / scale, abs(r_t) / half_mass if mf else 0.0),
        )
        info.surrogate_gap, info.primal_residual, info.dual_residual = measures
        score = max(measures)
        if score <= _TOL:
            break
        if best is None or score < best[0]:
            best = (score, x, z, measures)
            stalls = 0
        elif info.surrogate_gap <= _TOL:
            stalls += 1
            if stalls == _STALLS:
                info.fallbacks.append("floor")
                break
        if info.newton_systems == _MAX_NEWTON:
            info.fallbacks.append("max-newton")
            break

        info.newton_systems += 1
        d = z / x
        K = np.zeros((s + 1 + mf, s + 1 + mf)) if mf else np.empty((s, s))
        # the scalar broadcast adds the rank-one (z_s/w_s) 11' sum-row block
        K[:s, :s] = Qpin + np.diag(d[:s]) + d[s]
        if mf:
            K[:s, :s] += 2.0 * np.tensordot(z_g, G, 1)
            K[:s, s + 1 :] = 2.0 * Qa.T
            K[s + 1 :, :s] = 2.0 * Qa
            K[s, s + 1 :] = K[s + 1 :, s] = -1.0
            K[s + 1 :, s + 1 :] = -np.diag(1.0 / d[s + 1 :])

        def direction(rc):
            """(dx, dz, dt) of the Newton system whose linearised
            complementarity z * dx + x * dz is rc; None if it has none."""
            e = rc / x
            rhs = e[:s] - r_a - (e[s] - d[s] * r_p[0])
            if mf:
                rhs = np.concatenate([rhs, [-r_t], r_p[1:] - rc[s + 1 :] / z_g])
            step = _solve_newton(K, rhs, info)
            if step is None:
                return None
            da = step[:s]
            dt = float(step[s]) if mf else 0.0
            dx = np.concatenate([da, [r_p[0] - da.sum()], r_p[1:] + dt - 2.0 * (Qa @ da)])
            dz = e - d * dx
            dz[s + 1 :] = step[s + 1 :]
            return dx, dz, dt

        predictor = direction(-x * z)
        if predictor is None:
            break
        dx, dz, _ = predictor
        step = min(1.0, _max_step(np.append(x, z), np.append(dx, dz)))
        sigma = (float((x + step * dx) @ (z + step * dz)) / comp) ** 3
        target = max(sigma * comp, _MU_FLOOR * _TOL * scale) / n
        corrector = direction(target - x * z - dx * dz)
        if corrector is None:
            break
        dx, dz, dt = corrector
        step = min(1.0, _TO_BOUNDARY * _max_step(np.append(x, z), np.append(dx, dz)))
        info.min_step = min(info.min_step, step)
        x = x + step * dx
        z = z + step * dz
        t += step * dt

    if best is not None and best[0] < score:
        _, x, z, measures = best
        info.surrogate_gap, info.primal_residual, info.dual_residual = measures
    return x[:s].copy(), z[s + 1 :], info


def _solve_newton(K: np.ndarray, rhs: np.ndarray, info: SolveDiagnostics) -> np.ndarray | None:
    """K^-1 rhs, by least squares when K is singular; None, recorded as the
    "non-finite" fallback, when the system or its solution is not finite."""
    step = None
    if np.isfinite(K).all() and np.isfinite(rhs).all():
        try:
            step = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            info.fallbacks.append("lstsq")
            with contextlib.suppress(np.linalg.LinAlgError):
                step = np.linalg.lstsq(K, rhs, rcond=None)[0]
    if step is None or not np.isfinite(step).all():
        info.fallbacks.append("non-finite")
        return None
    return step


def solve_qp(q: np.ndarray, H: np.ndarray, cap: float) -> np.ndarray:
    """Maximize q.a - 1/2 a'Ha over {a >= 0, sum(a) <= cap}: the
    primal-dual solve with no group row."""
    s = q.size
    if s == 0:
        return np.zeros(0)
    return _primal_dual(np.zeros((0, s, s)), H, q, cap, 0.0)[0]


def solve_subproblem(
    grams: Sequence[np.ndarray],
    q: np.ndarray,
    C: float,
    *,
    pinned: np.ndarray | None = None,
) -> SubproblemSolution:
    """Solve the restricted saddle problem over the collected rows.

    `pinned` holds fixed mu entries (NaN where the group weight is free).
    One primal-dual interior-point solve (`_primal_dual`) of the epigraph
    form gives alpha and, as twice the multipliers of the group rows
    rescaled to the free mass, the free mu; with no free group (or no free
    mass) it is the same solve of the QP in alpha.  Returned alpha and mu
    are exactly feasible; a non-finite alpha, mu or Newton system raises
    RuntimeError.
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
    G_free = G[free] if free_mass > 0.0 else G[:0]
    alpha, z_groups, info = _primal_dual(G_free, Qpin, q, C, free_mass)
    if "non-finite" in info.fallbacks:
        raise RuntimeError("non-finite Newton system in the subproblem")
    if not (np.isfinite(alpha).all() and np.isfinite(z_groups).all()):
        raise RuntimeError("non-finite alpha or multipliers from the subproblem")
    if len(G_free):
        mu_free = 2.0 * z_groups
        mu_free *= free_mass / mu_free.sum()
        mu[free] = mu_free

    # exact feasibility cleanup
    if alpha.sum() > C:
        alpha *= C / alpha.sum()
    mu = np.maximum(mu, 0.0)

    dual = _dual_value(G, q, alpha, pinned_part, free, free_mass)
    return SubproblemSolution(alpha, mu, dual, info)


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
    """q^r + <w, p^r> under the concatenated `weights`, as `RowStore.values` reads it."""
    one = np.zeros(row.indices.size, dtype=np.int64)
    return float(_values(np.array([row.q]), row.indices, row.counts, one, row.n, weights)[0])


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


def primal_objective(
    weights: np.ndarray, store: RowStore, r_s: float, C: float, pinned: np.ndarray | None = None
) -> float:
    """1/2 (sum_j ||w_j||)^2 + C * max(0, r_s) when every group is free,
    r_s the working set's value under `weights` (`working_set_value`).
    With `pinned` (positive mu per pinned group, NaN where free), the primal
    whose dual `solve_subproblem` maximizes: a pinned group costs
    ||w_j||^2 / (2 mu_j) and the free ones (sum ||w_j||)^2 / (2 M), M the
    free mass."""
    norms = [float(np.linalg.norm(w)) for w in store.split(weights)]
    fixed = np.zeros(len(norms), bool) if pinned is None else ~np.isnan(pinned)
    reg = sum(norm for norm, f in zip(norms, fixed) if not f)
    reg = 0.5 * reg * reg
    if fixed.any():
        free_mass = 1.0 - float(pinned[fixed].sum())
        reg = reg / free_mass if free_mass > 0.0 else 0.0
        reg += sum(0.5 * norms[j] ** 2 / pinned[j] for j in np.flatnonzero(fixed))
    return reg + C * max(0.0, r_s)


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
    The working set's value under the current weights is taken once per
    row added: it is that iteration's primal and the next one's r_s.
    Each `IterationRecord` carries the iteration's wall time and the time of
    its decode, row, Gram, subproblem and recovery phases, the diagnostics
    of its subproblem solve and its relative primal-dual gap; a gap above
    1e-6 raises RuntimeError, so no run whose arithmetic lost precision (a
    huge C, say) is reported as converged.  After the loop, the result's
    `mu` and `weights` drop the groups the last certificate allows
    (`_drop_groups`); the records keep the loop's values.
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
    value = 0.0  # working_set_value(store, flat); 0 for the empty set
    trace: list[IterationRecord] = []
    converged = False
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
            r_s = value
            gap = r_emp - r_s
            gram_s = subproblem_s = recover_s = 0.0
            diagnostics = None

            converged = gap < config.epsilon
            if not converged:
                t0 = clock()
                store.add(row)
                t1 = clock()
                solution = solve_subproblem(store.gram, store.q, config.C, pinned=pinned)
                t2 = clock()
                alpha, mu, dual = solution.alpha, solution.mu, solution.dual_objective
                diagnostics = solution.diagnostics
                flat = recover_primal(store, alpha, mu)
                t3 = clock()
                gram_s, subproblem_s, recover_s = t1 - t0, t2 - t1, t3 - t2
                if not np.all(np.isfinite(flat)):
                    raise RuntimeError("non-finite weights from primal recovery")
                weights = store.split(flat)
                value = working_set_value(store, flat)

            primal = primal_objective(flat, store, value, config.C, pinned)
            relative_gap = abs(primal - dual) / max(1.0, abs(primal))
            record = IterationRecord(
                iteration, r_emp, r_s, gap, dual, primal, len(store.rows), mu.copy(),
                wall_s=clock() - start, decode_s=decoded - start, row_s=built - decoded,
                gram_s=gram_s, subproblem_s=subproblem_s, recover_s=recover_s,
                relative_gap=relative_gap, subproblem=diagnostics,
            )
            trace.append(record)
            if log:
                log(_format_record(record, ids))
            if not relative_gap <= _CERTIFIED_GAP:
                raise RuntimeError(
                    f"iteration {iteration}: relative primal-dual gap {relative_gap:.3e} "
                    f"exceeds {_CERTIFIED_GAP:g} at C={config.C:g}"
                )
            if converged:
                break

    halt = "converged" if converged else "max-iterations"
    mu, flat = _drop_groups(store, flat, mu, pinned, dual, config.C)
    return TrainResult(store.split(flat), mu, alpha, store.rows, trace, halt)


def _drop_groups(
    store: RowStore, flat: np.ndarray, mu: np.ndarray, pinned: np.ndarray, dual: float, C: float
) -> tuple[np.ndarray, np.ndarray]:
    """mu and the concatenated weights with the groups the certificate
    allows set to zero.

    Candidates are the free groups (NaN in `pinned`) in ascending mu; the
    prefix whose summed mu stays within `MU_SUM_TOL`, and whose removal
    leaves mu summing to 1 within it, is tried first.  A prefix holds when
    the primal of its zeroed weights, the working set's value taken again,
    is within `_CERTIFIED_GAP` of `dual`, relative; if not, a bisection over
    the shorter prefixes, one store pass per step, ends on one that holds
    (not always the longest that does) or on none.  With no prefix to drop,
    `mu` and `flat` come back as they are.
    """
    free = np.flatnonzero(np.isnan(pinned))
    order = free[np.argsort(mu[free], kind="stable")]
    cut = int(np.searchsorted(np.cumsum(mu[order]), MU_SUM_TOL, side="right"))

    def dropped(k: int) -> tuple[np.ndarray, np.ndarray]:
        kept_mu, kept = mu.copy(), flat.copy()
        kept_mu[order[:k]] = 0.0
        for j in order[:k].tolist():
            kept[store.offsets[j] : store.offsets[j + 1]] = 0.0
        return kept_mu, kept

    def certified(k: int) -> bool:
        kept_mu, kept = dropped(k)
        if abs(kept_mu.sum() - 1.0) > MU_SUM_TOL:
            return False
        primal = primal_objective(kept, store, working_set_value(store, kept), C, pinned)
        return abs(primal - dual) / max(1.0, abs(primal)) <= _CERTIFIED_GAP

    good, bad = 0, cut + 1  # no group dropped is the loop's own certified record
    k = cut
    while k > good:
        if certified(k):
            good = k
        else:
            bad = k
        k = (good + bad) // 2
    return dropped(good) if good else (mu, flat)
