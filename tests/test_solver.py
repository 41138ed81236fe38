"""Projection, QP, saddle subproblem, constraint rows, and the cutting-plane
trainer on corpora small enough to reason about."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mklsp import solver
from mklsp.corpus import LabelTable, SequenceInstance
from mklsp.dependency import DependencyTask, default_edge_templates, parse_edge_templates
from mklsp.sequence import SequenceTask
from mklsp.solver import (
    ConstraintRow,
    SolverConfig,
    build_constraint_row,
    parallel_decode,
    primal_objective,
    project_capped_simplex,
    recover_primal,
    row_value,
    rows_equal,
    solve_qp,
    solve_subproblem,
    train,
    working_set_value,
)
from mklsp.synthetic import (
    SEQ_TEMPLATES,
    dependency_text,
    load_dependency,
    load_sequence,
    sequence_text,
)
from mklsp.templates import parse_templates

from _oracles import (
    active_set_qp,
    grouped_vector,
    qcqp_oracle,
    reference_barrier_qcqp,
    reference_constraint_row,
)


def random_psd(rng, s, scale=1.0):
    A = rng.uniform(-1.0, 1.0, size=(s, s))
    return scale * (A @ A.T) + 1e-3 * np.eye(s)


# ---------------------------------------------------------------- projection


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    st.floats(0.1, 10),
)
def test_projection_is_feasible(xs, cap):
    x = np.array(xs)
    p = project_capped_simplex(x, cap)
    assert p.min() >= 0.0
    assert p.sum() <= cap * (1 + 1e-9)


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6),
    st.floats(0.1, 10),
    st.data(),
)
def test_projection_is_closest_feasible_point(xs, cap, data):
    x = np.array(xs)
    p = project_capped_simplex(x, cap)
    raw = np.array(
        [data.draw(st.floats(0, 1)) for _ in xs]
    )
    total = raw.sum()
    other = raw * (cap / total) if total > cap else raw
    assert np.linalg.norm(x - p) <= np.linalg.norm(x - other) + 1e-9


def test_projection_passes_through_interior_points():
    x = np.array([0.25, -1.0, 0.5])
    p = project_capped_simplex(x, 10.0)
    assert np.allclose(p, [0.25, 0.0, 0.5])


# ---------------------------------------------------------------- qp


def test_solve_qp_matches_face_enumeration():
    rng = np.random.default_rng(31)
    for trial in range(60):
        s = int(rng.integers(1, 6))
        H = random_psd(rng, s)
        q = rng.uniform(-1.0, 1.5, size=s)
        C = [0.5, 1.0, 10.0][trial % 3]
        a = solve_qp(q, H, C)
        assert a.min() >= -1e-12 and a.sum() <= C * (1 + 1e-9)
        got = float(q @ a - 0.5 * a @ H @ a)
        want, _ = active_set_qp(q, H, C)
        assert got == pytest.approx(want, abs=1e-7, rel=1e-7)


def test_solve_qp_degenerate_hessian():
    # rank-deficient H pushes mass to the cap along the best direction
    H = np.zeros((2, 2))
    a = solve_qp(np.array([1.0, 2.0]), H, 3.0)
    assert float(a.sum()) == pytest.approx(3.0)
    assert float(a @ np.array([1.0, 2.0])) == pytest.approx(6.0)
    assert solve_qp(np.array([-1.0]), np.zeros((1, 1)), 1.0) == pytest.approx(0.0)


# ---------------------------------------------------------------- subproblem


def test_subproblem_single_row_closed_form():
    for qv, c, C in [(2.0, 4.0, 10.0), (2.0, 0.25, 1.0), (-1.0, 1.0, 1.0), (3.0, 1e-9, 0.5)]:
        sol = solve_subproblem([np.array([[c]])], np.array([qv]), C)
        want_alpha = min(C, qv / c) if qv > 0 and c > 0 else (C if qv > 0 else 0.0)
        assert sol.alpha[0] == pytest.approx(want_alpha, abs=1e-6)
        assert sol.mu[0] == pytest.approx(1.0)
        want = qv * want_alpha - 0.5 * c * want_alpha**2
        assert sol.dual_objective == pytest.approx(want, abs=1e-7)


def test_subproblem_identical_groups_share_mu():
    rng = np.random.default_rng(32)
    Q = random_psd(rng, 3)
    q = rng.uniform(0.0, 1.5, size=3)
    sol = solve_subproblem([Q, Q, Q], q, 1.0)
    assert np.allclose(sol.mu, 1 / 3, atol=1e-6)
    assert sol.mu.sum() == pytest.approx(1.0, abs=1e-9)


def test_subproblem_matches_saddle_oracle():
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(25):
        s = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        grams = [random_psd(rng, s, scale=float(rng.uniform(0.2, 2.0))) for _ in range(m)]
        q = rng.uniform(-0.5, 1.5, size=s)
        C = [0.5, 1.0, 10.0][trial % 3]
        sol = solve_subproblem(grams, q, C)
        want = qcqp_oracle(grams, q, C)
        worst = max(worst, abs(sol.dual_objective - want))
        assert sol.dual_objective == pytest.approx(want, abs=1e-4)
        # feasibility is exact, not approximate
        assert sol.alpha.min() >= 0.0 and sol.alpha.sum() <= C * (1 + 1e-10)
        assert sol.mu.min() >= 0.0 and sol.mu.sum() <= 1.0 + 1e-10
    assert worst < 1e-4


def test_subproblem_all_pinned_reduces_to_qp():
    rng = np.random.default_rng(34)
    grams = [random_psd(rng, 3) for _ in range(2)]
    q = rng.uniform(0.0, 1.5, size=3)
    pinned = np.array([0.5, 0.5])
    sol = solve_subproblem(grams, q, 1.0, pinned=pinned)
    assert np.allclose(sol.mu, [0.5, 0.5])
    H = 0.5 * grams[0] + 0.5 * grams[1]
    want, _ = active_set_qp(q, H, 1.0)
    assert sol.dual_objective == pytest.approx(want, abs=1e-7)


def test_subproblem_partial_pinning_keeps_pinned_mass():
    rng = np.random.default_rng(35)
    grams = [random_psd(rng, 2) for _ in range(3)]
    q = rng.uniform(0.0, 1.0, size=2)
    pinned = np.array([1 / 3, np.nan, np.nan])
    sol = solve_subproblem(grams, q, 1.0, pinned=pinned)
    assert sol.mu[0] == pytest.approx(1 / 3)
    assert sol.mu[1:].sum() == pytest.approx(2 / 3, abs=1e-9)


def test_subproblem_input_validation():
    with pytest.raises(ValueError, match="groups"):
        solve_subproblem([], np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match="working set"):
        solve_subproblem([np.zeros((0, 0))], np.zeros(0), 1.0)
    with pytest.raises(ValueError, match="simplex"):
        solve_subproblem(
            [np.eye(1), np.eye(1)], np.array([1.0]), 1.0, pinned=np.array([0.8, 0.8])
        )


@pytest.mark.parametrize("bad", ["alpha", "multipliers"])
def test_subproblem_rejects_non_finite_barrier_output(monkeypatch, bad):
    def broken(grams_free, Qpin, q, C, free_mass, alpha0):
        alpha = np.full(q.size, np.nan if bad == "alpha" else C / (2 * q.size))
        lambdas = np.full(len(grams_free), np.nan if bad == "multipliers" else 0.25)
        return alpha, lambdas

    monkeypatch.setattr(solver, "_barrier_qcqp", broken)
    with pytest.raises(RuntimeError, match="non-finite"):
        solve_subproblem([np.eye(2), 2.0 * np.eye(2)], np.array([1.0, 0.5]), 1.0)


def test_subproblem_rejects_non_finite_qp_output(monkeypatch):
    monkeypatch.setattr(solver, "solve_qp", lambda q, H, cap, x0=None: np.full(q.size, np.nan))
    with pytest.raises(RuntimeError, match="non-finite"):
        solve_subproblem(
            [np.eye(2), 2.0 * np.eye(2)], np.array([1.0, 0.5]), 1.0, pinned=np.array([0.5, 0.5])
        )


def barrier_problem(seed, s, mf, pinned, warm):
    """Barrier input shaped like the trainer's: an (mf, s, s) tensor of Gram
    matrices of s rows over 1..s features with entries of order 1, C <= 1,
    and a warm start whose last (newest) row is 0."""
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(mf + pinned):
        d = int(rng.integers(1, s + 1))
        P = rng.uniform(-1.0, 1.0, size=(s, d))
        grams.append(P @ P.T / d)
    Qpin = float(rng.uniform(0.1, 0.5)) * grams.pop() if pinned else np.zeros((s, s))
    grams = np.stack(grams)
    q = rng.uniform(0.0, 1.0, size=s)
    C = float(rng.uniform(0.1, 1.0))
    free_mass = float(rng.uniform(0.2, 0.9)) if pinned else 1.0
    alpha0 = None
    if warm:
        alpha0 = rng.uniform(0.0, 1.0, size=s) * C / s
        alpha0[-1] = 0.0
    return grams, Qpin, q, C, free_mass, alpha0


def epigraph_dual(grams, Qpin, q, free_mass, alpha):
    worst = max(float(alpha @ Q @ alpha) for Q in grams)
    return float(q @ alpha) - 0.5 * (float(alpha @ Qpin @ alpha) + free_mass * worst)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.booleans(),
)
def test_barrier_matches_per_group_reference(s, mf, seed, pinned, warm):
    problem = barrier_problem(seed, s, mf, pinned, warm)
    grams, Qpin, q, C, free_mass, _ = problem
    alpha, lambdas = solver._barrier_qcqp(*problem)
    ref_alpha, ref_lambdas = reference_barrier_qcqp(*problem)
    assert alpha.shape == ref_alpha.shape == (s,)
    assert lambdas.shape == ref_lambdas.shape == (mf,)
    assert epigraph_dual(grams, Qpin, q, free_mass, alpha) == pytest.approx(
        epigraph_dual(grams, Qpin, q, free_mass, ref_alpha), rel=1e-9
    )
    # The reference's final centering can stall: near the end its Armijo
    # test compares barrier values of about 1e9 whose rounding exceeds the
    # predicted decrease, so a few draws in a thousand end off the central
    # path by up to ~5e-5 in mu.  The damped Newton step has no such search.
    # A wrong Newton system is off by 1e-2 and more.
    mu = lambdas / lambdas.sum()
    ref_mu = ref_lambdas / ref_lambdas.sum()
    assert np.abs(mu - ref_mu).max() <= 1e-4


# ---------------------------------------------------------------- rows


def toy_task():
    specs = parse_templates("U00:%x[0,0]\nB\n")
    table = LabelTable()
    corpus = [
        SequenceInstance([("a",), ("b",)], [table.intern("0"), table.intern("1")]),
        SequenceInstance([("b",), ("a",)], [table.intern("1"), table.intern("0")]),
    ]
    table.freeze()
    task = SequenceTask.build(specs, corpus, table)
    return task, [task.compile(inst) for inst in corpus]


def test_constraint_row_of_gold_outputs_is_zero():
    task, insts = toy_task()
    row = build_constraint_row(task, insts, [[0, 1], [1, 0]])
    assert row.q == 0.0
    assert all(g.nnz == 0 for g in row.p.groups)
    assert row_value(row, [np.zeros(d) for d in task.group_dims]) == 0.0


def test_constraint_row_averages_losses():
    task, insts = toy_task()
    row = build_constraint_row(task, insts[:1], [[1, 1]])
    assert row.q == 1.0  # one flipped position in one sentence
    row = build_constraint_row(task, insts, [[1, 0], [0, 1]])
    assert row.q == 2.0  # both sentences fully wrong: (2 + 2) / 2
    row = build_constraint_row(task, insts, [[0, 1], [0, 0]])
    assert row.q == 0.5  # losses 0 and 1 averaged


def test_constraint_row_feature_part_is_average_gap():
    task, insts = toy_task()
    out = [[1, 1], [1, 0]]
    row = build_constraint_row(task, insts, out)
    rng = np.random.default_rng(36)
    w = [rng.uniform(-1, 1, size=d) for d in task.group_dims]
    manual = 0.0
    for inst, y in zip(insts, out):
        decoded = sum(wj[ids].sum() for wj, ids in zip(w, task.joint_feature_map(inst, y)))
        gold_ids = task.joint_feature_map(inst, task.gold_output(inst))
        gold = sum(wj[ids].sum() for wj, ids in zip(w, gold_ids))
        manual += (decoded - gold) / len(insts)
    assert row.p.dot_dense(w) == pytest.approx(manual, abs=1e-12)


def row_task(kind):
    """A small compiled corpus: a tagger with or without transitions, a
    tagger on sentences of 1 to 5 tokens, or a parser."""
    if kind == "dep":
        instances = load_dependency(dependency_text(5, seed=3))
        specs = parse_edge_templates(
            "P00:head.CPOSTAG/mod.CPOSTAG\nP01:head.FORM\nP02:head.CPOSTAG/between.CPOSTAG\n"
        )
        task = DependencyTask.build(specs, instances, decoder="nonprojective")
    else:
        if kind == "seq-mixed":
            corpus = sequence_text(10, seed=4, min_len=1, max_len=5)
        else:
            corpus = sequence_text(6, seed=3)
        instances, table = load_sequence(corpus)
        text = SEQ_TEMPLATES.replace("\nB\n", "\n") if kind == "seq-no-B" else SEQ_TEMPLATES
        task = SequenceTask.build(parse_templates(text), instances, table)
    return task, [task.compile(i) for i in instances]


ROW_TASKS = {kind: row_task(kind) for kind in ("seq", "seq-no-B", "seq-mixed", "dep")}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(ROW_TASKS)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=3.0),
    st.booleans(),
)
def test_constraint_row_matches_dict_reference(kind, seed, scale, augmented):
    task, insts = ROW_TASKS[kind]
    assert ("B" in task.group_ids) == (kind in ("seq", "seq-mixed"))
    rng = np.random.default_rng(seed)
    w = [rng.uniform(-scale, scale, size=d) for d in task.group_dims]
    outputs = parallel_decode(task, w, insts, jobs=1, augmented=augmented)
    row = build_constraint_row(task, insts, outputs)
    want = reference_constraint_row(task, insts, outputs)
    assert row.q == want.q
    assert len(row.p.groups) == len(want.p.groups) == len(task.group_ids)
    for got, ref in zip(row.p.groups, want.p.groups):
        assert got.indices.dtype == ref.indices.dtype == np.int64
        assert got.values.dtype == ref.values.dtype == np.float64
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.values, ref.values)


def test_constraint_row_matches_reference_on_any_outputs():
    # arbitrary outputs, not only decoded ones, on corpora of mixed lengths
    _, mixed = ROW_TASKS["seq-mixed"]
    assert min(inst.length for inst in mixed) == 1
    assert len({inst.length for inst in mixed}) > 2
    rng = np.random.default_rng(38)
    for kind, (task, insts) in sorted(ROW_TASKS.items()):
        for _ in range(5):
            if kind == "dep":
                outputs = [rng.integers(0, inst.n + 1, size=inst.n).tolist() for inst in insts]
            else:
                outputs = [rng.integers(0, task.k, size=inst.length).tolist() for inst in insts]
            row = build_constraint_row(task, insts, outputs)
            want = reference_constraint_row(task, insts, outputs)
            assert row.q == want.q
            for got, ref in zip(row.p.groups, want.p.groups, strict=True):
                assert np.array_equal(got.indices, ref.indices)
                assert np.array_equal(got.values, ref.values)
        with pytest.raises(ValueError):
            build_constraint_row(task, insts, outputs[:-1])
        with pytest.raises(ValueError, match="length|size"):
            build_constraint_row(task, insts, [out + [0] for out in outputs])


def test_rows_equal_is_exact():
    task, insts = toy_task()
    a = build_constraint_row(task, insts, [[1, 1], [1, 0]])
    b = build_constraint_row(task, insts, [[1, 1], [1, 0]])
    c = build_constraint_row(task, insts, [[1, 1], [0, 0]])
    assert rows_equal(a, b)
    assert not rows_equal(a, c)


def test_working_set_value_empty_is_zero():
    assert working_set_value([], [np.zeros(3)]) == 0.0


# ---------------------------------------------------------------- primal


def test_recover_primal_shapes_and_scaling():
    p1 = grouped_vector([{0: 1.0, 2: -2.0}, {1: 3.0}])
    p2 = grouped_vector([{0: -1.0}, {}])
    rows = [ConstraintRow(p1, 1.0), ConstraintRow(p2, 0.5)]
    dims = [3, 2]

    w = recover_primal(rows, np.zeros(2), np.array([0.5, 0.5]), dims)
    assert all(np.all(wj == 0) for wj in w)

    alpha = np.array([2.0, 1.0])
    w = recover_primal(rows, alpha, np.array([0.0, 1.0]), dims)
    assert np.all(w[0] == 0)  # mu zero silences the group
    assert np.allclose(w[1], [0.0, -6.0])

    mu = np.array([0.25, 0.75])
    w = recover_primal(rows, alpha, mu, dims)
    # ||w_j|| = mu_j * ||sum_r alpha_r p_j^r||
    stack = np.array([2.0 * 1.0 + 1.0 * -1.0, 0.0, 2.0 * -2.0])
    assert np.allclose(w[0], -0.25 * stack)


def test_primal_objective_formula():
    task, insts = toy_task()
    rows = [build_constraint_row(task, insts, [[1, 1], [1, 0]])]
    w = [np.full(d, 0.1) for d in task.group_dims]
    reg = sum(np.linalg.norm(wj) for wj in w)
    want = 0.5 * reg**2 + 2.0 * max(0.0, row_value(rows[0], w))
    assert primal_objective(w, rows, 2.0) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- gap


def empirical_and_working_set_risk(task, weights, instances, rows):
    """(R_emp, R_s) at `weights`: one oracle pass + the working-set max."""
    outputs = parallel_decode(task, weights, instances, jobs=1, augmented=True)
    row = build_constraint_row(task, instances, outputs)
    return row_value(row, weights), working_set_value(rows, weights)


def test_compute_gap_at_zero_weights_is_average_max_loss():
    task, insts = toy_task()
    w = [np.zeros(d) for d in task.group_dims]
    r_emp, r_s = empirical_and_working_set_risk(task, w, insts, [])
    assert r_emp == pytest.approx(2.0)  # every position can be flipped
    assert r_s == 0.0


def test_compute_gap_closes_after_adding_the_row():
    task, insts = toy_task()
    w = [np.zeros(d) for d in task.group_dims]
    outputs = parallel_decode(task, w, insts, jobs=1, augmented=True)
    row = build_constraint_row(task, insts, outputs)
    r_emp, r_s = empirical_and_working_set_risk(task, w, insts, [row])
    assert r_emp == pytest.approx(r_s)


# ---------------------------------------------------------------- training


def test_config_validation():
    with pytest.raises(ValueError, match="C"):
        SolverConfig(C=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig(C=1.0, epsilon=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="C"):
            SolverConfig(C=bad)
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(C=1.0, epsilon=bad)
    with pytest.raises(ValueError, match="max_iterations"):
        SolverConfig(C=1.0, max_iterations=0)
    with pytest.raises(ValueError, match="mode"):
        SolverConfig(C=1.0, mode="ridge")


def test_train_single_label_converges_immediately():
    specs = parse_templates("U00:%x[0,0]\n")
    table = LabelTable()
    corpus = [SequenceInstance([("a",), ("b",)], [table.intern("X")] * 2)]
    table.freeze()
    task = SequenceTask.build(specs, corpus, table)
    out = train(task, [task.compile(c) for c in corpus], SolverConfig(C=1.0, epsilon=0.01))
    assert out.halt_reason == "converged"
    assert out.n_iterations == 1
    assert out.final_gap == 0.0
    assert all(np.all(w == 0) for w in out.weights)


def test_train_fits_a_separable_corpus():
    instances, table = load_sequence(sequence_text(15, seed=3))
    specs = parse_templates(SEQ_TEMPLATES)
    task = SequenceTask.build(specs, instances, table)
    compiled = [task.compile(i) for i in instances]
    out = train(task, compiled, SolverConfig(C=10.0, epsilon=0.05))
    assert out.halt_reason == "converged"
    correct = total = 0
    outputs, _ = task.decode_corpus(out.weights, compiled)
    for inst, labels in zip(compiled, outputs):
        gold = task.gold_output(inst)
        correct += sum(a == b for a, b in zip(labels, gold))
        total += len(gold)
    assert correct == total


def test_train_trace_invariants():
    instances, table = load_sequence(sequence_text(12, seed=4))
    specs = parse_templates(SEQ_TEMPLATES)
    task = SequenceTask.build(specs, instances, table)
    compiled = [task.compile(i) for i in instances]
    out = train(task, compiled, SolverConfig(C=1.0, epsilon=0.01))
    duals = [rec.dual_objective for rec in out.trace]
    for a, b in zip(duals, duals[1:]):
        assert b >= a - 1e-8  # adding rows never shrinks the restricted dual
    for rec in out.trace:
        assert rec.r_emp >= rec.r_s - 1e-9
        assert rec.primal_objective >= rec.dual_objective - 1e-6
        assert rec.mu.min() >= 0.0 and rec.mu.sum() <= 1.0 + 1e-9
    assert out.trace[-1].gap < 0.01


def test_train_uniform_mode_pins_every_group():
    instances, table = load_sequence(sequence_text(8, seed=5))
    specs = parse_templates(SEQ_TEMPLATES)
    task = SequenceTask.build(specs, instances, table)
    compiled = [task.compile(i) for i in instances]
    out = train(task, compiled, SolverConfig(C=1.0, epsilon=0.1, mode="uniform"))
    m = len(task.group_ids)
    for rec in out.trace:
        assert np.allclose(rec.mu, 1.0 / m)
    assert np.allclose(out.mu, 1.0 / m)


def test_train_fixed_groups_pin_named_groups_only():
    instances, table = load_sequence(sequence_text(8, seed=6))
    specs = parse_templates(SEQ_TEMPLATES)
    task = SequenceTask.build(specs, instances, table)
    compiled = [task.compile(i) for i in instances]
    m = len(task.group_ids)
    out = train(
        task, compiled, SolverConfig(C=1.0, epsilon=0.1, fixed_groups=("U00",))
    )
    j = task.group_ids.index("U00")
    assert out.mu[j] == pytest.approx(1.0 / m)
    with pytest.raises(ValueError, match="unknown fixed groups"):
        train(task, compiled, SolverConfig(C=1.0, fixed_groups=("U99",)))


def test_train_group_order_permutation_is_cosmetic():
    text = sequence_text(10, seed=8)
    instances, table = load_sequence(text)
    fwd = SequenceTask.build(parse_templates(SEQ_TEMPLATES), instances, table)
    lines = [l for l in SEQ_TEMPLATES.strip().splitlines()]
    swapped = "\n".join([lines[1], lines[0]] + lines[2:])
    rev = SequenceTask.build(parse_templates(swapped), instances, table)
    cfg = SolverConfig(C=1.0, epsilon=0.05)
    out_f = train(fwd, [fwd.compile(i) for i in instances], cfg)
    out_r = train(rev, [rev.compile(i) for i in instances], cfg)
    for g in fwd.group_ids:
        jf, jr = fwd.group_ids.index(g), rev.group_ids.index(g)
        assert out_f.mu[jf] == pytest.approx(out_r.mu[jr], abs=1e-9)
        assert np.allclose(out_f.weights[jf], out_r.weights[jr], atol=1e-9)
    a, _ = fwd.decode_corpus(out_f.weights, [fwd.compile(i) for i in instances[:4]])
    b, _ = rev.decode_corpus(out_r.weights, [rev.compile(i) for i in instances[:4]])
    assert a == b


def test_train_with_reference_barrier_takes_the_same_path(monkeypatch):
    instances = load_dependency(dependency_text(12, seed=21))
    specs = parse_edge_templates(default_edge_templates())
    task = DependencyTask.build(specs, instances, decoder="nonprojective")
    assert len(task.group_ids) == 20
    compiled = [task.compile(i) for i in instances]
    cfg = SolverConfig(C=1.0, epsilon=1e-3)
    fast = train(task, compiled, cfg)
    monkeypatch.setattr(solver, "_barrier_qcqp", reference_barrier_qcqp)
    ref = train(task, compiled, cfg)
    assert fast.n_iterations == ref.n_iterations
    assert fast.halt_reason == ref.halt_reason == "converged"
    assert np.abs(fast.mu - ref.mu).max() <= 1e-6


def test_barrier_ends_on_the_central_path(monkeypatch):
    # On the central path the t-component of the barrier gradient is zero,
    # tbar * free_mass / 2 = sum_j 1 / c_j, so 2 * sum(lambdas) = free_mass.
    instances = load_dependency(dependency_text(40, seed=5))
    specs = parse_edge_templates(default_edge_templates())
    task = DependencyTask.build(specs, instances, decoder="nonprojective")
    compiled = [task.compile(i) for i in instances]
    offsets = []
    barrier = solver._barrier_qcqp

    def recording(G, Qpin, q, C, free_mass, alpha0):
        alpha, lambdas = barrier(G, Qpin, q, C, free_mass, alpha0)
        offsets.append(abs(2.0 * lambdas.sum() - free_mass) / free_mass)
        return alpha, lambdas

    monkeypatch.setattr(solver, "_barrier_qcqp", recording)
    result = train(task, compiled, SolverConfig(C=1.0, epsilon=1e-3))
    assert result.halt_reason == "converged"
    assert len(offsets) == len(result.rows)
    assert max(offsets) <= 1e-5


def test_train_rejects_empty_corpus():
    task, _ = toy_task()
    with pytest.raises(ValueError, match="empty"):
        train(task, [], SolverConfig(C=1.0))


def test_parallel_decode_matches_serial():
    rng = np.random.default_rng(37)
    for kind, (task, compiled) in sorted(ROW_TASKS.items()):
        w = [rng.uniform(-0.5, 0.5, size=d) for d in task.group_dims]
        for augmented in (False, True):
            serial = parallel_decode(task, w, compiled, jobs=1, augmented=augmented)
            assert serial == task.decode_corpus(w, compiled, augmented)[0]
            forked = parallel_decode(task, w, compiled, jobs=3, augmented=augmented)
            assert serial == forked
            # more jobs than sentences
            few = parallel_decode(task, w, compiled[:2], jobs=3, augmented=augmented)
            assert few == serial[:2]
