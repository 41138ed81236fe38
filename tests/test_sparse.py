import numpy as np
import pytest
from hypothesis import given, strategies as st

from mklsp.sparse import SparseVector, sparse_dot

from _oracles import grouped_vector, sparse_vector

entries = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
    max_size=12,
)


def dense(d, size=41):
    v = np.zeros(size)
    for i, x in d.items():
        v[i] = x
    return v


def test_empty_vector():
    sv = SparseVector(np.empty(0, dtype=np.int64), np.empty(0))
    assert sv.nnz == 0
    assert sparse_dot(sv, sv) == 0.0
    assert sv.dot_dense(np.ones(3)) == 0.0


@given(entries, entries)
def test_sparse_dot_matches_dense(da, db):
    a = sparse_vector(da)
    b = sparse_vector(db)
    va = dense(da)
    vb = dense(db)
    assert sparse_dot(a, b) == pytest.approx(float(va @ vb), abs=1e-9)
    assert a.dot_dense(va) == pytest.approx(float(va @ va), abs=1e-9)


def test_equality_is_exact():
    a = sparse_vector({1: 2.0, 3: 4.0})
    b = sparse_vector({1: 2.0, 3: 4.0})
    c = sparse_vector({1: 2.0, 3: 4.0 + 1e-12})
    assert a == b
    assert a != c


@given(st.lists(entries, min_size=1, max_size=4), st.lists(entries, min_size=1, max_size=4))
def test_grouped_dot_decomposes(groups_a, groups_b):
    # the inner product of the concatenated vectors is the sum of the
    # per-group sparse_dot values the solver's Gram matrices hold
    m = min(len(groups_a), len(groups_b))
    ga = grouped_vector(groups_a[:m])
    gb = grouped_vector(groups_b[:m])
    total = float(
        np.concatenate([dense(d) for d in groups_a[:m]])
        @ np.concatenate([dense(d) for d in groups_b[:m]])
    )
    parts = sum(sparse_dot(ga.groups[j], gb.groups[j]) for j in range(m))
    assert parts == pytest.approx(total, rel=1e-12, abs=1e-9)


def test_grouped_dot_dense():
    g = grouped_vector([{0: 2.0}, {1: 3.0}])
    w = [np.array([10.0, 0.0]), np.array([0.0, 5.0, 0.0])]
    assert g.dot_dense(w) == pytest.approx(35.0)
