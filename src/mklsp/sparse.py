"""Sparse vectors partitioned into per-template feature groups."""

from __future__ import annotations

import numpy as np


class SparseVector:
    """Immutable-by-convention sparse vector with strictly increasing indices."""

    __slots__ = ("indices", "values")

    def __init__(self, indices: np.ndarray, values: np.ndarray):
        self.indices = indices
        self.values = values

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def dot_dense(self, w: np.ndarray) -> float:
        if self.indices.size == 0:
            return 0.0
        return float(np.dot(w[self.indices], self.values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"SparseVector(nnz={self.nnz})"


def sparse_dot(a: SparseVector, b: SparseVector) -> float:
    """Inner product of two sorted-index sparse vectors."""
    if a.indices.size == 0 or b.indices.size == 0:
        return 0.0
    if a.indices.size > b.indices.size:
        a, b = b, a
    ia, ib = a.indices, b.indices
    pos = np.searchsorted(ib, ia)
    clipped = np.minimum(pos, ib.size - 1)
    hit = (pos < ib.size) & (ib[clipped] == ia)
    if not hit.any():
        return 0.0
    return float(np.dot(a.values[hit], b.values[clipped[hit]]))


class GroupedSparseVector:
    """A sparse vector split into feature groups (transition group last, if any).

    The full vector is the concatenation of the groups; keeping the groups
    separate lets inner products decompose per group, which the solver needs
    for its per-group Gram matrices.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: list[SparseVector]):
        self.groups = groups

    def dot_dense(self, weights: list[np.ndarray]) -> float:
        return sum(g.dot_dense(w) for g, w in zip(self.groups, weights, strict=True))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupedSparseVector)
            and len(self.groups) == len(other.groups)
            and all(a == b for a, b in zip(self.groups, other.groups))
        )

    def __repr__(self) -> str:
        return f"GroupedSparseVector({[g.nnz for g in self.groups]})"
