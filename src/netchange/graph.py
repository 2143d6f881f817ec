"""Adjacency snapshots and construction of the regularized representation matrix.

A dynamic network is a time sequence of symmetric, nonnegative, weighted
adjacency matrices over a fixed vertex set.  Each snapshot is preprocessed
(log transform, max scaling), regularized by a uniform additive term, and
degree-normalized to yield the representation matrix that downstream
spectral embedding consumes.  All functions here are pure.  A snapshot is
held as its nonzero upper triangle, so a sparse sequence costs memory in
proportion to its edges, not to T * n^2.  The stored arrays are read-only,
so snapshots can be shared freely; the dense matrix is built on demand,
a new writable array on every access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGraph, InvalidWeight, NotSymmetric, checked_int

# largest n whose pair keys min * n + max, diagonal (n-1, n-1) included, fit in int64
MAX_VERTICES = math.isqrt(int(np.iinfo(np.int64).max) + 1)


@dataclass(frozen=True, init=False, eq=False)
class SnapshotMatrix:
    """One weighted adjacency matrix of the dynamic network.

    Built from a dense matrix, `SnapshotMatrix(W, t)`, or from an edge list,
    `SnapshotMatrix.from_edges(n, rows, cols, weights, t)`.

    Attributes:
        n: number of vertices.
        t: 1-based time index of the snapshot.
        edges: read-only `(rows, cols, weights)` of the nonzero upper
            triangle, diagonal included, in row-major order.
    """

    n: int
    t: int
    edges: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, W: np.ndarray, t: int = 1):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {W.shape}")
        if W.shape[0] < 2:
            raise ValueError("a snapshot needs at least 2 vertices")
        if not np.all(np.isfinite(W)):
            raise InvalidWeight("edge weights must be finite")
        if np.any(W < 0):
            raise InvalidWeight("edge weights must be nonnegative")
        if not np.array_equal(W, W.T):
            raise NotSymmetric("adjacency matrix must be symmetric")
        rows, cols = np.nonzero(np.triu(W))
        self._store(W.shape[0], rows, cols, W[rows, cols], t)

    @classmethod
    def from_edges(
        cls, n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, t: int = 1
    ) -> SnapshotMatrix:
        """Snapshot from an undirected edge list, without a dense matrix.

        Each vertex pair appears at most once, in either orientation; pairs
        not listed and zero weights are absent edges.  Vertex indices must
        have an integer dtype (not bool); an empty list is accepted.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        if any(a.size and not np.issubdtype(a.dtype, np.integer) for a in (rows, cols)):
            raise ValueError("vertex indices must be integers")
        rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
        weights = np.asarray(weights, dtype=float)
        n = checked_int("the vertex count n", n)
        if not 2 <= n <= MAX_VERTICES:
            raise ValueError(f"a snapshot needs 2 to {MAX_VERTICES} vertices, got n={n}")
        if rows.ndim != 1 or not rows.shape == cols.shape == weights.shape:
            raise ValueError("rows, cols and weights must be 1-d arrays of one length")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"vertex index out of range for n={n}")
        if not np.all(np.isfinite(weights)):
            raise InvalidWeight("edge weights must be finite")
        if np.any(weights < 0):
            raise InvalidWeight("edge weights must be nonnegative")
        keep = weights != 0
        rows, cols, weights = rows[keep], cols[keep], weights[keep]
        key = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("a vertex pair is listed more than once")
        snap = cls.__new__(cls)
        snap._store(n, *np.divmod(key, n), weights[order], t)
        return snap

    def _store(self, n, rows, cols, weights, t) -> None:
        for a in (rows, cols, weights):
            a.flags.writeable = False
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "t", checked_int("t", t, least=1))
        object.__setattr__(self, "edges", (rows, cols, weights))

    @property
    def W(self) -> np.ndarray:
        """The dense n x n symmetric matrix: a new writable array per access."""
        rows, cols, weights = self.edges
        W = np.zeros((self.n, self.n))
        W[rows, cols] = weights
        W[cols, rows] = weights
        return W


def representation_matrix(snapshot: SnapshotMatrix) -> np.ndarray:
    """Build the read-only regularized degree-normalized representation matrix M.

    Pipeline: log transform, max scaling, uniform regularization by tau,
    then symmetric degree normalization D^(-1/2) W D^(-1/2).  Because tau
    is strictly positive for any nonzero snapshot, every regularized degree
    is at least n * tau and the normalization never divides by zero.

    Each step runs in place on a fresh dense array, so at most three n x n
    arrays are alive at once: the scaled matrix, M and a transposed copy of
    M.  Stored weights are nonnegative, so the log needs no sign check.
    """
    scaled = snapshot.W
    np.add(scaled, 1.0, out=scaled)
    np.log10(scaled, out=scaled)  # log10(w + 1) damps heavy edges; zero stays zero
    top = scaled.max(initial=0.0)
    if top <= 0.0:
        raise EmptyGraph("matrix has no positive entries; nothing to embed")
    np.divide(scaled, top, out=scaled)
    tau = float(scaled.sum() / (4.0 * snapshot.n * snapshot.n))  # mean entry / 4, in [0, 1/4]
    M = scaled + tau  # W_tau, degree-normalized in place
    inv_sqrt = 1.0 / np.sqrt(M.sum(axis=1))
    M *= inv_sqrt[:, None]
    M *= inv_sqrt[None, :]
    # enforce exact symmetry; the scaling above is symmetric only up to rounding.
    # The transposed copy is the last n x n allocation, so the space it frees
    # on return lies at the end of the heap, where the next eigh reuses it.
    M += M.T.copy()
    M /= 2.0
    M.flags.writeable = False
    return M
