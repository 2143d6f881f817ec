"""Adjacency snapshots and construction of the regularized representation matrix.

A dynamic network is a time sequence of symmetric, nonnegative, weighted
adjacency matrices over a fixed vertex set.  Each snapshot is preprocessed
(log transform, max scaling), regularized by a uniform additive term, and
degree-normalized to yield the representation matrix that downstream
spectral embedding consumes.  All functions here are pure.  A snapshot is
held as its nonzero upper triangle, so a sparse sequence costs memory in
proportion to its edges, not to T * n^2; the dense matrix is built on
demand, read-only, and every stored array is read-only too, so values can
be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGraph, InvalidWeight, NotSymmetric


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
        not listed and zero weights are absent edges.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        if n < 2:
            raise ValueError("a snapshot needs at least 2 vertices")
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
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "edges", (rows, cols, weights))

    @property
    def W(self) -> np.ndarray:
        """The dense n x n symmetric matrix: a new read-only array per access."""
        rows, cols, weights = self.edges
        W = np.zeros((self.n, self.n))
        W[rows, cols] = weights
        W[cols, rows] = weights
        W.flags.writeable = False
        return W


@dataclass(frozen=True)
class RepresentationMatrix:
    """Regularized degree-normalized form of one snapshot.

    Attributes:
        M: n x n symmetric representation matrix.
        tau: uniform regularizer added to every entry of the scaled matrix.
        scaled_W: the log-transformed, max-scaled matrix with entries in [0, 1].
    """

    M: np.ndarray
    tau: float
    scaled_W: np.ndarray = field(repr=False)


def log_transform(W: np.ndarray) -> np.ndarray:
    """Apply the elementwise damping x -> log10(x + 1).

    Compresses dominant edge weights so that a handful of heavy edges does
    not swamp the embedding.  Zero stays zero.
    """
    W = np.asarray(W, dtype=float)
    if np.any(W < 0):
        raise InvalidWeight("log transform requires nonnegative entries")
    return np.log10(W + 1.0)


def max_scale(W: np.ndarray) -> np.ndarray:
    """Scale a nonnegative matrix by its maximum entry onto [0, 1]."""
    W = np.asarray(W, dtype=float)
    top = W.max(initial=0.0)
    if top <= 0.0:
        raise EmptyGraph("matrix has no positive entries; nothing to embed")
    return W / top


def regularizer_tau(scaled_W: np.ndarray) -> float:
    """Uniform regularizer: the mean entry of the scaled matrix, divided by 4.

    For entries in [0, 1] the result lies in [0, 1/4].
    """
    scaled_W = np.asarray(scaled_W, dtype=float)
    n = scaled_W.shape[0]
    return float(scaled_W.sum() / (4.0 * n * n))


def representation_matrix(snapshot: SnapshotMatrix) -> RepresentationMatrix:
    """Build the regularized degree-normalized representation matrix.

    Pipeline: log transform, max scaling, uniform regularization by tau,
    then symmetric degree normalization D^(-1/2) W D^(-1/2).  Because tau
    is strictly positive for any nonzero snapshot, every regularized degree
    is at least n * tau and the normalization never divides by zero.
    """
    scaled = max_scale(log_transform(snapshot.W))
    tau = regularizer_tau(scaled)
    W_tau = scaled + tau
    degrees = W_tau.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    M = inv_sqrt[:, None] * W_tau * inv_sqrt[None, :]
    # enforce exact symmetry; the scaling above is symmetric only up to rounding
    M = (M + M.T) / 2.0
    M.flags.writeable = False
    scaled.flags.writeable = False
    return RepresentationMatrix(M=M, tau=tau, scaled_W=scaled)
