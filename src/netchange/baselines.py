"""Activity-vector change detectors used for comparison.

Both baselines summarize each snapshot by its eigenvector-centrality
vector (the principal eigenvector of the raw adjacency matrix) and score
vertices by entrywise deviation from a window summary.  The first keeps
only the leading left singular vector of the window; the modified variant
projects the current vector onto the full window subspace.  Neither applies
the sparsity/heterogeneity preprocessing of the main pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .embedding import Embedding
from .errors import EmptyGraph, NotConverged
from .graph import SnapshotMatrix
# normalize_and_detect is imported for callers that rebind it here by
# module (layer tracing); score_sequence normalizes through pipeline.
from .pipeline import normalize_and_detect  # noqa: F401

# Read at call time, so tests can patch them.
ACTIVITY_TOL = 1e-13
ACTIVITY_MAX_ITER = 100_000
WINDOW_RANK_TOL = 1e-12


def _mirrored_edges(snapshot: SnapshotMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonzero entry of W as (row, col, weight), sorted by row, then column.

    The stored upper triangle is reflected once; a diagonal entry appears once.
    """
    rows, cols, weights = snapshot.edges
    off = rows != cols
    r = np.concatenate([rows, cols[off]])
    c = np.concatenate([cols, rows[off]])
    order = np.lexsort((c, r))
    return r[order], c[order], np.concatenate([weights, weights[off]])[order]


def activity(snapshot: SnapshotMatrix) -> Embedding:
    """Principal eigenvector of the adjacency matrix, nonnegative, as one column.

    Power iteration runs on W + cI with c the maximum row sum; the shift
    makes the top eigenvalue strictly dominant in magnitude (bipartite
    structure would otherwise stall the iteration) without changing the
    eigenvector.  Starting from a positive vector keeps every iterate
    nonnegative, so the result needs no sign cleanup beyond normalization.
    Each product W v is summed over the stored edges, so a step costs
    O(edges), not O(n^2).

    Raises:
        EmptyGraph: the snapshot has no edges.
        NotConverged: ACTIVITY_MAX_ITER steps did not meet ACTIVITY_TOL.
    """
    r, c, a = _mirrored_edges(snapshot)
    if a.size == 0:
        raise EmptyGraph("zero matrix has no principal eigenvector")
    n = snapshot.n
    shift = float(np.bincount(r, weights=a, minlength=n).max())
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(ACTIVITY_MAX_ITER):
        w = np.bincount(r, weights=a * v[c], minlength=n) + shift * v
        w /= math.sqrt(w.dot(w))  # np.linalg.norm(w), bit for bit
        if np.abs(w - v).max() <= ACTIVITY_TOL:
            v = w
            break
        v = w
    else:
        raise NotConverged(
            f"activity power iteration at t={snapshot.t} did not converge "
            f"in {ACTIVITY_MAX_ITER} steps"
        )
    return Embedding(X=v[:, None], t=snapshot.t)


def _window_basis(window: list[Embedding]) -> tuple[np.ndarray, int]:
    """Left singular vectors of the stacked window, truncated at numerical rank."""
    A = np.hstack([a.X for a in window])
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return U[:, :0], 0
    rank = int(np.count_nonzero(s > WINDOW_RANK_TOL * s[0]))
    return U[:, :rank], rank


def act_scores(window: list[Embedding], current: Embedding) -> np.ndarray:
    """Entrywise gap between the window's leading direction and the current vector.

    For a single-member window the leading direction is that member itself,
    bypassing the SVD so the reduction z = |u_prev - u_now| holds exactly.
    The direction's sign is fixed to point toward the current vector, since
    an absolute difference is meaningless under sign ambiguity.
    """
    if not window:
        raise ValueError("window must contain at least one activity vector")
    u = current.X[:, 0]
    if len(window) == 1:
        r = window[0].X[:, 0]
    else:
        basis, rank = _window_basis(window)
        if rank == 0:
            raise ValueError("window of zero vectors has no leading direction")
        r = basis[:, 0]
    if float(r @ u) < 0:
        r = -r
    return np.abs(r - u)


def actm_scores(window: list[Embedding], current: Embedding) -> np.ndarray:
    """Entrywise gap between the window-subspace projection and the current vector.

    The projection onto the span of the window is the closest point to the
    current vector in that subspace; only basis vectors above the numerical
    rank cutoff participate.
    """
    if not window:
        raise ValueError("window must contain at least one activity vector")
    basis, _rank = _window_basis(window)
    u = current.X[:, 0]
    projected = basis @ (basis.T @ u)
    return np.abs(projected - u)

