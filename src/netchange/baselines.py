"""Activity-vector change detectors used for comparison.

Both baselines summarize each snapshot by its eigenvector-centrality
vector (the principal eigenvector of the raw adjacency matrix) and score
vertices by entrywise deviation from a window summary.  The first keeps
only the leading left singular vector of the window; the modified variant
projects the current vector onto the full window subspace.  Neither applies
the sparsity/heterogeneity preprocessing of the main pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraph
from .graph import SnapshotMatrix
# normalize_and_detect is imported for callers that rebind it here by
# module (layer tracing); the sweep itself normalizes through pipeline.
from .pipeline import CdpConfig, ScoreSeries, normalize_and_detect, sweep  # noqa: F401
from .procrustes import ScoreVector

ACTIVITY_TOL = 1e-13
ACTIVITY_MAX_ITER = 100_000
WINDOW_RANK_TOL = 1e-12


@dataclass(frozen=True)
class ActivityVector:
    """Unit-norm eigenvector centrality of one snapshot."""

    u: np.ndarray
    t: int = 1

    @property
    def d(self) -> int:
        """Feature dimension: one column, as recorded in `dims`."""
        return 1


def activity(snapshot: SnapshotMatrix) -> ActivityVector:
    """Principal eigenvector of the adjacency matrix, Perron sign-fixed.

    Power iteration runs on W + cI with c the maximum row sum; the shift
    makes the top eigenvalue strictly dominant in magnitude (bipartite
    structure would otherwise stall the iteration) without changing the
    eigenvector.  Starting from a positive vector keeps every iterate
    nonnegative, so the result needs no sign cleanup beyond normalization.
    """
    W = snapshot.W
    if not np.any(W > 0):
        raise EmptyGraph("zero matrix has no principal eigenvector")
    n = W.shape[0]
    shift = float(np.abs(W).sum(axis=1).max())
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(ACTIVITY_MAX_ITER):
        w = W @ v + shift * v
        w /= np.linalg.norm(w)
        if np.abs(w - v).max() <= ACTIVITY_TOL:
            v = w
            break
        v = w
    if v.sum() < 0:
        v = -v
    return ActivityVector(u=v, t=snapshot.t)


def _window_basis(window: list[ActivityVector]) -> tuple[np.ndarray, int]:
    """Left singular vectors of the stacked window, truncated at numerical rank."""
    A = np.column_stack([a.u for a in window])
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return U[:, :0], 0
    rank = int(np.count_nonzero(s > WINDOW_RANK_TOL * s[0]))
    return U[:, :rank], rank


def act_scores(window: list[ActivityVector], current: ActivityVector) -> ScoreVector:
    """Entrywise gap between the window's leading direction and the current vector.

    For a single-member window the leading direction is that member itself,
    bypassing the SVD so the reduction z = |u_prev - u_now| holds exactly.
    The direction's sign is fixed to point toward the current vector, since
    an absolute difference is meaningless under sign ambiguity.
    """
    if not window:
        raise ValueError("window must contain at least one activity vector")
    if len(window) == 1:
        r = window[0].u
    else:
        basis, rank = _window_basis(window)
        if rank == 0:
            raise ValueError("window of zero vectors has no leading direction")
        r = basis[:, 0]
    if float(r @ current.u) < 0:
        r = -r
    return ScoreVector(z=np.abs(r - current.u), t=current.t)


def actm_scores(window: list[ActivityVector], current: ActivityVector) -> ScoreVector:
    """Entrywise gap between the window-subspace projection and the current vector.

    The projection onto the span of the window is the closest point to the
    current vector in that subspace; only basis vectors above the numerical
    rank cutoff participate.
    """
    if not window:
        raise ValueError("window must contain at least one activity vector")
    basis, _rank = _window_basis(window)
    projected = basis @ (basis.T @ current.u)
    return ScoreVector(z=np.abs(projected - current.u), t=current.t)


def run_baseline(
    snapshots: list[SnapshotMatrix],
    config: CdpConfig,
    kind: str,
) -> ScoreSeries:
    """Activity extraction plus window scoring over a snapshot sequence."""
    # built per call, so a rebinding of either scorer at module level is seen
    scorers = {"act": act_scores, "actm": actm_scores}
    if kind not in scorers:
        raise ValueError(f"unknown baseline {kind!r}")
    return sweep(
        snapshots,
        activity,
        {kind: scorers[kind]},
        (config.window,),
        config.zscore_threshold,
    )[(kind, config.window)]
