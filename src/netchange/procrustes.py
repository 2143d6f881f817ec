"""Shape alignment of embeddings and per-vertex change scores.

Embeddings produced by spectral decomposition are unique only up to scale,
rotation and reflection, so they cannot be averaged or differenced as raw
matrices.  Each matrix is first reduced to its pre-shape (column-centered,
unit Frobenius norm); a generalized Procrustes loop (`gpa_align`, which
zero-pads narrower matrices) then rotates all pre-shapes onto a common
mean.  Change scores are squared row distances between the aligned current
embedding and the aligned window profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding
from .errors import DegenerateShape

DEGENERATE_NORM = 1e-14
# Read at call time, so tests can patch them.
GPA_THRESHOLD = 1e-10
GPA_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class AlignmentResult:
    """Converged state of the generalized Procrustes loop.

    Attributes:
        mean: elementwise average of the aligned copies.
        aligned: aligned pre-shapes stacked in input order, shape (m, n, d).
        iterations: number of full alignment passes performed.
        converged: False only if the iteration cap was reached first.
    """

    mean: np.ndarray
    aligned: np.ndarray
    iterations: int
    converged: bool


def pre_shape(X: np.ndarray) -> np.ndarray:
    """Remove column means and scale to unit Frobenius norm.

    Raises DegenerateShape when every column is constant, since the centered
    matrix then has no magnitude to normalize.
    """
    X = np.asarray(X, dtype=float)
    centered = X - X.mean(axis=0, keepdims=True)
    norm = np.linalg.norm(centered)
    if norm < DEGENERATE_NORM:
        raise DegenerateShape("matrix is constant per column; no shape remains")
    return centered / norm


def optimal_rotation(mu: np.ndarray, Xtilde: np.ndarray) -> np.ndarray:
    """Orthogonal matrix G minimizing ||Xtilde @ G - mu||_F.

    Computed from the SVD of mu^T Xtilde as V U^T, one G per member when
    Xtilde is an (m, n, d) stack.  Rank deficiency of the cross-product
    (e.g. from zero-padded columns) is benign: any SVD yields an optimizer.
    """
    mu = np.asarray(mu, dtype=float)
    Xtilde = np.asarray(Xtilde, dtype=float)
    if mu.shape != Xtilde.shape[-2:]:
        raise ValueError(f"shape mismatch: {mu.shape} vs {Xtilde.shape}")
    U, _, Vt = np.linalg.svd(mu.T @ Xtilde)
    return np.swapaxes(Vt, -1, -2) @ np.swapaxes(U, -1, -2)


def gpa_align(matrices: list[np.ndarray]) -> AlignmentResult:
    """Iteratively align matrices to a common mean shape.

    Members share a row count; narrower ones are zero-padded on the right
    to the widest, never truncated.  The reference starts as the raw first
    matrix; every pass rotates each pre-shape optimally onto the reference,
    averages the aligned copies, and measures the squared movement D of the
    mean.  Iteration stops once D drops to GPA_THRESHOLD or the
    GPA_MAX_ITERATIONS cap is hit (flagged, not an error).
    Pre-shapes do not change across passes, so they are stacked once and a
    pass is one stacked SVD and one stacked product.
    """
    if len(matrices) < 2:
        raise ValueError("alignment needs at least two matrices")
    if len({len(X) for X in matrices}) > 1:
        raise ValueError(f"row mismatch: {[len(X) for X in matrices]}")
    raw = np.zeros((len(matrices), len(matrices[0]), max(X.shape[1] for X in matrices)))
    for padded, X in zip(raw, matrices):
        padded[:, : X.shape[1]] = X
    tildes = np.stack([pre_shape(X) for X in raw])

    mu = raw[0]
    aligned = tildes
    iterations = 0
    D = np.inf
    while D > GPA_THRESHOLD and iterations < GPA_MAX_ITERATIONS:
        aligned = tildes @ optimal_rotation(mu, tildes)
        new_mu = aligned.mean(axis=0)
        D = float(np.sum((mu - new_mu) ** 2))
        mu = new_mu
        iterations += 1
    return AlignmentResult(
        mean=mu,
        aligned=aligned,
        iterations=iterations,
        converged=D <= GPA_THRESHOLD,
    )


def profile_embedding(window: list[Embedding]) -> Embedding:
    """Mean shape of the embeddings in a window.

    Members of different dimensions are aligned by `gpa_align`.  A
    single-member window needs no alignment: its profile is that
    embedding's pre-shape.
    """
    if not window:
        raise ValueError("window must contain at least one embedding")
    if len(window) == 1:
        return Embedding(X=pre_shape(window[0].X))
    return Embedding(X=gpa_align([e.X for e in window]).mean)


def change_scores(current: Embedding, profile: Embedding) -> np.ndarray:
    """Per-vertex dissimilarity between an embedding and its window profile.

    The pair is aligned by `gpa_align`; the score of vertex i is the
    squared distance between its aligned rows, divided by the Frobenius
    norm of the pair mean.
    """
    if current.n != profile.n:
        raise ValueError(f"row mismatch: {current.n} vs {profile.n}")
    result = gpa_align([current.X, profile.X])
    current_hat, profile_hat = result.aligned
    gaps = np.sum((current_hat - profile_hat) ** 2, axis=1)
    mean_norm = np.linalg.norm(result.mean)
    if mean_norm < DEGENERATE_NORM:
        raise DegenerateShape("aligned pair cancels out; scores are undefined")
    return gaps / mean_norm
