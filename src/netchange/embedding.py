"""Symmetric spectral decomposition, randomized rank selection, and embedding.

The embedding dimension is chosen by a residual test: after removing the
leading (near-constant) component, rank-k reconstructions are peeled off
one by one, and the residual is compared against a randomly sign-flipped
copy of itself.  While the two differ markedly in spectral norm, the
residual still carries structure and k grows; once they agree to within a
threshold, the residual is indistinguishable from noise and the search
stops.  The kept embedding consists of singular vectors 2..d+1 of the
original matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric

SYMMETRY_ATOL = 1e-10
RANK_TOLERANCE = 1e-12
ZERO_RESIDUAL_FROBENIUS = 1e-14
DEFAULT_RANK_EPSILON = 0.005


@dataclass(frozen=True)
class Embedding:
    """Per-vertex features for one time instant: one row per vertex."""

    X: np.ndarray
    t: int = 1

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    if np.abs(M - M.T).max(initial=0.0) > SYMMETRY_ATOL:
        raise NotSymmetric("matrix is not symmetric to 1e-10")
    return M


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the first non-negligible entry is nonnegative."""
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            vectors[:, j] = -col
    return vectors


def _eigsorted(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition sorted by |eigenvalue| descending, signs fixed."""
    evals, evecs = np.linalg.eigh(M)
    order = np.argsort(-np.abs(evals), kind="stable")
    return evals[order], _fix_column_signs(evecs[:, order])


def spectral_norm(
    M: np.ndarray,
    rng: np.random.Generator | None = None,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> float:
    """Largest absolute eigenvalue of a symmetric matrix by power iteration.

    Stops when the norm estimate changes by less than `tol` relatively, or
    after `max_iter` sweeps.  A zero matrix returns 0.
    """
    M = _check_symmetric(M)
    if rng is None:
        rng = np.random.default_rng(0)
    n = M.shape[0]
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iter):
        w = M @ v
        new_estimate = float(np.linalg.norm(w))
        if new_estimate == 0.0:
            return 0.0
        if abs(new_estimate - estimate) <= tol * new_estimate:
            return new_estimate
        v = w / new_estimate
        estimate = new_estimate
    return estimate


def random_sign_flip(R: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip the sign of each entry independently with probability 1/2.

    Signs are drawn for the upper triangle (diagonal included) and mirrored,
    so the output stays symmetric and the Frobenius norm is preserved exactly.
    """
    R = _check_symmetric(R)
    n = R.shape[0]
    draws = rng.integers(0, 2, size=(n, n)) * 2 - 1
    signs = np.triu(draws) + np.triu(draws, 1).T
    return R * signs


def _rank_from_spectrum(
    evals: np.ndarray,
    evecs: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Residual-based dimension search on the deflated spectrum.

    `evals`/`evecs` are the full decomposition of the original matrix
    ordered by |eigenvalue|; the leading component is dropped here, which
    is algebraically identical to decomposing M - lambda_1 u_1 u_1^T.
    """
    sv = np.abs(evals)
    if sv.size == 0 or sv[0] <= 0.0:
        return 1
    # spectrum of the deflated matrix = original minus its leading component
    d_evals = evals[1:]
    d_evecs = evecs[:, 1:]
    d_sv = np.abs(d_evals)
    if d_sv.size == 0 or d_sv[0] <= ZERO_RESIDUAL_FROBENIUS:
        # deflated matrix is numerically zero: only constant-vector structure
        return 1
    rank = int(np.count_nonzero(d_sv > RANK_TOLERANCE * d_sv[0]))

    residual = (d_evecs[:, :rank] * d_evals[:rank]) @ d_evecs[:, :rank].T
    tail_sq = float(np.sum(d_sv[:rank] ** 2))
    for k in range(1, rank + 1):
        lam = d_evals[k - 1]
        u = d_evecs[:, k - 1]
        residual = residual - lam * np.outer(u, u)
        tail_sq -= float(d_sv[k - 1] ** 2)
        frob = np.sqrt(max(tail_sq, 0.0))
        if frob < ZERO_RESIDUAL_FROBENIUS:
            # nothing left to test; the ratio would be 0/0
            return k
        flip_rng, norm_a_rng, norm_b_rng = rng.spawn(3)
        flipped = random_sign_flip(residual, flip_rng)
        norm_residual = spectral_norm(residual, norm_a_rng)
        norm_flipped = spectral_norm(flipped, norm_b_rng)
        rho = abs(norm_residual - norm_flipped) / frob
        if rho <= epsilon:
            return k
    return max(rank, 1)


def estimate_rank_d(
    M: np.ndarray,
    epsilon: float = DEFAULT_RANK_EPSILON,
    rng: np.random.Generator | None = None,
) -> int:
    """Choose the embedding dimension for a symmetric representation matrix.

    Returns the number of singular vectors to keep counting from the second
    principal one; always at least 1.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    M = _check_symmetric(M)
    if rng is None:
        rng = np.random.default_rng(0)
    evals, evecs = _eigsorted(M)
    return _rank_from_spectrum(evals, evecs, epsilon, rng)


def embed(
    M: np.ndarray,
    epsilon: float = DEFAULT_RANK_EPSILON,
    rng: np.random.Generator | None = None,
    t: int = 1,
) -> Embedding:
    """Embed a symmetric representation matrix into d dimensions.

    The embedding keeps columns 2..d+1 of the original spectrum (the leading
    vector is a near-constant direction carrying no contrast), with d selected
    by `estimate_rank_d`.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    M = _check_symmetric(M)
    if rng is None:
        rng = np.random.default_rng(0)
    evals, evecs = _eigsorted(M)
    d = _rank_from_spectrum(evals, evecs, epsilon, rng)
    X = evecs[:, 1 : d + 1].copy()
    return Embedding(X=X, t=t)
