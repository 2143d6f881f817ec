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

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidWeight, NotSymmetric

SYMMETRY_ATOL = 1e-10
RANK_TOLERANCE = 1e-12
ZERO_RESIDUAL_FROBENIUS = 1e-14
DEFAULT_RANK_EPSILON = 0.005
BLOCK_ROWS = 64  # rows per block where a full n x n temporary is avoided
# Read at call time, so tests can patch them.
SPECTRAL_NORM_TOL = 1e-6
SPECTRAL_NORM_MAX_ITER = 1000


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
    """M as float, if square, finite and symmetric; checked in row blocks."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    for i in range(0, M.shape[0], BLOCK_ROWS):
        rows = M[i : i + BLOCK_ROWS]
        if not np.isfinite(rows).all():
            raise InvalidWeight("matrix has a non-finite (inf or nan) entry")
        if np.abs(rows - M[:, i : i + BLOCK_ROWS].T).max(initial=0.0) > SYMMETRY_ATOL:
            raise NotSymmetric("matrix is not symmetric to 1e-10")
    return M


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs in place so the first non-negligible entry is nonnegative."""
    significant = vectors > 1e-12
    significant |= vectors < -1e-12
    cols = np.arange(vectors.shape[1])
    first = np.argmax(significant, axis=0)
    flip = significant[first, cols] & (vectors[first, cols] < 0)
    return np.negative(vectors, out=vectors, where=flip)


def _eigsorted(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition sorted by |eigenvalue| descending, signs fixed.

    The vectors keep the Fortran order of the column gather.
    """
    evals, evecs = np.linalg.eigh(M)
    order = np.argsort(-np.abs(evals), kind="stable")
    vectors = evecs[:, order]
    del evecs
    return evals[order], _fix_column_signs(vectors)


def _sweeps(M: np.ndarray, v: np.ndarray, tol: float, limit: int) -> tuple[float, np.ndarray, int]:
    """Power sweeps in M's dtype from the unit vector `v`, at most `limit` of them.

    Stops on an estimate that is 0, not finite, or changed by at most `tol`
    relatively, and returns it with the vector entering the sweep before it
    and the number of sweeps before that; at the cap, the last estimate with
    the vector entering the last sweep.
    """
    estimate, handed, done = 0.0, v, 0
    for sweep in range(1, limit + 1):
        w = (M @ v.astype(M.dtype, copy=False)).astype(float, copy=False)
        new_estimate = math.sqrt(w.dot(w))  # np.linalg.norm(w), bit for bit
        if not 0.0 < new_estimate < math.inf or abs(new_estimate - estimate) <= tol * new_estimate:
            return new_estimate, handed, done
        handed, done, v = v, sweep - 1, w / new_estimate
        estimate = new_estimate
    return estimate, handed, done


def spectral_norm(M: np.ndarray, rng: np.random.Generator) -> float:
    """Largest absolute eigenvalue of a symmetric matrix by power iteration.

    `M` must be square and symmetric; this is not checked (`embed` checks
    its input once, and the residuals built from it are symmetric).  Stops
    when the norm estimate changes by at most SPECTRAL_NORM_TOL relatively,
    or returns the last estimate after SPECTRAL_NORM_MAX_ITER sweeps.  A
    zero matrix returns 0.  The first sweeps run on a float32 copy of M
    until the change is at most 3 x SPECTRAL_NORM_TOL (float32's resolution
    at the finest) and only carry the start vector: float64 sweeps repeat
    the last two of them, so every stop test that fixes the returned value
    is made in float64, and the float32 sweeps count against the same cap.
    M outside float32's range is swept in float64 from the start.
    """
    M = np.asarray(M, dtype=float)
    v = rng.standard_normal(M.shape[0])
    v /= math.sqrt(v.dot(v))
    settle = max(3 * SPECTRAL_NORM_TOL, float(np.finfo(np.float32).resolution))
    with np.errstate(over="ignore", invalid="ignore"):
        estimate, handed, done = _sweeps(M.astype(np.float32), v, settle, SPECTRAL_NORM_MAX_ITER)
    if not 0.0 < estimate < math.inf:
        handed, done = v, 0
    return _sweeps(M, handed, SPECTRAL_NORM_TOL, SPECTRAL_NORM_MAX_ITER - done)[0]


def random_sign_flip(R: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip the sign of each entry independently with probability 1/2.

    `R` must be square and symmetric; this is not checked.  Signs are drawn
    for the upper triangle (diagonal included) and mirrored, so the output
    stays symmetric and the Frobenius norm is preserved exactly.  A 0 in
    `rng.integers(0, 2, (n, n))`, drawn in row blocks, flips.  `R` is unchanged.
    """
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    flip = np.empty((n, n), dtype=bool)
    for i in range(0, n, BLOCK_ROWS):
        draws = rng.integers(0, 2, size=(min(BLOCK_ROWS, n - i), n))
        np.equal(draws, 0, out=flip[i : i + BLOCK_ROWS])
    flip = np.triu(flip)
    flip |= flip.T
    out = R.copy()
    # negate by toggling the IEEE sign bit: np.negative(R, out=R.copy(), where=flip) gives
    # the same bits but took 8.6 ms, not 1.3 ms, per n=900 flip (2 vCPUs); 0.5 s of cdp detect
    bits = out.view(np.uint64)
    for i in range(0, n, BLOCK_ROWS):
        bits[i : i + BLOCK_ROWS] ^= flip[i : i + BLOCK_ROWS].astype(np.uint64) << 63
    return out


def _residual(M: np.ndarray, evals: np.ndarray, evecs: np.ndarray, k: int) -> np.ndarray:
    """M minus its leading k+1 eigencomponents, formed in the product's output."""
    P = (evecs[:, : k + 1] * evals[: k + 1]) @ evecs[:, : k + 1].T
    return np.subtract(M, P, out=P)


def _rank_from_spectrum(
    M: np.ndarray,
    evals: np.ndarray,
    evecs: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Residual-based dimension search on the spectrum of M.

    `evals`/`evecs` are the full decomposition of M ordered by |eigenvalue|.
    The residual R_k is M without its leading component and the next k, so
    its norms are read off the spectrum: ||R_k||_2 = |lambda_{k+2}| and
    ||R_k||_F^2 = sum of lambda_i^2 over i > k+1.  Only the norm of its
    sign-flipped copy needs power iteration.  The search stops at k = rank
    whatever rho is there.
    """
    sv = np.abs(evals)
    if sv[1] <= ZERO_RESIDUAL_FROBENIUS:
        # deflated matrix is numerically zero: only constant-vector structure
        return 1
    rank = int(np.count_nonzero(sv[1:] > RANK_TOLERANCE * sv[1]))
    frob = np.sqrt(np.cumsum(sv[::-1] ** 2)[::-1])  # frob[j]^2 = sum(sv[j:]^2)
    for k in range(1, rank):  # frob[k + 1] >= sv[k + 1] > 0 here
        # Child 0 draws the flip, child 2 starts the flipped norm, child 1 is
        # unused: this keeps every sign flip, so every d the references record.
        flip_rng, _, norm_rng = rng.spawn(3)
        # nested so the residual and its flip are freed before the next k
        flipped_norm = spectral_norm(
            random_sign_flip(_residual(M, evals, evecs, k), flip_rng), norm_rng
        )
        rho = abs(sv[k + 1] - flipped_norm) / frob[k + 1]
        if rho <= epsilon:
            return k
    return rank


def embed(
    M: np.ndarray,
    epsilon: float = DEFAULT_RANK_EPSILON,
    *,
    rng: np.random.Generator,
    t: int = 1,
) -> Embedding:
    """Embed a symmetric representation matrix into d dimensions.

    The embedding keeps columns 2..d+1 of the original spectrum (the leading
    vector is a near-constant direction carrying no contrast), with d >= 1
    chosen by the residual sign-flip search of `_rank_from_spectrum`.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    M = _check_symmetric(M)
    if M.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to embed, got {M.shape[0]}")
    evals, evecs = _eigsorted(M)
    d = _rank_from_spectrum(M, evals, evecs, epsilon, rng)
    return Embedding(X=evecs[:, 1 : d + 1].copy(), t=t)
