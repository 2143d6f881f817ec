"""End-to-end change detection over a snapshot sequence.

Every snapshot is embedded; from instant w+1 onwards the previous w
embeddings are aligned into a window profile, the current embedding is
scored against it, and the scores are normalized into z-scores with a
detection threshold.  Each snapshot's randomized rank selection draws from
a generator seeded by (config seed, time index), so results are
bit-reproducible for a fixed configuration.  The same sweep serves the
activity-vector baselines: it extracts one feature per snapshot and scores
every method and window that share that feature in a single pass.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .embedding import DEFAULT_RANK_EPSILON, Embedding, embed
from .errors import EmptyGraph
from .graph import SnapshotMatrix, representation_matrix
from .procrustes import ScoreVector, change_scores, profile_embedding

DEFAULT_WINDOW = 5
DEFAULT_ZSCORE_THRESHOLD = 5.0
DEGENERATE_STD = 1e-14


@dataclass(frozen=True)
class CdpConfig:
    """Tunables for a detection run; the profile windows are given to `sweep`.

    Attributes:
        epsilon_rank: convergence threshold of the rank-selection residual
            test.
        zscore_threshold: finite detection cutoff on normalized scores (strict >).
        seed: base seed for the per-snapshot randomized rank selection.
    """

    epsilon_rank: float = DEFAULT_RANK_EPSILON
    zscore_threshold: float = DEFAULT_ZSCORE_THRESHOLD
    seed: int = 0

    def __post_init__(self):
        if not self.epsilon_rank > 0:
            raise ValueError("epsilon_rank must be positive")
        if not np.isfinite(self.zscore_threshold):
            raise ValueError("zscore_threshold must be finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class ScoreSeries:
    """Scores, z-scores, detections and diagnostics keyed by time index.

    Raw and normalized scores exist exactly for instants after the first
    window (t > w); dimensions and timings cover every embedded instant.
    """

    scores: dict[int, ScoreVector] = field(default_factory=dict)
    zscores: dict[int, np.ndarray] = field(default_factory=dict)
    detections: dict[int, set[int]] = field(default_factory=dict)
    degenerate: dict[int, bool] = field(default_factory=dict)
    dims: dict[int, int] = field(default_factory=dict)
    embed_seconds: dict[int, float] = field(default_factory=dict)
    score_seconds: dict[int, float] = field(default_factory=dict)

    def scored_instants(self) -> list[int]:
        return sorted(self.scores)


def normalize_and_detect(
    score: ScoreVector, threshold: float = DEFAULT_ZSCORE_THRESHOLD
) -> tuple[np.ndarray, set[int], bool]:
    """Convert scores to z-scores and flag vertices strictly above threshold.

    Uses the sample standard deviation (n-1 denominator).  A (near-)constant
    score vector yields zero z-scores, no detections, and a degenerate flag
    rather than an error.
    """
    z = score.z
    if z.shape[0] < 2:
        raise ValueError("need at least two vertices to normalize")
    std = float(z.std(ddof=1))
    if std < DEGENERATE_STD:
        return np.zeros_like(z), set(), True
    zhat = (z - z.mean()) / std
    detected = set(int(i) for i in np.nonzero(zhat > threshold)[0])
    return zhat, detected, False


def snapshot_rng(seed: int, t: int) -> np.random.Generator:
    """Generator for the randomized steps of one snapshot's embedding."""
    return np.random.default_rng(np.random.SeedSequence((seed, t)))


def embed_snapshot(snapshot: SnapshotMatrix, config: CdpConfig) -> Embedding:
    """Representation matrix plus spectral embedding for one snapshot."""
    M = representation_matrix(snapshot)
    rng = snapshot_rng(config.seed, snapshot.t)
    return embed(M, epsilon=config.epsilon_rank, rng=rng, t=snapshot.t)


def cdp_scores(window: list[Embedding], current: Embedding) -> ScoreVector:
    """Score the current embedding against the profile of its window."""
    return change_scores(current, profile_embedding(window))


def sweep(
    snapshots: list[SnapshotMatrix],
    extract: Callable[[SnapshotMatrix], Any],
    scorers: dict[str, Callable[[list, Any], ScoreVector]],
    windows: tuple[int, ...],
    threshold: float = DEFAULT_ZSCORE_THRESHOLD,
) -> dict[tuple[str, int], ScoreSeries]:
    """Score a sequence under every method and window that share one feature.

    `extract` runs once per snapshot and returns its feature (anything with
    a dimension `d`, such as an Embedding); only the last max(windows)
    features are kept.  At every instant with at least w earlier features,
    each scorer compares the current feature with the w before it, and the
    score is normalized.  Returns one series per (method, window); every
    series records the feature dimension and extraction seconds of every
    instant.  Time indices must be consecutive: a missing instant would
    otherwise be profiled against the wrong past.
    """
    if min(windows) < 1:
        raise ValueError(f"windows must be >= 1, got {min(windows)}")
    depth = max(windows)
    if len(snapshots) <= depth:
        raise ValueError(
            f"need more snapshots ({len(snapshots)}) than the window ({depth})"
        )
    if any(snap.n != snapshots[0].n for snap in snapshots):
        raise ValueError("all snapshots must share the same vertex count")
    for prev, snap in zip(snapshots, snapshots[1:]):
        if snap.t != prev.t + 1:
            raise ValueError(
                f"time indices must be consecutive: expected t={prev.t + 1} "
                f"after t={prev.t}, got t={snap.t}"
            )
    out = {(method, w): ScoreSeries() for method in scorers for w in windows}
    recent = deque(maxlen=depth)
    for snap in snapshots:
        t = snap.t
        start = time.perf_counter()
        try:
            feature = extract(snap)
        except EmptyGraph as exc:
            raise EmptyGraph(f"snapshot t={t} has no edges: {exc}") from exc
        seconds = time.perf_counter() - start
        for (method, w), series in out.items():
            series.dims[t] = feature.d
            series.embed_seconds[t] = seconds
            if len(recent) < w:
                continue
            start = time.perf_counter()
            score = scorers[method](list(recent)[-w:], feature)
            zhat, detected, degenerate = normalize_and_detect(score, threshold)
            series.scores[t] = score
            series.zscores[t] = zhat
            series.detections[t] = detected
            series.degenerate[t] = degenerate
            series.score_seconds[t] = time.perf_counter() - start
        recent.append(feature)
    return out

