"""End-to-end change detection over a snapshot sequence.

`score_sequence`, the one scoring entry point and the only table of
methods, runs in two passes.  The first extracts every snapshot's feature:
the spectral embedding for cdp, one activity vector for act and actm.  An
embedding's randomized rank selection draws from a generator seeded by
(config seed, time index), so it depends on that snapshot alone and is
bit-reproducible for a fixed configuration; this pass may therefore run in
forked worker processes (`worker_count`, `_map_in_workers`, the package's
one parallel map) with byte-identical results.  The second scores each
(method, window) series from that list: from instant w+1 onwards the
current feature is scored against a profile of the previous w, and the
scores are normalized into z-scores with the configured threshold.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

import numpy as np

from .embedding import DEFAULT_RANK_EPSILON, Embedding, embed
from .errors import EmptyGraph, checked_int
from .graph import SnapshotMatrix, representation_matrix
from .procrustes import change_scores, profile_embedding

DEFAULT_WINDOW = 5
DEFAULT_ZSCORE_THRESHOLD = 5.0
DEGENERATE_STD = 1e-14


@dataclass(frozen=True)
class CdpConfig:
    """Tunables for a detection run; the profile windows are given to `score_sequence`.

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
        if not 0 < self.epsilon_rank < np.inf:
            raise ValueError("epsilon_rank must be positive and finite")
        if not np.isfinite(self.zscore_threshold):
            raise ValueError("zscore_threshold must be finite")
        object.__setattr__(self, "seed", checked_int("seed", self.seed, least=0))


@dataclass(frozen=True)
class ScoreVector:
    """Nonnegative per-vertex change scores for one time instant."""

    z: np.ndarray
    t: int = 1

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if not np.all(np.isfinite(z)) or np.any(z < 0):
            raise ValueError("change scores must be finite and nonnegative")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class ScoreSeries:
    """Scores, z-scores, detections and diagnostics over the instants of a sequence.

    Row k of `scores`, `zscores` and the boolean `detected` mask (each
    S x n), and entry k of `degenerate` and `score_seconds`, belong to time
    index `instants[k]`: every instant after the first window (t > w).
    `dims` and `embed_seconds` cover all T embedded instants, first to last.
    """

    instants: range
    scores: np.ndarray
    zscores: np.ndarray
    detected: np.ndarray
    degenerate: np.ndarray
    score_seconds: np.ndarray
    dims: np.ndarray
    embed_seconds: np.ndarray


def normalize_and_detect(
    score: ScoreVector, threshold: float = DEFAULT_ZSCORE_THRESHOLD
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Convert scores to z-scores and flag vertices strictly above threshold.

    Uses the sample standard deviation (n-1 denominator).  A (near-)constant
    score vector yields zero z-scores, an empty detection mask, and a
    degenerate flag rather than an error.
    """
    z = score.z
    if z.shape[0] < 2:
        raise ValueError("need at least two vertices to normalize")
    std = float(z.std(ddof=1))
    if std < DEGENERATE_STD:
        return np.zeros_like(z), np.zeros(z.shape, dtype=bool), True
    zhat = (z - z.mean()) / std
    return zhat, zhat > threshold, False


def snapshot_rng(seed: int, t: int) -> np.random.Generator:
    """Generator for the randomized steps of one snapshot's embedding."""
    return np.random.default_rng(np.random.SeedSequence((seed, t)))


def embed_snapshot(snapshot: SnapshotMatrix, config: CdpConfig) -> Embedding:
    """Representation matrix plus spectral embedding for one snapshot."""
    M = representation_matrix(snapshot)
    rng = snapshot_rng(config.seed, snapshot.t)
    return embed(M, epsilon=config.epsilon_rank, rng=rng, t=snapshot.t)


def cdp_scores(window: list[Embedding], current: Embedding) -> np.ndarray:
    """Score the current embedding against the profile of its window."""
    return change_scores(current, profile_embedding(window))


def _thread_count() -> int:
    """Threads this process runs, native ones included; 0 where that cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def worker_count(items: int) -> int:
    """Processes to map over `items` items: one per usable CPU, never more than items.

    Usable CPUs are the ones this process may run on (`taskset` narrows
    them); a cgroup CPU quota is not read.  It is 1 without `fork`, and
    while this process runs more than its one thread: a multi-threaded BLAS
    would run its threads again in every worker, and the workers would
    crowd each other off the CPUs (on two CPUs, a 6-run study at n=300
    took 39-64 s that way against 5 s in one process).  A forked worker
    runs one thread, so it must be handed its count rather than read it.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or _thread_count() != 1:
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def _map_in_workers(fn, items: list, workers: int) -> list:
    """`list(map(fn, items))`, computed in `workers` forked processes if more than one.

    `fn` and the items must pickle.  The first call to raise stops the
    map: the calls already handed to a worker finish, the others never
    start, and the exception raised is that of the earliest item, as in one
    process.  A worker that dies ends the map with `ChildProcessError`.
    Every worker has exited when this returns.
    """
    if workers == 1:
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
        pool.shutdown(cancel_futures=True)  # the calls a worker holds finish, the rest never start
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _extract_timed(extract, snap: SnapshotMatrix) -> tuple[Embedding, float]:
    """`extract(snap)` and its seconds, timed where it runs; EmptyGraph names the instant."""
    start = time.perf_counter()
    try:
        feature = extract(snap)
    except EmptyGraph as exc:
        raise EmptyGraph(f"snapshot t={snap.t} has no edges: {exc}") from exc
    return feature, time.perf_counter() - start


# Table order: it orders output rows, and a method's index seeds its phi stream.
METHODS = ("cdp", "act", "actm")


def _series_keys(methods, windows) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Methods in table order and windows ascending, without repeats: the one check of both."""
    if unknown := [m for m in methods if m not in METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}; expected a subset of {METHODS}")
    if not methods:
        raise ValueError("need at least one method")
    if not windows:
        raise ValueError("need at least one window")
    windows = tuple(sorted({checked_int("windows", w, least=1) for w in windows}))
    return tuple(m for m in METHODS if m in methods), windows


def score_sequence(
    snapshots: list[SnapshotMatrix],
    config: CdpConfig,
    methods: tuple[str, ...],
    windows: tuple[int, ...],
    workers: int = 1,
) -> dict[tuple[str, int], ScoreSeries]:
    """One series per (method, w), for every method and window asked for.

    cdp scores the spectral embedding; act and actm share one activity
    vector per snapshot (a one-column Embedding).  Each feature in use is
    extracted once per snapshot, in `workers` forked processes when more
    than one.  Then each (method, w) series is scored: at every instant with
    at least w earlier features, the current feature is compared with the w
    before it, and the scores are normalized against
    `config.zscore_threshold`.  The series of one feature share one array of
    the feature dimension and one of the extraction seconds of every
    instant.  Time indices must be consecutive: a missing instant would
    otherwise be profiled against the wrong past.  The table is built per
    call, so a module-level rebinding of any of its functions (layer
    tracing, tests) is seen.  A repeat is scored once; the series come with
    the methods in table order, then the windows ascending.
    """
    from . import baselines  # at call time: baselines imports this module

    methods, windows = _series_keys(methods, windows)
    depth = windows[-1]
    if len(snapshots) <= depth:
        raise ValueError(f"need more snapshots ({len(snapshots)}) than the window ({depth})")
    if any(snap.n != snapshots[0].n for snap in snapshots):
        raise ValueError("all snapshots must share the same vertex count")
    for prev, snap in zip(snapshots, snapshots[1:]):
        if snap.t != prev.t + 1:
            raise ValueError(
                f"time indices must be consecutive: expected t={prev.t + 1} "
                f"after t={prev.t}, got t={snap.t}"
            )
    table = (
        (functools.partial(embed_snapshot, config=config), {"cdp": cdp_scores}),
        (baselines.activity, {"act": baselines.act_scores, "actm": baselines.actm_scores}),
    )

    def scored(score_window, features, w, k):
        """Row k - w of a series: scores, z-scores, detections, degenerate flag, seconds."""
        start = time.perf_counter()
        score = ScoreVector(z=score_window(features[k - w : k], features[k]), t=snapshots[k].t)
        return (score.z, *normalize_and_detect(score, config.zscore_threshold),
                time.perf_counter() - start)

    T, first = len(snapshots), snapshots[0].t
    out = {}
    for extract, scorers in table:
        if not (wanted := [(m, f) for m, f in scorers.items() if m in methods]):
            continue
        timed = functools.partial(_extract_timed, extract)
        features, seconds = map(list, zip(*_map_in_workers(timed, snapshots, workers)))
        dims, seconds = np.array([f.d for f in features]), np.array(seconds)
        out.update(
            ((method, w), ScoreSeries(
                range(first + w, first + T),
                *map(np.array, zip(*(scored(score_window, features, w, k) for k in range(w, T)))),
                dims, seconds,
            ))
            for method, score_window in wanted for w in windows
        )
    return out
