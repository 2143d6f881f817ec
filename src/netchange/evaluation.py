"""Method dispatch, score-separation measures, sign tests, and the experiment driver.

`detect` and `evaluate` both score through `score_sequence`, the one table
of detection methods and the feature each one scores.

A method's detection quality on a simulated scenario is summarized by the
exceedance probability phi: the chance that a randomly chosen changed
vertex outscores a randomly chosen unchanged one at a given instant.  phi
is estimated by paired resampling, mapped to log odds for symmetry, and
differenced between consecutive instants to isolate jumps caused by model
transitions.  Runs are repeated with independently derived seeds
(base XOR run index) and compared across methods with exact sign tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import baselines
from .dcsbm import ScenarioSpec, generate_sequence
from .embedding import DEFAULT_RANK_EPSILON
from .errors import EmptyPartition
from .graph import SnapshotMatrix
from .pipeline import DEFAULT_WINDOW, CdpConfig, ScoreSeries, cdp_scores, embed_snapshot, sweep
from .pipeline import _map_in_workers, worker_count

DEFAULT_PHI_SAMPLES = 100_000
# Table order: it orders output rows, and a method's index seeds its phi stream.
METHODS = ("cdp", "act", "actm")


def _ordered_methods(methods) -> tuple[str, ...]:
    """`methods` without repeats, in table order; an unknown name is an error."""
    if unknown := [m for m in methods if m not in METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}; expected a subset of {METHODS}")
    return tuple(m for m in METHODS if m in methods)


def score_sequence(
    snapshots: list[SnapshotMatrix],
    config: CdpConfig,
    methods: tuple[str, ...],
    windows: tuple[int, ...],
    workers: int = 1,
) -> dict[tuple[str, int], ScoreSeries]:
    """One series per (method, w), for every method and window asked for.

    cdp scores the spectral embedding; act and actm share one activity vector
    per snapshot.  Features are extracted in `workers` processes.  The table
    is built per call, so a module-level rebinding of any of these functions
    (layer tracing, tests) is seen.
    """
    methods = _ordered_methods(methods)
    table = (
        (functools.partial(embed_snapshot, config=config), {"cdp": cdp_scores}),
        (baselines.activity, {"act": baselines.act_scores, "actm": baselines.actm_scores}),
    )
    out = {}
    for extract, scorers in table:
        if wanted := {m: f for m, f in scorers.items() if m in methods}:
            out.update(sweep(snapshots, extract, wanted, windows, config.zscore_threshold,
                             workers))
    return out


def estimate_phi(
    z_changed: np.ndarray,
    z_unchanged: np.ndarray,
    N: int,
    rng: np.random.Generator,
) -> float:
    """Resampled exceedance probability, clamped away from 0 and 1.

    Draws N scores with replacement from each partition and counts the
    proportion of strict exceedances (ties do not count).  The result is
    clamped to [1/(2N), 1 - 1/(2N)] so its log odds stay finite.
    """
    z_changed = np.asarray(z_changed, dtype=float)
    z_unchanged = np.asarray(z_unchanged, dtype=float)
    if z_changed.size == 0 or z_unchanged.size == 0:
        raise EmptyPartition("both score partitions must be nonempty")
    if N < 1:
        raise ValueError("sample count must be positive")
    changed = z_changed[rng.integers(0, z_changed.size, N)]
    unchanged = z_unchanged[rng.integers(0, z_unchanged.size, N)]
    phi = np.count_nonzero(changed > unchanged) / N
    half = 0.5 / N
    return min(max(phi, half), 1.0 - half)


def log_odds(phi: float) -> float:
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must lie strictly inside (0, 1), got {phi}")
    return math.log(phi / (1.0 - phi))


def _binom_tail_upper(n: int, k: int) -> float:
    """P[Bin(n, 1/2) >= k], exact."""
    total = sum(math.comb(n, i) for i in range(k, n + 1))
    return total / 2**n


def sign_test(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Exact binomial sign test on paired observations; ties are dropped.

    Returns the p-values for "a tends to exceed b", "a tends to fall below
    b" and the two-sided alternative (doubled smaller tail, capped at 1),
    in that order; all three are NaN when every pair is tied.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired vectors must have equal length")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return (math.nan,) * 3
    k = int(np.count_nonzero(diffs > 0))
    greater, less = _binom_tail_upper(n, k), _binom_tail_upper(n, n - k)
    return greater, less, min(2.0 * min(greater, less), 1.0)


@dataclass(frozen=True)
class ExperimentResult:
    """One simulation experiment as arrays over runs and scored instants.

    For each (method, w), `phi`, `eta`, `flagged` and `hits` are runs x S
    arrays whose column k belongs to time index `instants[w][k]`: the
    exceedance probability, its log odds, the count of vertices with
    z-score above the detection threshold, and how many of those changed.
    `seconds[(task, method)]` holds per-instant seconds over every run, and
    `workers` is the number of processes that scored the runs.
    """

    spec: ScenarioSpec
    methods: tuple[str, ...]
    windows: tuple[int, ...]
    instants: dict[int, range]
    phi: dict[tuple[str, int], np.ndarray]
    eta: dict[tuple[str, int], np.ndarray]
    flagged: dict[tuple[str, int], np.ndarray]
    hits: dict[tuple[str, int], np.ndarray]
    seconds: dict[tuple[str, str], list[float]]
    workers: int

    def tables(self) -> dict[str, tuple[list[str], list[tuple]]]:
        """The tables `evaluate` writes, by name: a header and its rows.

        `performance` has one row per (method, window, run, scored instant)
        in that order, methods in table order; its eta_bar is the change in
        eta since the previous scored instant, empty at the first.  The sign
        tests and proportions compare every pair of methods on eta at the
        change instant, one value per run.
        """
        name, t_star = self.spec.name, self.spec.change.start
        performance = [
            (name, m, w, run, *row)
            for m in self.methods
            for w in self.windows
            for run, (phi, eta, flagged, hits) in enumerate(
                zip(self.phi[m, w], self.eta[m, w], self.flagged[m, w], self.hits[m, w])
            )
            for row in zip(
                self.instants[w], phi.tolist(), eta.tolist(), [None, *np.diff(eta).tolist()],
                flagged.tolist(), hits.tolist(),
            )
        ]
        signs, proportions = [], []
        for w in self.windows:
            k = self.instants[w].index(t_star)
            for a, b in itertools.combinations(self.methods, 2):
                eta_a, eta_b = self.eta[a, w][:, k], self.eta[b, w][:, k]
                pair = (name, w, f"{a}_vs_{b}")
                signs += [(*pair, alternative, p) for alternative, p in
                          zip(("greater", "less", "two_sided"), sign_test(eta_a, eta_b))]
                proportions += [
                    (*pair, relation, np.count_nonzero(op(eta_a, eta_b)) / eta_a.size)
                    for relation, op in (
                        ("greater", np.greater), ("less", np.less), ("equal", np.equal)
                    )
                ]
        timings = [(task, m, self.spec.n, float(np.mean(seconds)))
                   for (task, m), seconds in self.seconds.items()]
        return {
            "performance": ("scenario method window run t phi eta eta_bar flagged hits".split(),
                            performance),
            "sign_tests": ("scenario window comparison alternative p_value".split(), signs),
            "proportions": ("scenario window comparison relation proportion".split(), proportions),
            "timings": ("task method n mean_seconds".split(), timings),
        }


def run_seed(base_seed: int, run_index: int) -> int:
    """Per-run seed: base XOR run index, so runs are independently seeded."""
    return base_seed ^ run_index


def _phi_rng(seed: int, method: str, window: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, METHODS.index(method), window, 0xF1))
    )


def _score_run(
    spec: ScenarioSpec,
    methods: tuple[str, ...],
    windows: tuple[int, ...],
    N: int,
    epsilon_rank: float,
    rseed: int,
) -> tuple[tuple[dict, dict, dict], dict]:
    """One run: draw its sequence, score it with every method and window, measure phi.

    Returns the run's phi, flagged and hits rows, each a dict by (method,
    w), and its seconds by (task, method).
    It reads only its arguments, so a worker process computes what the
    parent would; it extracts its features in its own process, so a worker
    never forks again.
    """
    changed, unchanged = spec.changed_vertices, spec.unchanged_vertices
    snapshots = generate_sequence(spec, np.random.default_rng(rseed))
    config = CdpConfig(epsilon_rank=epsilon_rank, seed=rseed)
    phi, flagged, hits = {}, {}, {}
    seconds: dict[tuple[str, str], list[float]] = {
        (task, m): [] for m in methods for task in ("embedding", "profile_and_scores")
    }
    for (method, w), series in score_sequence(snapshots, config, methods, windows).items():
        seconds["embedding", method] = series.embed_seconds.tolist()  # shared by its windows
        seconds["profile_and_scores", method].extend(series.score_seconds.tolist())
        flagged[method, w] = series.detected.sum(axis=1)
        hits[method, w] = series.detected[:, changed].sum(axis=1)
        rng = _phi_rng(rseed, method, w)
        phi[method, w] = np.array(
            [estimate_phi(z[changed], z[unchanged], N, rng) for z in series.scores])
    return (phi, flagged, hits), seconds


def run_experiment(
    spec: ScenarioSpec,
    methods: tuple[str, ...] = METHODS,
    windows: tuple[int, ...] = (DEFAULT_WINDOW,),
    runs: int = 100,
    seed: int = 0,
    N: int = DEFAULT_PHI_SAMPLES,
    epsilon_rank: float = DEFAULT_RANK_EPSILON,
) -> ExperimentResult:
    """Repeat a scenario, score it with each method and window, measure separation.

    Every run draws a fresh sequence; all methods and windows score the same
    sequence so cross-method comparisons are paired.  Every check of the
    arguments comes before the first run is drawn.  Runs are scored in
    `worker_count(runs)` processes, recorded in `workers`; no other field depends on how many.
    """
    methods = _ordered_methods(methods)
    windows = tuple(sorted(set(windows)))
    if not methods or not windows:
        raise ValueError("need at least one method and one window")
    if windows[0] < 1:
        raise ValueError(f"windows must be >= 1, got {windows[0]}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if N < 1:
        raise ValueError(f"phi sample count N must be >= 1, got {N}")
    if windows[-1] >= spec.change.start:
        raise ValueError(f"window {windows[-1]} must be smaller than t*={spec.change.start}")

    score_run = functools.partial(_score_run, spec, methods, windows, N, epsilon_rank)
    rseeds = [run_seed(seed, run) for run in range(runs)]
    workers = worker_count(runs)
    per_run = _map_in_workers(score_run, rseeds, workers)

    instants = {w: range(w + 1, spec.T + 1) for w in windows}
    phi, flagged, hits = (
        {key: np.stack([row[key] for row in field]) for key in field[0]}
        for field in zip(*(rows for rows, _ in per_run))
    )
    eta = {key: np.vectorize(log_odds, otypes=[float])(p) for key, p in phi.items()}
    seconds = {key: [s for _, run_seconds in per_run for s in run_seconds[key]]
               for key in per_run[0][1]}
    return ExperimentResult(spec, methods, windows, instants, phi, eta, flagged, hits, seconds,
                            workers)
