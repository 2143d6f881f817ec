"""Score-separation measures, sign tests, and the experiment driver.

Every run is scored through `pipeline.score_sequence`, as `detect` is.

A method's detection quality on a simulated scenario is summarized by the
exceedance probability phi: the chance that a randomly chosen changed
vertex outscores a randomly chosen unchanged one at a given instant.  phi
is estimated by paired resampling, mapped to log odds for symmetry, and
differenced between consecutive instants to isolate jumps caused by model
transitions.  Run r of base seed b draws from seed b XOR r (`run_seed`),
and methods are compared on the same runs with exact sign tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .dcsbm import ScenarioSpec, generate_sequence
from .embedding import DEFAULT_RANK_EPSILON
from .errors import EmptyPartition, checked_int
from .pipeline import DEFAULT_WINDOW, METHODS, CdpConfig, _map_in_workers, _series_keys
from .pipeline import score_sequence, worker_count

DEFAULT_PHI_SAMPLES = 100_000


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
    N = checked_int("N", N, least=1)
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
    """Per-run seed: base XOR run index, distinct within a study but not across base seeds.

    For b below 2^m and a run count that is a multiple of 2^m, every base seed
    b scores the same sequences: `--seed 1` with 20 runs repeats `--seed 0`'s.
    """
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
    config: CdpConfig,
    rseed: int,
) -> tuple[tuple[dict, dict, dict], dict]:
    """One run: draw its sequence, score it with every method and window, measure phi.

    The sequence is drawn from `rseed` and scored under `config` reseeded
    with it.  Returns the run's phi, flagged and hits rows, each a dict by
    (method, w), and its seconds by (task, method).
    It reads only its arguments, so a worker process computes what the
    parent would; it extracts its features in its own process, so a worker
    never forks again.
    """
    changed, unchanged = spec.changed_vertices, spec.unchanged_vertices
    snapshots = generate_sequence(spec, np.random.default_rng(rseed))
    config = replace(config, seed=rseed)
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
    sequence so cross-method comparisons are paired.  Every argument, epsilon
    included, is checked before the first run is drawn: epsilon and the seed
    by `CdpConfig`, the methods and windows as `score_sequence` checks them,
    and `runs` and `N` by `checked_int`, as ints >= 1.
    Runs are scored in `worker_count(runs)` processes, recorded in
    `workers`; no other field depends on how many.
    """
    config = CdpConfig(epsilon_rank=epsilon_rank, seed=seed)
    methods, windows = _series_keys(methods, windows)
    runs, N = checked_int("runs", runs, least=1), checked_int("N", N, least=1)
    if windows[-1] >= spec.change.start:
        raise ValueError(f"window {windows[-1]} must be smaller than t*={spec.change.start}")

    score_run = functools.partial(_score_run, spec, methods, windows, N, config)
    rseeds = [run_seed(config.seed, run) for run in range(runs)]
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
