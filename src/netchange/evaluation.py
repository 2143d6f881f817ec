"""Score-separation measures, sign tests, and the simulation experiment driver.

A method's detection quality on a simulated scenario is summarized by the
exceedance probability phi: the chance that a randomly chosen changed
vertex outscores a randomly chosen unchanged one at a given instant.  phi
is estimated by paired resampling, mapped to log odds for symmetry, and
differenced between consecutive instants to isolate jumps caused by model
transitions.  Runs are repeated with independently derived seeds
(base XOR run index) and compared across methods with exact sign tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .dcsbm import ScenarioSpec, generate_sequence
from .embedding import DEFAULT_RANK_EPSILON
from .errors import EmptyPartition, UndefinedTest
from .pipeline import CdpConfig, cdp_scores, embed_snapshot, sweep

DEFAULT_PHI_SAMPLES = 100_000
METHOD_ORDER = {"cdp": 0, "act": 1, "actm": 2}


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
    phi = float(np.mean(changed > unchanged))
    half = 0.5 / N
    return min(max(phi, half), 1.0 - half)


def log_odds(phi: float) -> float:
    if not 0.0 < phi < 1.0:
        raise ValueError(f"phi must lie strictly inside (0, 1), got {phi}")
    return math.log(phi / (1.0 - phi))


def log_odds_ratio(phi_t: float, phi_prev: float) -> float:
    return log_odds(phi_t) - log_odds(phi_prev)


def _binom_tail_upper(n: int, k: int) -> float:
    """P[Bin(n, 1/2) >= k], exact."""
    total = sum(math.comb(n, i) for i in range(k, n + 1))
    return total / 2**n


def sign_test(a: np.ndarray, b: np.ndarray, alternative: str = "greater") -> float:
    """Exact binomial sign test on paired observations; ties are dropped.

    `alternative` is "greater" (a tends to exceed b), "less", or
    "two_sided" (doubled smaller tail, capped at 1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired vectors must have equal length")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        raise UndefinedTest("every pair is tied; the sign test is undefined")
    k = int(np.count_nonzero(diffs > 0))
    if alternative == "greater":
        return _binom_tail_upper(n, k)
    if alternative == "less":
        return _binom_tail_upper(n, n - k)
    if alternative == "two_sided":
        p = 2.0 * min(_binom_tail_upper(n, k), _binom_tail_upper(n, n - k))
        return min(p, 1.0)
    raise ValueError(f"unknown alternative {alternative!r}")


@dataclass
class PerformanceSeries:
    """Per-run, per-instant separation measures for one method and window.

    eta is the log odds of phi; eta_bar differences eta between consecutive
    scored instants (undefined at the first scored instant).
    """

    phi: dict[tuple[int, int], float] = field(default_factory=dict)
    eta: dict[tuple[int, int], float] = field(default_factory=dict)
    eta_bar: dict[tuple[int, int], float] = field(default_factory=dict)
    N: int = DEFAULT_PHI_SAMPLES

    def eta_at(self, t: int) -> np.ndarray:
        """eta across runs at one instant, ordered by run index."""
        runs = sorted(run for run, tt in self.eta if tt == t)
        return np.array([self.eta[(run, t)] for run in runs])

    def eta_bar_at(self, t: int) -> np.ndarray:
        runs = sorted(run for run, tt in self.eta_bar if tt == t)
        return np.array([self.eta_bar[(run, t)] for run in runs])


@dataclass
class ExperimentResult:
    """Everything produced by one simulation experiment."""

    scenario: str
    n: int
    change_instant: int
    runs: int
    seed: int
    series: dict[tuple[str, int], PerformanceSeries]
    sign_tests: list[dict]
    proportions: list[dict]
    timings: list[dict]


def run_seed(base_seed: int, run_index: int) -> int:
    """Per-run seed: base XOR run index, so runs are independently seeded."""
    return base_seed ^ run_index


def _phi_rng(seed: int, method: str, window: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, METHOD_ORDER[method], window, 0xF1))
    )


def _feature_groups(methods: tuple[str, ...], seed: int, epsilon_rank: float) -> list:
    """(extract, scorers) per feature the methods need.

    cdp scores the spectral embedding; act and actm share one activity
    vector per snapshot.  Built per call, so a module-level rebinding of
    any of these functions (layer tracing, tests) is seen.
    """
    config = CdpConfig(epsilon_rank=epsilon_rank, seed=seed)
    groups = (
        (lambda snap: embed_snapshot(snap, config), {"cdp": cdp_scores}),
        (baselines.activity, {"act": baselines.act_scores, "actm": baselines.actm_scores}),
    )
    return [
        (extract, wanted)
        for extract, scorers in groups
        if (wanted := {m: f for m, f in scorers.items() if m in methods})
    ]


def run_experiment(
    spec: ScenarioSpec,
    methods: tuple[str, ...] = ("cdp", "act", "actm"),
    windows: tuple[int, ...] = (5,),
    runs: int = 100,
    seed: int = 0,
    N: int = DEFAULT_PHI_SAMPLES,
    epsilon_rank: float = DEFAULT_RANK_EPSILON,
) -> ExperimentResult:
    """Repeat a scenario, score it with each method and window, measure separation.

    Every run draws a fresh sequence; all methods and windows score the same
    sequence so cross-method comparisons are paired.  Sign tests and
    proportion tables compare eta at the change instant.
    """
    methods = tuple(sorted(set(methods), key=METHOD_ORDER.__getitem__))
    windows = tuple(sorted(set(windows)))
    if not methods or not windows:
        raise ValueError("need at least one method and one window")
    t_change = spec.change_instant
    for w in windows:
        if w >= t_change:
            raise ValueError(f"window {w} must be smaller than change instant {t_change}")
    changed = spec.changed_vertices
    unchanged = spec.unchanged_vertices

    series = {(m, w): PerformanceSeries(N=N) for m in methods for w in windows}
    embed_times: dict[str, list[float]] = {m: [] for m in methods}
    score_times: dict[str, list[float]] = {m: [] for m in methods}

    for run in range(runs):
        rseed = run_seed(seed, run)
        snapshots = generate_sequence(spec, np.random.default_rng(rseed))
        for extract, scorers in _feature_groups(methods, rseed, epsilon_rank):
            for (method, w), result in sweep(snapshots, extract, scorers, windows).items():
                if w == windows[0]:
                    embed_times[method].extend(result.embed_seconds.values())
                score_times[method].extend(result.score_seconds.values())
                rng = _phi_rng(rseed, method, w)
                perf = series[(method, w)]
                prev_eta = None
                for t in result.scored_instants():
                    z = result.scores[t].z
                    phi = estimate_phi(z[changed], z[unchanged], N, rng)
                    eta = log_odds(phi)
                    perf.phi[(run, t)] = phi
                    perf.eta[(run, t)] = eta
                    if prev_eta is not None:
                        perf.eta_bar[(run, t)] = eta - prev_eta
                    prev_eta = eta

    sign_rows: list[dict] = []
    prop_rows: list[dict] = []
    pairs = [(a, b) for i, a in enumerate(methods) for b in methods[i + 1 :]]
    for w in windows:
        for a, b in pairs:
            eta_a = series[(a, w)].eta_at(t_change)
            eta_b = series[(b, w)].eta_at(t_change)
            for alternative in ("greater", "less", "two_sided"):
                try:
                    p = sign_test(eta_a, eta_b, alternative)
                except UndefinedTest:
                    p = float("nan")
                sign_rows.append(
                    {
                        "window": w,
                        "comparison": f"{a}_vs_{b}",
                        "alternative": alternative,
                        "p_value": p,
                    }
                )
            total = eta_a.size
            for relation, count in (
                ("greater", int(np.count_nonzero(eta_a > eta_b))),
                ("less", int(np.count_nonzero(eta_a < eta_b))),
                ("equal", int(np.count_nonzero(eta_a == eta_b))),
            ):
                prop_rows.append(
                    {
                        "window": w,
                        "comparison": f"{a}_vs_{b}",
                        "relation": relation,
                        "proportion": count / total if total else float("nan"),
                    }
                )

    timing_rows = []
    for method in methods:
        for task, values in (
            ("embedding", embed_times[method]),
            ("profile_and_scores", score_times[method]),
        ):
            timing_rows.append(
                {
                    "task": task,
                    "method": method,
                    "n": spec.n,
                    "mean_seconds": float(np.mean(values)) if values else float("nan"),
                }
            )

    return ExperimentResult(
        scenario=spec.name,
        n=spec.n,
        change_instant=t_change,
        runs=runs,
        seed=seed,
        series=series,
        sign_tests=sign_rows,
        proportions=prop_rows,
        timings=timing_rows,
    )


def performance_rows(result: ExperimentResult) -> list[dict]:
    """Flatten an experiment into plot-ready rows, sorted for stable output."""
    rows = []
    for (method, window), perf in sorted(
        result.series.items(), key=lambda kv: (METHOD_ORDER[kv[0][0]], kv[0][1])
    ):
        for (run, t), phi in sorted(perf.phi.items()):
            rows.append(
                {
                    "scenario": result.scenario,
                    "method": method,
                    "window": window,
                    "run": run,
                    "t": t,
                    "phi": phi,
                    "eta": perf.eta[(run, t)],
                    "eta_bar": perf.eta_bar.get((run, t)),
                }
            )
    return rows
