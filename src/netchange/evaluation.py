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

import math
from dataclasses import dataclass

import numpy as np

from . import baselines
from .dcsbm import ScenarioSpec, generate_sequence
from .embedding import DEFAULT_RANK_EPSILON
from .errors import EmptyPartition, UndefinedTest
from .graph import SnapshotMatrix
from .pipeline import DEFAULT_WINDOW, CdpConfig, ScoreSeries, cdp_scores, embed_snapshot, sweep

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
) -> dict[tuple[str, int], ScoreSeries]:
    """One series per (method, w), for every method and window asked for.

    cdp scores the spectral embedding; act and actm share one activity vector
    per snapshot.  Built per call, so a module-level rebinding of any of
    these functions (layer tracing, tests) is seen.
    """
    methods = _ordered_methods(methods)
    table = (
        (lambda snap: embed_snapshot(snap, config), {"cdp": cdp_scores}),
        (baselines.activity, {"act": baselines.act_scores, "actm": baselines.actm_scores}),
    )
    out = {}
    for extract, scorers in table:
        if wanted := {m: f for m, f in scorers.items() if m in methods}:
            out.update(sweep(snapshots, extract, wanted, windows, config.zscore_threshold))
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
    phi = float(np.mean(changed > unchanged))
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
class ExperimentResult:
    """Everything produced by one simulation experiment, as the rows `evaluate` writes.

    `performance` has one row per (method, window, run, scored instant) in
    that order, methods in table order: phi, its log odds eta, and eta_bar,
    the change in eta since the previous scored instant (None at the first).
    """

    scenario: str
    runs: int
    performance: list[dict]
    sign_tests: list[dict]
    proportions: list[dict]
    timings: list[dict]


def run_seed(base_seed: int, run_index: int) -> int:
    """Per-run seed: base XOR run index, so runs are independently seeded."""
    return base_seed ^ run_index


def _phi_rng(seed: int, method: str, window: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, METHODS.index(method), window, 0xF1))
    )


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
    sequence so cross-method comparisons are paired.  Sign tests and
    proportion tables compare eta at the change instant.
    """
    methods = _ordered_methods(methods)
    windows = tuple(sorted(set(windows)))
    if not methods or not windows:
        raise ValueError("need at least one method and one window")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if N < 1:
        raise ValueError(f"phi sample count N must be >= 1, got {N}")
    t_change = spec.change_instant
    for w in windows:
        if w >= t_change:
            raise ValueError(f"window {w} must be smaller than change instant {t_change}")
    changed = spec.changed_vertices
    unchanged = spec.unchanged_vertices

    # one row list per (method, w), in output order, joined at the end
    blocks: dict[tuple[str, int], list[dict]] = {(m, w): [] for m in methods for w in windows}
    eta_tstar: dict[tuple[str, int], list[float]] = {key: [] for key in blocks}
    seconds: dict[tuple[str, str], list[float]] = {
        (task, m): [] for m in methods for task in ("embedding", "profile_and_scores")
    }

    for run in range(runs):
        rseed = run_seed(seed, run)
        snapshots = generate_sequence(spec, np.random.default_rng(rseed))
        config = CdpConfig(epsilon_rank=epsilon_rank, seed=rseed)
        for (method, w), result in score_sequence(snapshots, config, methods, windows).items():
            if w == windows[0]:
                seconds[("embedding", method)].extend(result.embed_seconds.values())
            seconds[("profile_and_scores", method)].extend(result.score_seconds.values())
            rng = _phi_rng(rseed, method, w)
            prev_eta = None
            for t in result.scored_instants():
                z = result.scores[t].z
                phi = estimate_phi(z[changed], z[unchanged], N, rng)
                eta = log_odds(phi)
                blocks[(method, w)].append(
                    {
                        "scenario": spec.name,
                        "method": method,
                        "window": w,
                        "run": run,
                        "t": t,
                        "phi": phi,
                        "eta": eta,
                        "eta_bar": None if prev_eta is None else eta - prev_eta,
                    }
                )
                if t == t_change:
                    eta_tstar[(method, w)].append(eta)
                prev_eta = eta

    sign_rows: list[dict] = []
    prop_rows: list[dict] = []
    pairs = [(a, b) for i, a in enumerate(methods) for b in methods[i + 1 :]]
    for w in windows:
        for a, b in pairs:
            eta_a = np.array(eta_tstar[(a, w)])
            eta_b = np.array(eta_tstar[(b, w)])
            for alternative in ("greater", "less", "two_sided"):
                try:
                    p = sign_test(eta_a, eta_b, alternative)
                except UndefinedTest:
                    p = float("nan")
                sign_rows.append(
                    {
                        "scenario": spec.name,
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
                        "scenario": spec.name,
                        "window": w,
                        "comparison": f"{a}_vs_{b}",
                        "relation": relation,
                        "proportion": count / total if total else float("nan"),
                    }
                )

    timing_rows = [
        {"task": task, "method": method, "n": spec.n, "mean_seconds": float(np.mean(values))}
        for (task, method), values in seconds.items()
    ]

    return ExperimentResult(
        scenario=spec.name,
        runs=runs,
        performance=[row for rows in blocks.values() for row in rows],
        sign_tests=sign_rows,
        proportions=prop_rows,
        timings=timing_rows,
    )

