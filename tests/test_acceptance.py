"""Acceptance suite: one check per release criterion, with timing guards.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion 6 exercises the scaled-down simulation
study exactly as specified; parts (a) and (c) are known not to hold at
one-third scale (see the README's "known limitations" and the full-scale
numbers there) and are kept as honest failures rather than weakened.
"""

import os
import time

import numpy as np
import pytest

from netchange import (
    ActivityVector,
    CdpConfig,
    Embedding,
    SnapshotMatrix,
    act_scores,
    actm_scores,
    change_scores,
    embed,
    estimate_phi,
    gpa_align,
    log_odds,
    log_transform,
    max_scale,
    optimal_rotation,
    pre_shape,
    psi,
    regularizer_tau,
    representation_matrix,
    run_experiment,
    sample_snapshot,
    sample_theta,
    scenario,
    score_sequence,
    sign_test,
)
from netchange.cli import ingest_sequence, main
from netchange.dcsbm import DcsbmModel, sample_power_law


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    return ok


def haar_orthogonal(d, rng, count=1):
    A = rng.standard_normal((count, d, d))
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diagonal(R, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return Q * signs[:, None, :]


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


def test_criterion_1_algebra_suite():
    with Stopwatch() as clock:
        snap = SnapshotMatrix(W=np.array([[0.0, 9.0], [9.0, 0.0]]), t=1)
        M = representation_matrix(snap)
        scaled = max_scale(log_transform(snap.W))
        tau = regularizer_tau(scaled)
        chain_ok = (
            abs(tau - 0.125) < 1e-12
            and np.abs(scaled - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12
            and np.abs(M - np.array([[0.1, 0.9], [0.9, 0.1]])).max() < 1e-12
        )
        hand_ok = (
            log_transform(np.array([[0.0, 9.0], [9.0, 0.0]]))[0, 1] == 1.0
            and log_transform(np.array([[0.0, 99.0], [99.0, 0.0]]))[0, 1] == 2.0
            and np.array_equal(
                max_scale(np.array([[0.0, 4.0], [4.0, 0.0]])),
                np.array([[0.0, 1.0], [1.0, 0.0]]),
            )
            and regularizer_tau(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.125
            and regularizer_tau(np.ones((3, 3))) == 0.25
            and regularizer_tau(np.zeros((5, 5))) == 0.0
        )
    ok = chain_ok and hand_ok and clock.seconds < 1.0
    assert report(1, ok, f"worked chain + hand cases in {clock.seconds:.2f}s")


def test_criterion_2_procrustes_invariance_suite():
    rng = np.random.default_rng(2026)
    with Stopwatch() as clock:
        worst_gap = 0.0
        worst_identity = 0.0
        for _ in range(200):
            n = int(rng.integers(8, 16))
            d = int(rng.integers(2, 4))
            profile = Embedding(X=pre_shape(rng.standard_normal((n, d))), t=1)
            current = Embedding(X=rng.standard_normal((n, d)), t=2)
            base = change_scores(current, profile).z

            Q = haar_orthogonal(d, rng)[0]
            scale = float(rng.uniform(0.2, 5.0))
            shift = rng.standard_normal(d)
            transformed = Embedding(X=scale * (current.X @ Q) + shift, t=2)
            moved = change_scores(transformed, profile).z
            worst_gap = max(worst_gap, float(np.abs(moved - base).max()))

            same = change_scores(
                Embedding(X=profile.X.copy(), t=2), profile
            ).z
            worst_identity = max(worst_identity, float(np.abs(same).max()))
    ok = worst_gap < 1e-8 and worst_identity < 1e-10 and clock.seconds < 10.0
    assert report(
        2,
        ok,
        f"200 embeddings, max similarity-transform drift {worst_gap:.2e}, "
        f"max identical-input score {worst_identity:.2e}, {clock.seconds:.1f}s",
    )


def test_criterion_3_gpa_correctness():
    rng = np.random.default_rng(33)
    with Stopwatch() as clock:
        beats = True
        for _ in range(50):
            n, d = int(rng.integers(5, 9)), int(rng.integers(2, 4))
            mu = pre_shape(rng.standard_normal((n, d)))
            tilde = pre_shape(rng.standard_normal((n, d)))
            best = np.linalg.norm(tilde @ optimal_rotation(mu, tilde) - mu)
            Q = haar_orthogonal(d, rng, count=10_000)
            distances = np.linalg.norm(
                np.einsum("ij,kjl->kil", tilde, Q) - mu, axis=(1, 2)
            )
            if best > distances.min() + 1e-12:
                beats = False
                break

        monotone = True
        for _ in range(50):
            mats = [rng.standard_normal((7, 2)) for _ in range(3)]
            history = gpa_align(mats).objective_history
            if any(b > a + 1e-12 for a, b in zip(history, history[1:])):
                monotone = False
                break

        base = pre_shape(rng.standard_normal((9, 3)))
        copies = [base] + [base @ Q for Q in haar_orthogonal(3, rng, count=4)]
        aligned = gpa_align(copies).aligned
        pairwise = max(
            float(np.linalg.norm(aligned[i] - aligned[j]))
            for i in range(len(aligned))
            for j in range(i + 1, len(aligned))
        )
    ok = beats and monotone and pairwise < 1e-8 and clock.seconds < 30.0
    assert report(
        3,
        ok,
        f"rotation optimal on 50x10000 draws, objective monotone, "
        f"rotated copies align to {pairwise:.2e}, {clock.seconds:.1f}s",
    )


def test_criterion_4_rank_selection():
    with Stopwatch() as clock:
        n, b = 300, 100
        W = np.zeros((n, n))
        for s in range(0, n, b):
            W[s : s + b, s : s + b] = 1.0
        M = representation_matrix(SnapshotMatrix(W=W))
        hits = sum(
            embed(M, 0.005, np.random.default_rng(seed)).d == 2
            for seed in range(100)
        )
        zero_residual = embed(np.array([[0.1, 0.9], [0.9, 0.1]])).d == 1
        rng = np.random.default_rng(7)
        A = rng.standard_normal((40, 40))
        huge_eps = embed((A + A.T) / 2, epsilon=1e9).d == 1
    ok = hits >= 95 and zero_residual and huge_eps and clock.seconds < 120.0
    assert report(
        4, ok, f"3-block d=2 in {hits}/100 runs, edge cases d=1, {clock.seconds:.1f}s"
    )


def test_criterion_5_dcsbm_sampler():
    with Stopwatch() as clock:
        model = DcsbmModel(
            g=(10, 12, 8),
            B_planted=np.diag([0.4, 0.5, 0.6]),
            nu=0.05,
            lam=0.7,
            constant_theta=(2,),
        )
        rng = np.random.default_rng(505)
        theta = sample_theta(model, rng)
        sums_ok = all(
            abs(theta[start : start + size].sum() - 1.0) < 1e-12
            for start, size in zip((0, 10, 22), model.g)
        )
        c = model.memberships
        means = np.outer(theta, theta) * psi(model)[np.ix_(c, c)]
        draws = 2000
        total = np.zeros((model.n, model.n))
        for _ in range(draws):
            total += sample_snapshot(model, theta, rng).W
        iu = np.triu_indices(model.n, k=1)
        gaps = np.abs(total[iu] / draws - means[iu])
        cells_ok = bool(np.all(gaps <= 4.0 * np.sqrt(means[iu] / draws) + 1e-12))

        tail = sample_power_law(100_000, np.random.default_rng(99))
        x = np.sort(tail)
        ccdf = (x.size - np.arange(x.size)) / x.size
        keep = ccdf >= 1e-3
        slope = np.polyfit(np.log10(x[keep]), np.log10(ccdf[keep]), 1)[0]
        slope_ok = abs(slope + 1.5) <= 0.05
    ok = sums_ok and cells_ok and slope_ok and clock.seconds < 60.0
    assert report(
        5,
        ok,
        f"2000-draw cell means in 4-sigma, theta sums exact, "
        f"CCDF slope {slope:.3f}, {clock.seconds:.1f}s",
    )


@pytest.fixture(scope="module")
def scaled_experiment():
    spec = scenario("group-change", scale=1 / 3)
    with Stopwatch() as clock:
        result = run_experiment(
            spec, methods=("cdp", "act"), windows=(5,), runs=20, seed=20260808
        )
    return result, clock.seconds


def w5_column(result, method, t, key="eta"):
    """`key` of one method at instant t and w=5, one value per run in run order."""
    return np.array(
        [r[key] for r in result.performance if (r["method"], r["window"], r["t"]) == (method, 5, t)]
    )


def test_criterion_6a_scaled_median_eta_positive(scaled_experiment):
    result, seconds = scaled_experiment
    median = float(np.median(w5_column(result, "cdp", 21)))
    ok = median > 0.0
    report(
        "6a",
        ok,
        f"median eta(t*)={median:+.3f} at one-third scale ({seconds:.0f}s run); "
        "known not to hold at this scale: the sparser graphs drive the "
        "dimension search to d=1 (passes at full scale, see README)",
    )
    assert ok


def test_criterion_6b_scaled_cdp_beats_act(scaled_experiment):
    result, _ = scaled_experiment
    eta_cdp = w5_column(result, "cdp", 21)
    eta_act = w5_column(result, "act", 21)
    wins = int(np.sum(eta_cdp > eta_act))
    p = sign_test(eta_cdp, eta_act, "greater")
    ok = wins >= 18 and p < 1e-3
    assert report("6b", ok, f"cdp beats act in {wins}/20 runs, one-sided p={p:.2e}")


def test_criterion_6c_scaled_jump_at_change(scaled_experiment):
    result, _ = scaled_experiment
    jump = float(np.median(w5_column(result, "cdp", 21, "eta_bar")))
    before = float(np.median(w5_column(result, "cdp", 20, "eta_bar")))
    ok = jump > before
    report(
        "6c",
        ok,
        f"median eta-ratio at t*={jump:+.3f} vs t*-1={before:+.3f}; known not "
        "to hold at one-third scale for the same d=1 reason (passes at full scale)",
    )
    assert ok


def test_criterion_7_baseline_contracts():
    rng = np.random.default_rng(7)
    with Stopwatch() as clock:
        u = rng.random(12)
        u /= np.linalg.norm(u)
        window = [ActivityVector(u=u.copy(), t=t) for t in range(1, 4)]
        current = ActivityVector(u=u.copy(), t=4)
        zero_ok = (
            act_scores(window, current).z.max() < 1e-10
            and actm_scores(window, current).z.max() < 1e-10
        )

        vecs = []
        for t in range(1, 4):
            v = rng.random(12)
            vecs.append(ActivityVector(u=v / np.linalg.norm(v), t=t))
        w = rng.random(12)
        target = ActivityVector(u=w / np.linalg.norm(w), t=4)
        A = np.column_stack([v.u for v in vecs])
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        basis = U[:, s > 1e-12 * s[0]]
        residual = np.linalg.norm(target.u - basis @ (basis.T @ target.u))
        coeffs = rng.standard_normal((1000, basis.shape[1]))
        distances = np.linalg.norm(target.u - coeffs @ basis.T, axis=1)
        optimal_ok = bool(np.all(residual <= distances + 1e-8))

        a = rng.random(10)
        b = rng.random(10)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        w1 = act_scores([ActivityVector(u=a, t=1)], ActivityVector(u=b, t=2)).z
        exact_ok = np.array_equal(w1, np.abs(a - b))
    ok = zero_ok and optimal_ok and exact_ok and clock.seconds < 10.0
    assert report(
        7,
        ok,
        f"zero on identical windows, projection optimal vs 1000 draws, "
        f"w=1 reduction exact, {clock.seconds:.1f}s",
    )


def test_criterion_8_phi_eta_machinery():
    with Stopwatch() as clock:
        N = 100_000
        sep = estimate_phi(
            np.full(40, 10.0), np.full(50, 1.0), N, np.random.default_rng(0)
        )
        clamp_ok = sep == 1.0 - 0.5 / N

        scores = np.random.default_rng(5).standard_normal(10_000)
        near_half = estimate_phi(scores, scores, N, np.random.default_rng(1))
        half_ok = abs(near_half - 0.5) < 0.01

        odds_ok = log_odds(0.5) == 0.0 and all(
            abs(log_odds(1.0 - p) + log_odds(p)) < 1e-12 for p in (0.1, 0.3, 0.45)
        )
    ok = clamp_ok and half_ok and odds_ok and clock.seconds < 5.0
    assert report(
        8,
        ok,
        f"clamped phi exact, same-distribution phi={near_half:.4f}, "
        f"log-odds antisymmetric, {clock.seconds:.1f}s",
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    sim_args = [
        "simulate", "--scenario", "group-change", "--scale", "0.1",
        "--T", "30", "--seed", "123",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(sim_args + ["--out", str(out_a)]) == 0
    assert main(sim_args + ["--out", str(out_b)]) == 0

    det_a, det_b = tmp_path / "da", tmp_path / "db"
    for src, dst in ((out_a, det_a), (out_b, det_b)):
        code = main(
            ["detect", "--input", str(src / "sequence.tsv"), "--method", "cdp",
             "--window", "5", "--seed", "123", "--out", str(dst)]
        )
        assert code == 0

    same_sequence = (out_a / "sequence.tsv").read_bytes() == (out_b / "sequence.tsv").read_bytes()
    same_scores = (det_a / "scores.csv").read_bytes() == (det_b / "scores.csv").read_bytes()
    same_dims = (det_a / "dims.csv").read_bytes() == (det_b / "dims.csv").read_bytes()

    snaps = ingest_sequence(out_a / "sequence.tsv", n=90)
    spec = scenario("group-change", scale=0.1)
    regenerated = __import__("netchange").generate_sequence(
        spec, np.random.default_rng(123)
    )
    round_trip = all(
        np.array_equal(a.W, b.W) and a.t == b.t for a, b in zip(snaps, regenerated)
    )
    ok = same_sequence and same_scores and same_dims and round_trip
    assert report(
        9, ok, "byte-identical sequence/scores/dims across reruns; round-trip exact"
    )


@pytest.mark.skipif(
    "ENRON_EDGELIST" not in os.environ,
    reason="set ENRON_EDGELIST to the converted monthly e-mail edge list to run",
)
def test_criterion_10_enron_smoke(tmp_path):
    with Stopwatch() as clock:
        path = os.environ["ENRON_EDGELIST"]
        snapshots = ingest_sequence(path, n=2359)
        assert len(snapshots) == 28
        config = CdpConfig(zscore_threshold=5.0)
        series = score_sequence(snapshots, config, ("cdp",), (1,))[("cdp", 1)]
        n = snapshots[0].n
        fractions = {
            t: len(series.detections[t]) / n for t in series.scored_instants()
        }
        worst = max(fractions.values())
    ok = worst < 0.02 and clock.seconds < 1800.0
    assert report(
        10, ok, f"max per-instant detection fraction {worst:.4f}, {clock.seconds:.0f}s"
    )
