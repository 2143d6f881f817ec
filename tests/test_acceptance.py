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

import netchange.procrustes as procrustes
from netchange import (
    CdpConfig,
    Embedding,
    EmptyGraph,
    SnapshotMatrix,
    act_scores,
    actm_scores,
    change_scores,
    embed,
    estimate_phi,
    gpa_align,
    log_odds,
    optimal_rotation,
    pre_shape,
    psi,
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


def gpa_objectives(matrices):
    """Sum of squared distances to the mean after each pass of `gpa_align`.

    The loop is deterministic, so pass k of a run capped at k passes is pass
    k of the uncapped run; runs capped at 1, 2, ... passes trace it until one
    converges.
    """
    history = []
    for passes in range(1, procrustes.GPA_MAX_ITERATIONS + 1):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(procrustes, "GPA_MAX_ITERATIONS", passes)
            result = gpa_align(matrices)
        history.append(float(sum(np.sum((A - result.mean) ** 2) for A in result.aligned)))
        if result.converged:
            break
    return history


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


def test_criterion_1_algebra_suite():
    def rep(W):
        return representation_matrix(SnapshotMatrix(W=np.array(W, dtype=float), t=1))

    def raises_empty_graph(W):
        try:
            rep(W)
        except EmptyGraph:
            return True
        return False

    with Stopwatch() as clock:
        # log 9 -> 1, max scaling -> 1, tau = 1/8, degrees 5/4
        M = rep([[0.0, 9.0], [9.0, 0.0]])
        chain_ok = np.abs(M - np.array([[0.1, 0.9], [0.9, 0.1]])).max() < 1e-12
        # path 0 - 1 - 2: logs 1 and 2 scale to 1/2 and 1, tau = 1/12,
        # degrees 3/4, 7/4 and 5/4
        r15, r21, r35 = np.sqrt(15.0), np.sqrt(21.0), np.sqrt(35.0)
        path = np.array([
            [1 / 9, r21 / 9, 1 / (3 * r15)],
            [r21 / 9, 1 / 21, 13 / (3 * r35)],
            [1 / (3 * r15), 13 / (3 * r35), 1 / 15],
        ])
        hand_ok = (
            np.abs(rep([[0.0, 9.0, 0.0], [9.0, 0.0, 99.0], [0.0, 99.0, 0.0]]) - path).max()
            < 1e-12
            # one weight of any size scales to exactly 1
            and np.array_equal(rep([[0.0, 4.0], [4.0, 0.0]]), M)
            # all entries equal: tau = 1/4 and M = 1/n
            and np.abs(rep(np.ones((3, 3))) - 1.0 / 3.0).max() < 1e-12
            and raises_empty_graph(np.zeros((5, 5)))
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
            base = change_scores(current, profile)

            Q = haar_orthogonal(d, rng)[0]
            scale = float(rng.uniform(0.2, 5.0))
            shift = rng.standard_normal(d)
            transformed = Embedding(X=scale * (current.X @ Q) + shift, t=2)
            moved = change_scores(transformed, profile)
            worst_gap = max(worst_gap, float(np.abs(moved - base).max()))

            same = change_scores(
                Embedding(X=profile.X.copy(), t=2), profile
            )
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
            history = gpa_objectives(mats)
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
            embed(M, 0.005, rng=np.random.default_rng(seed)).d == 2
            for seed in range(100)
        )
        two_by_two = np.array([[0.1, 0.9], [0.9, 0.1]])
        zero_residual = embed(two_by_two, rng=np.random.default_rng(0)).d == 1
        rng = np.random.default_rng(7)
        A = rng.standard_normal((40, 40))
        huge_eps = embed((A + A.T) / 2, epsilon=1e9, rng=np.random.default_rng(0)).d == 1
    ok = hits >= 95 and zero_residual and huge_eps and clock.seconds < 120.0
    assert report(
        4, ok, f"3-block d=2 in {hits}/100 runs, edge cases d=1, {clock.seconds:.1f}s"
    )


def test_criterion_5_dcsbm_sampler():
    with Stopwatch() as clock:
        model = DcsbmModel(
            g=(10, 12, 8),
            B=0.7 * np.diag([0.4, 0.5, 0.6]) + (1.0 - 0.7) * 0.05,
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
    """eta, or its change since t-1 (eta_bar), of one method at instant t and w=5, per run."""
    eta, k = result.eta[method, 5], result.instants[5].index(t)
    return eta[:, k] if key == "eta" else eta[:, k] - eta[:, k - 1]


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
    p, _, _ = sign_test(eta_cdp, eta_act)
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
        window = [Embedding(X=u.copy()[:, None], t=t) for t in range(1, 4)]
        current = Embedding(X=u.copy()[:, None], t=4)
        zero_ok = (
            act_scores(window, current).max() < 1e-10
            and actm_scores(window, current).max() < 1e-10
        )

        vecs = []
        for t in range(1, 4):
            v = rng.random(12)
            vecs.append(Embedding(X=(v / np.linalg.norm(v))[:, None], t=t))
        w = rng.random(12)
        target = Embedding(X=(w / np.linalg.norm(w))[:, None], t=4)
        A = np.column_stack([v.X[:, 0] for v in vecs])
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        basis = U[:, s > 1e-12 * s[0]]
        residual = np.linalg.norm(target.X[:, 0] - basis @ (basis.T @ target.X[:, 0]))
        coeffs = rng.standard_normal((1000, basis.shape[1]))
        distances = np.linalg.norm(target.X[:, 0] - coeffs @ basis.T, axis=1)
        optimal_ok = bool(np.all(residual <= distances + 1e-8))

        a = rng.random(10)
        b = rng.random(10)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        w1 = act_scores([Embedding(X=a[:, None], t=1)], Embedding(X=b[:, None], t=2))
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

    snaps = ingest_sequence(out_a / "sequence.tsv")
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
        snapshots = ingest_sequence(path)
        assert len(snapshots) == 28
        config = CdpConfig(zscore_threshold=5.0)
        series = score_sequence(snapshots, config, ("cdp",), (1,))[("cdp", 1)]
        worst = series.detected.sum(axis=1).max() / snapshots[0].n
    ok = worst < 0.02 and clock.seconds < 1800.0
    assert report(
        10, ok, f"max per-instant detection fraction {worst:.4f}, {clock.seconds:.0f}s"
    )
