import numpy as np
import pytest

import netchange.procrustes as procrustes
from netchange import (
    DegenerateShape,
    Embedding,
    catalog,
    change_scores,
    generate_sequence,
    gpa_align,
    optimal_rotation,
    pre_shape,
    profile_embedding,
    sample_snapshot,
    sample_theta,
    scenario,
    score_sequence,
)
from netchange.pipeline import CdpConfig, embed_snapshot


def haar_orthogonal(d, rng, count=1):
    """Batch of Haar-distributed orthogonal matrices via sign-fixed QR."""
    A = rng.standard_normal((count, d, d))
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diagonal(R, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return Q * signs[:, None, :]


def reference_gpa(matrices, threshold=1e-10, max_iterations=100):
    """Plain-loop reimplementation of the iterative alignment, for cross-checks.

    Recomputes every pre-shape inside the loop and performs each step one
    matrix at a time.
    """
    w = len(matrices)
    n = matrices[0].shape[0]
    mu = np.array(matrices[0], dtype=float)
    D = np.inf
    iterations = 0
    aligned = None
    while D > threshold and iterations < max_iterations:
        aligned = []
        for X in matrices:
            centered = X - np.ones((n, n)) @ X / n
            tilde = centered / np.sqrt((centered**2).sum())
            U, _, Vt = np.linalg.svd(mu.T @ tilde)
            gamma = Vt.T @ U.T
            aligned.append(tilde @ gamma)
        new_mu = sum(aligned) / w
        D = ((mu - new_mu) ** 2).sum()
        mu = new_mu
        iterations += 1
    return mu, aligned


def member_loop_gpa(matrices):
    """The per-member GPA pass, one rotation and one product per matrix.

    `gpa_align` runs the same pass as one stacked SVD and one stacked
    product; this loop is its bitwise reference.
    """
    tildes = [pre_shape(X) for X in matrices]
    mu = np.asarray(matrices[0], dtype=float)
    aligned = tildes
    iterations = 0
    D = np.inf
    while D > procrustes.GPA_THRESHOLD and iterations < procrustes.GPA_MAX_ITERATIONS:
        aligned = [Xt @ optimal_rotation(mu, Xt) for Xt in tildes]
        new_mu = np.mean(aligned, axis=0)
        D = float(np.sum((mu - new_mu) ** 2))
        mu = new_mu
        iterations += 1
    return mu, np.asarray(aligned), iterations, D <= procrustes.GPA_THRESHOLD


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def zero_padded(matrices):
    """Copies of the matrices with zero columns appended up to the widest one."""
    d_max = max(X.shape[1] for X in matrices)
    return [np.hstack([X, np.zeros((X.shape[0], d_max - X.shape[1]))]) for X in matrices]


def assert_same_alignment(result, other):
    assert np.array_equal(bits(result.mean), bits(other.mean))
    assert np.array_equal(bits(result.aligned), bits(other.aligned))
    assert (result.iterations, result.converged) == (other.iterations, other.converged)


def assert_same_as_member_loop(window):
    """`gpa_align` on the members as given equals the loop on padded copies."""
    expected = procrustes.AlignmentResult(*member_loop_gpa(zero_padded(window)))
    assert_same_alignment(gpa_align(window), expected)


def mixed_window(m, d_max, seed, n=12):
    """m members of dimension 1..d_max (one has d_max), as `gpa_align` takes them.

    Every other member has tied rows, as sparse snapshots give.
    """
    rng = np.random.default_rng(seed)
    dims = [d_max] + [int(d) for d in rng.integers(1, d_max + 1, m - 1)]
    window = []
    for i, d in enumerate(dims):
        X = rng.standard_normal((n, d))
        if i % 2:
            X[n // 2:] = X[0]
        window.append(X)
    return window


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


def dcsbm_embeddings(count, seed, scale=1 / 30):
    model = catalog("M1", scale=scale)
    rng = np.random.default_rng(seed)
    config = CdpConfig(seed=seed)
    embeddings = []
    for t in range(1, count + 1):
        theta = sample_theta(model, rng)
        snap = sample_snapshot(model, theta, rng, t=t)
        embeddings.append(embed_snapshot(snap, config))
    return embeddings


class TestPreShape:
    def test_two_point_column(self):
        out = pre_shape(np.array([[1.0], [3.0]]))
        assert np.allclose(out, [[-1 / np.sqrt(2)], [1 / np.sqrt(2)]], atol=1e-12)

    def test_already_normalized_unchanged(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        X /= np.linalg.norm(X)
        out = pre_shape(X)
        assert np.allclose(out, X, atol=1e-12)

    def test_constant_columns_degenerate(self):
        with pytest.raises(DegenerateShape):
            pre_shape(np.full((4, 2), 3.3))

    def test_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            out = pre_shape(rng.standard_normal((6, 3)))
            assert np.abs(out.sum(axis=0)).max() < 1e-10
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestOptimalRotation:
    def test_inverts_planar_rotation(self):
        mu = pre_shape(np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, -2.0]]))
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        tilted = mu @ rot90
        gamma = optimal_rotation(mu, tilted)
        assert np.abs(gamma - rot90.T).max() < 1e-10
        assert np.abs(tilted @ gamma - mu).max() < 1e-10

    def test_identity_when_equal(self):
        # full-rank shape, so the optimizer is unique
        mu = pre_shape(np.random.default_rng(1).standard_normal((4, 2)))
        assert np.abs(optimal_rotation(mu, mu) - np.eye(2)).max() < 1e-10

    def test_orthogonality(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            gamma = optimal_rotation(rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
            assert np.abs(gamma.T @ gamma - np.eye(3)).max() < 1e-8

    def test_beats_random_orthogonal(self):
        rng = np.random.default_rng(77)
        mu = pre_shape(rng.standard_normal((5, 2)))
        tilde = pre_shape(rng.standard_normal((5, 2)))
        gamma = optimal_rotation(mu, tilde)
        best = np.linalg.norm(tilde @ gamma - mu)
        Q = haar_orthogonal(2, rng, count=10_000)
        candidates = np.einsum("ij,kjl->kil", tilde, Q)
        distances = np.linalg.norm(candidates - mu, axis=(1, 2))
        assert best <= distances.min() + 1e-12

    def test_stack_matches_single_calls_bitwise(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3):
            mu = pre_shape(rng.standard_normal((7, d)))
            stack = np.stack([pre_shape(rng.standard_normal((7, d))) for _ in range(5)])
            stacked = optimal_rotation(mu, stack)
            assert stacked.shape == (5, d, d)
            single = np.stack([optimal_rotation(mu, Xt) for Xt in stack])
            assert np.array_equal(bits(stacked), bits(single))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            optimal_rotation(np.zeros((4, 2)), np.zeros((3, 4, 3)))


class TestGpaAlign:
    def test_identical_copies(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((7, 3))
        result = gpa_align([X.copy() for _ in range(4)])
        assert result.converged
        assert result.iterations <= 2
        expected = pre_shape(X)
        assert np.abs(result.mean - expected).max() < 1e-10
        for A in result.aligned:
            assert np.abs(A - result.aligned[0]).max() < 1e-10

    def test_rotated_and_reflected_copies(self):
        rng = np.random.default_rng(12)
        base = pre_shape(rng.standard_normal((9, 3)))
        reflect = np.diag([1.0, 1.0, -1.0])
        copies = [base]
        for Q in haar_orthogonal(3, rng, count=3):
            copies.append(base @ Q)
        copies.append(base @ reflect)
        result = gpa_align(copies)
        for i in range(len(copies)):
            for j in range(i + 1, len(copies)):
                assert np.linalg.norm(result.aligned[i] - result.aligned[j]) < 1e-8

    def test_objective_monotone(self):
        rng = np.random.default_rng(31)
        mats = [rng.standard_normal((8, 2)) for _ in range(3)]
        history = gpa_objectives(mats)
        assert len(history) >= 1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_mean_is_average_of_aligned(self):
        rng = np.random.default_rng(13)
        result = gpa_align([rng.standard_normal((6, 2)) for _ in range(5)])
        assert result.aligned.shape == (5, 6, 2)
        assert np.abs(result.mean - result.aligned.mean(axis=0)).max() < 1e-10

    @pytest.mark.parametrize("d_max", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_matches_member_loop_bitwise(self, m, d_max):
        for seed in range(3):
            assert_same_as_member_loop(mixed_window(m, d_max, seed=100 * m + 10 * d_max + seed))

    def test_dcsbm_window_matches_member_loop_bitwise(self):
        embeddings = dcsbm_embeddings(5, seed=202)
        assert_same_as_member_loop([e.X for e in embeddings])

    @pytest.mark.parametrize("widest_first", [False, True])
    @pytest.mark.parametrize("d_max", [2, 3, 5])
    def test_mixed_widths_equal_padding_by_hand(self, d_max, widest_first):
        rng = np.random.default_rng(d_max)
        dims = range(d_max, 0, -1) if widest_first else range(1, d_max + 1)
        window = [rng.standard_normal((12, d)) for d in dims]
        assert_same_alignment(gpa_align(window), gpa_align(zero_padded(window)))

    def test_mixed_shapes_rejected_before_pre_shape(self):
        rng = np.random.default_rng(4)
        # the constant member would raise DegenerateShape if it were pre-shaped first
        with pytest.raises(ValueError, match="row mismatch"):
            gpa_align([np.full((5, 2), 1.5), rng.standard_normal((4, 3))])
        with pytest.raises(ValueError, match="row mismatch"):
            gpa_align([rng.standard_normal((5, 2)), np.ones((4, 2)), rng.standard_normal((5, 2))])

    def test_needs_two_matrices(self):
        with pytest.raises(ValueError):
            gpa_align([np.eye(3)])

    def test_iteration_cap_flags_not_raises(self, monkeypatch):
        monkeypatch.setattr(procrustes, "GPA_THRESHOLD", 0.0)
        monkeypatch.setattr(procrustes, "GPA_MAX_ITERATIONS", 2)
        rng = np.random.default_rng(21)
        mats = [rng.standard_normal((6, 2)) for _ in range(3)]
        result = gpa_align(mats)
        assert result.iterations == 2
        assert not result.converged


class TestProfileEmbedding:
    def test_identical_window(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        window = [Embedding(X=X.copy(), t=t) for t in range(1, 5)]
        profile = profile_embedding(window)
        assert np.abs(profile.X - pre_shape(X)).max() < 1e-8

    def test_single_member_is_pre_shape(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 3))
        profile = profile_embedding([Embedding(X=X, t=4)])
        assert np.array_equal(profile.X, pre_shape(X))

    def test_mixed_dimensions_pad_up(self):
        rng = np.random.default_rng(10)
        two = Embedding(X=rng.standard_normal((6, 2)), t=1)
        three = Embedding(X=rng.standard_normal((6, 3)), t=2)
        profile = profile_embedding([two, three])
        assert profile.d == 3

    def test_matches_reference_implementation(self):
        embeddings = dcsbm_embeddings(5, seed=202)
        d_max = max(e.d for e in embeddings)
        padded = [np.hstack([e.X, np.zeros((e.n, d_max - e.d))]) for e in embeddings]
        profile = profile_embedding(embeddings)
        expected_mean, _ = reference_gpa(padded)
        assert np.abs(profile.X - expected_mean).max() < 1e-8


class TestChangeScores:
    def test_identical_inputs_score_zero(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((8, 2))
        current = Embedding(X=X, t=2)
        profile = Embedding(X=X.copy(), t=1)
        z = change_scores(current, profile)
        assert np.abs(z).max() < 1e-10

    def test_rotated_profile_scores_zero(self):
        rng = np.random.default_rng(18)
        X = pre_shape(rng.standard_normal((8, 3)))
        Q = haar_orthogonal(3, rng)[0]
        z = change_scores(Embedding(X=X @ Q, t=2), Embedding(X=X, t=1))
        assert np.abs(z).max() < 1e-8

    def test_perturbed_row_has_largest_score(self):
        rng = np.random.default_rng(23)
        X = pre_shape(rng.standard_normal((12, 2)))
        bumped = X.copy()
        bumped[7] += 10.0 * np.linalg.norm(X[7]) * rng.standard_normal(2)
        z = change_scores(Embedding(X=bumped, t=2), Embedding(X=X, t=1))
        assert int(np.argmax(z)) == 7


class TestScoreInvariances:
    def setup_method(self):
        rng = np.random.default_rng(55)
        self.rng = rng
        self.profile = Embedding(X=pre_shape(rng.standard_normal((10, 3))), t=1)
        self.current = Embedding(X=rng.standard_normal((10, 3)), t=2)
        self.base = change_scores(self.current, self.profile)

    def test_scale_invariance(self):
        for c in (0.01, 3.0, 250.0):
            z = change_scores(
                Embedding(X=c * self.current.X, t=2), self.profile
            )
            assert np.abs(z - self.base).max() < 1e-10

    def test_rotation_reflection_invariance(self):
        for Q in haar_orthogonal(3, self.rng, count=5):
            z = change_scores(
                Embedding(X=self.current.X @ Q, t=2), self.profile
            )
            assert np.abs(z - self.base).max() < 1e-8

    def test_translation_invariance(self):
        shifted = self.current.X.copy()
        shifted[:, 1] += 7.5
        z = change_scores(Embedding(X=shifted, t=2), self.profile)
        assert np.abs(z - self.base).max() < 1e-10

    def test_swap_symmetry(self, monkeypatch):
        monkeypatch.setattr(procrustes, "GPA_THRESHOLD", 1e-12)
        forward = change_scores(self.current, self.profile)
        backward = change_scores(self.profile, self.current)
        assert np.abs(np.sort(forward) - np.sort(backward)).max() < 1e-8

    def test_padding_neutrality(self):
        zeros = np.zeros((10, 2))
        padded_current = Embedding(X=np.hstack([self.current.X, zeros]), t=2)
        padded_profile = Embedding(X=np.hstack([self.profile.X, zeros]), t=1)
        z = change_scores(padded_current, padded_profile)
        assert np.array_equal(z, self.base)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="on the sparse n=90 fixture sequence the rank search keeps d=7-35 where the "
    "planted structure gives 2 (ROADMAP item 10), and at that width every w=5 window "
    "profile stops at the GPA_MAX_ITERATIONS cap with converged=False (item 5)",
)
def test_fixture_window_profiles_converge(monkeypatch):
    original, results = procrustes.gpa_align, []

    def recording(matrices):
        results.append(original(matrices))
        return results[-1]

    monkeypatch.setattr(procrustes, "gpa_align", recording)
    snapshots = generate_sequence(scenario("group-change", scale=0.1), np.random.default_rng(0))
    score_sequence(snapshots, CdpConfig(seed=0), ("cdp",), (5,))
    profiles = [r for r in results if len(r.aligned) == 5]
    if len(profiles) != len(snapshots) - 5:
        pytest.fail(f"{len(profiles)} window profiles for {len(snapshots)} snapshots")
    assert all(r.converged for r in profiles)
