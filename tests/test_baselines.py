import numpy as np
import pytest

from netchange import (
    ActivityVector,
    CdpConfig,
    EmptyGraph,
    SnapshotMatrix,
    act_scores,
    activity,
    actm_scores,
    score_sequence,
)


def random_graph(n, seed, t=1, density=0.4):
    rng = np.random.default_rng(seed)
    upper = np.triu((rng.random((n, n)) < density) * rng.random((n, n)) * 4.0, k=1)
    return SnapshotMatrix(W=upper + upper.T, t=t)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestActivity:
    def test_star_graph_hub_dominates(self):
        n = 8
        W = np.zeros((n, n))
        W[0, 1:] = 1.0
        W[1:, 0] = 1.0
        u = activity(SnapshotMatrix(W=W)).u
        assert int(np.argmax(u)) == 0

    def test_single_edge_pair(self):
        u = activity(SnapshotMatrix(W=np.array([[0.0, 1.0], [1.0, 0.0]]))).u
        assert np.allclose(u, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-10)

    def test_matches_dense_eigensolver(self):
        snap = random_graph(20, seed=31)
        u = activity(snap).u
        evals, evecs = np.linalg.eigh(snap.W)
        expected = evecs[:, -1]
        if expected.sum() < 0:
            expected = -expected
        assert np.abs(u - expected).max() < 1e-8

    def test_unit_norm_and_nonnegative(self):
        for seed in range(5):
            u = activity(random_graph(15, seed=seed)).u
            assert abs(np.linalg.norm(u) - 1.0) < 1e-10
            assert u.min() >= -1e-10

    def test_zero_matrix_raises(self):
        with pytest.raises(EmptyGraph):
            activity(SnapshotMatrix(W=np.zeros((4, 4))))


class TestActScores:
    def test_constant_window_scores_zero(self):
        u = activity(random_graph(10, seed=2)).u
        window = [ActivityVector(u=u.copy(), t=t) for t in range(1, 4)]
        z = act_scores(window, ActivityVector(u=u.copy(), t=4)).z
        assert z.max() < 1e-10

    def test_w1_is_exact_entrywise_gap(self):
        a = activity(random_graph(12, seed=3, t=1))
        b = activity(random_graph(12, seed=4, t=2))
        z = act_scores([a], b).z
        assert np.array_equal(z, np.abs(a.u - b.u))

    def test_matches_direct_svd_oracle(self):
        vectors = [activity(random_graph(14, seed=s, t=s + 1)) for s in range(3)]
        current = activity(random_graph(14, seed=9, t=4))
        A = np.column_stack([v.u for v in vectors])
        U, _, _ = np.linalg.svd(A, full_matrices=False)
        r = U[:, 0]
        if r @ current.u < 0:
            r = -r
        expected = np.abs(r - current.u)
        z = act_scores(vectors, current).z
        assert np.abs(z - expected).max() < 1e-8


class TestActmScores:
    def test_current_in_span_scores_zero(self):
        rng = np.random.default_rng(6)
        a = unit(rng.random(10))
        b = unit(rng.random(10))
        window = [ActivityVector(u=a, t=1), ActivityVector(u=b, t=2)]
        mix = unit(0.3 * a + 0.7 * b)
        z = actm_scores(window, ActivityVector(u=mix, t=3)).z
        assert z.max() < 1e-8

    def test_w1_identical_scores_zero(self):
        u = activity(random_graph(9, seed=8)).u
        z = actm_scores([ActivityVector(u=u, t=1)], ActivityVector(u=u.copy(), t=2)).z
        assert z.max() < 1e-10

    def test_orthogonal_current_keeps_magnitudes(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        window = [ActivityVector(u=e1, t=1)]
        current = np.zeros(6)
        current[3] = 1.0
        z = actm_scores(window, ActivityVector(u=current, t=2)).z
        assert np.allclose(z, np.abs(current), atol=1e-12)

    def test_projection_beats_random_span_elements(self):
        rng = np.random.default_rng(12)
        window = [ActivityVector(u=unit(rng.random(12)), t=t) for t in range(1, 4)]
        current = ActivityVector(u=unit(rng.random(12)), t=4)
        A = np.column_stack([v.u for v in window])
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        basis = U[:, s > 1e-12 * s[0]]
        projected = basis @ (basis.T @ current.u)
        residual = np.linalg.norm(current.u - projected)
        coeffs = rng.standard_normal((1000, basis.shape[1]))
        candidates = coeffs @ basis.T
        distances = np.linalg.norm(current.u - candidates, axis=1)
        assert np.all(residual <= distances + 1e-8)

    def test_error_orthogonal_to_basis(self):
        rng = np.random.default_rng(13)
        window = [ActivityVector(u=unit(rng.random(9)), t=t) for t in range(1, 5)]
        current = ActivityVector(u=unit(rng.random(9)), t=5)
        A = np.column_stack([v.u for v in window])
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        basis = U[:, s > 1e-12 * s[0]]
        error = basis @ (basis.T @ current.u) - current.u
        assert np.abs(basis.T @ error).max() < 1e-8

    def test_act_and_actm_agree_for_w1_identical(self):
        u = activity(random_graph(11, seed=14)).u
        window = [ActivityVector(u=u, t=1)]
        current = ActivityVector(u=u.copy(), t=2)
        assert act_scores(window, current).z.max() < 1e-10
        assert actm_scores(window, current).z.max() < 1e-10


class TestScoreSequence:
    def test_series_shape(self):
        snapshots = [random_graph(10, seed=s, t=s + 1) for s in range(6)]
        swept = score_sequence(snapshots, CdpConfig(), ("actm",), (3,))
        assert set(swept) == {("actm", 3)}
        series = swept[("actm", 3)]
        assert series.scored_instants() == [4, 5, 6]
        assert all(series.dims[t] == 1 for t in range(1, 7))

    def test_unknown_method_rejected(self):
        snapshots = [random_graph(10, seed=s, t=s + 1) for s in range(3)]
        with pytest.raises(ValueError, match="'pca'"):
            score_sequence(snapshots, CdpConfig(), ("act", "pca"), (1,))

    def test_empty_snapshot_names_instant(self):
        snapshots = [random_graph(10, seed=s, t=s + 1) for s in range(4)]
        snapshots[1] = SnapshotMatrix(W=np.zeros((10, 10)), t=2)
        with pytest.raises(EmptyGraph, match="t=2"):
            score_sequence(snapshots, CdpConfig(), ("act",), (2,))
