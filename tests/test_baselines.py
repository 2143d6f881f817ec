import math

import numpy as np
import pytest

from netchange import (
    CdpConfig,
    Embedding,
    EmptyGraph,
    NotConverged,
    SnapshotMatrix,
    act_scores,
    activity,
    actm_scores,
    baselines,
    score_sequence,
)


def random_graph(n, seed, t=1, density=0.4):
    rng = np.random.default_rng(seed)
    upper = np.triu((rng.random((n, n)) < density) * rng.random((n, n)) * 4.0, k=1)
    return SnapshotMatrix(W=upper + upper.T, t=t)


def sparse_graph(n, seed, t=1):
    """Sparse graph with isolated vertices, one self-loop and non-integer weights."""
    rng = np.random.default_rng(seed)
    upper = np.triu((rng.random((n, n)) < 0.08) * rng.uniform(0.1, 3.0, (n, n)), k=1)
    isolated = rng.choice(n, size=n // 5, replace=False)
    upper[isolated, :] = 0.0
    upper[:, isolated] = 0.0
    loop = next(v for v in range(n) if v not in isolated)
    upper[loop, loop] = 2.5
    return SnapshotMatrix(W=upper + np.triu(upper, 1).T, t=t), np.sort(isolated)


def bipartite_graph(left, right, seed):
    """Weighted graph whose edges all join the first `left` vertices to the rest."""
    rng = np.random.default_rng(seed)
    n = left + right
    W = np.zeros((n, n))
    W[:left, left:] = (rng.random((left, right)) < 0.5) * rng.uniform(0.5, 2.0, (left, right))
    return SnapshotMatrix(W=W + W.T)


def dense_activity(snapshot):
    """Reference: the power iteration with a dense W @ v per step."""
    W = snapshot.W
    n = W.shape[0]
    shift = float(np.abs(W).sum(axis=1).max())
    v = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(baselines.ACTIVITY_MAX_ITER):
        w = W @ v + shift * v
        w /= np.linalg.norm(w)
        if np.abs(w - v).max() <= baselines.ACTIVITY_TOL:
            v = w
            break
        v = w
    if v.sum() < 0:
        v = -v
    return v


def hub_graph(n, seed, hub=37, spokes=64):
    """Sparse graph with one vertex joined to `spokes` others, all weights non-integer."""
    rng = np.random.default_rng(seed)
    W = np.triu((rng.random((n, n)) < 0.05) * rng.uniform(0.1, 3.0, (n, n)), k=1)
    W = W + W.T
    others = rng.choice(np.setdiff1d(np.arange(n), hub), size=spokes, replace=False)
    W[hub, others] = W[others, hub] = rng.uniform(0.1, 3.0, spokes)
    return SnapshotMatrix(W=W)


def relabelled(snapshot, seed):
    """The same graph with its vertices renumbered by a random permutation."""
    perm = np.random.default_rng(seed).permutation(snapshot.n)
    rows, cols, weights = snapshot.edges
    return SnapshotMatrix.from_edges(snapshot.n, perm[rows], perm[cols], weights, snapshot.t)


def row_order_activity(snapshot):
    """Reference: the sparse power iteration binned by row, fully stop-tested every step.

    Returns the converged vector and the number of steps taken.
    """
    r, c, a = baselines._mirrored_edges(snapshot)
    n = snapshot.n
    shift = float(np.bincount(r, weights=a, minlength=n).max())
    v = np.full(n, 1.0 / np.sqrt(n))
    for step in range(1, baselines.ACTIVITY_MAX_ITER + 1):
        w = np.bincount(r, weights=a * v[c], minlength=n) + shift * v
        w /= math.sqrt(w.dot(w))
        if np.abs(w - v).max() <= baselines.ACTIVITY_TOL:
            return w, step
        v = w
    raise AssertionError("reference power iteration did not converge")


def column(u, t):
    """An activity vector: a one-column Embedding."""
    return Embedding(X=np.asarray(u, dtype=float)[:, None], t=t)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestActivity:
    def test_star_graph_hub_dominates(self):
        n = 8
        W = np.zeros((n, n))
        W[0, 1:] = 1.0
        W[1:, 0] = 1.0
        u = activity(SnapshotMatrix(W=W)).X[:, 0]
        assert int(np.argmax(u)) == 0

    def test_single_edge_pair(self):
        u = activity(SnapshotMatrix(W=np.array([[0.0, 1.0], [1.0, 0.0]]))).X[:, 0]
        assert np.allclose(u, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-10)

    def test_matches_dense_eigensolver(self):
        snap = random_graph(20, seed=31)
        u = activity(snap).X[:, 0]
        evals, evecs = np.linalg.eigh(snap.W)
        expected = evecs[:, -1]
        if expected.sum() < 0:
            expected = -expected
        assert np.abs(u - expected).max() < 1e-8

    def test_unit_norm_and_nonnegative(self):
        for seed in range(5):
            u = activity(random_graph(15, seed=seed)).X[:, 0]
            assert abs(np.linalg.norm(u) - 1.0) < 1e-10
            assert u.min() >= -1e-10

    @pytest.mark.parametrize("shape", ["isolated", "bipartite"])
    def test_column_is_entrywise_nonnegative_unit_vector(self, shape):
        # no sign cleanup runs: the positive start, W >= 0 and the shift keep every iterate >= 0
        if shape == "isolated":
            snap, _ = sparse_graph(40, seed=2)
        else:
            snap = bipartite_graph(5, 7, seed=8)
        u = activity(snap).X[:, 0]
        assert u.min() >= 0.0
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12

    def test_returns_one_column_embedding(self):
        feature = activity(random_graph(10, seed=1, t=3))
        assert isinstance(feature, Embedding)
        assert feature.X.shape == (10, 1) and feature.d == 1 and feature.t == 3

    def test_zero_matrix_raises(self):
        with pytest.raises(EmptyGraph):
            activity(SnapshotMatrix(W=np.zeros((4, 4))))

    def test_never_builds_dense_matrix(self, monkeypatch):
        snap, _ = sparse_graph(40, seed=1)

        def no_dense(snap):
            raise AssertionError("dense W built")

        monkeypatch.setattr(SnapshotMatrix, "W", property(no_dense))
        assert abs(np.linalg.norm(activity(snap).X[:, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_power_iteration(self, seed):
        snap, _ = sparse_graph(60, seed=seed)
        assert np.abs(activity(snap).X[:, 0] - dense_activity(snap)).max() <= 1e-12

    def test_self_loop_counts_once_in_shift(self):
        # the loop sets the largest row sum, so counting it twice would
        # change the shift, the step count and so the returned bits; with
        # power-of-two weights and at most two terms a row, both products
        # round alike whatever order or fused multiply-add BLAS uses
        W = np.array([[4.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
        snap = SnapshotMatrix(W=W)
        assert np.array_equal(activity(snap).X[:, 0], dense_activity(snap))

    def test_isolated_vertices_tie_exactly(self):
        snap, isolated = sparse_graph(60, seed=3)
        u = activity(snap).X[:, 0]
        assert np.unique(u[isolated]).size == 1

    @pytest.mark.parametrize("relabel", [False, True], ids=["native", "relabelled"])
    @pytest.mark.parametrize("graph", [*range(6), "hub"])
    def test_bit_identical_to_row_order_sum(self, graph, relabel, monkeypatch):
        # column binning adds each row's terms in the row's own order, and
        # the probe stop test stops at the step a full test would
        snap = hub_graph(90, seed=4) if graph == "hub" else sparse_graph(60, seed=graph)[0]
        if relabel:
            snap = relabelled(snap, seed=11)
        expected, steps = row_order_activity(snap)
        monkeypatch.setattr(baselines, "ACTIVITY_MAX_ITER", steps)
        assert np.array_equal(activity(snap).X[:, 0], expected)
        monkeypatch.setattr(baselines, "ACTIVITY_MAX_ITER", steps - 1)
        with pytest.raises(NotConverged):
            activity(snap)

    def test_non_convergence_names_instant(self, monkeypatch):
        monkeypatch.setattr(baselines, "ACTIVITY_MAX_ITER", 3)
        with pytest.raises(NotConverged, match=r"t=7\b.*3 steps"):
            activity(random_graph(12, seed=5, t=7))


class TestActScores:
    def test_constant_window_scores_zero(self):
        u = activity(random_graph(10, seed=2)).X[:, 0]
        window = [column(u.copy(), t=t) for t in range(1, 4)]
        z = act_scores(window, column(u.copy(), t=4))
        assert z.max() < 1e-10

    def test_w1_is_exact_entrywise_gap(self):
        a = activity(random_graph(12, seed=3, t=1))
        b = activity(random_graph(12, seed=4, t=2))
        z = act_scores([a], b)
        assert np.array_equal(z, np.abs(a.X[:, 0] - b.X[:, 0]))

    def test_matches_direct_svd_oracle(self):
        vectors = [activity(random_graph(14, seed=s, t=s + 1)) for s in range(3)]
        current = activity(random_graph(14, seed=9, t=4))
        A = np.column_stack([v.X[:, 0] for v in vectors])
        U, _, _ = np.linalg.svd(A, full_matrices=False)
        r = U[:, 0]
        if r @ current.X[:, 0] < 0:
            r = -r
        expected = np.abs(r - current.X[:, 0])
        z = act_scores(vectors, current)
        assert np.abs(z - expected).max() < 1e-8


class TestActmScores:
    def test_current_in_span_scores_zero(self):
        rng = np.random.default_rng(6)
        a = unit(rng.random(10))
        b = unit(rng.random(10))
        window = [column(a, t=1), column(b, t=2)]
        mix = unit(0.3 * a + 0.7 * b)
        z = actm_scores(window, column(mix, t=3))
        assert z.max() < 1e-8

    def test_w1_identical_scores_zero(self):
        u = activity(random_graph(9, seed=8)).X[:, 0]
        z = actm_scores([column(u, t=1)], column(u.copy(), t=2))
        assert z.max() < 1e-10

    def test_orthogonal_current_keeps_magnitudes(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        window = [column(e1, t=1)]
        current = np.zeros(6)
        current[3] = 1.0
        z = actm_scores(window, column(current, t=2))
        assert np.allclose(z, np.abs(current), atol=1e-12)

    def test_projection_beats_random_span_elements(self):
        rng = np.random.default_rng(12)
        window = [column(unit(rng.random(12)), t=t) for t in range(1, 4)]
        current = column(unit(rng.random(12)), t=4)
        A = np.column_stack([v.X[:, 0] for v in window])
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        basis = U[:, s > 1e-12 * s[0]]
        projected = basis @ (basis.T @ current.X[:, 0])
        residual = np.linalg.norm(current.X[:, 0] - projected)
        coeffs = rng.standard_normal((1000, basis.shape[1]))
        candidates = coeffs @ basis.T
        distances = np.linalg.norm(current.X[:, 0] - candidates, axis=1)
        assert np.all(residual <= distances + 1e-8)

    def test_error_orthogonal_to_basis(self):
        rng = np.random.default_rng(13)
        window = [column(unit(rng.random(9)), t=t) for t in range(1, 5)]
        current = column(unit(rng.random(9)), t=5)
        A = np.column_stack([v.X[:, 0] for v in window])
        U, s, _ = np.linalg.svd(A, full_matrices=False)
        basis = U[:, s > 1e-12 * s[0]]
        error = basis @ (basis.T @ current.X[:, 0]) - current.X[:, 0]
        assert np.abs(basis.T @ error).max() < 1e-8

    def test_act_and_actm_agree_for_w1_identical(self):
        u = activity(random_graph(11, seed=14)).X[:, 0]
        window = [column(u, t=1)]
        current = column(u.copy(), t=2)
        assert act_scores(window, current).max() < 1e-10
        assert actm_scores(window, current).max() < 1e-10


class TestScoreSequence:
    def test_series_shape(self):
        snapshots = [random_graph(10, seed=s, t=s + 1) for s in range(6)]
        swept = score_sequence(snapshots, CdpConfig(), ("actm",), (3,))
        assert set(swept) == {("actm", 3)}
        series = swept[("actm", 3)]
        assert series.instants == range(4, 7)
        assert series.scores.shape == (3, 10)
        assert series.dims.tolist() == [1] * 6

    def test_unknown_method_rejected(self):
        snapshots = [random_graph(10, seed=s, t=s + 1) for s in range(3)]
        with pytest.raises(ValueError, match="'pca'"):
            score_sequence(snapshots, CdpConfig(), ("act", "pca"), (1,))

    def test_empty_snapshot_names_instant(self):
        snapshots = [random_graph(10, seed=s, t=s + 1) for s in range(4)]
        snapshots[1] = SnapshotMatrix(W=np.zeros((10, 10)), t=2)
        with pytest.raises(EmptyGraph, match="t=2"):
            score_sequence(snapshots, CdpConfig(), ("act",), (2,))
