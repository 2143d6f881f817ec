import math
import tracemalloc

import numpy as np
import pytest

from netchange import (
    EmptyGraph,
    InvalidWeight,
    NotSymmetric,
    SnapshotMatrix,
    catalog,
    log_transform,
    max_scale,
    regularizer_tau,
    representation_matrix,
    sample_snapshot,
    sample_theta,
)
from netchange.graph import MAX_VERTICES


def random_snapshot(n, rng, t=1):
    upper = np.triu(rng.random((n, n)) * 5.0, k=1)
    return SnapshotMatrix(W=upper + upper.T, t=t)


def naive_representation(W):
    """Loop-based recomputation of the whole preprocessing chain."""
    n = W.shape[0]
    logged = [[math.log10(W[i][j] + 1.0) for j in range(n)] for i in range(n)]
    top = max(max(row) for row in logged)
    scaled = [[v / top for v in row] for row in logged]
    tau = sum(sum(row) for row in scaled) / (4.0 * n * n)
    w_tau = [[scaled[i][j] + tau for j in range(n)] for i in range(n)]
    degrees = [sum(row) for row in w_tau]
    M = [
        [w_tau[i][j] / math.sqrt(degrees[i] * degrees[j]) for j in range(n)]
        for i in range(n)
    ]
    return np.array(M), tau


class TestSnapshotMatrix:
    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidWeight):
            SnapshotMatrix(W=np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SnapshotMatrix(W=np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(W=np.array([[0.0]]))

    def test_array_is_locked(self):
        snap = SnapshotMatrix(W=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            snap.W[0, 1] = 2.0

    @staticmethod
    def irregular_matrix():
        """Non-integer weights, a self-loop and an isolated vertex (3)."""
        rng = np.random.default_rng(21)
        upper = np.triu(rng.random((7, 7)) * 3.7, k=1)
        upper[rng.random((7, 7)) < 0.4] = 0.0
        upper[:, 3] = 0.0
        upper[3, :] = 0.0
        W = upper + upper.T
        W[5, 5] = 0.3
        return W

    def test_dense_round_trip_exact(self):
        W = self.irregular_matrix()
        snap = SnapshotMatrix(W, t=4)
        assert np.array_equal(snap.W, W)
        assert snap.n == 7 and snap.t == 4
        assert not np.any(snap.W[3]) and snap.W[5, 5] == 0.3

    def test_each_access_is_a_fresh_read_only_array(self):
        snap = SnapshotMatrix(self.irregular_matrix())
        first = snap.W
        assert first is not snap.W
        assert not first.flags.writeable
        assert not any(a.flags.writeable for a in snap.edges)

    def test_edges_are_the_upper_triangle_in_row_major_order(self):
        W = self.irregular_matrix()
        rows, cols, weights = SnapshotMatrix(W).edges
        expected_rows, expected_cols = np.nonzero(np.triu(W))
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(cols, expected_cols)
        assert np.array_equal(weights, W[expected_rows, expected_cols])

    def test_from_edges_matches_dense_constructor(self):
        W = self.irregular_matrix()
        rows, cols = np.nonzero(np.triu(W))
        order = np.random.default_rng(2).permutation(rows.size)
        # shuffled, half of the pairs given lower-first, plus an explicit zero
        # on the pair (0, 3), which the isolated vertex 3 leaves empty
        r, c = rows[order], cols[order]
        r[::2], c[::2] = c[::2].copy(), r[::2].copy()
        weights = np.append(W[r, c], 0.0)
        r, c = np.append(r, 0), np.append(c, 3)
        snap = SnapshotMatrix.from_edges(7, r, c, weights, t=2)
        dense = SnapshotMatrix(W, t=2)
        assert np.array_equal(snap.W, dense.W)
        for got, expected in zip(snap.edges, dense.edges):
            assert np.array_equal(got, expected)
        assert snap.n == 7 and snap.t == 2

    @pytest.mark.parametrize("i,j", [(0, 7), (7, 0), (-1, 2)])
    def test_from_edges_rejects_out_of_range_index(self, i, j):
        with pytest.raises(ValueError, match="out of range"):
            SnapshotMatrix.from_edges(7, [i], [j], [1.0])

    @pytest.mark.parametrize("i,j", [(0.7, 1), (True, 2), (0, 2.0)])
    def test_from_edges_rejects_non_integer_index(self, i, j):
        with pytest.raises(ValueError, match="integers"):
            SnapshotMatrix.from_edges(3, [i], [j], [1.0])

    def test_from_edges_accepts_empty_lists(self):
        snap = SnapshotMatrix.from_edges(3, [], [], [], t=4)
        assert (snap.n, snap.t) == (3, 4)
        assert all(a.size == 0 for a in snap.edges)

    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_from_edges_rejects_bad_weight(self, weight):
        with pytest.raises(InvalidWeight):
            SnapshotMatrix.from_edges(3, [0, 1], [1, 2], [1.0, weight])

    def test_from_edges_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            SnapshotMatrix.from_edges(1, [0], [0], [1.0])

    def test_from_edges_rejects_repeated_pair(self):
        with pytest.raises(ValueError, match="more than once"):
            SnapshotMatrix.from_edges(3, [0, 2], [2, 0], [1.0, 1.0])

    def test_from_edges_pair_keys_fit_up_to_max_vertices(self):
        n = MAX_VERTICES
        assert (n - 1) * n + (n - 1) <= np.iinfo(np.int64).max < n * (n + 1) + n
        snap = SnapshotMatrix.from_edges(n, [n - 1, n - 2, 0], [n - 1, n - 1, 1], [1.0, 2.0, 3.0])
        rows, cols, weights = snap.edges
        assert rows.tolist() == [0, n - 2, n - 1] and cols.tolist() == [1, n - 1, n - 1]
        assert weights.tolist() == [3.0, 2.0, 1.0]
        with pytest.raises(ValueError, match=f"needs 2 to {n} vertices, got n={n + 1}"):
            SnapshotMatrix.from_edges(n + 1, [0], [1], [1.0])


class TestLogTransform:
    @pytest.mark.parametrize("value,expected", [(0.0, 0.0), (9.0, 1.0), (99.0, 2.0)])
    def test_hand_values(self, value, expected):
        out = log_transform(np.full((2, 2), value))
        assert out[0, 0] == pytest.approx(expected, abs=0)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidWeight):
            log_transform(np.array([[0.0, -0.5], [-0.5, 0.0]]))

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(3)
        W = random_snapshot(6, rng).W
        out = log_transform(W)
        assert np.array_equal(out, out.T)


class TestMaxScale:
    def test_uniform_positive_scales_to_one(self):
        out = max_scale(np.array([[0.0, 3.7], [3.7, 0.0]]))
        assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_already_scaled_unchanged(self):
        W = np.array([[0.0, 1.0], [1.0, 0.5]])
        assert np.array_equal(max_scale(W), W)

    def test_all_zero_raises(self):
        with pytest.raises(EmptyGraph):
            max_scale(np.zeros((3, 3)))

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            W = rng.random((5, 5)) * 12.0
            once = max_scale(W)
            assert np.array_equal(max_scale(once), once)


class TestRegularizerTau:
    def test_two_vertex_case(self):
        assert regularizer_tau(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.125

    def test_all_ones(self):
        assert regularizer_tau(np.ones((7, 7))) == 0.25

    def test_all_zero(self):
        assert regularizer_tau(np.zeros((4, 4))) == 0.0


class TestRepresentationMatrix:
    def test_worked_chain(self):
        snap = SnapshotMatrix(W=np.array([[0.0, 9.0], [9.0, 0.0]]))
        M = representation_matrix(snap)
        scaled = max_scale(log_transform(snap.W))
        assert regularizer_tau(scaled) == pytest.approx(0.125, abs=1e-15)
        assert np.allclose(scaled, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
        assert np.allclose(M, [[0.1, 0.9], [0.9, 0.1]], atol=1e-12)

    def test_uniform_weights_give_constant_matrix(self):
        snap = SnapshotMatrix(W=np.full((5, 5), 4.0))
        M = representation_matrix(snap)
        assert np.allclose(M, 1.0 / 5.0, atol=1e-12)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(42)
        snap = random_snapshot(10, rng)
        M = representation_matrix(snap)
        expected_M, expected_tau = naive_representation(snap.W)
        assert regularizer_tau(max_scale(log_transform(snap.W))) == pytest.approx(
            expected_tau, abs=1e-15
        )
        assert np.abs(M - expected_M).max() < 1e-12

    def test_bitwise_equal_to_composed_steps(self):
        # the in-place build must keep the bits of the out-of-place chain
        W = TestSnapshotMatrix.irregular_matrix()
        rng = np.random.default_rng(3)
        for snap in (SnapshotMatrix(W), random_snapshot(37, rng), random_snapshot(64, rng)):
            scaled = max_scale(log_transform(snap.W))
            tau = regularizer_tau(scaled)
            W_tau = scaled + tau
            inv_sqrt = 1.0 / np.sqrt(W_tau.sum(axis=1))
            M = inv_sqrt[:, None] * W_tau * inv_sqrt[None, :]
            M = (M + M.T) / 2.0
            rep = representation_matrix(snap)
            assert np.array_equal(rep.view(np.uint64), M.view(np.uint64))
            assert rep.flags.c_contiguous
            assert not rep.flags.writeable

    def test_working_set_is_three_dense_arrays(self):
        # the scaled matrix, M and a transposed copy of M; a regression that keeps
        # one more n x n temporary alive exceeds the bound
        n = 300
        rng = np.random.default_rng(11)
        rows, cols = np.divmod(rng.choice(n * n, size=1500, replace=False), n)
        keep = rows < cols
        snap = SnapshotMatrix.from_edges(
            n, rows[keep], cols[keep], rng.integers(1, 5, keep.sum()).astype(float)
        )
        tracemalloc.start()
        try:
            representation_matrix(snap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * n * n * 8

    def test_empty_graph_propagates(self):
        snap = SnapshotMatrix(W=np.zeros((3, 3)))
        with pytest.raises(EmptyGraph):
            representation_matrix(snap)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            snap = random_snapshot(12, rng)
            perm = rng.permutation(12)
            permuted = SnapshotMatrix(W=snap.W[np.ix_(perm, perm)])
            M = representation_matrix(snap)
            M_perm = representation_matrix(permuted)
            assert np.abs(M_perm - M[np.ix_(perm, perm)]).max() < 1e-14

    def test_regularized_degrees_strictly_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            snap = random_snapshot(8, rng)
            scaled = max_scale(log_transform(snap.W))
            tau = regularizer_tau(scaled)
            W_tau = scaled + tau
            degrees = W_tau.sum(axis=1)
            assert np.all(degrees >= 8 * tau - 1e-15)
            assert np.all(degrees > 0)


class TestDegreeSummary:
    def test_m1_draw_matches_poisson_mean(self):
        # conditional on theta, the average degree is (2/n) * sum of the
        # upper-triangle Poisson means, with variance (4/n^2) * that sum
        model = catalog("M1")
        rng = np.random.default_rng(2024)
        theta = sample_theta(model, rng)
        from netchange import psi

        c = model.memberships
        means = np.outer(theta, theta) * psi(model)[np.ix_(c, c)]
        iu = np.triu_indices(model.n, k=1)
        total_mean = means[iu].sum()
        expected_avg = 2.0 * total_mean / model.n
        sigma = math.sqrt(4.0 * total_mean / model.n**2)

        snap = sample_snapshot(model, theta, rng)
        observed = snap.W.sum(axis=1).mean()
        assert abs(observed - expected_avg) < 3.0 * sigma
