import math
import re
import tracemalloc

import numpy as np
import pytest

from netchange import (
    EmptyGraph,
    InvalidWeight,
    NotSymmetric,
    SnapshotMatrix,
    catalog,
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
    return np.array(M)


def composed_steps(W):
    """The preprocessing chain out of place, one step per line."""
    n = W.shape[0]
    logged = np.log10(W + 1.0)
    scaled = logged / logged.max()
    tau = float(scaled.sum() / (4.0 * n * n))
    W_tau = scaled + tau
    inv_sqrt = 1.0 / np.sqrt(W_tau.sum(axis=1))
    M = inv_sqrt[:, None] * W_tau * inv_sqrt[None, :]
    return (M + M.T) / 2.0


def build_snapshot(build, W, t=1):
    """`SnapshotMatrix(W, t)`, or `from_edges` on the nonzero upper triangle of W."""
    W = np.asarray(W, dtype=float)
    if build == "dense":
        return SnapshotMatrix(W, t=t)
    rows, cols = np.nonzero(np.triu(W))
    return SnapshotMatrix.from_edges(len(W), rows, cols, W[rows, cols], t=t)


def path_matrix(a, b):
    """The 3-vertex path 0 - 1 - 2 with edge weights a and b, as a snapshot."""
    return SnapshotMatrix(W=np.array([[0.0, a, 0.0], [a, 0.0, b], [0.0, b, 0.0]]))


class TestSnapshotMatrix:
    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidWeight):
            SnapshotMatrix(W=np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SnapshotMatrix(W=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(NotSymmetric):  # symmetry is checked before the weights
            SnapshotMatrix(W=np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(W=np.array([[0.0]]))

    def test_write_to_dense_leaves_snapshot_unchanged(self):
        snap = SnapshotMatrix(W=np.array([[0.0, 1.0], [1.0, 0.0]]))
        W = snap.W
        W[0, 1] = 2.0
        assert [a.tolist() for a in snap.edges] == [[0], [1], [1.0]]
        assert np.array_equal(snap.W, [[0.0, 1.0], [1.0, 0.0]])

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

    def test_each_access_is_a_fresh_writable_array(self):
        snap = SnapshotMatrix(self.irregular_matrix())
        first = snap.W
        assert first is not snap.W
        assert first.flags.writeable
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

    def test_from_edges_rejects_non_integer_vertex_count(self):
        with pytest.raises(ValueError, match="n must be an integer, got 3.5"):
            SnapshotMatrix.from_edges(3.5, [0, 1], [1, 2], [1.0, 2.0])

    def test_from_edges_rejects_bool_vertex_count(self):
        with pytest.raises(ValueError, match="^the vertex count n must be an integer, got True$"):
            SnapshotMatrix.from_edges(True, [0, 1], [1, 2], [1.0, 2.0])

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

    @pytest.mark.parametrize(
        "t, message",
        [
            (1.5, "t must be an integer, got 1.5"),
            (True, "t must be an integer, got True"),
            (0, "t must be >= 1, got 0"),
        ],
        ids=["1.5", "True", "0"],
    )
    @pytest.mark.parametrize("build", ["dense", "from_edges"])
    def test_time_index_must_be_a_positive_integer(self, build, t, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_snapshot(build, np.ones((2, 2)), t=t)

    @pytest.mark.parametrize("build", ["dense", "from_edges"])
    def test_numpy_integer_time_index_stored_as_int(self, build):
        snap = build_snapshot(build, np.ones((2, 2)), t=np.int64(4))
        assert snap.t == 4 and type(snap.t) is int

    @pytest.mark.parametrize(
        "W, error, message",
        [
            ([[0.0]], ValueError, f"a snapshot needs 2 to {MAX_VERTICES} vertices, got n=1"),
            ([[0.0, np.nan], [np.nan, 0.0]], InvalidWeight, "edge weights must be finite"),
            ([[np.inf, 1.0], [1.0, 0.0]], InvalidWeight, "edge weights must be finite"),
            ([[0.0, -1.0], [-1.0, 0.0]], InvalidWeight, "edge weights must be nonnegative"),
        ],
        ids=["n=1", "nan", "inf", "negative"],
    )
    @pytest.mark.parametrize("build", ["dense", "from_edges"])
    def test_both_constructors_state_one_rule_alike(self, build, W, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            build_snapshot(build, W)
        assert type(caught.value) is error


class TestLogTransform:
    @pytest.mark.parametrize("value,expected", [(0.0, 0.0), (9.0, 1.0), (99.0, 2.0)])
    def test_hand_values(self, value, expected):
        # log10(999 + 1) = 3 is the top entry, so the edge 0 - 1 scales to expected / 3
        a = expected / 3.0
        tau = (2.0 * a + 2.0) / 36.0  # scaled sum over 4 n^2
        W_tau = np.array([[0.0, a, 0.0], [a, 0.0, 1.0], [0.0, 1.0, 0.0]]) + tau
        degrees = W_tau.sum(axis=1)  # a + 3 tau, a + 1 + 3 tau, 1 + 3 tau
        expected_M = W_tau / np.sqrt(np.outer(degrees, degrees))
        M = representation_matrix(path_matrix(value, 999.0))
        assert np.abs(M - expected_M).max() < 1e-15

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(3)
        M = representation_matrix(random_snapshot(6, rng))
        assert np.array_equal(M, M.T)


class TestMaxScale:
    def test_uniform_positive_scales_to_one(self):
        # log10(4.7) / log10(4.7) is exactly 1, as is log10(10) / log10(10)
        M = representation_matrix(SnapshotMatrix(W=np.array([[0.0, 3.7], [3.7, 0.0]])))
        reference = representation_matrix(SnapshotMatrix(W=np.array([[0.0, 9.0], [9.0, 0.0]])))
        assert np.array_equal(M, reference)

    def test_all_zero_raises(self):
        with pytest.raises(EmptyGraph):
            representation_matrix(SnapshotMatrix.from_edges(3, [], [], []))


class TestRegularizerTau:
    def test_two_vertex_case(self):
        # scaled [[0, 1], [1, 0]], tau = 2 / 16 = 1/8, degrees 5/4
        M = representation_matrix(SnapshotMatrix(W=np.array([[0.0, 9.0], [9.0, 0.0]])))
        assert np.abs(M - np.array([[0.1, 0.9], [0.9, 0.1]])).max() < 1e-15

    def test_all_ones(self):
        # every scaled entry is 1, so tau takes its largest value 1/4 and M = 1/n
        M = representation_matrix(SnapshotMatrix(W=np.ones((7, 7))))
        assert np.abs(M - 1.0 / 7.0).max() < 1e-15


class TestRepresentationMatrix:
    def test_worked_chain(self):
        # logs 1 and 2, scaled 1/2 and 1, tau = 3 / 36 = 1/12, degrees 3/4, 7/4, 5/4
        M = representation_matrix(path_matrix(9.0, 99.0))
        r15, r21, r35 = math.sqrt(15.0), math.sqrt(21.0), math.sqrt(35.0)
        expected = [
            [1 / 9, r21 / 9, 1 / (3 * r15)],
            [r21 / 9, 1 / 21, 13 / (3 * r35)],
            [1 / (3 * r15), 13 / (3 * r35), 1 / 15],
        ]
        assert np.allclose(M, expected, rtol=0, atol=1e-15)

    def test_uniform_weights_give_constant_matrix(self):
        snap = SnapshotMatrix(W=np.full((5, 5), 4.0))
        M = representation_matrix(snap)
        assert np.allclose(M, 1.0 / 5.0, atol=1e-12)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(42)
        snap = random_snapshot(10, rng)
        M = representation_matrix(snap)
        assert np.abs(M - naive_representation(snap.W)).max() < 1e-12

    def test_bitwise_equal_to_composed_steps(self):
        # the in-place build must keep the bits of the out-of-place chain
        W = TestSnapshotMatrix.irregular_matrix()
        rng = np.random.default_rng(3)
        for snap in (SnapshotMatrix(W), random_snapshot(37, rng), random_snapshot(64, rng)):
            M = composed_steps(snap.W)
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
        # tau > 0 lifts every degree to at least n * tau, isolated vertices
        # included, so every entry of M is finite and positive
        rng = np.random.default_rng(5)
        for _ in range(10):
            W = random_snapshot(8, rng).W.copy()
            W[:, :3] = W[:3, :] = 0.0
            M = representation_matrix(SnapshotMatrix(W))
            assert np.all(np.isfinite(M)) and np.all(M > 0)


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
