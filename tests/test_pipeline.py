import numpy as np
import pytest

from netchange import (
    CdpConfig,
    EmptyGraph,
    ScoreVector,
    SnapshotMatrix,
    activity,
    actm_scores,
    cdp_scores,
    change_scores,
    generate_sequence,
    normalize_and_detect,
    pre_shape,
    scenario,
    score_sequence,
    sweep,
)
from netchange.embedding import Embedding
from netchange.pipeline import embed_snapshot


def cdp_series(snapshots, w, **config):
    """The cdp series of one window, scored through `score_sequence`."""
    return score_sequence(snapshots, CdpConfig(**config), ("cdp",), (w,))[("cdp", w)]


def fixed_snapshot(n, seed, t=1):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.poisson(1.2, size=(n, n)).astype(float), k=1)
    return SnapshotMatrix(W=upper + upper.T, t=t)


def block_snapshot(t, n=30, weights=(1.0, 2.0, 3.0)):
    """Exactly rank-3 snapshot whose block weights drift with t.

    The clean block structure keeps the randomized dimension search pinned
    at d=2 (zero residual), so sequences built from these are comparable
    across reruns and relabelings.
    """
    b = n // 3
    W = np.zeros((n, n))
    for r, wgt in enumerate(weights):
        W[r * b : (r + 1) * b, r * b : (r + 1) * b] = wgt + 0.1 * t * (r + 1)
    return SnapshotMatrix(W=W, t=t)


class TestCdpConfig:
    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon_rank"):
            CdpConfig(epsilon_rank=float("nan"))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="zscore_threshold"):
            CdpConfig(zscore_threshold=threshold)


class TestNormalizeAndDetect:
    def test_single_spike_detected(self):
        z = np.zeros(50)
        z[-1] = 100.0
        zhat, detected, degenerate = normalize_and_detect(ScoreVector(z=z, t=1))
        # direct formula: mean 2, sample std sqrt(9800/49)
        expected = 98.0 / np.sqrt(9800.0 / 49.0)
        assert zhat[-1] == pytest.approx(expected, abs=1e-12)
        assert expected > 5.0
        assert detected == {49}
        assert not degenerate

    def test_constant_scores_degenerate(self):
        zhat, detected, degenerate = normalize_and_detect(ScoreVector(z=np.full(10, 3.0)))
        assert degenerate
        assert detected == set()
        assert np.array_equal(zhat, np.zeros(10))

    def test_threshold_is_strict(self):
        z = np.zeros(10)
        z[0] = 5.0
        zhat, _, _ = normalize_and_detect(ScoreVector(z=z))
        top = float(zhat.max())
        assert top < 5.0  # this pattern cannot exceed 5 at n=10
        _, at_boundary, _ = normalize_and_detect(ScoreVector(z=z), threshold=top)
        assert at_boundary == set()
        _, below, _ = normalize_and_detect(ScoreVector(z=z), threshold=top - 1e-9)
        assert below == {0}

    def test_zscores_standardized(self):
        rng = np.random.default_rng(3)
        z = rng.random(40)
        zhat, _, _ = normalize_and_detect(ScoreVector(z=z))
        assert abs(zhat.mean()) < 1e-12
        assert zhat.std(ddof=1) == pytest.approx(1.0, abs=1e-12)


class TestRunCdp:
    def test_identical_snapshots_score_zero(self):
        # identical inputs give identical embeddings only when the selected
        # dimension is stable across the per-instant RNG streams; the clean
        # block matrix pins d, so every score must vanish
        base = block_snapshot(1)
        snapshots = [SnapshotMatrix(W=base.W, t=t) for t in range(1, 9)]
        series = cdp_series(snapshots, 5)
        assert series.scored_instants() == [6, 7, 8]
        for t in (6, 7, 8):
            assert series.scores[t].z.max() < 1e-8
            assert series.dims[t] >= 1

    def test_w1_pair_matches_direct_scoring(self):
        config = CdpConfig(seed=9)
        snapshots = [fixed_snapshot(15, seed=4, t=1), fixed_snapshot(15, seed=5, t=2)]
        series = score_sequence(snapshots, config, ("cdp",), (1,))[("cdp", 1)]
        assert series.scored_instants() == [2]

        e1 = embed_snapshot(snapshots[0], config)
        e2 = embed_snapshot(snapshots[1], config)
        profile = Embedding(X=pre_shape(e1.X), t=1)
        expected = change_scores(e2, profile)
        assert np.array_equal(series.scores[2].z, expected.z)

    @pytest.mark.xfail(
        reason="at the 1/3-scale block sizes the graphs are ~3x sparser than "
        "at full scale; the residual sign-flip test then selects d=1 and the "
        "single kept direction does not separate the regrouped blocks (mean "
        "ordering fails for every seed tried; holds at full scale)",
        strict=True,
    )
    def test_group_change_separates_changed_vertices(self):
        spec = scenario("group-change", scale=1 / 3)
        snapshots = generate_sequence(spec, np.random.default_rng(99))
        series = cdp_series(snapshots, 5, seed=99)
        z = series.scores[21].z
        changed = z[spec.changed_vertices].mean()
        unchanged = z[spec.unchanged_vertices].mean()
        assert changed > unchanged

    def test_bit_identical_reruns(self):
        spec = scenario("split", scale=0.1, T=8, t_star=7)
        snapshots = generate_sequence(spec, np.random.default_rng(5))
        a = cdp_series(snapshots, 3, seed=11)
        b = cdp_series(snapshots, 3, seed=11)
        assert a.scored_instants() == b.scored_instants()
        for t in a.scored_instants():
            assert np.array_equal(a.scores[t].z, b.scores[t].z)
            assert np.array_equal(a.zscores[t], b.zscores[t])
            assert a.detections[t] == b.detections[t]
        assert a.dims == b.dims

    def test_vertex_permutation_equivariance(self):
        # d-stable inputs: the randomized dimension search sees a permuted
        # residual, so on marginal matrices d itself could flip; with pinned
        # d the scores must permute with the labels
        snapshots = [block_snapshot(t) for t in range(1, 7)]
        perm = np.random.default_rng(1).permutation(30)
        permuted = [SnapshotMatrix(W=s.W[np.ix_(perm, perm)], t=s.t) for s in snapshots]
        direct = cdp_series(snapshots, 2, seed=3)
        relabeled = cdp_series(permuted, 2, seed=3)
        assert direct.dims == relabeled.dims
        for t in direct.scored_instants():
            assert direct.scores[t].z.max() > 0
            assert np.abs(relabeled.scores[t].z - direct.scores[t].z[perm]).max() < 1e-8

    def test_needs_more_snapshots_than_window(self):
        snapshots = [fixed_snapshot(10, seed=i, t=i + 1) for i in range(3)]
        with pytest.raises(ValueError):
            cdp_series(snapshots, 3)

    def test_missing_instant_rejected(self):
        # t=4 must not be profiled against {1, 2} as if t=3 existed
        snapshots = [fixed_snapshot(10, seed=t, t=t) for t in (1, 2, 4)]
        with pytest.raises(ValueError, match="t=3"):
            cdp_series(snapshots, 1)

    def test_empty_snapshot_aborts_with_time_index(self):
        snapshots = [fixed_snapshot(10, seed=i, t=i + 1) for i in range(4)]
        snapshots[2] = SnapshotMatrix(W=np.zeros((10, 10)), t=3)
        with pytest.raises(EmptyGraph, match="t=3"):
            cdp_series(snapshots, 2)

    def test_timings_recorded(self):
        snapshots = [fixed_snapshot(12, seed=i, t=i + 1) for i in range(4)]
        series = cdp_series(snapshots, 2)
        assert sorted(series.embed_seconds) == [1, 2, 3, 4]
        assert sorted(series.score_seconds) == [3, 4]
        assert all(v >= 0 for v in series.embed_seconds.values())


class TestSweep:
    WINDOWS = (1, 3, 5)

    def assert_same_series(self, a, b):
        assert a.scored_instants() == b.scored_instants()
        for t in a.scored_instants():
            assert np.array_equal(a.scores[t].z, b.scores[t].z)
            assert np.array_equal(a.zscores[t], b.zscores[t])
            assert a.detections[t] == b.detections[t]
        assert a.dims == b.dims

    def test_cdp_multi_window_matches_single_window_runs(self):
        snapshots = [fixed_snapshot(15, seed=30 + t, t=t) for t in range(1, 9)]
        config = CdpConfig(seed=4)
        swept = sweep(
            snapshots, lambda s: embed_snapshot(s, config), {"cdp": cdp_scores}, self.WINDOWS
        )
        assert set(swept) == {("cdp", w) for w in self.WINDOWS}
        for w in self.WINDOWS:
            single = cdp_series(snapshots, w, seed=4)
            assert single.scored_instants() == list(range(w + 1, 9))
            self.assert_same_series(swept[("cdp", w)], single)

    @pytest.mark.parametrize("windows", [(0,), (-1, 2)])
    def test_nonpositive_window_rejected(self, windows):
        snapshots = [fixed_snapshot(10, seed=t, t=t) for t in range(1, 5)]
        with pytest.raises(ValueError, match="windows must be >= 1"):
            sweep(snapshots, activity, {"actm": actm_scores}, windows)

    def test_actm_multi_window_matches_single_window_runs(self):
        snapshots = [fixed_snapshot(15, seed=50 + t, t=t) for t in range(1, 9)]
        swept = sweep(snapshots, activity, {"actm": actm_scores}, self.WINDOWS)
        for w in self.WINDOWS:
            single = score_sequence(snapshots, CdpConfig(), ("actm",), (w,))[("actm", w)]
            self.assert_same_series(swept[("actm", w)], single)
