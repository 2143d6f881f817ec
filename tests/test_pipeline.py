import dataclasses
import re

import numpy as np
import pytest

from netchange import (
    CdpConfig,
    EmptyGraph,
    ScoreVector,
    SnapshotMatrix,
    change_scores,
    generate_sequence,
    normalize_and_detect,
    pre_shape,
    scenario,
    score_sequence,
)
from netchange.embedding import Embedding
from netchange.pipeline import METHODS, embed_snapshot


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

    def test_infinite_epsilon_rejected(self):
        # every rho passes an infinite threshold, so d would be 1 everywhere
        with pytest.raises(ValueError, match="^epsilon_rank must be positive and finite$"):
            CdpConfig(epsilon_rank=float("inf"))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="zscore_threshold"):
            CdpConfig(zscore_threshold=threshold)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (1.5, "seed must be an integer, got 1.5"),
            (-1, "seed must be >= 0, got -1"),
            ("3", "seed must be an integer, got '3'"),
            (True, "seed must be an integer, got True"),
        ],
        ids=["1.5", "-1", "3", "True"],
    )
    def test_seed_must_be_a_nonnegative_integer(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CdpConfig(seed=seed)

    def test_numpy_integer_seed_stored_as_int(self):
        assert type(CdpConfig(seed=np.int64(3)).seed) is int


class TestNormalizeAndDetect:
    def test_single_spike_detected(self):
        z = np.zeros(50)
        z[-1] = 100.0
        zhat, detected, degenerate = normalize_and_detect(ScoreVector(z=z, t=1))
        # direct formula: mean 2, sample std sqrt(9800/49)
        expected = 98.0 / np.sqrt(9800.0 / 49.0)
        assert zhat[-1] == pytest.approx(expected, abs=1e-12)
        assert expected > 5.0
        assert detected.dtype == bool
        assert np.flatnonzero(detected).tolist() == [49]
        assert not degenerate

    def test_constant_scores_degenerate(self):
        zhat, detected, degenerate = normalize_and_detect(ScoreVector(z=np.full(10, 3.0)))
        assert degenerate
        assert np.array_equal(detected, np.zeros(10, dtype=bool))
        assert np.array_equal(zhat, np.zeros(10))

    def test_constant_scores_flag_nothing_below_zero_threshold(self):
        # the zero z-scores of a degenerate vector exceed a negative cutoff,
        # yet a constant vector carries no evidence of change
        _, detected, degenerate = normalize_and_detect(
            ScoreVector(z=np.full(10, 3.0)), threshold=-1.0
        )
        assert degenerate
        assert not detected.any()

    def test_threshold_is_strict(self):
        z = np.zeros(10)
        z[0] = 5.0
        zhat, _, _ = normalize_and_detect(ScoreVector(z=z))
        top = float(zhat.max())
        assert top < 5.0  # this pattern cannot exceed 5 at n=10
        _, at_boundary, _ = normalize_and_detect(ScoreVector(z=z), threshold=top)
        assert not at_boundary.any()
        _, below, _ = normalize_and_detect(ScoreVector(z=z), threshold=top - 1e-9)
        assert np.flatnonzero(below).tolist() == [0]

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
        assert series.instants == range(6, 9)
        assert series.scores.shape == (3, 30)
        assert series.scores.max() < 1e-8
        assert series.dims.min() >= 1

    def test_w1_pair_matches_direct_scoring(self):
        config = CdpConfig(seed=9)
        snapshots = [fixed_snapshot(15, seed=4, t=1), fixed_snapshot(15, seed=5, t=2)]
        series = score_sequence(snapshots, config, ("cdp",), (1,))[("cdp", 1)]
        assert series.instants == range(2, 3)

        e1 = embed_snapshot(snapshots[0], config)
        e2 = embed_snapshot(snapshots[1], config)
        profile = Embedding(X=pre_shape(e1.X))
        expected = change_scores(e2, profile)
        assert np.array_equal(series.scores[0], expected)

    @pytest.mark.xfail(
        reason="at the 1/3-scale block sizes the graphs are ~3x sparser than "
        "at full scale; the residual sign-flip test then selects d=1 and the "
        "single kept direction does not separate the regrouped blocks (mean "
        "ordering fails for every seed tried; holds at full scale)",
        strict=True,
        raises=AssertionError,
    )
    def test_group_change_separates_changed_vertices(self):
        spec = scenario("group-change", scale=1 / 3)
        snapshots = generate_sequence(spec, np.random.default_rng(99))
        series = cdp_series(snapshots, 5, seed=99)
        z = series.scores[series.instants.index(21)]
        changed = z[spec.changed_vertices].mean()
        unchanged = z[spec.unchanged_vertices].mean()
        assert changed > unchanged

    def test_bit_identical_reruns(self):
        spec = dataclasses.replace(scenario("split", scale=0.1), T=8, change=range(7, 8))
        snapshots = generate_sequence(spec, np.random.default_rng(5))
        a = cdp_series(snapshots, 3, seed=11)
        b = cdp_series(snapshots, 3, seed=11)
        assert a.instants == b.instants
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.zscores, b.zscores)
        assert np.array_equal(a.detected, b.detected)
        assert np.array_equal(a.dims, b.dims)

    def test_vertex_permutation_equivariance(self):
        # d-stable inputs: the randomized dimension search sees a permuted
        # residual, so on marginal matrices d itself could flip; with pinned
        # d the scores must permute with the labels
        snapshots = [block_snapshot(t) for t in range(1, 7)]
        perm = np.random.default_rng(1).permutation(30)
        permuted = [SnapshotMatrix(W=s.W[np.ix_(perm, perm)], t=s.t) for s in snapshots]
        direct = cdp_series(snapshots, 2, seed=3)
        relabeled = cdp_series(permuted, 2, seed=3)
        assert np.array_equal(direct.dims, relabeled.dims)
        assert (direct.scores.max(axis=1) > 0).all()
        assert np.abs(relabeled.scores - direct.scores[:, perm]).max() < 1e-8

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
        assert series.embed_seconds.shape == (4,)
        assert series.instants == range(3, 5)
        assert series.score_seconds.shape == (2,)
        assert (series.embed_seconds >= 0).all()


class TestSweep:
    WINDOWS = (1, 3, 5)

    def assert_same_series(self, a, b):
        assert a.instants == b.instants
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.zscores, b.zscores)
        assert np.array_equal(a.detected, b.detected)
        assert np.array_equal(a.dims, b.dims)

    @pytest.mark.parametrize("method", METHODS)
    def test_one_call_equals_single_window_calls(self, method):
        snapshots = [fixed_snapshot(15, seed=30 + t, t=t) for t in range(1, 9)]
        config = CdpConfig(seed=4)
        swept = score_sequence(snapshots, config, METHODS, self.WINDOWS)
        assert set(swept) == {(m, w) for m in METHODS for w in self.WINDOWS}
        for w in self.WINDOWS:
            single = score_sequence(snapshots, config, (method,), (w,))[(method, w)]
            assert single.instants == range(w + 1, 9)
            self.assert_same_series(swept[(method, w)], single)

    @pytest.mark.parametrize("windows", [(0,), (-1, 2), (), (1.5,), (True,), (2, np.float64(1.0))])
    def test_nonpositive_window_rejected(self, windows):
        snapshots = [fixed_snapshot(10, seed=t, t=t) for t in range(1, 5)]
        message = {
            (): "need at least one window",
            (1.5,): "^windows must be an integer, got 1.5$",
            (True,): "^windows must be an integer, got True$",
            (2, 1.0): r"^windows must be an integer, got np.float64\(1.0\)$",
        }.get(windows, "windows must be >= 1")
        with pytest.raises(ValueError, match=message):
            score_sequence(snapshots, CdpConfig(), ("actm",), windows)

    def test_empty_methods_rejected_before_extraction(self, monkeypatch):
        def no_extract(*args, **kwargs):
            raise AssertionError("a feature was extracted")

        monkeypatch.setattr("netchange.pipeline._map_in_workers", no_extract)
        snapshots = [fixed_snapshot(10, seed=t, t=t) for t in range(1, 5)]
        with pytest.raises(ValueError, match="need at least one method"):
            score_sequence(snapshots, CdpConfig(), (), (1,))

    def test_windows_scored_once_in_ascending_order(self):
        snapshots = [fixed_snapshot(10, seed=t, t=t) for t in range(1, 5)]
        swept = score_sequence(snapshots, CdpConfig(), ("act",), (2, np.int64(1), 2))
        assert list(swept) == [("act", 1), ("act", 2)]

    @pytest.mark.parametrize("odd_one", [0, 3])
    def test_mixed_vertex_counts_rejected(self, odd_one):
        snapshots = [fixed_snapshot(12 if t == odd_one + 1 else 10, seed=t, t=t)
                     for t in range(1, 5)]
        with pytest.raises(ValueError, match="all snapshots must share the same vertex count"):
            score_sequence(snapshots, CdpConfig(), ("actm",), (1,))

    def test_series_are_arrays_over_instants(self):
        snapshots = [fixed_snapshot(15, seed=60 + t, t=t) for t in range(3, 11)]
        swept = score_sequence(snapshots, CdpConfig(), ("act", "actm"), (1, 3))
        first = swept[("act", 1)]
        for (_, w), series in swept.items():
            assert series.instants == range(3 + w, 11)
            rows = len(series.instants)
            assert series.scores.shape == series.zscores.shape == (rows, 15)
            assert series.detected.shape == (rows, 15) and series.detected.dtype == bool
            assert np.array_equal(series.detected, series.zscores > 5.0)
            assert series.degenerate.shape == series.score_seconds.shape == (rows,)
            # one array of each per feature, covering all 8 extracted instants
            assert series.dims is first.dims and series.embed_seconds is first.embed_seconds
        assert first.dims.tolist() == [1] * 8 and first.embed_seconds.shape == (8,)

    @pytest.mark.parametrize("bad", [np.nan, -1e-3])
    def test_invalid_scores_rejected(self, monkeypatch, bad):
        snapshots = [fixed_snapshot(10, seed=t, t=t) for t in range(1, 4)]

        def stub(window, current):
            z = np.ones(current.n)
            z[0] = bad
            return z

        monkeypatch.setattr("netchange.baselines.act_scores", stub)  # seen: table built per call
        with pytest.raises(ValueError, match="finite and nonnegative"):
            score_sequence(snapshots, CdpConfig(), ("act",), (1,))

    @pytest.mark.parametrize("method", ["cdp", "act"])
    def test_configured_threshold_sets_the_detections(self, method):
        snapshots = [fixed_snapshot(15, seed=40 + t, t=t) for t in range(1, 9)]
        default = score_sequence(snapshots, CdpConfig(seed=2), (method,), (3,))[(method, 3)]
        lowered = score_sequence(
            snapshots, CdpConfig(zscore_threshold=2.0, seed=2), (method,), (3,))[(method, 3)]
        assert np.array_equal(lowered.zscores, default.zscores)
        assert np.array_equal(lowered.detected, lowered.zscores > 2.0)
        assert np.array_equal(default.detected, default.zscores > 5.0)
        assert lowered.detected.sum() > default.detected.sum()
