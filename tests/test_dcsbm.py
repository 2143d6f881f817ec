import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from netchange import (
    DcsbmModel,
    InvalidProbability,
    SnapshotMatrix,
    catalog,
    generate_sequence,
    psi,
    sample_snapshot,
    sample_theta,
    scenario,
)
from netchange import dcsbm
from netchange.dcsbm import SCENARIO_NAMES, ScenarioSpec, sample_power_law


def toy_model():
    return DcsbmModel(
        g=(10, 12, 8),
        B=0.7 * np.diag([0.4, 0.5, 0.6]) + (1.0 - 0.7) * 0.05,
        constant_theta=(2,),
    )


def dense_means(model, theta):
    """Reference: the n x n Poisson means of the dense sampler."""
    c = model.memberships
    return np.outer(theta, theta) * psi(model)[np.ix_(c, c)]


class RecordingRng:
    """A generator that keeps every Poisson mean array it draws from."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.means = []

    def poisson(self, lam):
        self.means.append(lam)
        return self.rng.poisson(lam)


def dense_sample_snapshot(model, theta, rng, t=1):
    """Reference: the sampler that drew the upper triangle of dense means."""
    iu = np.triu_indices(model.n, k=1)
    weights = rng.poisson(dense_means(model, theta)[iu]).astype(float)
    return SnapshotMatrix.from_edges(model.n, iu[0], iu[1], weights, t)


def assert_same_edges(snap, reference):
    assert (snap.n, snap.t) == (reference.n, reference.t)
    for got, want in zip(snap.edges, reference.edges):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def ccdf_slope(draws, min_tail=1e-3):
    """Least-squares slope of the empirical CCDF on log-log axes."""
    x = np.sort(draws)
    n = x.size
    ccdf = (n - np.arange(n)) / n
    keep = ccdf >= min_tail
    lx = np.log10(x[keep])
    ly = np.log10(ccdf[keep])
    slope, _ = np.polyfit(lx, ly, 1)
    return slope


class TestSampleTheta:
    def test_constant_blocks_are_uniform(self):
        model = catalog("M5")
        theta = sample_theta(model, np.random.default_rng(0))
        assert np.allclose(theta[:300], 1.0 / 300.0, atol=0)

    def test_per_block_sums_to_one(self):
        model = toy_model()
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = sample_theta(model, rng)
            start = 0
            for size in model.g:
                assert abs(theta[start : start + size].sum() - 1.0) < 1e-12
                start += size
            assert np.all(theta > 0)

    @pytest.mark.parametrize("block", [-1, 3])
    def test_constant_block_outside_model_rejected(self, block):
        model = toy_model()
        with pytest.raises(ValueError, match=r"constant-theta blocks must lie in 0\.\.2"):
            DcsbmModel(model.g, model.B, (block,))

    @pytest.mark.parametrize(
        "block, message",
        [
            (0.7, "constant-theta block must be an integer, got 0.7"),
            (True, "constant-theta block must be an integer, got True"),
        ],
        ids=["0.7", "True"],
    )
    def test_constant_block_must_be_an_integer(self, block, message):
        model = toy_model()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DcsbmModel(model.g, model.B, (block,))

    def test_numpy_integer_constant_blocks_stored_as_ints(self):
        model = toy_model()
        model = DcsbmModel(model.g, model.B, (np.int64(1),))
        assert model.constant_theta == (1,) and type(model.constant_theta[0]) is int

    def test_power_law_ccdf_slope(self):
        draws = sample_power_law(100_000, np.random.default_rng(7))
        assert ccdf_slope(draws) == pytest.approx(-1.5, abs=0.05)


class TestBlockMatrix:
    def test_catalog_m1_values(self):
        B = catalog("M1").B
        assert B[0, 0] == pytest.approx(0.8 * 0.01 + 0.2 * 0.0025, abs=1e-15)
        assert B[0, 1] == pytest.approx(0.0005, abs=1e-15)
        mixture = 0.8 * np.diag([0.01, 0.02, 0.03]) + (1.0 - 0.8) * 0.0025
        assert B.tobytes() == mixture.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_invalid_probability_rejected_at_construction(self, bad):
        with pytest.raises(InvalidProbability, match=r"must lie in \[0, 1\]"):
            DcsbmModel(g=(4, 4), B=np.diag([bad, 0.5]), constant_theta=(0, 1))

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="block matrix must be symmetric"):
            DcsbmModel(g=(4, 4), B=[[0.1, 0.2], [0.3, 0.1]], constant_theta=())

    def test_matrix_shape_must_match_blocks(self):
        with pytest.raises(ValueError, match=r"block matrix must be 2x2, got \(3, 3\)"):
            DcsbmModel(g=(4, 4), B=np.eye(3), constant_theta=())


class TestPsi:
    def test_catalog_m1_cross_block(self):
        assert psi(catalog("M1"))[0, 1] == pytest.approx(0.0005 * 300 * 300, abs=1e-10)

    def test_catalog_m4_within_block(self):
        assert psi(catalog("M4"))[0, 0] == pytest.approx(0.0085 * 150 * 150, abs=1e-10)


class TestSampleSnapshot:
    def test_zero_theta_gives_zero_matrix(self):
        model = toy_model()
        snap = sample_snapshot(model, np.zeros(model.n), np.random.default_rng(0))
        assert snap.W.sum() == 0.0

    def test_symmetric_zero_diagonal(self):
        model = toy_model()
        rng = np.random.default_rng(3)
        theta = sample_theta(model, rng)
        for _ in range(5):
            snap = sample_snapshot(model, theta, rng)
            assert np.array_equal(snap.W, snap.W.T)
            assert np.all(np.diag(snap.W) == 0.0)

    def test_cell_means_within_poisson_bounds(self):
        model = toy_model()
        rng = np.random.default_rng(11)
        theta = sample_theta(model, rng)
        c = model.memberships
        means = np.outer(theta, theta) * psi(model)[np.ix_(c, c)]
        draws = 2000
        total = np.zeros((model.n, model.n))
        for _ in range(draws):
            total += sample_snapshot(model, theta, rng).W
        empirical = total / draws
        iu = np.triu_indices(model.n, k=1)
        sigma = np.sqrt(means[iu] / draws)
        gaps = np.abs(empirical[iu] - means[iu])
        assert np.all(gaps <= 4.0 * sigma + 1e-12)


    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_theta_must_be_finite_and_nonnegative(self, bad):
        model = toy_model()
        with pytest.raises(ValueError, match="theta must be finite and nonnegative"):
            sample_snapshot(model, np.full(model.n, bad), np.random.default_rng(0))

    def test_non_integral_block_size_rejected(self):
        with pytest.raises(ValueError, match=r"^block size must be an integer, got 2\.5$"):
            DcsbmModel(g=(2.5, 3), B=np.eye(2), constant_theta=())

    @pytest.mark.parametrize(
        "g, message",
        [
            ((2.0, 3), "block size must be an integer, got 2.0"),
            ((True, 3), "block size must be an integer, got True"),
            ((np.float64(2.0), 3), "block size must be an integer, got np.float64(2.0)"),
            ((0, 3), "block size must be >= 1, got 0"),
        ],
        ids=["2.0", "True", "np.float64", "0"],
    )
    def test_block_size_must_be_a_positive_integer(self, g, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DcsbmModel(g=g, B=np.eye(2), constant_theta=())

    def test_numpy_integer_block_sizes_stored_as_ints(self):
        model = DcsbmModel(g=(np.int64(2), 3), B=np.eye(2), constant_theta=())
        assert model.g == (2, 3) and all(type(x) is int for x in model.g)


class TestCatalog:
    def test_m1_shape(self):
        model = catalog("M1")
        assert model.k == 3
        assert model.g == (300, 300, 300)

    def test_m2_block_layout(self):
        model = catalog("M2")
        assert model.g == (150, 150, 300, 300)
        mixture = 0.8 * np.diag([0.01, 0.01, 0.02, 0.03]) + (1.0 - 0.8) * 0.0025
        assert np.array_equal(model.B, mixture)

    def test_m3_damps_third_block(self):
        assert catalog("M3").B[2, 2] == pytest.approx(0.8 * 0.003 + 0.2 * 0.0025, abs=1e-15)

    def test_m6_mixing_layout(self):
        planted = np.array([[0.005, 0.005, 0.0], [0.005, 0.015, 0.0], [0.0, 0.0, 0.03]])
        assert catalog("M6").B == pytest.approx(0.8 * planted + 0.2 * 0.0025, rel=0, abs=1e-15)

    def test_scale_override(self):
        assert catalog("M1", scale=1 / 3).g == (100, 100, 100)

    @pytest.mark.parametrize("scale, named", [(np.inf, "inf"), (np.nan, "nan"), (1e300, "1e+300")])
    def test_unusable_scale_rejected_by_name(self, scale, named):
        # 1e300 vertices would overflow the block-size arrays; inf and nan cannot be rounded
        with pytest.raises(ValueError, match=rf"scale .*{re.escape(named)}"):
            catalog("M1", scale=scale)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("M7")


class TestScenario:
    def test_group_change_wiring(self):
        spec = scenario("group-change")
        assert spec.f0.name == "M1"
        assert spec.f1.name == "M4"
        assert np.array_equal(spec.changed_vertices, np.arange(600))
        assert spec.change == range(21, 22)
        assert spec.change.start == 21

    def test_interval_wiring(self):
        spec = scenario("form", change_type="interval")
        assert spec.change == range(21, 31)
        assert np.array_equal(spec.changed_vertices, np.arange(600, 900))

    def test_changed_sets_scale_with_blocks(self):
        spec = scenario("merge", scale=1 / 3)
        assert np.array_equal(spec.changed_vertices, np.arange(100))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario("implode")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"change_type": "sustained"}, "unknown change type 'sustained'"),
            ({"scale": 0.005}, "rounds the paired models to different sizes (6 vs 5)"),
            ({"T": 30.5}, "T must be an integer, got 30.5"),
            ({"T": True}, "T must be an integer, got True"),
            ({"T": 30.0}, "T must be an integer, got 30.0"),
        ],
    )
    def test_rejection_names_its_cause(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario("group-change", **kwargs)

    def test_numpy_integer_T_accepted(self):
        spec = scenario("split", T=np.int64(24), scale=0.1)
        assert type(spec.T) is int and spec.T == 24
        assert len(generate_sequence(spec, np.random.default_rng(0))) == 24

    def test_paired_models_share_fixed_parameters(self):
        from netchange.dcsbm import SCENARIO_NAMES

        for name in SCENARIO_NAMES:
            spec = scenario(name)
            assert spec.f0.n == spec.f1.n


class TestChangeValidation:
    def spec(self, start, end, T=6):
        model = catalog("M1", scale=0.1)
        return ScenarioSpec(
            name="null",
            f0=model,
            f1=model,
            change=range(start, end + 1),
            T=T,
            changed_vertices=np.arange(5),
        )

    def test_first_instant_rejected(self):
        with pytest.raises(ValueError, match="1..1 invalid"):
            self.spec(1, 1)

    def test_end_past_T_rejected(self):
        with pytest.raises(ValueError, match="4..7 invalid for T=6"):
            self.spec(4, 7)
        with pytest.raises(ValueError):
            scenario("form", change_type="interval", scale=0.1, T=29)

    def test_start_after_end_rejected(self):
        with pytest.raises(ValueError, match="5..4 invalid"):
            self.spec(5, 4)

    def test_point_change_is_one_instant_interval(self):
        spec = self.spec(6, 6)
        assert list(spec.change) == [6]
        assert spec.change.start == 6
        assert [t for t in range(1, 7) if t in spec.change] == [6]


class TestChangedVertexValidation:
    def spec(self, changed):
        model = catalog("M1", scale=0.1)
        return ScenarioSpec(
            name="null", f0=model, f1=model, change=range(3, 4), T=6, changed_vertices=changed
        )

    def test_distinct_indices_kept_sorted(self):
        assert self.spec([3, 1, 2]).changed_vertices.tolist() == [1, 2, 3]

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="an index is repeated"):
            self.spec([0, 0, 1])

    def test_non_integer_vertices_rejected(self):
        with pytest.raises(ValueError, match="integer index array, got float64"):
            self.spec([0.7, 1.2])

    def test_one_vertex_repeated_n_times_is_repeated_not_improper(self):
        with pytest.raises(ValueError, match="an index is repeated"):
            self.spec([0] * catalog("M1", scale=0.1).n)


class TestGenerateSequence:
    def test_point_change_isolated_to_t_star(self):
        # silent baseline vs a model that must emit edges: activity localves
        silent = DcsbmModel(
            g=(5, 5),
            B=np.zeros((2, 2)),
            constant_theta=(0, 1),
        )
        loud = DcsbmModel(
            g=(5, 5),
            B=np.ones((2, 2)),
            constant_theta=(0, 1),
        )
        spec = ScenarioSpec(
            name="custom",
            f0=silent,
            f1=loud,
            change=range(4, 5),
            T=6,
            changed_vertices=np.arange(5),
        )
        snaps = generate_sequence(spec, np.random.default_rng(0))
        weights = [s.W.sum() for s in snaps]
        assert weights[3] > 0
        assert all(w == 0 for t, w in enumerate(weights) if t != 3)
        assert list(spec.change) == [4]

    def test_interval_change_span(self):
        spec = scenario("fragment", change_type="interval", scale=0.1)
        snaps = generate_sequence(spec, np.random.default_rng(0))
        assert [s.t for s in snaps] == list(range(1, 31))
        assert list(spec.change) == list(range(21, 31))

    def test_seed_determinism(self):
        spec = dataclasses.replace(scenario("split", scale=0.1), T=5, change=range(4, 5))
        a = generate_sequence(spec, np.random.default_rng(42))
        b = generate_sequence(spec, np.random.default_rng(42))
        for x, y in zip(a, b):
            assert np.array_equal(x.W, y.W)

    def test_total_weight_matches_expectation(self):
        model = toy_model()
        rng = np.random.default_rng(17)
        theta = sample_theta(model, rng)
        c = model.memberships
        means = np.outer(theta, theta) * psi(model)[np.ix_(c, c)]
        iu = np.triu_indices(model.n, k=1)
        expected_total = 2.0 * means[iu].sum()
        draws = 1000
        totals = np.array(
            [sample_snapshot(model, theta, rng).W.sum() for _ in range(draws)]
        )
        sigma = np.sqrt(4.0 * means[iu].sum() / draws)
        assert abs(totals.mean() - expected_total) <= 4.0 * sigma


CATALOG_NAMES = ("M1", "M2", "M3", "M4", "M5", "M6")


class TestPairListDraw:
    """The pair-list draw reproduces the dense sampler bit for bit."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_means_equal_dense_bit_for_bit(self, name):
        model = catalog(name, scale=0.1)
        theta = sample_theta(model, np.random.default_rng(5))
        recorder = RecordingRng(0)
        sample_snapshot(model, theta, recorder)
        (means,) = recorder.means
        dense = dense_means(model, theta)[np.triu_indices(model.n, k=1)]
        assert means.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_edges_equal_dense_sampler(self, name):
        model = catalog(name, scale=0.1)
        theta = sample_theta(model, np.random.default_rng(6))
        for t in (1, 2, 3):
            snap = sample_snapshot(model, theta, np.random.default_rng(t), t=t)
            assert_same_edges(snap, dense_sample_snapshot(model, theta, np.random.default_rng(t), t))

    def test_zero_theta_gives_no_edges(self):
        model = toy_model()
        snap = sample_snapshot(model, np.zeros(model.n), np.random.default_rng(0))
        assert snap.edges[0].size == 0
        assert_same_edges(
            snap, dense_sample_snapshot(model, np.zeros(model.n), np.random.default_rng(0))
        )

    @pytest.mark.parametrize("change_type", ["point", "interval"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_sequence_equals_dense_loop(self, name, change_type):
        spec = scenario(name, change_type=change_type, scale=0.1)
        snaps = generate_sequence(spec, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        assert len(snaps) == spec.T
        for t, snap in enumerate(snaps, start=1):
            model = spec.f1 if t in spec.change else spec.f0
            assert_same_edges(snap, dense_sample_snapshot(model, sample_theta(model, rng), rng, t))

    def test_pair_list_built_once_per_sequence(self, monkeypatch):
        triu_calls, psi_calls = [], []
        triu_indices, pair_psi = np.triu_indices, dcsbm._pair_psi

        def counted_triu(*args, **kwargs):
            triu_calls.append(args)
            return triu_indices(*args, **kwargs)

        def counted_psi(model, pairs):
            psi_calls.append(model.name)
            return pair_psi(model, pairs)

        spec = scenario("group-change", T=30, scale=0.1)
        monkeypatch.setattr(np, "triu_indices", counted_triu)
        monkeypatch.setattr(dcsbm, "_pair_psi", counted_psi)
        assert len(generate_sequence(spec, np.random.default_rng(0))) == 30
        assert triu_calls == [(spec.n,)]
        assert psi_calls == ["M1", "M4"]

    def test_generation_peak_under_six_and_a_half_pair_arrays(self):
        # both models drawn at n=600; holding one instant's Poisson counts
        # into the next instant's means reads about 7 pair arrays
        spec = dataclasses.replace(
            scenario("group-change", scale=2 / 3), T=3, change=range(3, 4)
        )
        pair_array = spec.n * (spec.n - 1) // 2 * 8
        # a first draw imports modules lazily (about 0.7 MiB, half a pair array)
        generate_sequence(scenario("group-change", scale=0.1), np.random.default_rng(0))
        tracemalloc.start()
        try:
            generate_sequence(spec, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * pair_array


# sha256 over every snapshot's (rows, cols, weights) bytes at scale 0.1, point
# change, T=30, seed 2019: a change to any catalog model's B or to the draw
# order shows here for every scenario, not only the fingerprinted group-change
SEQUENCE_DIGESTS = {
    "group-change": "105780b6f06ecc17250b669df62095d6f93265d6fc7f7b7bd4d750b17e561f83",
    "split": "161fa2110e88c3b581b360d5110d31569ef2f70a903dbebb702fdc31cbebc313",
    "merge": "b471f4df3aff04414c544f9dec05e4ca69c20097a2eda39898ede5d851e8d935",
    "form": "61b11c664984cc6f28164281a3555f51f5e17bf4e9d949d8cd60a8b9b42bab06",
    "fragment": "7a904c15765d754bb9b4db32329e25767bd7557f8280a44b05ebb916f602dd21",
    "hetero-to-homo": "601193b5d8238945c2ba059ad05e1adaa7e2f19abdf4f7f034d5aa0ace1e2dda",
    "homo-to-hetero": "17fbbc3c7ae7cf7162a944ca9741c3a45cea1fd211ced31d425616e7bdf09d92",
    "simple-to-complex": "1ccc22acb0e95aa4ce4e4b4d8386f7b304998db035e2b8b51d5df98154f37943",
    "complex-to-simple": "b34960e9e08fcbaa5d3f8f5a38a0e9b1370ff4a99c3473b33a9e6c13e5fd6570",
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_draws_keep_their_bytes(name):
    digest = hashlib.sha256()
    for snap in generate_sequence(scenario(name, scale=0.1), np.random.default_rng(2019)):
        for array in snap.edges:
            digest.update(array.tobytes())
    assert digest.hexdigest() == SEQUENCE_DIGESTS[name]
