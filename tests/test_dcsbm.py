import numpy as np
import pytest

from netchange import (
    DcsbmModel,
    InvalidProbability,
    SnapshotMatrix,
    block_matrix,
    catalog,
    generate_sequence,
    psi,
    sample_snapshot,
    sample_theta,
    scenario,
)
from netchange import dcsbm
from netchange.dcsbm import SCENARIO_NAMES, ChangeInterval, ScenarioSpec, sample_power_law


def toy_model():
    return DcsbmModel(
        g=(10, 12, 8),
        B_planted=np.diag([0.4, 0.5, 0.6]),
        nu=0.05,
        lam=0.7,
        constant_theta=(2,),
    )


def dense_means(model, theta):
    """Reference: the n x n Poisson means of the dense sampler."""
    c = model.memberships
    return np.outer(theta, theta) * psi(model)[np.ix_(c, c)]


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
            DcsbmModel(model.g, model.B_planted, model.nu, model.lam, (block,))

    def test_power_law_ccdf_slope(self):
        draws = sample_power_law(100_000, np.random.default_rng(7))
        assert ccdf_slope(draws) == pytest.approx(-1.5, abs=0.05)


class TestBlockMatrix:
    def test_catalog_m1_values(self):
        B = block_matrix(catalog("M1"))
        assert B[0, 0] == pytest.approx(0.8 * 0.01 + 0.2 * 0.0025, abs=1e-15)
        assert B[0, 1] == pytest.approx(0.0005, abs=1e-15)
        assert np.array_equal(B, B.T)

    def test_lambda_extremes(self):
        model = toy_model()
        zero = DcsbmModel(model.g, model.B_planted, model.nu, 0.0, model.constant_theta)
        one = DcsbmModel(model.g, model.B_planted, model.nu, 1.0, model.constant_theta)
        assert np.allclose(block_matrix(zero), model.nu, atol=0)
        assert np.array_equal(block_matrix(one), model.B_planted)

    def test_invalid_probability_rejected(self):
        bad = DcsbmModel(
            g=(4, 4),
            B_planted=np.diag([1.0, 1.0]) * 1.5,
            nu=0.5,
            lam=1.0,
            constant_theta=(0, 1),
        )
        with pytest.raises(InvalidProbability):
            block_matrix(bad)


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


class TestCatalog:
    def test_m1_shape(self):
        model = catalog("M1")
        assert model.k == 3
        assert model.g == (300, 300, 300)
        assert np.array_equal(model.B_planted, np.diag([0.01, 0.02, 0.03]))
        assert model.lam == 0.8
        assert model.nu == 0.0025

    def test_m2_block_layout(self):
        model = catalog("M2")
        assert model.g == (150, 150, 300, 300)
        assert np.array_equal(model.B_planted, np.diag([0.01, 0.01, 0.02, 0.03]))

    def test_m3_damps_third_block(self):
        assert catalog("M3").B_planted[2, 2] == pytest.approx(0.003, abs=1e-15)

    def test_m6_mixing_layout(self):
        B = catalog("M6").B_planted
        assert B[0, 0] == pytest.approx(0.005)
        assert B[0, 1] == pytest.approx(0.005)
        assert B[1, 1] == pytest.approx(0.015)
        assert B[2, 2] == pytest.approx(0.03)
        assert B[0, 2] == 0.0

    def test_scale_override(self):
        assert catalog("M1", scale=1 / 3).g == (100, 100, 100)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("M7")


class TestScenario:
    def test_group_change_wiring(self):
        spec = scenario("group-change")
        assert spec.f0.name == "M1"
        assert spec.f1.name == "M4"
        assert np.array_equal(spec.changed_vertices, np.arange(600))
        assert spec.change == ChangeInterval(start=21, end=21)
        assert spec.change_instant == 21

    def test_interval_wiring(self):
        spec = scenario("form", change_type="interval")
        assert spec.change == ChangeInterval(start=21, end=30)
        assert np.array_equal(spec.changed_vertices, np.arange(600, 900))

    def test_changed_sets_scale_with_blocks(self):
        spec = scenario("merge", scale=1 / 3)
        assert np.array_equal(spec.changed_vertices, np.arange(100))

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario("implode")

    def test_paired_models_share_fixed_parameters(self):
        from netchange.dcsbm import SCENARIO_NAMES

        for name in SCENARIO_NAMES:
            spec = scenario(name)
            assert spec.f0.n == spec.f1.n
            assert spec.f0.lam == spec.f1.lam
            assert spec.f0.nu == spec.f1.nu


class TestChangeValidation:
    def spec(self, start, end, T=6):
        model = catalog("M1", scale=0.1)
        return ScenarioSpec(
            name="null",
            f0=model,
            f1=model,
            change=ChangeInterval(start=start, end=end),
            T=T,
            changed_vertices=np.arange(5),
        )

    def test_first_instant_rejected(self):
        with pytest.raises(ValueError, match="1..1 invalid"):
            self.spec(1, 1)
        with pytest.raises(ValueError):
            scenario("split", scale=0.1, T=5, t_star=1)

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
        assert spec.change.times() == [6]
        assert spec.change_instant == 6
        assert [t for t in range(1, 7) if spec.change.active(t)] == [6]


class TestGenerateSequence:
    def test_point_change_isolated_to_t_star(self):
        # silent baseline vs a model that must emit edges: activity localves
        silent = DcsbmModel(
            g=(5, 5),
            B_planted=np.zeros((2, 2)),
            nu=0.0,
            lam=1.0,
            constant_theta=(0, 1),
        )
        loud = DcsbmModel(
            g=(5, 5),
            B_planted=np.full((2, 2), 1.0),
            nu=0.0,
            lam=1.0,
            constant_theta=(0, 1),
        )
        spec = ScenarioSpec(
            name="custom",
            f0=silent,
            f1=loud,
            change=ChangeInterval(start=4, end=4),
            T=6,
            changed_vertices=np.arange(5),
        )
        snaps = generate_sequence(spec, np.random.default_rng(0))
        weights = [s.W.sum() for s in snaps]
        assert weights[3] > 0
        assert all(w == 0 for t, w in enumerate(weights) if t != 3)
        assert spec.change.times() == [4]

    def test_interval_change_span(self):
        spec = scenario("fragment", change_type="interval", scale=0.1)
        snaps = generate_sequence(spec, np.random.default_rng(0))
        assert [s.t for s in snaps] == list(range(1, 31))
        assert spec.change.times() == list(range(21, 31))

    def test_seed_determinism(self):
        spec = scenario("split", scale=0.1, T=5, t_star=4)
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
        pairs = dcsbm._upper_pairs(model.n)
        means = dcsbm._pair_means(model, theta, pairs, dcsbm._pair_blocks(model, pairs))
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
            model = spec.f1 if spec.change.active(t) else spec.f0
            assert_same_edges(snap, dense_sample_snapshot(model, sample_theta(model, rng), rng, t))

    def test_pair_list_built_once_per_sequence(self, monkeypatch):
        calls = []
        upper_pairs = dcsbm._upper_pairs

        def counted(n):
            calls.append(n)
            return upper_pairs(n)

        monkeypatch.setattr(dcsbm, "_upper_pairs", counted)
        spec = scenario("group-change", T=30, scale=0.1)
        assert len(generate_sequence(spec, np.random.default_rng(0))) == 30
        assert calls == [spec.n]
