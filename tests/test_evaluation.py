import itertools
import math

import numpy as np
import pytest

import netchange.baselines
import netchange.evaluation
from netchange import (
    EmptyPartition,
    UndefinedTest,
    estimate_phi,
    log_odds,
    run_experiment,
    scenario,
    sign_test,
)
from netchange.dcsbm import ChangeInterval, ScenarioSpec, catalog
from netchange.evaluation import METHODS, run_seed


class TestEstimatePhi:
    def test_fully_separated_hits_upper_clamp(self):
        phi = estimate_phi(np.full(20, 10.0), np.full(30, 1.0), 1000, np.random.default_rng(0))
        assert phi == 1.0 - 0.5 / 1000

    def test_identical_constants_hit_lower_clamp(self):
        phi = estimate_phi(np.full(20, 3.0), np.full(30, 3.0), 1000, np.random.default_rng(0))
        assert phi == 0.5 / 1000

    def test_same_distribution_near_half(self):
        # one large source for both partitions keeps the empirical exceedance
        # at 1/2, so the only error is the resampling binomial (sigma 0.0016)
        scores = np.random.default_rng(5).standard_normal(10_000)
        phi = estimate_phi(scores, scores, 100_000, np.random.default_rng(1))
        assert abs(phi - 0.5) < 0.01

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        a = rng.random(50)
        b = rng.random(60)
        direct = estimate_phi(a, b, 10_000, np.random.default_rng(3))
        warped = estimate_phi(np.exp(5 * a), np.exp(5 * b), 10_000, np.random.default_rng(3))
        assert direct == warped

    def test_empty_partition_rejected(self):
        with pytest.raises(EmptyPartition):
            estimate_phi(np.array([]), np.ones(5), 100, np.random.default_rng(0))


class TestLogOdds:
    def test_half_is_zero(self):
        assert log_odds(0.5) == 0.0

    def test_point_nine(self):
        assert log_odds(0.9) == pytest.approx(math.log(9.0), abs=1e-12)

    def test_antisymmetry(self):
        for phi in (0.1, 0.25, 0.37, 0.8):
            assert log_odds(1.0 - phi) == pytest.approx(-log_odds(phi), abs=1e-12)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            log_odds(0.0)
        with pytest.raises(ValueError):
            log_odds(1.0)


def enumerated_sign_test(signs, alternative):
    """Exhaustive-enumeration oracle over all 2^n equally likely sign patterns."""
    n = len(signs)
    k = sum(1 for s in signs if s > 0)
    hits = 0
    for pattern in itertools.product((1, -1), repeat=n):
        positives = sum(1 for s in pattern if s > 0)
        if alternative == "greater" and positives >= k:
            hits += 1
        elif alternative == "less" and positives <= k:
            hits += 1
    return hits / 2**n


class TestSignTest:
    def test_all_positive_ten_pairs(self):
        a = np.arange(10.0) + 1.0
        b = np.zeros(10)
        assert sign_test(a, b, "greater") == pytest.approx(0.5**10, abs=1e-18)

    def test_two_sided_at_median_is_one(self):
        a = np.array([1.0] * 5 + [-1.0] * 5)
        b = np.zeros(10)
        assert sign_test(a, b, "two_sided") == 1.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(3, 11))
            diffs = rng.standard_normal(n)
            signs = np.sign(diffs)
            for alternative in ("greater", "less"):
                expected = enumerated_sign_test(signs, alternative)
                got = sign_test(diffs, np.zeros(n), alternative)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_ties_dropped(self):
        a = np.array([2.0, 2.0, 3.0, 4.0])
        b = np.array([2.0, 2.0, 1.0, 1.0])
        assert sign_test(a, b, "greater") == pytest.approx(0.25, abs=1e-15)

    def test_all_ties_undefined(self):
        with pytest.raises(UndefinedTest):
            sign_test(np.ones(4), np.ones(4))


def tiny_spec(T=8, t_star=6, null=False):
    f0 = catalog("M1", scale=0.1)
    f1 = f0 if null else catalog("M4", scale=0.1)
    return ScenarioSpec(
        name="null" if null else "tiny-group-change",
        f0=f0,
        f1=f1,
        change=ChangeInterval(start=t_star, end=t_star),
        T=T,
        changed_vertices=np.arange(60),
    )


class TestRunExperiment:
    def test_structure_and_determinism(self):
        spec = tiny_spec()
        kwargs = dict(methods=("cdp", "act"), windows=(2,), runs=3, seed=5, N=2000)
        first = run_experiment(spec, **kwargs)
        second = run_experiment(spec, **kwargs)
        assert first.performance == second.performance
        cdp = [r for r in first.performance if r["method"] == "cdp"]
        assert [(r["run"], r["t"]) for r in cdp] == [(r, t) for r in range(3) for t in range(3, 9)]
        for r in cdp:
            assert 0.0 < r["phi"] < 1.0
            assert r["eta"] == pytest.approx(math.log(r["phi"] / (1 - r["phi"])), abs=1e-12)
        # eta_bar defined from the second scored instant onwards
        defined = {(r["run"], r["t"]) for r in cdp if r["eta_bar"] is not None}
        assert defined == {(r, t) for r in range(3) for t in range(4, 9)}

    def test_tables_cover_comparisons(self):
        spec = tiny_spec()
        result = run_experiment(
            spec, methods=("cdp", "act", "actm"), windows=(2,), runs=2, seed=1, N=1000
        )
        comparisons = {row["comparison"] for row in result.sign_tests}
        assert comparisons == {"cdp_vs_act", "cdp_vs_actm", "act_vs_actm"}
        assert len(result.sign_tests) == 9
        assert len(result.proportions) == 9
        for row in result.proportions:
            assert 0.0 <= row["proportion"] <= 1.0
        tasks = {(r["task"], r["method"]) for r in result.timings}
        assert ("embedding", "cdp") in tasks and ("profile_and_scores", "actm") in tasks

    def test_window_must_precede_change(self):
        spec = tiny_spec(T=8, t_star=3)
        with pytest.raises(ValueError):
            run_experiment(spec, methods=("act",), windows=(4,), runs=1, seed=0, N=100)

    def test_unknown_method_named(self):
        with pytest.raises(ValueError, match="'pca'"):
            run_experiment(tiny_spec(), methods=("pca",), windows=(2,), runs=1, N=100)

    @pytest.mark.parametrize("N", [0, -5])
    def test_phi_samples_checked_before_first_run(self, monkeypatch, N):
        def no_draw(*args, **kwargs):
            raise AssertionError("a run was drawn")

        monkeypatch.setattr(netchange.evaluation, "generate_sequence", no_draw)
        with pytest.raises(ValueError, match="N must be >= 1"):
            run_experiment(tiny_spec(), methods=("act",), windows=(2,), runs=1, N=N)

    @pytest.mark.parametrize("runs", [0, -2])
    def test_runs_must_be_positive(self, runs):
        with pytest.raises(ValueError, match="runs"):
            run_experiment(tiny_spec(), methods=("act",), windows=(2,), runs=runs, N=100)

    def test_performance_rows_sorted_and_complete(self):
        spec = tiny_spec()
        result = run_experiment(
            spec, methods=("actm", "cdp"), windows=(2, 1), runs=2, seed=3, N=500
        )
        rows = result.performance
        keys = [(METHODS.index(r["method"]), r["window"], r["run"], r["t"]) for r in rows]
        # methods in table order, then ascending window, run and instant
        assert keys == [
            (METHODS.index(m), w, run, t)
            for m in ("cdp", "actm")
            for w in (1, 2)
            for run in range(2)
            for t in range(w + 1, 9)
        ]
        assert all((r["eta_bar"] is None) == (r["t"] == r["window"] + 1) for r in rows)
        for row in rows + result.sign_tests + result.proportions:
            assert row["scenario"] == spec.name

    def test_null_scenario_has_no_systematic_jump(self):
        # same model on both sides of the nominal change instant: the jump
        # statistic at t* should be small relative to its spread across runs
        spec = tiny_spec(null=True)
        result = run_experiment(spec, methods=("cdp",), windows=(2,), runs=12, seed=11, N=20_000)
        bar = [r["eta_bar"] for r in result.performance if r["t"] == 6]
        iqr = np.subtract(*np.percentile(bar, [75, 25]))
        assert abs(np.median(bar)) < max(abs(iqr), 0.2)

    def test_single_run_is_degenerate_but_valid(self):
        spec = tiny_spec()
        result = run_experiment(spec, methods=("cdp", "act"), windows=(2,), runs=1, seed=2, N=500)
        assert {r["run"] for r in result.performance} == {0}
        for row in result.proportions:
            assert row["proportion"] in (0.0, 1.0)

    def test_multiple_windows_give_one_block_each(self):
        spec = tiny_spec()
        result = run_experiment(spec, methods=("act",), windows=(1, 2, 3), runs=1, seed=4, N=500)
        instants = {}
        for r in result.performance:
            instants.setdefault((r["method"], r["window"]), set()).add(r["t"])
        assert instants == {("act", w): set(range(w + 1, 9)) for w in (1, 2, 3)}

    def test_act_and_actm_share_one_activity_per_snapshot(self, monkeypatch):
        original = netchange.baselines.activity
        calls = []

        def counting(snapshot, *args, **kwargs):
            calls.append(snapshot.t)
            return original(snapshot, *args, **kwargs)

        monkeypatch.setattr(netchange.baselines, "activity", counting)
        spec = tiny_spec()
        run_experiment(spec, methods=("act", "actm"), windows=(1, 2), runs=1, seed=0, N=100)
        assert calls == list(range(1, spec.T + 1))

    def test_run_seed_is_xor(self):
        assert run_seed(12, 0) == 12
        assert run_seed(12, 5) == 12 ^ 5
