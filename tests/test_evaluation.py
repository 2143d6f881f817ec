import concurrent.futures
import itertools
import math
import multiprocessing
import os
import re
import threading

import numpy as np
import pytest

import netchange.baselines
import netchange.evaluation
import netchange.pipeline
from netchange import (
    EmptyPartition,
    estimate_phi,
    log_odds,
    run_experiment,
    scenario,
    sign_test,
)
from netchange.dcsbm import ScenarioSpec, catalog, generate_sequence
from netchange.evaluation import METHODS, run_seed, score_sequence, worker_count
from netchange.pipeline import CdpConfig


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

    @pytest.mark.parametrize(
        "N, message",
        [(True, "N must be an integer, got True"), (1.5, "N must be an integer, got 1.5"),
         (0, "N must be >= 1, got 0")],
    )
    def test_sample_count_checked(self, N, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_phi(np.ones(3), np.ones(5), N, np.random.default_rng(0))


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
        greater, _, _ = sign_test(a, b)
        assert greater == pytest.approx(0.5**10, abs=1e-18)

    def test_two_sided_at_median_is_one(self):
        a = np.array([1.0] * 5 + [-1.0] * 5)
        b = np.zeros(10)
        _, _, two_sided = sign_test(a, b)
        assert two_sided == 1.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(3, 11))
            diffs = rng.standard_normal(n)
            signs = np.sign(diffs)
            got = sign_test(diffs, np.zeros(n))
            for alternative, p in zip(("greater", "less"), got):
                expected = enumerated_sign_test(signs, alternative)
                assert p == pytest.approx(expected, abs=1e-12)
            assert got[2] == min(2.0 * min(got[:2]), 1.0)

    def test_ties_dropped(self):
        a = np.array([2.0, 2.0, 3.0, 4.0])
        b = np.array([2.0, 2.0, 1.0, 1.0])
        greater, _, _ = sign_test(a, b)
        assert greater == pytest.approx(0.25, abs=1e-15)

    def test_all_ties_give_nan_triple(self):
        p = sign_test(np.ones(4), np.ones(4))
        assert len(p) == 3 and all(math.isnan(x) for x in p)


def table(result, name):
    """The rows of one of `result.tables()` as dicts keyed by its header."""
    header, rows = result.tables()[name]
    return [dict(zip(header, row)) for row in rows]


def tiny_spec(T=8, t_star=6, null=False):
    f0 = catalog("M1", scale=0.1)
    f1 = f0 if null else catalog("M4", scale=0.1)
    return ScenarioSpec(
        name="null" if null else "tiny-group-change",
        f0=f0,
        f1=f1,
        change=range(t_star, t_star + 1),
        T=T,
        changed_vertices=np.arange(60),
    )


class TestRunExperiment:
    def test_structure_and_determinism(self):
        spec = tiny_spec()
        kwargs = dict(methods=("cdp", "act"), windows=(2,), runs=3, seed=5, N=2000)
        first = run_experiment(spec, **kwargs)
        second = run_experiment(spec, **kwargs)
        for field in ("phi", "eta", "flagged", "hits"):
            arrays = getattr(first, field)
            assert list(arrays) == [("cdp", 2), ("act", 2)]
            for key, values in arrays.items():
                assert np.array_equal(values, getattr(second, field)[key])
        assert first.instants == {2: range(3, 9)}
        phi, eta = first.phi["cdp", 2], first.eta["cdp", 2]
        assert phi.shape == eta.shape == (3, 6)
        assert np.all((0.0 < phi) & (phi < 1.0))
        for p, e in zip(phi.flat, eta.flat):
            assert e == pytest.approx(math.log(p / (1 - p)), abs=1e-12)
        # eta_bar defined from the second scored instant onwards
        cdp = [r for r in table(first, "performance") if r["method"] == "cdp"]
        assert [(r["run"], r["t"]) for r in cdp] == [(r, t) for r in range(3) for t in range(3, 9)]
        defined = {(r["run"], r["t"]) for r in cdp if r["eta_bar"] is not None}
        assert defined == {(r, t) for r in range(3) for t in range(4, 9)}

    def test_tables_cover_comparisons(self):
        spec = tiny_spec()
        result = run_experiment(
            spec, methods=("cdp", "act", "actm"), windows=(2,), runs=2, seed=1, N=1000
        )
        sign_tests, proportions = table(result, "sign_tests"), table(result, "proportions")
        comparisons = {row["comparison"] for row in sign_tests}
        assert comparisons == {"cdp_vs_act", "cdp_vs_actm", "act_vs_actm"}
        assert len(sign_tests) == 9
        assert len(proportions) == 9
        for row in proportions:
            assert 0.0 <= row["proportion"] <= 1.0
        tasks = {(r["task"], r["method"]) for r in table(result, "timings")}
        assert ("embedding", "cdp") in tasks and ("profile_and_scores", "actm") in tasks

    def test_window_must_precede_change(self):
        spec = tiny_spec(T=8, t_star=3)
        with pytest.raises(ValueError):
            run_experiment(spec, methods=("act",), windows=(4,), runs=1, seed=0, N=100)

    def test_numpy_integer_counts_used_as_ints(self, monkeypatch):
        map_in_workers, seen = netchange.evaluation._map_in_workers, []

        def record(score_run, rseeds, workers):
            seen.append((score_run.args[3], rseeds))
            return map_in_workers(score_run, rseeds, workers)

        monkeypatch.setattr(netchange.evaluation, "_map_in_workers", record)
        result = run_experiment(tiny_spec(), methods=("act",), windows=(np.int64(2),),
                                runs=np.int64(2), seed=np.int64(1), N=np.int64(500))
        (N, rseeds), = seen
        assert type(N) is int and [type(s) for s in rseeds] == [int, int]
        assert result.windows == (2,) and type(result.windows[0]) is int

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"windows": (0, 2)}, "windows must be >= 1, got 0"),
            ({"windows": (-3,)}, "windows must be >= 1, got -3"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"epsilon_rank": 0.0}, "epsilon_rank must be positive"),
            ({"epsilon_rank": float("inf")}, "epsilon_rank must be positive and finite"),
            ({"windows": (1.5,)}, "windows must be an integer, got 1.5"),
            ({"windows": (2, True)}, "windows must be an integer, got True"),
            ({"runs": 2.5}, "runs must be an integer, got 2.5"),
            ({"runs": True}, "runs must be an integer, got True"),
            ({"N": 1.5}, "N must be an integer, got 1.5"),
            ({"N": True}, "N must be an integer, got True"),
            ({"N": 100.0}, "N must be an integer, got 100.0"),
        ],
    )
    def test_seed_and_windows_checked_before_first_run(self, monkeypatch, kwargs, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("a run was drawn")

        monkeypatch.setattr(netchange.evaluation, "generate_sequence", no_draw)
        with pytest.raises(ValueError, match=message):
            run_experiment(tiny_spec(), **{"methods": ("act",), "windows": (2,), "runs": 1,
                                           "N": 100, **kwargs})

    def test_flagged_and_hits_count_detection_sets(self):
        spec = scenario("group-change", scale=0.1)  # n=90: act flags some changed vertices
        result = run_experiment(spec, methods=("act",), windows=(1,), runs=2, seed=7, N=100)
        flagged, hits = result.flagged["act", 1], result.hits["act", 1]
        assert flagged.shape == hits.shape == (2, spec.T - 1)
        for run in range(2):
            rseed = run_seed(7, run)
            snapshots = generate_sequence(spec, np.random.default_rng(rseed))
            series = score_sequence(snapshots, CdpConfig(seed=rseed), ("act",), (1,))["act", 1]
            assert np.array_equal(flagged[run], series.detected.sum(axis=1))
            assert np.array_equal(hits[run], series.detected[:, spec.changed_vertices].sum(axis=1))
        assert np.all((0 <= hits) & (hits <= flagged))
        assert hits.sum() > 0 and (flagged > hits).any()

    @pytest.mark.parametrize("runs", [0, -2])
    def test_runs_must_be_positive(self, runs):
        with pytest.raises(ValueError, match="runs"):
            run_experiment(tiny_spec(), methods=("act",), windows=(2,), runs=runs, N=100)

    def test_numpy_integer_runs_and_n_accepted(self):
        result = run_experiment(tiny_spec(), methods=("act",), windows=(2,), runs=np.int64(1),
                                N=np.int32(100))
        assert result.phi["act", 2].shape[0] == 1

    def test_performance_rows_sorted_and_complete(self):
        spec = tiny_spec()
        result = run_experiment(
            spec, methods=("actm", "cdp"), windows=(2, 1), runs=2, seed=3, N=500
        )
        rows = table(result, "performance")
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
        for row in rows + table(result, "sign_tests") + table(result, "proportions"):
            assert row["scenario"] == spec.name

    def test_null_scenario_has_no_systematic_jump(self):
        # same model on both sides of the nominal change instant: the jump
        # statistic at t* should be small relative to its spread across runs
        spec = tiny_spec(null=True)
        result = run_experiment(spec, methods=("cdp",), windows=(2,), runs=12, seed=11, N=20_000)
        eta, k = result.eta["cdp", 2], result.instants[2].index(6)
        bar = eta[:, k] - eta[:, k - 1]
        iqr = np.subtract(*np.percentile(bar, [75, 25]))
        assert abs(np.median(bar)) < max(abs(iqr), 0.2)

    def test_single_run_is_degenerate_but_valid(self):
        spec = tiny_spec()
        result = run_experiment(spec, methods=("cdp", "act"), windows=(2,), runs=1, seed=2, N=500)
        assert result.eta["cdp", 2].shape[0] == result.eta["act", 2].shape[0] == 1
        for row in table(result, "proportions"):
            assert row["proportion"] in (0.0, 1.0)

    def test_multiple_windows_give_one_block_each(self):
        spec = tiny_spec()
        result = run_experiment(spec, methods=("act",), windows=(1, 2, 3), runs=1, seed=4, N=500)
        assert result.instants == {w: range(w + 1, 9) for w in (1, 2, 3)}
        assert {key: eta.shape for key, eta in result.eta.items()} == {
            ("act", w): (1, 8 - w) for w in (1, 2, 3)
        }

    @pytest.mark.parametrize(
        "owner, name, methods",
        [
            (netchange.baselines, "activity", ("act", "actm")),
            (netchange.pipeline, "embed", ("cdp",)),
        ],
        ids=["activity", "embedding"],
    )
    def test_each_feature_is_extracted_once_per_snapshot(self, monkeypatch, owner, name, methods):
        # every window of every method sharing the feature scores the same list
        original = getattr(owner, name)
        calls = []

        def counting(*args, **kwargs):
            feature = original(*args, **kwargs)
            calls.append(feature.t)
            return feature

        monkeypatch.setattr(owner, name, counting)
        spec = tiny_spec()
        run_experiment(spec, methods=methods, windows=(1, 2), runs=1, seed=0, N=100)
        assert calls == list(range(1, spec.T + 1))

    def test_run_seed_is_xor(self):
        assert run_seed(12, 0) == 12
        assert run_seed(12, 5) == 12 ^ 5


class TestWorkers:
    def test_pooled_runs_equal_in_process_runs(self, monkeypatch, tmp_path, usable_cpus):
        pids = tmp_path / "pids"
        original = netchange.evaluation.generate_sequence

        def recording(*args):
            with open(pids, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            return original(*args)

        monkeypatch.setattr(netchange.evaluation, "generate_sequence", recording)
        kwargs = dict(methods=METHODS, windows=(1, 2), runs=3, seed=5, N=2000)
        results = {}
        for cpus in (3, 1):
            usable_cpus(cpus)
            results[cpus] = run_experiment(tiny_spec(), **kwargs)
            drawn_by = set(pids.read_text().split())
            assert (str(os.getpid()) in drawn_by) == (cpus == 1) and len(drawn_by) <= cpus
            pids.unlink()
        pooled, in_process = results[3], results[1]
        assert multiprocessing.active_children() == []
        assert pooled.instants == in_process.instants
        for field in ("phi", "eta", "flagged", "hits"):
            arrays, expected = getattr(pooled, field), getattr(in_process, field)
            assert list(arrays) == list(expected)
            assert all(np.array_equal(arrays[key], expected[key]) for key in expected)
        tables, expected = pooled.tables(), in_process.tables()
        for name in ("performance", "sign_tests", "proportions"):
            assert tables[name] == expected[name]
        # timings hold measured seconds: same rows, other values
        header, rows = tables["timings"]
        assert header == expected["timings"][0]
        assert [row[:3] for row in rows] == [row[:3] for row in expected["timings"][1]]
        assert [len(s) for s in pooled.seconds.values()] == [
            len(s) for s in in_process.seconds.values()]

    @pytest.mark.parametrize("cpus, runs, workers", [(1, 5, 1), (2, 1, 1), (2, 5, 2), (64, 3, 3)])
    def test_worker_count_is_runs_capped_by_cpus(self, usable_cpus, cpus, runs, workers):
        usable_cpus(cpus)
        assert worker_count(runs) == workers

    def test_one_worker_without_fork(self, monkeypatch, usable_cpus):
        usable_cpus(8)
        monkeypatch.delattr(os, "fork", raising=False)
        assert worker_count(4) == 1

    def test_one_worker_beside_other_threads(self, monkeypatch, usable_cpus):
        # a BLAS with threads of its own would run them in every worker
        usable_cpus(8)
        monkeypatch.setattr(netchange.pipeline, "_thread_count", lambda: 3)
        assert worker_count(4) == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads read from /proc")
    def test_thread_count_sees_a_new_thread(self):
        before, stop = netchange.pipeline._thread_count(), threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert netchange.pipeline._thread_count() == before + 1
        finally:
            stop.set()
            thread.join()

    def test_pool_never_exceeds_the_runs(self, monkeypatch, usable_cpus):
        # an in-process stand-in records the pool size without starting processes
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                assert cancel_futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        usable_cpus(64)
        run_experiment(tiny_spec(), methods=("act",), windows=(2,), runs=3, N=100)
        assert sizes == [3]
