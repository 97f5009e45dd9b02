"""Tests for the bootstrap engines and the draw pipeline."""

from __future__ import annotations

import errno
import gc
import os
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trimtest import PanelDataset
from trimtest import bootstrap, weights
from trimtest.bootstrap import (
    BlockEstimator,
    BootstrapPlan,
    _block_values,
    _draw_block,
    attempt,
    bootstrap_cov,
    bootstrap_pipeline,
    draw_rng,
    multinomial_counts,
    multiplier_weights,
    random_stream,
)
from trimtest.errors import NumericalError, RankDeficiencyError
from trimtest.estimators import (
    RegressionComparison,
    lstat_pair_estimator,
    regression_comparison_estimator,
)
from trimtest.lstat import LStatSpec
from trimtest.mc_oracle import DGPSpec, _child_seed, simulate, size_study
from trimtest.regress import RegressionModel, weighted_ols
from trimtest.weights import WeightScheme, weighted_quantile_threshold

from conftest import _count_forks, _pin_cpus, _raising, make_panel


def weighted_mean_estimator(data, row_weights):
    v = data.column("v")
    return np.array([np.sum(v * row_weights) / np.sum(row_weights)])


trimmed_mean_estimator = lstat_pair_estimator(
    [LStatSpec("v")], [LStatSpec("v", scheme=WeightScheme.quantile_trim("v", 0.1, 0.9))]
)


@pytest.fixture
def clustered():
    rng = np.random.default_rng(123)
    ids = np.repeat(np.arange(12), 4)
    return PanelDataset({"v": rng.normal(size=48)}, ids)


@pytest.fixture
def unequal():
    rng = np.random.default_rng(321)
    sizes = np.array([1, 3, 5, 2, 4, 6, 2, 3, 5, 1, 4, 2])
    ids = np.repeat(np.arange(len(sizes)), sizes)
    return PanelDataset({"v": rng.standard_t(3, size=len(ids))}, ids)


class TestDrawRng:
    def test_same_inputs_same_stream(self):
        a = draw_rng(99, 7).standard_normal(5)
        b = draw_rng(99, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_draws_differ(self):
        a = draw_rng(99, 7).standard_normal(5)
        b = draw_rng(99, 8).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_independent_of_master_stream_usage(self):
        # Draw 5's generator does not depend on draws 0..4 having been made.
        _ = [draw_rng(1, b).standard_normal(100) for b in range(5)]
        fresh = draw_rng(1, 5).standard_normal(3)
        np.testing.assert_array_equal(fresh, draw_rng(1, 5).standard_normal(3))

    def test_disjoint_from_simulation_streams_under_seed_reuse(self):
        # A dataset simulated with seed s and a bootstrap plan with the same
        # seed s must not share random bits: resample counts built from the
        # bits that generated the data would correlate with the data.
        for b in range(4):
            sim_stream = np.random.default_rng(
                np.random.SeedSequence(entropy=42, spawn_key=(b,))
            ).standard_normal(8)
            boot_stream = draw_rng(42, b).standard_normal(8)
            assert not np.array_equal(sim_stream, boot_stream)


class TestStreams:
    """Every stream's spawn key, pinned: changing one moves every output drawn from it."""

    SEEDS = (0, 7, 2**40)

    @staticmethod
    def _state(seed, key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draw_b_has_key_1_b(self, seed):
        # The rule perfbench/oracle.py reimplements to check the bootstrap's counts.
        for b in (0, 1, 1999):
            assert draw_rng(seed, b).bit_generator.state == self._state(seed, (1, b))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_the_test_stream_has_key_2_0(self, seed, monkeypatch):
        from trimtest import robustness

        asked = []

        def recorded(*args):
            asked.append(args)
            return random_stream(*args)

        monkeypatch.setattr(robustness, "random_stream", recorded)
        robustness.critical_value(0.5, np.eye(2), mc_draws=1000, seed=seed, method="mc")
        assert asked == [(seed, "test")]
        assert random_stream(seed, "test").bit_generator.state == self._state(seed, (2, 0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_simulated_data_has_key_0(self, seed):
        data = simulate(DGPSpec.univariate("normal", 6), seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        np.testing.assert_array_equal(data.column("x"), rng.normal(0.0, 1.0, 6))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replication_r_seed_has_key_r(self, seed):
        for r in (0, 1, 63):
            assert _child_seed(seed, r) == int(np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(1)[0])


class TestEngines:
    def test_multinomial_counts_sum(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 17):
            counts = multinomial_counts(n, rng)
            assert counts.sum() == n
            assert counts.min() >= 0
        with pytest.raises(ValueError):
            multinomial_counts(0, rng)

    def test_multinomial_counts_unit_mean(self):
        rng = np.random.default_rng(1)
        n, reps = 10, 4000
        first_unit = np.array([multinomial_counts(n, rng)[0] for _ in range(reps)])
        # Marginal is Binomial(n, 1/n) with mean 1 and variance 1 - 1/n.
        se = np.sqrt((1.0 - 1.0 / n) / reps)
        assert abs(first_unit.mean() - 1.0) < 4 * se

    def test_multiplier_weights_poisson_support(self):
        rng = np.random.default_rng(2)
        xi = multiplier_weights(500, "poisson", rng)
        assert np.all(xi >= -1.0)
        assert np.all(xi == np.round(xi))

    def test_multiplier_weights_normal_moments(self):
        rng = np.random.default_rng(3)
        xi = multiplier_weights(40000, "normal", rng)
        assert abs(xi.mean()) < 0.02
        assert abs(xi.std() - 1.0) < 0.02

    def test_multiplier_weights_edge_cases(self):
        rng = np.random.default_rng(4)
        assert len(multiplier_weights(0, "normal", rng)) == 0
        with pytest.raises(ValueError, match="unknown multiplier"):
            multiplier_weights(3, "cauchy", rng)


class TestPlanValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="iterations"):
            BootstrapPlan(iterations=0)
        with pytest.raises(ValueError, match="resample unit"):
            BootstrapPlan(resample_unit="block")
        with pytest.raises(ValueError, match="engine"):
            BootstrapPlan(engine="jackknife")
        with pytest.raises(ValueError, match="multiplier distribution"):
            BootstrapPlan(engine="multiplier", multiplier_distribution="gamma")
        # The default engine ignores the setting, and still refuses a name no engine knows.
        with pytest.raises(ValueError, match="multiplier distribution 'bogus'"):
            BootstrapPlan(multiplier_distribution="bogus")


class TestPipeline:
    def test_multinomial_draw_matches_manual_materialization(self, unequal):
        # Count weights on the original rows give the statistic of the
        # materialized cluster resample, unequal cluster sizes included.
        plan = BootstrapPlan(iterations=8, seed=21)
        boot = bootstrap_pipeline(unequal, plan, trimmed_mean_estimator)
        for b in range(8):
            counts = multinomial_counts(unequal.n_clusters, draw_rng(21, b))
            resample = unequal.take_clusters(np.repeat(np.arange(unequal.n_clusters), counts))
            expected = trimmed_mean_estimator(resample, np.ones(resample.n_rows))
            np.testing.assert_allclose(boot.draws[b], expected, rtol=1e-12)
    def test_row_resampling_counts_equal_materialized_statistics(self):
        # A count-weighted statistic on the original rows must equal the
        # plain statistic on the materialized resample.
        rng = np.random.default_rng(9)
        v = rng.normal(size=30)
        data = PanelDataset({"v": v}, np.arange(30))
        plan = BootstrapPlan(iterations=20, seed=77, resample_unit="row")
        boot = bootstrap_pipeline(data, plan, weighted_mean_estimator)
        for b in range(20):
            counts = multinomial_counts(30, draw_rng(77, b))
            by_counts = np.sum(v * counts) / counts.sum()
            assert boot.draws[b, 0] == pytest.approx(by_counts, rel=1e-14)

    def test_trim_threshold_recomputed_per_draw(self, clustered):
        # The estimator reports its own trim threshold; it must move with
        # the resample rather than stay at the full-sample value.
        def threshold_estimator(data, row_weights):
            t = weighted_quantile_threshold(data.column("v"), row_weights, 0.8)
            return np.array([t])

        plan = BootstrapPlan(iterations=40, seed=13)
        boot = bootstrap_pipeline(clustered, plan, threshold_estimator)
        full_sample = threshold_estimator(clustered, np.ones(clustered.n_rows))[0]
        assert boot.point[0] == full_sample
        assert len(np.unique(boot.draws[:, 0])) > 1

    def test_normal_multiplier_passes_cluster_level_weights(self, clustered):
        plan = BootstrapPlan(
            iterations=5, seed=31, engine="multiplier", multiplier_distribution="normal"
        )
        seen = []

        def spy(data, row_weights):
            seen.append((data, np.array(row_weights)))
            return np.array([0.0])

        bootstrap_pipeline(clustered, plan, spy)
        for b in range(5):
            data_b, rho_b = seen[b + 1]
            assert data_b is clustered  # original data, not a resample
            xi = multiplier_weights(clustered.n_clusters, "normal", draw_rng(31, b))
            np.testing.assert_array_equal(rho_b, (1.0 + xi)[clustered.row_cluster_index])
            # All rows of one cluster share a multiplier.
            for rows in clustered.cluster_rows:
                assert len(np.unique(rho_b[rows])) == 1

    def test_poisson_multiplier_materializes_counts(self, unequal):
        plan = BootstrapPlan(
            iterations=6, seed=41, engine="multiplier", multiplier_distribution="poisson"
        )
        seen = []

        def spy(data, row_weights):
            seen.append(np.array(row_weights))
            return trimmed_mean_estimator(data, row_weights)

        boot = bootstrap_pipeline(unequal, plan, spy)
        for b in range(6):
            counts = multiplier_weights(unequal.n_clusters, "poisson", draw_rng(41, b)) + 1.0
            resample = unequal.take_clusters(
                np.repeat(np.arange(unequal.n_clusters), counts.astype(np.intp))
            )
            expected = trimmed_mean_estimator(resample, np.ones(resample.n_rows))
            np.testing.assert_allclose(boot.draws[b], expected, rtol=1e-12)
            # Count weights are rescaled to sum to the row count.
            assert seen[b + 1].sum() == pytest.approx(unequal.n_rows, rel=1e-12)
    @pytest.mark.parametrize(
        "engine,distribution",
        [("multinomial", "normal"), ("multiplier", "poisson"), ("multiplier", "normal")],
    )
    @pytest.mark.parametrize("unit", ["cluster", "row"])
    def test_estimator_always_gets_original_dataset(self, unequal, engine, distribution, unit):
        plan = BootstrapPlan(
            iterations=5,
            seed=17,
            resample_unit=unit,
            engine=engine,
            multiplier_distribution=distribution,
        )
        seen = []

        def spy(data, row_weights):
            seen.append((data, np.array(row_weights)))
            return np.array([0.0])

        bootstrap_pipeline(unequal, plan, spy)
        assert len(seen) == 6
        for data, rho in seen:
            assert data is unequal
            assert rho.shape == (unequal.n_rows,)
            if unit == "cluster":
                for rows in unequal.cluster_rows:
                    assert len(np.unique(rho[rows])) == 1

    @pytest.mark.parametrize("unit", ["cluster", "row"])
    @pytest.mark.parametrize(
        "engine, distribution",
        [("multinomial", "normal"), ("multiplier", "normal"), ("multiplier", "poisson")],
    )
    def test_draw_blocks_are_c_ordered(self, unequal, unit, engine, distribution):
        # Each draw's row weights are one contiguous row, so a row reduction
        # over the block needs no copy to run as the one-draw reduction does.
        plan = BootstrapPlan(
            iterations=8, seed=5, resample_unit=unit, engine=engine, multiplier_distribution=distribution
        )
        rho, _ = _draw_block(unequal, plan, range(8))
        assert rho.shape == (8, unequal.n_rows) and rho.flags.c_contiguous

    def test_all_zero_poisson_draw_is_empty(self):
        data = PanelDataset({"v": np.array([1.0, 2.0])}, np.array([0, 0]))
        plan = BootstrapPlan(
            iterations=1, seed=9, engine="multiplier", multiplier_distribution="poisson"
        )
        b = next(
            b for b in range(100) if multiplier_weights(1, "poisson", draw_rng(9, b))[0] == -1.0
        )
        rho, empty = _draw_block(data, plan, range(b, b + 1))
        assert empty.tolist() == [True]
        np.testing.assert_array_equal(rho, np.zeros((1, 2)))
        boot = bootstrap_pipeline(data, BootstrapPlan(
            iterations=b + 1, seed=9, engine="multiplier", multiplier_distribution="poisson"
        ), weighted_mean_estimator)
        assert b in boot.failed_indices

    def test_failed_draws_become_nan_rows(self, clustered):
        calls = {"n": 0}

        def flaky(data, row_weights):
            calls["n"] += 1
            if calls["n"] - 2 in (3, 17):  # call 1 is the point estimate
                raise ValueError("synthetic failure")
            return weighted_mean_estimator(data, row_weights)

        plan = BootstrapPlan(iterations=300, seed=1)
        boot = bootstrap_pipeline(clustered, plan, flaky)
        assert boot.n_failed == 2
        assert boot.failed_indices == (3, 17)
        assert np.isnan(boot.draws[3, 0]) and np.isnan(boot.draws[17, 0])
        assert np.isfinite(boot.cov).all()

    def test_too_many_failures_abort(self, clustered):
        def broken(data, row_weights):
            if not np.all(row_weights == 1.0):
                raise ValueError("always fails on draws")
            return np.array([0.0])

        with pytest.raises(NumericalError, match="limit is 1%"):
            bootstrap_pipeline(clustered, BootstrapPlan(iterations=50, seed=2), broken)

    @staticmethod
    def _failing_on(draws: set[int]):
        calls = {"n": 0}

        def flaky(data, row_weights):
            calls["n"] += 1
            if calls["n"] - 2 in draws:  # call 1 is the point estimate
                raise ValueError("synthetic failure")
            return weighted_mean_estimator(data, row_weights)

        return flaky

    @pytest.mark.parametrize("iterations", [40, 100, 150])
    def test_one_failed_draw_is_tolerated(self, clustered, iterations):
        plan = BootstrapPlan(iterations=iterations, seed=5)
        boot = bootstrap_pipeline(clustered, plan, self._failing_on({7}))
        assert boot.n_failed == 1
        assert boot.failed_indices == (7,)
        assert np.isnan(boot.draws[7]).all()
        assert np.isfinite(np.delete(boot.draws, 7, axis=0)).all()
        assert np.isfinite(boot.cov).all()

    @pytest.mark.parametrize("iterations", [40, 100, 150])
    def test_two_failed_draws_abort_below_200(self, clustered, iterations):
        plan = BootstrapPlan(iterations=iterations, seed=5)
        with pytest.raises(NumericalError, match=f"2 of {iterations} .*limit is 1%"):
            bootstrap_pipeline(clustered, plan, self._failing_on({3, 9}))
    def test_single_draw_zero_covariance(self, clustered):
        boot = bootstrap_pipeline(clustered, BootstrapPlan(iterations=1, seed=3), weighted_mean_estimator)
        assert boot.draws.shape == (1, 1)
        np.testing.assert_array_equal(boot.cov, np.zeros((1, 1)))

    def test_wrong_length_estimator_rejected(self, clustered):
        def ragged(data, row_weights):
            return np.zeros(2) if np.all(row_weights == 1.0) else np.zeros(3)

        with pytest.raises(ValueError, match="expected 2"):
            bootstrap_pipeline(clustered, BootstrapPlan(iterations=2, seed=4), ragged)


class TestSortsAreSharedAcrossDraws:
    """Reweighting never changes a column's order, so draws must not re-sort."""

    @staticmethod
    def _argsort_calls(monkeypatch, iterations: int) -> int:
        rng = np.random.default_rng(8)
        data = PanelDataset({"v": np.round(rng.standard_t(3, size=200), 1)}, np.arange(200))
        specs = [LStatSpec("v"), LStatSpec("v")]
        adjusted = [
            LStatSpec("v", scheme=WeightScheme.quantile_trim("v", 0.05, 0.95)),
            LStatSpec("v", scheme=WeightScheme.winsorize("v", 0.05, 0.95)),
        ]
        calls = {"n": 0}
        argsort = np.argsort

        def counting(*args, **kwargs):
            calls["n"] += 1
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        plan = BootstrapPlan(iterations=iterations, seed=4, resample_unit="row")
        boot = bootstrap_pipeline(data, plan, lstat_pair_estimator(specs, adjusted))
        monkeypatch.setattr(np, "argsort", argsort)
        assert boot.n_failed == 0
        return calls["n"]

    def test_argsort_count_does_not_grow_with_draws(self, monkeypatch):
        few = self._argsort_calls(monkeypatch, 5)
        many = self._argsort_calls(monkeypatch, 50)
        assert many == few
        assert few <= 1  # one column, sorted at most once per dataset


class TestThresholdsAreSharedAcrossEstimators:
    """Estimators that read a column's thresholds at the same levels compute them once per block."""

    PLAN = BootstrapPlan(iterations=250, seed=6, resample_unit="row")

    @staticmethod
    def _data() -> PanelDataset:
        rng = np.random.default_rng(12)
        x = np.round(rng.standard_t(3, size=300), 2)
        x[x == 0.0] = 0.5
        return PanelDataset({"x": x, "z": rng.normal(size=300)}, np.arange(300))

    @staticmethod
    def _estimators() -> dict:
        statistics = [LStatSpec("x"), LStatSpec("z")]

        def against_all_ones(scheme):
            return lstat_pair_estimator(statistics, [replace(s, scheme=scheme) for s in statistics])

        return {
            "trim": against_all_ones(WeightScheme.quantile_trim(["x", "z"], 0.05, 0.95)),
            "winsor": against_all_ones(WeightScheme.winsorize("x", 0.05, 0.95)),
            "wider": against_all_ones(WeightScheme.winsorize("x", 0.1, 0.9)),
        }

    def test_one_computation_per_column_and_levels_per_block(self, monkeypatch):
        data = self._data()
        names = {id(v): c for c, v in data.columns.items()}
        calls, blocks, threshold = [], [], weights.weighted_quantile_threshold

        def counting(values, w, q, order=None):
            if w.ndim == 2 and len(w) > 1:  # a block of draws, not a point estimate
                calls.append((w.tobytes(), names[id(values)], q))
                blocks.append(weakref.ref(w))
            return threshold(values, w, q, order)

        monkeypatch.setattr(weights, "weighted_quantile_threshold", counting)
        _pin_cpus(monkeypatch, 1)
        boot = bootstrap_pipeline(data, self.PLAN, self._estimators())
        assert boot.n_failed == 0
        per_block = {}
        for block, column, levels in calls:
            per_block.setdefault(block, []).append((column, levels))
        assert len(per_block) == -(-250 // (bootstrap.BLOCK_ENTRIES // 300))
        for keys in per_block.values():
            assert sorted(keys) == [("x", (0.05, 0.95)), ("x", (0.1, 0.9)), ("z", (0.05, 0.95))]
        gc.collect()
        assert all(block() is None for block in blocks)  # the memo keeps no block alive

    def test_each_estimator_draws_as_it_does_alone(self):
        data = self._data()
        boot = bootstrap_pipeline(data, self.PLAN, self._estimators())
        for part, fn in zip(boot.parts, self._estimators().values()):
            alone = bootstrap_pipeline(self._data(), self.PLAN, fn)
            assert part.draws.tobytes() == alone.draws.tobytes()
            assert part.point.tobytes() == alone.point.tobytes()


class TestBootstrapCov:
    def test_matches_numpy_cov(self, rng):
        draws = rng.normal(size=(200, 3))
        np.testing.assert_allclose(bootstrap_cov(draws), np.cov(draws, rowvar=False, ddof=1))

    def test_skips_nan_rows(self, rng):
        draws = rng.normal(size=(50, 2))
        draws[7] = np.nan
        expected = np.cov(np.delete(draws, 7, axis=0), rowvar=False, ddof=1)
        np.testing.assert_allclose(bootstrap_cov(draws), expected)

    def test_one_dimensional_input(self, rng):
        draws = rng.normal(size=100)
        out = bootstrap_cov(draws)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.var(draws, ddof=1))

    def test_needs_two_draws(self):
        with pytest.raises(ValueError, match="at least two"):
            bootstrap_cov(np.array([[1.0, 2.0]]))

    def test_variance_scale_against_iid_theory(self):
        # Row bootstrap of the sample mean: n * Var_boot approximates the
        # population variance of one observation.
        rng = np.random.default_rng(2024)
        n = 400
        data = PanelDataset({"v": rng.normal(size=n)}, np.arange(n))
        plan = BootstrapPlan(iterations=2000, seed=8, resample_unit="row")
        boot = bootstrap_pipeline(data, plan, weighted_mean_estimator)
        sample_var = np.var(data.column("v"), ddof=0)
        assert n * boot.cov[0, 0] == pytest.approx(sample_var, rel=0.12)


class TestWeightsStayWithTheirRows:
    """Draws weight the original rows, so per-row inputs keep their rows."""

    def test_custom_weights_follow_their_rows_under_row_draws(self):
        rng = np.random.default_rng(5)
        n = 40
        v = rng.normal(size=n)
        w = rng.uniform(0.0, 2.0, size=n)
        data = PanelDataset({"v": v}, np.arange(n))
        est = lstat_pair_estimator(
            [LStatSpec("v")], [LStatSpec("v", scheme=WeightScheme.custom(w))]
        )
        boot = bootstrap_pipeline(data, BootstrapPlan(10, seed=3, resample_unit="row"), est)
        for b in range(10):
            counts = multinomial_counts(n, draw_rng(3, b))
            assert boot.draws[b, 1] == pytest.approx(np.sum(v * w * counts) / n, rel=1e-12)

    def test_custom_weights_under_unequal_cluster_draws(self, unequal):
        v = unequal.column("v")
        w = np.linspace(0.5, 1.5, unequal.n_rows)
        est = lstat_pair_estimator(
            [LStatSpec("v")], [LStatSpec("v", scheme=WeightScheme.custom(w))]
        )
        boot = bootstrap_pipeline(unequal, BootstrapPlan(50, seed=8), est)
        assert boot.n_failed == 0
        for b in range(50):
            counts = multinomial_counts(unequal.n_clusters, draw_rng(8, b))
            rho = counts[unequal.row_cluster_index]
            expected = np.sum(v * w * rho) / rho.sum()
            assert boot.draws[b, 1] == pytest.approx(expected, rel=1e-12)

    def test_row_draws_keep_cluster_equal_regression_weights(self):
        rng = np.random.default_rng(12)
        sizes = rng.integers(1, 8, size=30)
        ids = np.repeat(np.arange(30), sizes)
        x = rng.normal(size=len(ids))
        y = 1.0 + 2.0 * x + rng.normal(size=30)[ids] + rng.normal(size=len(ids))
        data = PanelDataset({"y": y, "x": x}, ids)
        model = RegressionModel("y", ("x",))
        est = regression_comparison_estimator(RegressionComparison(model))
        boot = bootstrap_pipeline(data, BootstrapPlan(5, seed=12, resample_unit="row"), est)
        for b in range(5):
            counts = multinomial_counts(data.n_rows, draw_rng(12, b)).astype(float)
            expected = weighted_ols(model, data, row_multipliers=counts).coef("x")
            assert boot.draws[b, 0] == pytest.approx(expected, rel=1e-12)


_SCHEMES = ("quantile_trim", "winsorize", "residual_trim", "custom")
_PAIRS = [
    (estimator, scheme)
    for estimator in ("lstat", "ols", "ols_fe", "iv", "ols_fe2")
    for scheme in _SCHEMES
    if not (estimator == "lstat" and scheme == "residual_trim")
]


def _property_model(estimator: str, fe: str) -> RegressionModel:
    if estimator == "iv":
        return RegressionModel("y", ("x",), endogenous=("x",), instruments=("z",))
    effects = {"ols_fe": (fe,), "ols_fe2": (fe, "h")}.get(estimator, ())
    return RegressionModel("y", ("x",), fixed_effects=effects)


def _property_estimator(estimator: str, scheme: str, custom: np.ndarray, fe: str):
    column = "v" if estimator == "lstat" else "y"
    adjusted = {
        "quantile_trim": lambda: WeightScheme.quantile_trim(column, 0.1, 0.9),
        "winsorize": lambda: WeightScheme.winsorize(column, 0.1, 0.9),
        "residual_trim": lambda: WeightScheme.residual_trim(1.5),
        "custom": lambda: WeightScheme.custom(custom),
    }[scheme]()
    if estimator == "lstat":
        return lstat_pair_estimator([LStatSpec("v")], [LStatSpec("v", scheme=adjusted)])
    return regression_comparison_estimator(
        RegressionComparison(_property_model(estimator, fe), adjusted_scheme=adjusted)
    )


def _safe(est):
    def safe(data, row_weights):
        # A draw that cannot be fitted (say, trimming empties a cluster)
        # reads NaN on both routes instead of aborting the comparison.
        try:
            return est(data, row_weights)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError, NumericalError):
            return np.full(2, np.nan)

    return safe


@pytest.mark.parametrize("engine", ["multinomial", "poisson"])
@pytest.mark.parametrize("unit", ["cluster", "row"])
@pytest.mark.parametrize("estimator,scheme", _PAIRS)
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=8, max_size=14), seed=st.integers(0, 2**16))
def test_count_weighted_draws_equal_materialized_resamples(
    engine, unit, estimator, scheme, sizes, seed
):
    if estimator != "lstat":
        # Three or more rows per cluster keep fixed-effect fits away from
        # saturation: a saturated fit leaves residuals at rounding level,
        # and residual trimming would then cut at rounding noise.  Row draws
        # keep each row's cluster-equal weight, which a materialized row
        # resample (every row its own cluster) reproduces only when clusters
        # have equal sizes.
        sizes = [s + 2 for s in sizes] if unit == "cluster" else [sizes[0] + 2] * len(sizes)
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(len(sizes)), sizes)
    n = len(ids)
    x = rng.normal(size=n)
    y = 1.0 + 2.0 * x + rng.normal(size=len(sizes))[ids] + rng.standard_t(3, size=n)
    cols = {"y": y, "x": x, "v": rng.standard_t(3, size=n), "g": ids.astype(float)}
    cols["row"] = np.arange(n, dtype=float)
    custom = rng.uniform(0.0, 2.0, size=n)
    cols["z"] = x + rng.normal(size=n)
    cols["h"] = (np.arange(n) % 3).astype(float)
    data = PanelDataset(cols, ids)
    # take_rows makes every row its own cluster, so row draws absorb the
    # original clusters through the column g instead.
    fe = "cluster" if unit == "cluster" else "g"
    n_units = data.n_clusters if unit == "cluster" else n
    if engine == "multinomial":
        plan = BootstrapPlan(iterations=4, seed=seed, resample_unit=unit)
        counts = [multinomial_counts(n_units, draw_rng(seed, b)) for b in range(4)]
    else:
        plan = BootstrapPlan(
            iterations=4,
            seed=seed,
            resample_unit=unit,
            engine="multiplier",
            multiplier_distribution="poisson",
        )
        counts = [multiplier_weights(n_units, "poisson", draw_rng(seed, b)) + 1 for b in range(4)]
    # An all-zero Poisson draw fails by design (see test_all_zero_poisson_draw_is_empty).
    assume(all(c.sum() > 0 for c in counts))
    est = _property_estimator(estimator, scheme, custom, fe)
    boot = bootstrap_pipeline(data, plan, _safe(est))
    # The same four draws evaluated as one block; a failed draw reads NaN.
    blocked = _block_values(data, est, _draw_block(data, plan, range(4))[0])
    for b, c in enumerate(counts):
        units = np.repeat(np.arange(n_units), c.astype(np.intp))
        resample = data.take_clusters(units) if unit == "cluster" else data.take_rows(units)
        rows = resample.column("row").astype(np.intp)
        ref_est = _safe(_property_estimator(estimator, scheme, custom[rows], fe))
        expected = ref_est(resample, np.ones(resample.n_rows))
        scale = float(np.nanmax(np.abs(expected), initial=1.0))
        for got in (boot.draws[b], np.full(2, np.nan) if blocked[b] is None else blocked[b]):
            np.testing.assert_allclose(
                got, expected, rtol=1e-12, atol=1e-12 * scale, equal_nan=True
            )


def test_cluster_bootstrap_tracks_cluster_dependence():
    # With strong within-cluster correlation, clustered resampling must give
    # a larger variance than row resampling for the same data.
    data = make_panel(25, 8, seed=6, cluster_sd=2.0)

    def mean_y(d, rho):
        return np.array([np.sum(d.column("y") * rho) / np.sum(rho)])

    by_cluster = bootstrap_pipeline(data, BootstrapPlan(800, seed=10), mean_y)
    by_row = bootstrap_pipeline(
        data, BootstrapPlan(800, seed=10, resample_unit="row"), mean_y
    )
    assert by_cluster.cov[0, 0] > 1.8 * by_row.cov[0, 0]


def _one_at_a_time(estimator):
    """The same estimator as a plain callable, which the engine evaluates draw by draw."""
    return lambda data, row_weights: estimator(data, row_weights)


_BLOCK_MODELS = ("ols", "iv", "ols_fe", "ols_fe2")
_ENGINES = {
    "multinomial": {},
    "poisson": {"engine": "multiplier", "multiplier_distribution": "poisson"},
    "normal": {"engine": "multiplier", "multiplier_distribution": "normal"},
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("estimator", _BLOCK_MODELS)
@pytest.mark.parametrize("scheme", ["residual_trim", "quantile_trim"])
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(
    n_clusters=st.integers(6, 14),
    per_draw=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_block_draws_equal_one_draw_evaluation(engine, estimator, scheme, n_clusters, per_draw, seed):
    # Blocks of per_draw draws, a partial last block included, against the
    # draw-by-draw route that evaluates each draw as a block of one.
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(n_clusters), 4)
    n = len(ids)
    x = rng.normal(size=n)
    y = 1.0 + 2.0 * x + rng.normal(size=n_clusters)[ids] + rng.standard_t(3, size=n)
    cols = {"y": y, "x": x, "z": x + rng.normal(size=n), "h": (np.arange(n) % 3).astype(float)}
    data = PanelDataset(cols, ids)
    adjusted = (
        WeightScheme.residual_trim(1.5)
        if scheme == "residual_trim"
        else WeightScheme.quantile_trim("y", 0.1, 0.9)
    )
    est = regression_comparison_estimator(
        RegressionComparison(_property_model(estimator, "cluster"), adjusted_scheme=adjusted)
    )
    plan = BootstrapPlan(iterations=23, seed=seed, **_ENGINES[engine])
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "BLOCK_ENTRIES", per_draw * n)
        for fn in (est, _one_at_a_time(est)):
            try:
                outcomes.append(bootstrap_pipeline(data, plan, fn))
            except NumericalError as exc:  # too many failed draws
                outcomes.append(str(exc))
    blocked, single = outcomes
    if isinstance(single, str):
        assert blocked == single
        return
    assert blocked.failed_indices == single.failed_indices
    np.testing.assert_array_equal(blocked.point, single.point)
    scale = float(np.nanmax(np.abs(single.draws), initial=1.0))
    np.testing.assert_allclose(
        blocked.draws, single.draws, rtol=1e-12, atol=1e-12 * scale, equal_nan=True
    )


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("scheme", ["quantile_trim", "winsorize"])
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(
    n_clusters=st.integers(3, 150),
    per_draw=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_lstat_block_draws_equal_one_draw_evaluation_bit_for_bit(
    engine, scheme, n_clusters, per_draw, seed
):
    # The block route computes every draw's thresholds, weights and row mean
    # at once; each must be the one-draw value exactly, not merely close.
    # Values rounded to one decimal give ties and zero observations.
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(n_clusters), rng.integers(1, 4, size=n_clusters))
    v = np.round(rng.standard_t(3, size=len(ids)), 1)
    data = PanelDataset({"v": v}, ids)
    adjusted = (
        WeightScheme.quantile_trim("v", 0.1, 0.9)
        if scheme == "quantile_trim"
        else WeightScheme.winsorize("v", 0.1, 0.9)
    )
    est = lstat_pair_estimator([LStatSpec("v")], [LStatSpec("v", scheme=adjusted)])
    plan = BootstrapPlan(iterations=23, seed=seed, **_ENGINES[engine])
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "BLOCK_ENTRIES", per_draw * data.n_rows)
        for fn in (est, _one_at_a_time(est)):
            try:
                outcomes.append(bootstrap_pipeline(data, plan, fn))
            except NumericalError as exc:  # too many failed draws
                outcomes.append(str(exc))
    blocked, single = outcomes
    if isinstance(single, str):
        assert blocked == single
        return
    assert blocked.failed_indices == single.failed_indices
    np.testing.assert_array_equal(blocked.point, single.point)
    np.testing.assert_array_equal(blocked.draws, single.draws)


class TestBlockFailures:
    """A draw of a block fails exactly when its one-draw evaluation raises."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(4)
        ids = np.repeat(np.arange(12), 4)
        x = rng.normal(size=48)
        return PanelDataset({"y": 1.0 + 2.0 * x + rng.standard_t(3, size=48), "x": x}, ids)

    def test_failed_rows_match_one_draw_evaluation(self):
        data = self._data()
        model = RegressionModel("y", ("x",))
        est = regression_comparison_estimator(
            RegressionComparison(model, adjusted_scheme=WeightScheme.residual_trim(1.5))
        )
        n = data.n_rows
        largest = int(np.argmax(np.abs(weighted_ols(model, data).residuals)))
        single_row = np.zeros(n)
        single_row[0] = n  # one present row cannot identify a slope
        signed = np.ones(n)
        signed[largest] = -5.0  # outweighs the rest of the mean square
        rng = np.random.default_rng(8)
        W = np.vstack([np.ones(n), single_row, rng.uniform(0.5, 1.5, n), signed, 2.0 * np.ones(n)])
        with pytest.raises(RankDeficiencyError):
            est(data, single_row)
        with pytest.raises(ValueError, match="weighted mean square is negative"):
            est(data, signed)
        with pytest.raises((ValueError, NumericalError)):
            est.block(data, W)
        values = _block_values(data, est, W)
        assert [v is None for v in values] == [False, True, False, True, False]
        for w, v in zip(W, values):
            if v is not None:
                np.testing.assert_allclose(v, attempt(est, data, w), rtol=1e-12)

    def test_block_without_failures_matches_one_draw_evaluation(self):
        data = self._data()
        est = regression_comparison_estimator(RegressionComparison(RegressionModel("y", ("x",))))
        W = np.random.default_rng(2).poisson(1.0, (9, data.n_rows)).astype(float)
        block = est.block(data, W)
        assert block.shape == (9, 2)
        for w, v in zip(W, block):
            np.testing.assert_allclose(v, est(data, w), rtol=1e-12)

    def test_winsorize_fails_only_the_draw_that_clamps_a_zero(self):
        v = np.arange(10.0)  # the zero observation is the minimum
        data = PanelDataset({"v": v}, np.arange(10))
        adjusted = WeightScheme.winsorize("v", 0.2, 0.9)
        est = lstat_pair_estimator([LStatSpec("v")], [LStatSpec("v", scheme=adjusted)])
        W = np.random.default_rng(3).uniform(0.5, 1.5, (5, 10))
        W[0, 0] = 0.0  # the zero is absent from this draw
        W[1] = 1.0  # lower bound at the second value: the zero is clamped to 1
        W[2:, 0] = 4.0  # the zero carries the lower 20% of the mass itself
        with pytest.raises(ValueError, match="zero observation"):
            est(data, W[1])
        with pytest.raises(ValueError, match="zero observation"):
            est.block(data, W)
        values = _block_values(data, est, W)
        assert [v is None for v in values] == [False, True, False, False, False]
        for w, v in zip(W, values):
            if v is not None:
                np.testing.assert_array_equal(v, est(data, w))

    def test_plain_callable_sees_one_draw_per_call(self, clustered):
        shapes = []

        def spy(data, row_weights):
            shapes.append(np.shape(row_weights))
            return weighted_mean_estimator(data, row_weights)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bootstrap, "BLOCK_ENTRIES", 5 * clustered.n_rows)
            boot = bootstrap_pipeline(clustered, BootstrapPlan(iterations=12, seed=1), spy)
        assert shapes == [(clustered.n_rows,)] * 13
        assert np.isfinite(boot.draws).all()


class TestSharedDrawPass:
    """A dict of estimators runs every one of them on the same draws."""

    PLAN = BootstrapPlan(iterations=30, seed=17)

    @staticmethod
    def _failing_on(data, plan, draw):
        """A block estimator of the weighted mean that raises on one draw's weights only."""
        bad = _draw_block(data, plan, range(draw, draw + 1))[0][0]

        def block(data, W):
            if any(np.array_equal(w, bad) for w in W):
                raise ValueError(f"draw {draw} is refused")
            return np.vstack([weighted_mean_estimator(data, w) for w in W])

        return BlockEstimator(block)

    def test_each_part_equals_its_own_run(self, clustered):
        estimators = {"a": trimmed_mean_estimator, "b": weighted_mean_estimator}
        boot = bootstrap_pipeline(clustered, self.PLAN, estimators)
        assert len(boot.parts) == 2
        for part, fn in zip(boot.parts, estimators.values()):
            alone = bootstrap_pipeline(clustered, self.PLAN, fn)
            np.testing.assert_array_equal(part.draws, alone.draws)
            np.testing.assert_array_equal(part.point, alone.point)
            np.testing.assert_array_equal(part.cov, alone.cov)
            assert part.failed_indices == alone.failed_indices == ()
            assert part.parts == ()
        np.testing.assert_array_equal(boot.draws, np.hstack([p.draws for p in boot.parts]))
        np.testing.assert_array_equal(boot.point, np.concatenate([p.point for p in boot.parts]))
        np.testing.assert_array_equal(boot.cov, bootstrap_cov(boot.draws))
        assert (boot.iterations, boot.n_failed, boot.seed) == (30, 0, 17)

    def test_draws_are_built_once_for_all_parts(self, clustered, monkeypatch):
        calls = []

        def counted(seed, b):
            calls.append(b)
            return draw_rng(seed, b)

        monkeypatch.setattr(bootstrap, "draw_rng", counted)
        parts = {name: weighted_mean_estimator for name in ("a", "b", "c")}
        bootstrap_pipeline(clustered, self.PLAN, parts)
        assert calls == list(range(30))

    def test_a_failed_draw_is_its_own_parts_failure(self, clustered):
        failing = self._failing_on(clustered, self.PLAN, 7)
        boot = bootstrap_pipeline(
            clustered, self.PLAN, {"a": failing, "b": weighted_mean_estimator}
        )
        fails, other = boot.parts
        assert fails.failed_indices == (7,) and fails.n_failed == 1
        assert other.failed_indices == () and np.isfinite(other.draws).all()
        alone = bootstrap_pipeline(clustered, self.PLAN, weighted_mean_estimator)
        np.testing.assert_array_equal(other.draws, alone.draws)
        np.testing.assert_array_equal(np.delete(fails.draws, 7, axis=0), np.delete(alone.draws, 7, axis=0))
        assert np.isnan(fails.draws[7]).all()
        assert boot.failed_indices == (7,) and boot.n_failed == 1

    def test_failures_count_once_per_draw_in_the_whole(self, clustered):
        boot = bootstrap_pipeline(
            clustered,
            self.PLAN,
            {"a": self._failing_on(clustered, self.PLAN, 3), "b": self._failing_on(clustered, self.PLAN, 9)},
        )
        assert [p.failed_indices for p in boot.parts] == [(3,), (9,)]
        assert boot.failed_indices == (3, 9) and boot.n_failed == 2

    def test_an_empty_dict_of_estimators_is_refused(self, clustered):
        with pytest.raises(ValueError, match=r"^bootstrap_pipeline needs at least one estimator, got an empty dict$"):
            bootstrap_pipeline(clustered, self.PLAN, {})
        with pytest.raises(ValueError, match=r"^bootstrap_pipeline needs at least one estimator, got an empty list$"):
            bootstrap_pipeline(clustered, self.PLAN, [])

    def test_parts_sharing_a_stage_name_are_kept_apart(self, clustered):
        # Estimators are told apart by position, not by their stage names.
        pairs = [("same", trimmed_mean_estimator), ("same", weighted_mean_estimator)]
        boot = bootstrap_pipeline(clustered, self.PLAN, pairs)
        for part, (_, fn) in zip(boot.parts, pairs, strict=True):
            np.testing.assert_array_equal(part.draws, bootstrap_pipeline(clustered, self.PLAN, fn).draws)

    def test_errors_are_raised_under_their_parts_name(self, clustered):
        def wrong_length(data, row_weights):
            return np.zeros(1 if np.all(row_weights == 1.0) else 2)

        def point_fails(data, row_weights):
            raise ValueError("no point")

        def draws_fail(data, row_weights):
            if not np.all(row_weights == 1.0):
                raise ValueError("no draw")
            return np.zeros(1)

        ok = weighted_mean_estimator
        cases = [
            (point_fails, r"^\[second\] no point$"),
            (wrong_length, r"^\[second\] estimator returned length \(2,\) on draw 0, expected 1$"),
        ]
        for fn, message in cases:
            with pytest.raises(ValueError, match=message):
                bootstrap_pipeline(clustered, self.PLAN, {"first": ok, "second": fn})
        with pytest.raises(NumericalError, match=(
            r"^\[second\] 30 of 30 bootstrap draws failed \(limit is 1% of draws, at least one\)$"
        )):
            bootstrap_pipeline(clustered, self.PLAN, {"first": ok, "second": draws_fail})
        # One estimator, no stage: today's messages, unprefixed.
        with pytest.raises(NumericalError, match=r"^30 of 30 bootstrap draws failed"):
            bootstrap_pipeline(clustered, self.PLAN, draws_fail)


def _refusing(data, plan, draws, returns=None):
    """A weighted-mean estimator that raises on the given draws' weights, or returns `returns` when given."""
    bad = _draw_block(data, plan, sorted(draws))[0]

    def fn(data, row_weights):
        if any(np.array_equal(row_weights, w) for w in bad):
            if returns is None:
                raise ValueError("refused draw")
            return returns
        return weighted_mean_estimator(data, row_weights)

    return fn


@pytest.mark.parametrize("cpus", [1, 2, 3])
class TestWorkers:
    """Draw blocks run on forked workers and give the one-worker result, failures included."""

    PLAN = BootstrapPlan(iterations=300, seed=11)

    @pytest.fixture(autouse=True)
    def blocks_of_15(self, clustered, monkeypatch):
        # 20 blocks: enough for three workers.
        monkeypatch.setattr(bootstrap, "BLOCK_ENTRIES", 15 * clustered.n_rows)

    def test_draws_and_failures_match_one_worker(self, clustered, monkeypatch, cpus):
        # Draws 20, 64 and 275 are in blocks 1, 4 and 18.
        estimators = {
            "a": _refusing(clustered, self.PLAN, {20, 275}),
            "b": _refusing(clustered, self.PLAN, {64}),
            "c": trimmed_mean_estimator,
        }
        _pin_cpus(monkeypatch, 1)
        serial = bootstrap_pipeline(clustered, self.PLAN, estimators)
        _pin_cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        boot = bootstrap_pipeline(clustered, self.PLAN, estimators)
        assert len(forks) == cpus - 1
        assert [p.failed_indices for p in boot.parts] == [(20, 275), (64,), ()]
        assert boot.failed_indices == serial.failed_indices == (20, 64, 275)
        np.testing.assert_array_equal(boot.draws, serial.draws)
        np.testing.assert_array_equal(boot.cov, serial.cov)

    def test_first_wrong_length_is_raised(self, clustered, monkeypatch, cpus):
        # Draw 17 (block 1) runs in a child from two workers on; draw 33
        # (block 2) in this process with two workers, in another child with three.
        _pin_cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        estimators = {"first": weighted_mean_estimator, "second": _refusing(clustered, self.PLAN, {17, 33}, np.zeros(2))}
        with pytest.raises(ValueError, match=r"^\[second\] estimator returned length \(2,\) on draw 17, expected 1$"):
            bootstrap_pipeline(clustered, self.PLAN, estimators)
        assert len(forks) == cpus - 1

    def test_interrupt_kills_the_workers(self, clustered, monkeypatch, cpus):
        # This process is interrupted on its first block while the children
        # sleep: they are killed and reaped rather than waited for.
        _pin_cpus(monkeypatch, cpus)
        parent = os.getpid()

        def estimator(data, row_weights):
            if np.all(row_weights == 1.0):
                return np.zeros(1)
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            bootstrap_pipeline(clustered, self.PLAN, estimator)
        assert time.monotonic() - start < 30


@pytest.mark.parametrize("call, error", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)], ids=["fork-EAGAIN", "pipe-EMFILE"])
@pytest.mark.parametrize("cpus", [2, 3])
class TestWorkersThatCannotStart:
    """Out of processes or file descriptors, this process runs the unstarted workers' blocks."""

    PLAN = TestWorkers.PLAN

    @pytest.fixture(autouse=True)
    def blocks_of_15(self, clustered, monkeypatch):
        monkeypatch.setattr(bootstrap, "BLOCK_ENTRIES", 15 * clustered.n_rows)

    def test_draws_and_failures_match_one_worker(self, clustered, monkeypatch, cpus, call, error):
        estimators = {
            "a": _refusing(clustered, self.PLAN, {20, 275}),
            "b": _refusing(clustered, self.PLAN, {64}),
            "c": trimmed_mean_estimator,
        }
        _pin_cpus(monkeypatch, 1)
        serial = bootstrap_pipeline(clustered, self.PLAN, estimators)
        _pin_cpus(monkeypatch, cpus)
        descriptors = len(os.listdir("/proc/self/fd"))
        for started in range(cpus - 1):  # the first worker fails, or the second
            with monkeypatch.context() as patch:
                failing = _raising(call, error, after=started)
                patch.setattr(os, call, failing)
                boot = bootstrap_pipeline(clustered, self.PLAN, estimators)
            assert len(failing.calls) == started + 1  # no worker is tried after the failure
            assert [p.failed_indices for p in boot.parts] == [(20, 275), (64,), ()]
            assert boot.failed_indices == serial.failed_indices
            np.testing.assert_array_equal(boot.draws, serial.draws)
            np.testing.assert_array_equal(boot.cov, serial.cov)
        assert len(os.listdir("/proc/self/fd")) == descriptors  # a pipe whose fork failed is closed

    def test_first_wrong_length_is_raised(self, clustered, monkeypatch, cpus, call, error):
        # Draw 17 (block 1) is a block of the first worker, run here when it cannot start.
        _pin_cpus(monkeypatch, cpus)
        estimators = {"first": weighted_mean_estimator, "second": _refusing(clustered, self.PLAN, {17, 33}, np.zeros(2))}
        message = r"^\[second\] estimator returned length \(2,\) on draw 17, expected 1$"
        for started in range(cpus - 1):
            with monkeypatch.context() as patch, pytest.raises(ValueError, match=message):
                patch.setattr(os, call, _raising(call, error, after=started))
                bootstrap_pipeline(clustered, self.PLAN, estimators)


def test_a_caller_with_threads_running_does_not_fork(clustered, monkeypatch):
    # A fork copies the calling thread alone, so with another thread alive
    # both fork maps run on one worker, here, and give the serial result.
    monkeypatch.setattr(bootstrap, "BLOCK_ENTRIES", 15 * clustered.n_rows)
    plan = BootstrapPlan(iterations=300, seed=11)
    dgp = DGPSpec.univariate("normal", 5)

    def analysis(data, rep_seed):
        return rep_seed % 2 == 0

    _pin_cpus(monkeypatch, 1)
    serial = bootstrap_pipeline(clustered, plan, weighted_mean_estimator)
    serial_study = size_study(dgp, analysis, reps=12, seed=4)
    _pin_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked with a thread running")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    parked = threading.Thread(target=stop.wait)
    parked.start()
    try:
        boot = bootstrap_pipeline(clustered, plan, weighted_mean_estimator)
        study = size_study(dgp, analysis, reps=12, seed=4)
    finally:
        stop.set()
        parked.join(timeout=10)
    assert not parked.is_alive()
    np.testing.assert_array_equal(boot.draws, serial.draws)
    assert study == serial_study
