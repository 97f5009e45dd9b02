"""Tests for the pair-estimator builders used by the bootstrap."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from trimtest import PanelDataset
from trimtest.bootstrap import BootstrapPlan, _draw_block, attempt, bootstrap_pipeline
from trimtest.estimators import (
    RegressionComparison,
    _residual_context,
    coefficient_specs,
    comparison_tests,
    difference_covariance,
    lstat_pair_estimator,
    regression_comparison_estimator,
)
from trimtest.lstat import LStatSpec
from trimtest.robustness import TestSpec, robustness_test
from trimtest.regress import (
    RegressionFit,
    RegressionModel,
    sigma_hat,
    weighted_2sls,
    weighted_ols,
)
from trimtest.weights import ResidualContext, WeightScheme, compute_weights

from conftest import make_panel


class TestLstatPairEstimator:
    def test_stacks_baseline_then_adjusted(self):
        data = PanelDataset({"v": np.array([1.0, 2.0, 100.0])}, np.arange(3))
        est = lstat_pair_estimator(
            [LStatSpec("v")],
            [LStatSpec("v", scheme=WeightScheme.winsorize("v", 0.0, 2.0 / 3.0))],
        )
        out = est(data, np.ones(3))
        np.testing.assert_allclose(out, [np.mean([1.0, 2.0, 100.0]), 5.0 / 3.0])

    def test_row_weights_shift_trim_thresholds(self):
        data = PanelDataset({"v": np.array([1.0, 2.0, 3.0, 4.0])}, np.arange(4))
        est = lstat_pair_estimator(
            [LStatSpec("v")],
            [LStatSpec("v", scheme=WeightScheme.quantile_trim("v", 0.0, 0.75))],
        )
        plain = est(data, np.ones(4))
        # Up-weighting the largest value moves the 75% threshold to 4.0,
        # so nothing is trimmed in the adjusted statistic. The estimate keeps
        # the fixed 1/n normalization, so the multipliers scale contributions.
        heavy_top = est(data, np.array([1.0, 1.0, 1.0, 3.0]))
        assert plain[1] == pytest.approx((1.0 + 2.0 + 3.0) / 4.0)
        assert heavy_top[1] == pytest.approx((1.0 + 2.0 + 3.0 + 3.0 * 4.0) / 4.0)


class TestRegressionComparison:
    def test_labels_without_derived(self):
        comp = RegressionComparison(
            model=RegressionModel("y", ("x", "w")), report_coefficients=("x",)
        )
        assert comp.stat_labels() == ("x",)

    def test_labels_with_derived(self):
        comp = RegressionComparison(
            model=RegressionModel("y", ("d", "l1")),
            report_coefficients=("d",),
            derived_effect="d",
            derived_lags=("l1",),
            derived_horizon=10,
        )
        assert comp.stat_labels() == ("d", "long_run_effect", "effect_after_10", "persistence")

    def test_defaults_to_all_regressors(self):
        comp = RegressionComparison(model=RegressionModel("y", ("a", "b")))
        assert comp.coefficient_list() == ("a", "b")


class TestRegressionComparisonEstimator:
    def test_baseline_half_matches_plain_ols(self, panel):
        comp = RegressionComparison(
            model=RegressionModel("y", ("x",)), report_coefficients=("x",)
        )
        est = regression_comparison_estimator(comp)
        out = est(panel, np.ones(panel.n_rows))
        fit = weighted_ols(RegressionModel("y", ("x",)), panel)
        assert out[0] == pytest.approx(fit.coef("x"), abs=1e-13)
        assert len(out) == 2

    def test_adjusted_half_recomputes_residual_context(self, panel):
        comp = RegressionComparison(
            model=RegressionModel("y", ("x",)),
            adjusted_scheme=WeightScheme.residual_trim(1.0),
            report_coefficients=("x",),
        )
        est = regression_comparison_estimator(comp)
        out = est(panel, np.ones(panel.n_rows))
        # Manual reconstruction of the adjusted side.
        base = weighted_ols(RegressionModel("y", ("x",)), panel)
        ctx = ResidualContext(base.residuals[None], np.array([sigma_hat(base.residuals, panel)]))
        w = compute_weights(WeightScheme.residual_trim(1.0), panel, ctx)
        assert 0 < w.sum() < panel.n_rows  # the trim actually bites
        refit = weighted_ols(RegressionModel("y", ("x",)), panel, weights=w)
        assert out[1] == pytest.approx(refit.coef("x"), abs=1e-13)

    def test_instrumented_adjusted_half_trims_on_both_stages(self):
        rng = np.random.default_rng(11)
        n = 300
        z = rng.normal(size=n)
        u = rng.standard_t(3, size=n)
        x = 0.8 * z + 0.5 * u + rng.normal(size=n)
        data = PanelDataset({"y": 1.5 * x + u, "x": x, "z": z}, np.arange(n) // 3)
        model = RegressionModel("y", ("x",), endogenous=("x",), instruments=("z",))
        scheme = WeightScheme.residual_trim(1.5)
        est = regression_comparison_estimator(
            RegressionComparison(model=model, adjusted_scheme=scheme)
        )
        rho = rng.multinomial(n // 3, np.full(n // 3, 3.0 / n)).repeat(3).astype(float)
        out = est(data, rho)
        # Manual reconstruction: scales are sigma_hat of the baseline fit's
        # residuals and of each first-stage residual column, under rho.
        base = weighted_2sls(model, data, row_multipliers=rho)
        first_stage = base.first_stage_residuals
        ctx = ResidualContext(
            np.array([base.residuals, first_stage[:, 0]]),
            np.array([sigma_hat(base.residuals, data, rho), sigma_hat(first_stage[:, 0], data, rho)]),
        )
        w = compute_weights(scheme, data, ctx, rho)
        only_outcome = compute_weights(
            scheme, data, ResidualContext(ctx.residuals[:1], ctx.scales[:1])
        )
        assert 0 < w.sum() < only_outcome.sum()  # the first-stage bound trims more rows
        refit = weighted_2sls(model, data, weights=w, row_multipliers=rho)
        np.testing.assert_array_equal(out, [base.coef("x"), refit.coef("x")])

    @pytest.mark.parametrize("normalization", ["equal", "pooled"])
    def test_each_residual_row_gets_its_own_scale(self, normalization):
        # First-stage residuals laid out draw by draw (K x n x 2, C order)
        # make a strided stack; the context must still give every row the
        # scale sigma_hat gives that row alone, bit for bit.
        rng = np.random.default_rng(6)
        n, k = 537, 16
        data = PanelDataset({"y": np.zeros(n)}, np.sort(rng.integers(0, 90, n)))
        rho = rng.multinomial(n, np.full(n, 1.0 / n), size=k).astype(float)
        fit = RegressionFit(
            ("x1", "x2"), np.zeros((k, 2)), rng.standard_t(3, (k, n)), rng.standard_t(3, (k, n, 2))
        )
        ctx = _residual_context(fit, data, rho, normalization)
        rows = [fit.residuals, *np.moveaxis(fit.first_stage_residuals, -1, 0)]
        np.testing.assert_array_equal(ctx.residuals, rows)
        for row, scales in zip(rows, ctx.scales):
            assert scales.tobytes() == sigma_hat(row, data, rho, normalization).tobytes()

    def test_derived_summaries_appended_per_side(self):
        data = make_panel(40, 6, seed=3)
        from trimtest.dataset import add_within_cluster_lags

        lagged = add_within_cluster_lags(data, "y", 1)
        comp = RegressionComparison(
            model=RegressionModel("y", ("x", "y_lag1")),
            report_coefficients=("x",),
            derived_effect="x",
            derived_lags=("y_lag1",),
        )
        est = regression_comparison_estimator(comp)
        out = est(lagged, np.ones(lagged.n_rows))
        assert len(out) == 8  # 4 stats per side
        fit = weighted_ols(RegressionModel("y", ("x", "y_lag1")), lagged)
        expected_long_run = fit.coef("x") / (1.0 - fit.coef("y_lag1"))
        assert out[1] == pytest.approx(expected_long_run, rel=1e-12)
        assert out[3] == pytest.approx(fit.coef("y_lag1"), rel=1e-12)


class TestDrawHelpers:
    def test_difference_covariance_formula(self, rng):
        m = rng.normal(size=(4, 4))
        cov = m @ m.T
        out = difference_covariance(cov, 2)
        expected = cov[:2, :2] + cov[2:, 2:] - cov[:2, 2:] - cov[2:, :2]
        np.testing.assert_allclose(out, expected)

    def test_difference_covariance_matches_draw_differences(self, rng):
        # End-to-end identity: cov of (a - b) equals the blockwise formula.
        a = rng.normal(size=(500, 2))
        b = 0.5 * a + rng.normal(size=(500, 2))
        stacked = np.hstack([a, b])
        full = np.cov(stacked, rowvar=False, ddof=1)
        direct = np.cov(a - b, rowvar=False, ddof=1)
        np.testing.assert_allclose(difference_covariance(full, 2), direct, atol=1e-12)


class TestComparisonTests:
    @pytest.mark.parametrize("norm", ["diff_cov", "identity", ((2.5,),)])
    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_one_statistic_joint_test_is_its_test(self, norm, method):
        # One statistic: the joint test has the statistic's settings and
        # 1 x 1 blocks, so it is the test the statistic gets on its own,
        # and that test's report, not a second run of it.
        point = np.array([1.0, 0.2])
        cov = np.array([[0.5, 0.3], [0.3, 0.4]])
        spec = TestSpec(norm_matrix=norm, method=method, mc_draws=2000, seed=3)
        tests = comparison_tests(("x",), point, cov, spec)
        alone = robustness_test(
            point[:1],
            point[1:],
            np.array([[float(tests.diff_cov[0, 0])]]),
            coefficient_specs(spec, 1)[0],
            baseline_cov=np.array([[float(cov[0, 0])]]),
        )
        assert tests.joint.path == ("mc" if method == "mc" else "chi2")
        assert len(tests.coefficient_tests) == 1 and tests.joint is tests.coefficient_tests[0]
        assert tests.joint == alone

    def test_each_of_two_statistics_is_tested_in_its_own_block(self):
        point = np.array([1.0, 2.0, 0.2, 1.9])
        cov = np.diag([0.5, 0.4, 0.3, 0.2])
        spec = TestSpec(norm_matrix=((2.0, 0.0), (0.0, 3.0)))
        tests = comparison_tests(("x", "w"), point, cov, spec)
        b1, b2, diff_cov = tests.baseline, tests.adjusted, tests.diff_cov
        for j, test in enumerate(tests.coefficient_tests):
            alone = robustness_test(
                b1[j : j + 1],
                b2[j : j + 1],
                diff_cov[j : j + 1, j : j + 1],
                TestSpec(norm_matrix=((spec.norm_matrix[j][j],),)),
                baseline_cov=cov[j : j + 1, j : j + 1],
            )
            assert test == alone
        assert tests.joint == robustness_test(b1, b2, diff_cov, spec, baseline_cov=cov[:2, :2])

    def test_without_the_heuristic_every_other_field_is_unchanged(self):
        point = np.array([1.0, 2.0, 0.2, 1.9])
        cov = np.diag([0.5, 0.4, 0.3, 0.2]) + 0.05
        spec = TestSpec(h=0.1, norm_matrix="identity", mc_draws=2000, seed=3)
        full = comparison_tests(("x", "w"), point, cov, spec)
        lean = comparison_tests(("x", "w"), point, cov, spec, heuristic=False)
        for with_p, without_p in zip((*full.coefficient_tests, full.joint), (*lean.coefficient_tests, lean.joint)):
            assert with_p.p_value_heuristic is not None and without_p.p_value_heuristic is None
            assert replace(with_p, p_value_heuristic=None) == without_p
        assert lean.joint.path == "mc"


class TestTwoFactorDraws:
    def test_a_block_is_refused_and_the_engine_gives_each_draw_its_one_draw_value(self):
        # Two fixed effects: each draw's present categories pick its
        # indicator columns, so a block of several draws cannot be fitted
        # at once.  The engine then evaluates every draw alone.
        rng = np.random.default_rng(1)
        ids = np.repeat(np.arange(20), 3)
        period = np.tile(np.arange(3), 20).astype(float)
        x = rng.normal(size=60)
        y = 2.0 * x + rng.normal(size=20)[ids] + 0.3 * period + rng.standard_t(3, size=60)
        data = PanelDataset({"y": y, "x": x, "period": period}, ids)
        model = RegressionModel("y", ("x",), fixed_effects=("cluster", "period"))
        est = regression_comparison_estimator(
            RegressionComparison(model, adjusted_scheme=WeightScheme.residual_trim(2.0), report_coefficients=("x",))
        )
        plan = BootstrapPlan(iterations=100, seed=0)
        rho, empty = _draw_block(data, plan, range(100))  # one block: 100 draws of 60 rows
        assert not empty.any()
        with pytest.raises(ValueError, match="one draw at a time"):
            est.block(data, rho[:2])
        alone = [attempt(est, data, w) for w in rho]
        failed = tuple(b for b, value in enumerate(alone) if value is None)
        assert len(failed) == 1  # that draw's trimmed fit is rank deficient
        result = bootstrap_pipeline(data, plan, est)
        assert result.failed_indices == failed
        expected = np.array([np.full(2, np.nan) if value is None else value for value in alone])
        np.testing.assert_array_equal(result.draws, expected)
