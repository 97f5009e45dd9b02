"""Tests for weighted OLS, 2SLS, and derived dynamic parameters."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trimtest import PanelDataset
from trimtest.errors import RankDeficiencyError
from trimtest.regress import (
    DerivedParams,
    RegressionModel,
    build_design,
    derived_params,
    fit_model,
    sigma_hat,
    weighted_2sls,
    weighted_ols,
)

from conftest import make_panel


def _per_cluster_sigma(eps, data, rho, normalization):
    """Mean square as sigma_hat computed it per cluster before sharing _row_scale.

    Returns (mass, mean square); sigma is the root when both are valid.
    """
    rho = np.ones(data.n_rows) if rho is None else rho
    if normalization == "pooled":
        mass = float(rho.sum())
        return mass, float(np.sum(rho * eps**2) / mass) if mass > 0 else 0.0
    ci, m, sizes = data.row_cluster_index, data.n_clusters, data.cluster_sizes
    per_cluster = np.bincount(ci, weights=rho * eps**2, minlength=m) / sizes
    mass = float(np.sum(np.bincount(ci, weights=rho, minlength=m) / sizes))
    return mass, float(per_cluster.sum() / mass) if mass > 0 else 0.0


def iid_dataset(rng, n=200, slope=1.5, intercept=0.4):
    x = rng.normal(size=n)
    y = intercept + slope * x + rng.normal(size=n)
    return PanelDataset({"y": y, "x": x}, np.arange(n))


class TestModelValidation:
    def test_endogenous_must_be_regressors(self):
        with pytest.raises(ValueError, match="not regressors"):
            RegressionModel("y", ("x",), endogenous=("w",), instruments=("z",))

    def test_instrument_count(self):
        with pytest.raises(ValueError, match="at least as many instruments"):
            RegressionModel("y", ("a", "b"), endogenous=("a", "b"), instruments=("z",))

    def test_paired_presence(self):
        with pytest.raises(ValueError, match="together"):
            RegressionModel("y", ("x",), instruments=("z",))

    def test_needs_something_to_fit(self):
        with pytest.raises(ValueError, match="regressors or an intercept"):
            RegressionModel("y", (), intercept=False)

    def test_normalization_names(self):
        with pytest.raises(ValueError, match="normalization"):
            RegressionModel("y", ("x",), normalization="huber")


class TestBuildDesign:
    def test_order_is_intercept_regressors_dummies(self):
        data = PanelDataset(
            {
                "y": np.zeros(6),
                "x": np.arange(6.0),
                "g": np.array([0.0, 1.0, 1.0, 2.0, 2.0, 0.0]),
                "h": np.array([5.0, 5.0, 7.0, 7.0, 5.0, 7.0]),
            },
            np.zeros(6),
        )
        design, names = build_design(data, ("x",))
        assert names == ("intercept", "x")
        np.testing.assert_array_equal(design[:, 0], np.ones(6))
        # g has the most categories and is absorbed, taking the intercept
        # with it; h keeps its indicators less the first category.
        design, names = build_design(data, ("x",), fixed_effects=("h", "g"))
        assert names == ("x", "h=7.0")
        np.testing.assert_array_equal(design[:, 1], [0.0, 0.0, 1.0, 1.0, 0.0, 1.0])

    def test_absorbed_factor_and_intercept_get_no_columns(self):
        data = make_panel(4, 3, seed=1)
        for intercept in (True, False):
            design, names = build_design(
                data, ("x",), fixed_effects=("cluster",), intercept=intercept
            )
            assert names == ("x",)
            np.testing.assert_array_equal(design[:, 0], data.column("x"))

    def test_cluster_pseudo_factor(self):
        data = PanelDataset(
            {"y": np.zeros(4), "x": np.arange(4.0), "g": np.array([0.0, 1.0, 2.0, 2.0])},
            np.array(["u", "u", "v", "v"]),
        )
        labels, codes = data.factor_codes("cluster")
        assert labels == ("u", "v")
        assert codes is data.row_cluster_index
        design, names = build_design(data, ("x",), fixed_effects=("cluster", "g"))
        assert names == ("x", "cluster=v")
        np.testing.assert_array_equal(design[:, 1], [0.0, 0.0, 1.0, 1.0])

    def test_unknown_fixed_effect(self):
        data = PanelDataset({"y": np.zeros(2)}, np.zeros(2))
        with pytest.raises(KeyError, match="fixed effect"):
            build_design(data, (), fixed_effects=("region",))

    def test_empty_design_rejected(self):
        data = PanelDataset({"y": np.zeros(2)}, np.zeros(2))
        with pytest.raises(ValueError, match="empty design"):
            build_design(data, (), intercept=False)


class TestWeightedOls:
    def test_matches_lstsq_on_iid_rows(self, rng):
        data = iid_dataset(rng)
        fit = weighted_ols(RegressionModel("y", ("x",)), data)
        design = np.column_stack([np.ones(data.n_rows), data.column("x")])
        ref, *_ = np.linalg.lstsq(design, data.column("y"), rcond=None)
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-12)

    def test_intercept_only_is_mean(self, rng):
        data = iid_dataset(rng, n=50)
        fit = weighted_ols(RegressionModel("y", ()), data)
        assert fit.coef("intercept") == pytest.approx(np.mean(data.column("y")), abs=1e-13)

    def test_zero_one_weights_equal_subset_fit(self, rng):
        data = iid_dataset(rng, n=80)
        keep = rng.uniform(size=80) > 0.3
        fit_w = weighted_ols(RegressionModel("y", ("x",)), data, weights=keep.astype(float))
        sub = data.subset_rows(keep)
        fit_s = weighted_ols(RegressionModel("y", ("x",)), sub)
        np.testing.assert_allclose(fit_w.coefficients, fit_s.coefficients, atol=1e-10)

    def test_cluster_equal_intercept_is_mean_of_cluster_means(self):
        # Unbalanced clusters: the equal normalization averages clusters,
        # not rows.
        data = PanelDataset(
            {"y": np.array([0.0, 0.0, 0.0, 10.0])},
            np.array([0, 0, 0, 1]),
        )
        fit = weighted_ols(RegressionModel("y", ()), data)
        assert fit.coef("intercept") == pytest.approx(5.0)
        pooled = weighted_ols(RegressionModel("y", (), normalization="pooled"), data)
        assert pooled.coef("intercept") == pytest.approx(2.5)

    def test_fe_baseline_choice_does_not_move_slope(self, rng):
        # g is absorbed; h keeps indicators whose baseline is the first h
        # category in row order.  Reordering the rows so that another h
        # category comes first changes the baseline.
        n = 90
        g = rng.integers(0, 5, size=n).astype(float)
        h = rng.integers(0, 3, size=n).astype(float)
        x = rng.normal(size=n)
        y = 2.0 * x + g - h + rng.normal(size=n)
        data = PanelDataset({"y": y, "x": x, "g": g, "h": h}, np.arange(n))
        model = RegressionModel("y", ("x",), fixed_effects=("g", "h"))
        fit_a = weighted_ols(model, data)
        order = np.argsort(h != h[-1], kind="stable")  # rows of h[-1] first
        reordered = data.take_rows(order)
        fit_b = weighted_ols(model, reordered)
        assert f"h={h[0]}" not in fit_a.coefficient_names
        assert f"h={h[-1]}" not in fit_b.coefficient_names
        assert fit_a.coef("x") == pytest.approx(fit_b.coef("x"), abs=1e-10)
        resid_gap = np.max(np.abs(fit_a.residuals[order] - fit_b.residuals))
        assert resid_gap < 1e-10
        # With the first h category's rows given zero multipliers, the first
        # present category becomes the baseline and the fit equals the fit
        # on the remaining rows.
        rho = (h != h[0]).astype(float)
        fit_c = weighted_ols(model, data, row_multipliers=rho)
        fit_s = weighted_ols(model, data.subset_rows(rho > 0))
        assert fit_c.coefficient_names == fit_s.coefficient_names
        np.testing.assert_allclose(fit_c.coefficients, fit_s.coefficients, atol=1e-10)

    def test_category_emptied_by_weights_stays_rank_deficient(self):
        # Zero outlier weights on every row of a cluster, unlike zero
        # multipliers, leave its effect in the model with no row to
        # identify it.
        data = make_panel(6, 4, seed=3)
        model = RegressionModel("y", ("x",), fixed_effects=("cluster",))
        w = np.ones(data.n_rows)
        w[data.cluster_rows[2]] = 0.0
        with pytest.raises(RankDeficiencyError, match="rank 6 < 7 columns"):
            weighted_ols(model, data, weights=w)
        rho = np.ones(data.n_rows)
        rho[data.cluster_rows[2]] = 0.0
        fit = weighted_ols(model, data, row_multipliers=rho)
        assert fit.coefficient_names == ("x",)
        # The absent cluster drops out: its rows are demeaned by 0.
        rows = data.cluster_rows[2]
        expected = data.column("y")[rows] - fit.coef("x") * data.column("x")[rows]
        np.testing.assert_allclose(fit.residuals[rows], expected, atol=1e-12)
        fit_s = weighted_ols(model, data.subset_rows(rho > 0))
        assert fit.coef("x") == pytest.approx(fit_s.coef("x"), rel=1e-12)

    def test_rank_deficiency_reports_rank_and_stage(self, rng):
        x = rng.normal(size=30)
        data = PanelDataset({"y": rng.normal(size=30), "a": x, "b": 2.0 * x}, np.arange(30))
        with pytest.raises(RankDeficiencyError) as exc_info:
            weighted_ols(RegressionModel("y", ("a", "b")), data)
        err = exc_info.value
        assert err.rank == 2 and err.ncols == 3
        assert "rank 2 < 3 columns" in str(err)

    def test_row_multipliers_reweight_rows(self, rng):
        data = iid_dataset(rng, n=60)
        rho = rng.uniform(0.5, 1.5, size=60)
        fit = weighted_ols(RegressionModel("y", ("x",)), data, row_multipliers=rho)
        # Same numbers from a hand-built weighted normal-equation solve.
        design = np.column_stack([np.ones(60), data.column("x")])
        s = rho / 60.0  # singleton clusters: scale is rho / n
        ref = np.linalg.solve(design.T @ (design * s[:, None]), design.T @ (s * data.column("y")))
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-12)


class TestSigmaHat:
    def test_singleton_clusters_root_mean_square(self, rng):
        eps = rng.normal(size=40)
        data = PanelDataset({"y": np.zeros(40)}, np.arange(40))
        assert sigma_hat(eps, data) == pytest.approx(np.sqrt(np.mean(eps**2)))

    def test_unbalanced_cluster_equal_oracle(self):
        eps = np.array([1.0, 1.0, 1.0, 3.0])
        data = PanelDataset({"y": np.zeros(4)}, np.array([0, 0, 0, 1]))
        expected = np.sqrt(0.5 * (np.mean([1.0, 1.0, 1.0]) + 9.0))
        assert sigma_hat(eps, data) == pytest.approx(expected)

    def test_pooled_ignores_clusters(self):
        eps = np.array([1.0, 1.0, 1.0, 3.0])
        data = PanelDataset({"y": np.zeros(4)}, np.array([0, 0, 0, 1]))
        assert sigma_hat(eps, data, normalization="pooled") == pytest.approx(
            np.sqrt(np.mean(eps**2))
        )

    def test_cluster_multipliers(self):
        eps = np.array([2.0, 2.0, 4.0])
        data = PanelDataset({"y": np.zeros(3)}, np.array([0, 0, 1]))
        rho = np.array([3.0, 3.0, 1.0])
        expected = np.sqrt((3.0 * 4.0 + 1.0 * 16.0) / (3.0 + 1.0))
        assert sigma_hat(eps, data, row_multipliers=rho) == pytest.approx(expected)

    def test_length_check(self):
        data = PanelDataset({"y": np.zeros(3)}, np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            sigma_hat(np.zeros(2), data)

    @pytest.mark.parametrize("normalization", ["equal", "pooled"])
    @pytest.mark.parametrize("multipliers", ["none", "multinomial", "poisson", "signed"])
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=30), seed=st.integers(0, 2**16))
    def test_matches_the_per_cluster_formula(self, normalization, multipliers, sizes, seed):
        # One row-scale formula replaced a per-cluster sum; only the order
        # of summation differs, so sigma moves by rounding alone.
        rng = np.random.default_rng(seed)
        ids = np.repeat(np.arange(len(sizes)), sizes)
        n = len(ids)
        data = PanelDataset({"y": np.zeros(n)}, ids)
        eps = rng.standard_t(3, size=n) * 10.0 ** rng.integers(-3, 4)
        rho = None
        if multipliers == "multinomial":  # cluster resample counts
            rho = rng.multinomial(len(sizes), np.full(len(sizes), 1.0 / len(sizes)))[ids] * 1.0
        elif multipliers == "poisson":
            rho = rng.poisson(1.0, n) * 1.0
        elif multipliers == "signed":
            rho = 1.0 + rng.standard_normal(n)
        mass, mean_square = _per_cluster_sigma(eps, data, rho, normalization)
        if mass <= 0 or mean_square < 0:
            with pytest.raises(ValueError, match="non-positive total|mean square is negative"):
                sigma_hat(eps, data, row_multipliers=rho, normalization=normalization)
            return
        expected = np.sqrt(mean_square)
        got = sigma_hat(eps, data, row_multipliers=rho, normalization=normalization)
        # Rounding grows with cancellation in the two weighted sums; kappa is
        # their condition number, 1 unless signed multipliers cancel.
        s = np.ones(n) if rho is None else rho
        if normalization == "equal":
            s = s / data.row_cluster_sizes
        kappa = max(
            np.sum(np.abs(s) * eps**2) / abs(np.sum(s * eps**2)),
            np.sum(np.abs(s)) / abs(np.sum(s)),
        )
        assert abs(got - expected) <= 1e-15 * kappa * expected

    @pytest.mark.parametrize("normalization", ["equal", "pooled"])
    def test_negative_mean_square_raises_at_the_scale(self, normalization):
        # Signed normal multipliers: positive total mass, but the large
        # residual carries the negative weight.  No NaN, no RuntimeWarning.
        eps = np.array([0.1, 3.0])
        data = PanelDataset({"y": np.zeros(2)}, np.array([0, 1]))
        rho = np.array([2.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weighted mean square is negative"):
                sigma_hat(eps, data, row_multipliers=rho, normalization=normalization)

    @pytest.mark.parametrize("normalization", ["equal", "pooled"])
    def test_stack_of_residual_rows_gives_each_row_its_scale(self, normalization):
        rng = np.random.default_rng(4)
        n, k = 537, 16
        data = PanelDataset({"y": np.zeros(n)}, np.sort(rng.integers(0, 90, n)))
        rho = rng.poisson(1.0, (k, n)) * 1.0
        stack = rng.standard_t(3, (3, k, n))
        got = sigma_hat(stack, data, rho, normalization)
        assert got.shape == (3, k)
        for row, scales in zip(stack, got):
            np.testing.assert_array_equal(scales, sigma_hat(row, data, rho, normalization))

    def test_negative_mean_square_in_a_stack_quotes_its_value(self):
        # Only draw 1 of residual row 1 has a negative mean square: entry 3
        # of the flattened 2 x 2 scales.
        data = PanelDataset({"y": np.zeros(2)}, np.array([0, 1]))
        rho = np.array([[1.0, 1.0], [2.0, -1.0]])
        stack = np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [0.1, 3.0]]])
        value = (2.0 * 0.1**2 - 3.0**2) / 1.0
        with pytest.raises(ValueError, match=rf"negative \({value!r}\)"):
            sigma_hat(stack, data, rho, normalization="pooled")


class TestWeighted2sls:
    @pytest.fixture
    def iv_data(self):
        rng = np.random.default_rng(7)
        n = 400
        z = rng.normal(size=n)
        u = rng.normal(size=n)  # confounder
        x = 0.8 * z + 0.6 * u + 0.3 * rng.normal(size=n)
        y = 0.5 + 1.5 * x + u + 0.5 * rng.normal(size=n)
        return PanelDataset({"y": y, "x": x, "z": z}, np.arange(n))

    def test_exactly_identified_matches_iv_formula(self, iv_data):
        model = RegressionModel("y", ("x",), endogenous=("x",), instruments=("z",))
        fit = weighted_2sls(model, iv_data)
        n = iv_data.n_rows
        design = np.column_stack([np.ones(n), iv_data.column("x")])
        z_mat = np.column_stack([np.ones(n), iv_data.column("z")])
        s = np.full(n, 1.0 / n)
        ref = np.linalg.solve(
            z_mat.T @ (design * s[:, None]), z_mat.T @ (s * iv_data.column("y"))
        )
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-10)

    def test_recovers_structural_slope(self, iv_data):
        model = RegressionModel("y", ("x",), endogenous=("x",), instruments=("z",))
        fit = weighted_2sls(model, iv_data)
        naive = weighted_ols(RegressionModel("y", ("x",)), iv_data)
        # OLS is biased upward by the confounder; 2SLS is not.
        assert abs(fit.coef("x") - 1.5) < 0.15
        assert naive.coef("x") - 1.5 > 0.3

    def test_first_stage_residuals_orthogonal_to_instruments(self, iv_data):
        model = RegressionModel("y", ("x",), endogenous=("x",), instruments=("z",))
        fit = weighted_2sls(model, iv_data)
        assert fit.first_stage_residuals.shape == (iv_data.n_rows, 1)
        n = iv_data.n_rows
        z_mat = np.column_stack([np.ones(n), iv_data.column("z")])
        moments = z_mat.T @ (fit.first_stage_residuals[:, 0] / n)
        np.testing.assert_allclose(moments, 0.0, atol=1e-12)
        assert sigma_hat(fit.first_stage_residuals[:, 0], iv_data) > 0

    def test_structural_residuals_use_actual_regressors(self, iv_data):
        model = RegressionModel("y", ("x",), endogenous=("x",), instruments=("z",))
        fit = weighted_2sls(model, iv_data)
        design = np.column_stack([np.ones(iv_data.n_rows), iv_data.column("x")])
        np.testing.assert_allclose(
            fit.residuals, iv_data.column("y") - design @ fit.coefficients, atol=1e-12
        )

    def test_collinear_instruments_flag_first_stage(self, iv_data):
        data = iv_data.with_columns({"z2": 3.0 * iv_data.column("z")})
        model = RegressionModel("y", ("x",), endogenous=("x",), instruments=("z", "z2"))
        with pytest.raises(RankDeficiencyError, match="first-stage"):
            weighted_2sls(model, data)

    def test_fit_model_dispatch(self, iv_data):
        ols_model = RegressionModel("y", ("x",))
        iv_model = RegressionModel("y", ("x",), endogenous=("x",), instruments=("z",))
        assert fit_model(ols_model, iv_data).first_stage_residuals is None
        assert fit_model(iv_model, iv_data).first_stage_residuals is not None
        # One routine under three names: every name fits 2SLS on the IV model.
        for model in (ols_model, iv_model):
            ref = fit_model(model, iv_data)
            for fit in (weighted_ols(model, iv_data), weighted_2sls(model, iv_data)):
                assert fit.coefficient_names == ref.coefficient_names
                np.testing.assert_array_equal(fit.coefficients, ref.coefficients)
                np.testing.assert_array_equal(fit.residuals, ref.residuals)
                assert sigma_hat(fit.residuals, iv_data) == sigma_hat(ref.residuals, iv_data)
                if model.is_instrumented:
                    np.testing.assert_array_equal(
                        fit.first_stage_residuals, ref.first_stage_residuals
                    )
                    first_stage = fit.first_stage_residuals[:, 0], ref.first_stage_residuals[:, 0]
                    assert sigma_hat(first_stage[0], iv_data) == sigma_hat(first_stage[1], iv_data)

    def test_uninstrumented_model_falls_back_to_ols(self, iv_data):
        model = RegressionModel("y", ("x",))
        a = weighted_2sls(model, iv_data)
        b = weighted_ols(model, iv_data)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)


class TestClusterDependence:
    def test_fit_on_panel_fixture(self, panel):
        fit = weighted_ols(RegressionModel("y", ("x",)), panel)
        assert abs(fit.coef("x") - 2.0) < 0.25
        assert abs(fit.coef("intercept") - 1.0) < 0.35

    def test_duplicated_cluster_changes_estimate(self):
        data = make_panel(10, 3, seed=11)
        base = weighted_ols(RegressionModel("y", ("x",)), data)
        doubled = data.take_clusters(np.array([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]))
        refit = weighted_ols(RegressionModel("y", ("x",)), doubled)
        assert refit.coef("x") != pytest.approx(base.coef("x"), abs=1e-12)


def _dense_dummy_fit(model, data, rho):
    """The fit on explicit indicator columns, as fit_model computed it before absorption.

    Design: intercept, regressors, then per factor one indicator for each
    category with a present row, less the first.  Returns (coefficients
    by name, residuals, first-stage residuals or None).
    """
    n = data.n_rows
    rho = np.ones(n) if rho is None else rho
    present = rho != 0

    def dense(columns):
        cols, names = [np.ones(n)], ["intercept"]
        cols += [data.column(c) for c in columns]
        names += list(columns)
        for f in model.fixed_effects:
            codes = data.row_cluster_index if f == "cluster" else data.column(f)
            for c in np.unique(codes[present])[1:]:
                cols.append((codes == c).astype(float))
                names.append(f"{f}={c}")
        return np.column_stack(cols), names

    s = rho / n
    if model.normalization == "equal":
        s = rho / (data.row_cluster_sizes * data.n_clusters)

    def solve(a, target):
        gram = a.T @ (a * s[:, None])
        if np.linalg.cond(gram) > 1e7:
            raise np.linalg.LinAlgError("not identified or ill-conditioned")
        return np.linalg.solve(gram, a.T @ (target.reshape(n, -1) * s[:, None]))

    x, names = dense(model.regressors)
    y = data.column(model.outcome)
    fitted = x
    if model.is_instrumented:
        exog = tuple(r for r in model.regressors if r not in model.endogenous)
        z, _ = dense(model.instruments + exog)
        fitted = z @ solve(z, x)
    beta = solve(fitted, y)[:, 0]
    first_stage = None
    if model.is_instrumented:
        idx = [names.index(e) for e in model.endogenous]
        first_stage = x[:, idx] - fitted[:, idx]
    return dict(zip(names, beta)), y - x @ beta, first_stage


class TestFixedEffects:
    def test_intercept_flag_is_ignored(self):
        # With indicators the intercept flag used to pin the first
        # category's effect at zero; absorption fits one model either way.
        data = make_panel(6, 4, seed=3)
        slopes = [
            weighted_ols(
                RegressionModel("y", ("x",), fixed_effects=("cluster",), intercept=flag), data
            ).coef("x")
            for flag in (True, False)
        ]
        every = (data.row_cluster_index[:, None] == np.arange(data.n_clusters)).astype(float)
        design = np.column_stack([data.column("x"), every])
        s = 1.0 / (data.row_cluster_sizes * data.n_clusters)
        ref = np.linalg.solve(design.T @ (design * s[:, None]), design.T @ (s * data.column("y")))
        assert slopes[0] == slopes[1]
        assert slopes[0] == pytest.approx(ref[0], rel=1e-12)

    def test_model_needs_regressors(self):
        with pytest.raises(ValueError, match="fixed effects needs regressors"):
            RegressionModel("y", (), fixed_effects=("cluster",))

    def test_named_coefficients(self):
        assert RegressionModel("y", ("x",)).named_coefficients == ("intercept", "x")
        assert RegressionModel("y", ("x",), intercept=False).named_coefficients == ("x",)
        fe = RegressionModel("y", ("x", "w"), fixed_effects=("cluster",))
        assert fe.named_coefficients == ("x", "w")

    def test_absorbs_the_factor_with_most_categories(self):
        data = make_panel(8, 3, seed=5)
        h = np.tile([0.0, 1.0, 2.0], 8)
        data = data.with_columns({"h": h, "y": data.column("y") + h})
        for effects in (("h", "cluster"), ("cluster", "h")):
            fit = weighted_ols(RegressionModel("y", ("x",), fixed_effects=effects), data)
            assert fit.coefficient_names == ("x", "h=1.0", "h=2.0")

    @pytest.mark.parametrize("constant", [lambda c: c * 1.0, lambda c: 0.1 * (c % 3) + 0.2])
    def test_regressor_constant_within_categories_is_rank_deficient(self, constant):
        # Demeaning leaves such a column at zero or at rounding level; the
        # tolerance is set by its norm before demeaning, so even a fit with
        # no other column cannot pass it as full rank.
        data = make_panel(7, 3, seed=2)
        between = constant(data.row_cluster_index)
        data = data.with_columns({"b": between})
        rho = np.random.default_rng(4).uniform(0.5, 1.5, size=data.n_rows)
        for regressors, rank in ((("b",), 0), (("x", "b"), 1)):
            model = RegressionModel("y", regressors, fixed_effects=("cluster",))
            with pytest.raises(RankDeficiencyError) as exc_info:
                weighted_ols(model, data, row_multipliers=rho)
            assert (exc_info.value.rank, exc_info.value.ncols) == (rank, len(regressors))

    def test_cluster_emptied_by_zero_weights_raises_under_multipliers(self):
        # Present rows (rho != 0) whose outlier weights are all zero.
        data = make_panel(5, 4, seed=8)
        model = RegressionModel("y", ("x",), fixed_effects=("cluster",))
        rho = np.ones(data.n_rows)
        rho[data.cluster_rows[0]] = 0.0  # absent: drops out
        w = np.ones(data.n_rows)
        w[data.cluster_rows[3]] = 0.0  # present, zero mass: unidentified
        weighted_ols(model, data, row_multipliers=rho)
        with pytest.raises(RankDeficiencyError, match="rank 4 < 5 columns"):
            weighted_ols(model, data, weights=w, row_multipliers=rho)

    @pytest.mark.parametrize("normalization", ["equal", "pooled"])
    @pytest.mark.parametrize("multipliers", ["none", "multinomial", "poisson", "signed"])
    @pytest.mark.parametrize("kind", ["ols", "iv"])
    @pytest.mark.parametrize("factors", [("cluster",), ("cluster", "t")])
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(sizes=st.lists(st.integers(2, 6), min_size=3, max_size=15), seed=st.integers(0, 2**16))
    def test_matches_dense_dummy_fit(
        self, normalization, multipliers, kind, factors, sizes, seed
    ):
        rng = np.random.default_rng(seed)
        ids = np.repeat(np.arange(len(sizes)), sizes)
        n = len(ids)
        effect = rng.normal(size=len(sizes))[ids]
        t = rng.integers(0, 3, size=n).astype(float)
        z = rng.normal(size=n)
        w = rng.normal(size=n)
        x = z + 0.5 * effect + 0.3 * rng.normal(size=n)
        y = 2.0 * x - w + effect + t + rng.standard_t(3, size=n)
        data = PanelDataset({"y": y, "x": x, "w": w, "z": z, "t": t}, ids)
        iv = {"endogenous": ("x",), "instruments": ("z",)} if kind == "iv" else {}
        model = RegressionModel(
            "y", ("x", "w"), fixed_effects=factors, normalization=normalization, **iv
        )
        rho = None
        if multipliers == "multinomial":  # cluster resample counts
            rho = rng.multinomial(len(sizes), np.full(len(sizes), 1.0 / len(sizes)))[ids] * 1.0
        elif multipliers == "poisson":
            rho = rng.poisson(1.0, n) * 1.0
        elif multipliers == "signed":
            rho = 1.0 + 0.3 * rng.standard_normal(n)
        # Only identified, well-conditioned draws: the two routes round
        # differently, by up to the condition number times machine epsilon.
        try:
            ref_coef, ref_resid, ref_first = _dense_dummy_fit(model, data, rho)
        except np.linalg.LinAlgError:
            assume(False)
        present = np.ones(n, dtype=bool) if rho is None else rho != 0
        fit = weighted_ols(model, data, row_multipliers=rho)
        for name in model.regressors:
            assert fit.coef(name) == pytest.approx(ref_coef[name], rel=1e-10)
        scale = np.max(np.abs(y))
        np.testing.assert_allclose(
            fit.residuals[present], ref_resid[present], rtol=0, atol=1e-10 * scale
        )
        if kind == "iv":
            np.testing.assert_allclose(
                fit.first_stage_residuals[present],
                ref_first[present],
                rtol=0,
                atol=1e-10 * np.max(np.abs(x)),
            )

    def test_memory_is_linear_in_clusters(self):
        # 5000 clusters x 2 rows; a dense indicator design would be 400 MB.
        data = make_panel(5000, 2, seed=9)
        model = RegressionModel("y", ("x",), fixed_effects=("cluster",))
        rho = np.random.default_rng(1).poisson(1.0, data.n_rows) * 1.0
        weighted_ols(model, data, row_multipliers=rho)  # warm the factor memo
        tracemalloc.start()
        try:
            fit = weighted_ols(model, data, row_multipliers=rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(fit.residuals))
        assert peak < 20 * 2**20


class TestDerivedParams:
    def test_geometric_single_lag(self):
        out = derived_params(1.0, [0.5], horizon=25)
        assert out.persistence == 0.5
        assert out.long_run_effect == pytest.approx(2.0)
        # Closed form for one lag: e_h = 2 (1 - 0.5^h) = 2 - 0.5^(h-1).
        assert out.effect_at_horizon == pytest.approx(2.0 - 0.5**24, abs=1e-15)
        assert not out.unit_root

    def test_four_lag_persistence(self):
        out = derived_params(-0.085, [1.24, -0.21, -0.03, -0.04])
        assert out.persistence == pytest.approx(0.96, abs=1e-12)
        assert out.long_run_effect == pytest.approx(-0.085 / 0.04, rel=1e-10)

    def test_no_lags(self):
        out = derived_params(0.7, [], horizon=10)
        assert out.persistence == 0.0
        assert out.long_run_effect == pytest.approx(0.7)
        assert out.effect_at_horizon == pytest.approx(0.7)

    def test_unit_root_flag_and_signs(self):
        pos = derived_params(1.0, [0.6, 0.4])
        assert pos.unit_root and pos.long_run_effect == float("inf")
        neg = derived_params(-1.0, [1.0])
        assert neg.unit_root and neg.long_run_effect == float("-inf")
        zero = derived_params(0.0, [1.0])
        assert zero.unit_root and np.isnan(zero.long_run_effect)

    def test_horizon_effect_converges_to_long_run(self):
        out = derived_params(0.3, [0.5, 0.2], horizon=300)
        assert out.effect_at_horizon == pytest.approx(out.long_run_effect, rel=1e-10)

    def test_recursion_matches_direct_simulation(self, rng):
        # Simulate the difference equation driven by a permanent unit step.
        effect = 0.4
        lags = [0.3, -0.1, 0.05]
        horizon = 12
        path = [0.0] * (horizon + 1)
        for j in range(1, horizon + 1):
            path[j] = effect + sum(
                b * path[j - s] for s, b in enumerate(lags, start=1) if j - s >= 1
            )
        out = derived_params(effect, lags, horizon=horizon)
        assert out.effect_at_horizon == pytest.approx(path[horizon], abs=1e-14)

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            derived_params(1.0, [0.5], horizon=0)

    def test_is_plain_dataclass(self):
        out = derived_params(1.0, [0.5])
        assert isinstance(out, DerivedParams)

    def test_scalar_input_gives_floats(self):
        for effect, lags in ((1.0, [0.5]), (0.0, [1.0]), (0.7, [])):
            out = derived_params(effect, lags, horizon=3)
            fields = (out.persistence, out.long_run_effect, out.effect_at_horizon)
            assert all(type(v) is float for v in fields)
            assert type(out.unit_root) is bool

    @pytest.mark.parametrize("n_lags", [0, 1, 2, 4, 8, 11])
    @pytest.mark.parametrize("k", [1, 32])
    def test_block_equals_each_draw(self, n_lags, k):
        rng = np.random.default_rng(n_lags)
        effect = rng.normal(size=k)
        lags = rng.normal(scale=0.3, size=(k, n_lags))
        if k > 1 and n_lags:
            effect[0] = 0.0  # a zero effect at a unit root: NaN
            lags[:3] = 0.0
            lags[:2, 0] = 1.0
            lags[2] = 1.0 / n_lags  # a unit root up to rounding, or exactly
        block = derived_params(effect, lags, horizon=25)
        for i in range(k):
            one = derived_params(effect[i], lags[i], horizon=25)
            got = [
                block.persistence[i], block.long_run_effect[i],
                block.effect_at_horizon[i], block.unit_root[i],
            ]
            want = [one.persistence, one.long_run_effect, one.effect_at_horizon, one.unit_root]
            np.testing.assert_array_equal(got, want)
