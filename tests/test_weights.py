"""Tests for weight schemes, weighted quantile thresholds and the cumulative weight function."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimtest import PanelDataset
from trimtest.config import _SCHEME
from trimtest.errors import DataError, NumericalError
from trimtest.weights import (
    ResidualContext,
    WeightFunction,
    WeightScheme,
    compute_weights,
    weighted_quantile_threshold,
    weights_quantile_trim,
    weights_residual_trim,
    weights_winsorize,
)


def single_cluster(columns: dict) -> PanelDataset:
    n = len(next(iter(columns.values())))
    return PanelDataset(
        {k: np.asarray(v, dtype=float) for k, v in columns.items()}, np.zeros(n, dtype=int)
    )


def order_statistic(values, q: float) -> float:
    """The ceil(q*n)-th order statistic, located on the level grid i/n."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[np.searchsorted(np.arange(1, len(v) + 1) / len(v), q, side="left")])


class TestWeightScheme:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown weight scheme"):
            WeightScheme("banana")

    def test_quantile_trim_validates_bounds(self):
        with pytest.raises(ValueError, match="lower_q <= upper_q"):
            WeightScheme.quantile_trim("x", 0.8, 0.2)
        with pytest.raises(ValueError, match="at least one column"):
            WeightScheme("quantile_trim", columns=(), lower_q=0.1, upper_q=0.9)

    def test_winsorize_single_column_only(self):
        with pytest.raises(ValueError, match="exactly one column"):
            WeightScheme("winsorize", columns=("a", "b"), lower_q=0.0, upper_q=0.9)

    def test_residual_trim_multiplier_positive(self):
        with pytest.raises(ValueError, match="positive"):
            WeightScheme.residual_trim(0.0)

    def test_custom_requires_values(self):
        with pytest.raises(ValueError, match="weight vector"):
            WeightScheme("custom")

    @pytest.mark.parametrize(
        "raw, scheme",
        [
            ({"kind": "all_ones"}, WeightScheme.all_ones()),
            (
                {"kind": "quantile_trim", "columns": ["a", "b"], "lower_q": 0.05, "upper_q": 0.95},
                WeightScheme.quantile_trim(["a", "b"], 0.05, 0.95),
            ),
            ({"kind": "residual_trim", "multiplier": 2.5}, WeightScheme.residual_trim(2.5)),
            (
                {"kind": "winsorize", "columns": ["x"], "lower_q": 0.01, "upper_q": 0.99},
                WeightScheme.winsorize("x", 0.01, 0.99),
            ),
            ({"kind": "custom", "values": [0.5, 1.0, 1.5]}, WeightScheme.custom([0.5, 1.0, 1.5])),
        ],
        ids=["all_ones", "quantile_trim", "residual_trim", "winsorize", "custom"],
    )
    def test_from_dict(self, raw, scheme):
        # A config scheme object, read by the config schema.
        assert _SCHEME(raw, "weights.adjusted") == scheme

    def test_from_dict_defaults(self):
        assert _SCHEME({"kind": "quantile_trim", "columns": ["a"]}, "w") == (
            WeightScheme.quantile_trim("a", 0.0, 1.0)
        )
        assert _SCHEME({"kind": "residual_trim"}, "w") == WeightScheme.residual_trim(1.96)
        # `columns` is a name list for every kind: a bare column name is refused.
        with pytest.raises(DataError, match=r"^w\.columns must be a list of names, got 'x'$"):
            _SCHEME({"kind": "winsorize", "columns": "x", "upper_q": 0.9}, "w")

    def test_from_dict_unknown_kind(self):
        with pytest.raises(DataError, match="^unknown w kind 'trim'$"):
            _SCHEME({"kind": "trim"}, "w")
        with pytest.raises(DataError, match="^config is missing required key 'w.kind'$"):
            _SCHEME({}, "w")

    def test_single_column_name_becomes_tuple(self):
        assert WeightScheme.quantile_trim("x", 0.1, 0.9).columns == ("x",)
        assert WeightScheme.quantile_trim(["x", "y"], 0.1, 0.9).columns == ("x", "y")


class TestQuantileTrim:
    def test_five_point_band(self):
        v = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        out = weights_quantile_trim([v], 0.2, 0.8)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 1.0, 0.0])

    def test_zero_lower_keeps_minimum(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        out = weights_quantile_trim([v], 0.0, 0.75)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 0.0])

    def test_conjunction_across_columns(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        joint = weights_quantile_trim([a, b], 0.2, 0.8)
        only_a = weights_quantile_trim([a], 0.2, 0.8)
        only_b = weights_quantile_trim([b], 0.2, 0.8)
        np.testing.assert_array_equal(joint, only_a * only_b)

    def test_full_band_keeps_every_row(self, rng):
        v = rng.normal(size=30)
        np.testing.assert_array_equal(weights_quantile_trim([v], 0.0, 1.0), np.ones(30))

    def test_requires_a_column(self):
        with pytest.raises(ValueError, match="at least one column"):
            weights_quantile_trim([], 0.1, 0.9)

    def test_invariant_under_increasing_transform(self, rng):
        v = rng.normal(size=50)
        base = weights_quantile_trim([v], 0.1, 0.9)
        warped = weights_quantile_trim([np.exp(v)], 0.1, 0.9)
        np.testing.assert_array_equal(base, warped)

    def test_count_weights_match_materialized_data(self, rng):
        v = rng.normal(size=15)
        counts = rng.integers(0, 4, size=15).astype(float)
        if counts.sum() == 0:
            counts[0] = 1.0
        out = weights_quantile_trim([v], 0.25, 0.75, row_weights=counts)
        repeated = np.repeat(v, counts.astype(int))
        ref = weights_quantile_trim([repeated], 0.25, 0.75)
        # Each surviving original row must match the fate of its copies.
        for i in np.nonzero(counts > 0)[0]:
            copies = ref[np.repeat(np.arange(15), counts.astype(int)) == i]
            assert np.all(copies == out[i])


class TestResidualTrim:
    def test_strict_inequality_at_boundary(self):
        ctx = ResidualContext(residuals=np.array([[0.5, 1.96, -2.5]]), scales=np.array([1.0]))
        out = weights_residual_trim(ctx, 1.96)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_first_stage_conjunction(self):
        ctx = ResidualContext(
            residuals=np.array([[0.1, 0.1, 0.1], [0.1, 5.0, 0.1]]),
            scales=np.array([1.0, 1.0]),
        )
        out = weights_residual_trim(ctx, 1.96)
        np.testing.assert_array_equal(out, [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_scale(self, scale):
        # A zero scale means every residual is exactly zero: a degenerate
        # fit, so a numerical failure rather than a data error.
        with pytest.raises(NumericalError, match="scale"):
            weights_residual_trim(ResidualContext(np.array([[1.0]]), np.array([scale])), 1.96)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_first_stage_scale(self, scale):
        ctx = ResidualContext(np.array([[0.1, 0.2], [0.0, 0.0]]), np.array([1.0, scale]))
        with pytest.raises(NumericalError, match="residual scale must be positive and finite"):
            weights_residual_trim(ctx, 1.96)

    def test_each_residual_row_has_its_own_scale(self):
        ctx = ResidualContext(
            residuals=np.array([[0.0, 0.0, 0.0], [0.1, 5.0, 0.1], [3.0, 0.1, 0.1]]),
            scales=np.array([1.0, 1.0, 2.0]),
        )
        # Row 2 has scale 2, so 3.0 stays inside 1.96 * 2.
        np.testing.assert_array_equal(weights_residual_trim(ctx, 1.96), [1.0, 0.0, 1.0])

    def test_block_context_gives_one_weight_row_per_draw(self):
        residuals = np.array([[[0.5, 3.0], [0.5, 0.5]], [[0.1, 0.1], [4.0, 0.1]]])
        ctx = ResidualContext(residuals, np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(weights_residual_trim(ctx, 1.96), [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "residuals, scales",
        [([0.5, 1.0], [1.0]), ([[0.5, 1.0]], 1.0), ([[0.5, 1.0]], [1.0, 1.0])],
    )
    def test_rejects_a_scale_count_that_does_not_match_the_rows(self, residuals, scales):
        with pytest.raises(ValueError, match="one scale per residual row"):
            weights_residual_trim(ResidualContext(np.array(residuals), np.array(scales)), 1.96)


class TestWinsorize:
    def test_three_point_ratio(self):
        v = np.array([1.0, 2.0, 100.0])
        out = weights_winsorize(v, 0.0, 2.0 / 3.0)
        np.testing.assert_allclose(out, [1.0, 1.0, 0.02])
        # Weighted mean reproduces the mean of the clamped values.
        assert np.mean(out * v) == pytest.approx(np.mean([1.0, 2.0, 2.0]))

    def test_weighted_mean_identity(self, rng):
        v = rng.lognormal(size=200)
        out = weights_winsorize(v, 0.05, 0.95)
        lo = np.quantile(v, 0.05, method="inverted_cdf")
        hi = np.quantile(v, 0.95, method="inverted_cdf")
        clamped = np.clip(v, lo, hi)
        assert np.mean(out * v) == pytest.approx(np.mean(clamped), rel=1e-12)

    def test_zero_observation_with_moving_clamp(self):
        v = np.array([0.0, 5.0, 6.0, 7.0])
        with pytest.raises(ValueError, match=r"zero observation \(row 0\)"):
            weights_winsorize(v, 0.5, 1.0)

    def test_zero_observation_inside_band_is_fine(self):
        v = np.array([0.0, 5.0, 6.0, 7.0])
        out = weights_winsorize(v, 0.0, 0.75)
        assert out[0] == 1.0

    def test_zero_observation_absent_from_resample_is_fine(self):
        # Row weight 0: the zero is not in the resample, so its ratio is moot.
        v = np.array([0.0, 5.0, 6.0, 7.0])
        out = weights_winsorize(v, 0.5, 1.0, row_weights=np.array([0.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 6.0 / 5.0, 1.0, 1.0])

    def test_full_band_gives_unit_weights(self, rng):
        v = rng.lognormal(size=25)
        np.testing.assert_array_equal(weights_winsorize(v, 0.0, 1.0), np.ones(25))


class TestComputeWeights:
    def test_all_ones(self, panel):
        out = compute_weights(WeightScheme.all_ones(), panel)
        np.testing.assert_array_equal(out, np.ones(panel.n_rows))

    def test_quantile_trim_uses_named_columns(self):
        data = single_cluster({"v": [10.0, 20.0, 30.0, 40.0, 50.0]})
        out = compute_weights(WeightScheme.quantile_trim("v", 0.2, 0.8), data)
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 1.0, 0.0])

    def test_residual_trim_needs_context(self, panel):
        with pytest.raises(ValueError, match="ResidualContext"):
            compute_weights(WeightScheme.residual_trim(), panel)

    def test_custom_length_check(self, panel):
        with pytest.raises(ValueError, match="length"):
            compute_weights(WeightScheme.custom([1.0, 2.0]), panel)

    def test_custom_passthrough(self):
        data = single_cluster({"v": [1.0, 2.0, 3.0]})
        out = compute_weights(WeightScheme.custom([0.5, 0.0, 2.0]), data)
        np.testing.assert_array_equal(out, [0.5, 0.0, 2.0])

    def test_winsorize_uses_named_column(self):
        data = single_cluster({"v": [1.0, 2.0, 100.0], "u": [100.0, 2.0, 1.0]})
        out = compute_weights(WeightScheme.winsorize("v", 0.0, 2.0 / 3.0), data)
        np.testing.assert_allclose(out, [1.0, 1.0, 0.02])

    def test_residual_trim_with_context(self):
        data = single_cluster({"v": [1.0, 2.0, 3.0]})
        ctx = ResidualContext(residuals=np.array([[0.5, -3.0, 1.0]]), scales=np.array([1.0]))
        out = compute_weights(WeightScheme.residual_trim(2.0), data, ctx)
        np.testing.assert_array_equal(out, [1.0, 0.0, 1.0])

    def test_row_weights_reach_the_thresholds(self):
        data = single_cluster({"v": [1.0, 2.0, 3.0, 4.0]})
        scheme = WeightScheme.quantile_trim("v", 0.0, 0.5)
        rho = np.array([0.0, 0.0, 1.0, 1.0])
        # Without row 1 and 2 the median of the resample is 3.
        np.testing.assert_array_equal(compute_weights(scheme, data), [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            compute_weights(scheme, data, row_weights=rho), [1.0, 1.0, 1.0, 0.0]
        )


class TestWeightFunction:
    def test_matches_clamp_formula(self, rng):
        # Direct transcription of the defining sum, evaluated independently.
        w = rng.uniform(0.0, 2.0, size=7)
        kfun = WeightFunction(w)
        n = len(w)
        for u in np.linspace(0.0, 1.0, 29):
            expected = np.sum(w * np.clip(n * u - np.arange(1, n + 1) + 1, 0.0, 1.0)) / n
            assert kfun(u) == pytest.approx(expected, abs=1e-14)

    def test_endpoint_values(self):
        kfun = WeightFunction([1.0, 0.0, 3.0])
        assert kfun(0.0) == 0.0
        assert kfun(1.0) == pytest.approx(4.0 / 3.0)

    def test_grid_values_are_scaled_partial_sums(self):
        w = np.array([2.0, 4.0, 6.0, 8.0])
        kfun = WeightFunction(w)
        for i in range(1, 5):
            assert kfun(i / 4) == pytest.approx(np.sum(w[:i]) / 4)

    def test_increments_sum_to_total(self):
        w = np.array([1.0, 0.5, 0.0, 2.0])
        kfun = WeightFunction(w)
        increments = np.diff(kfun(np.arange(5) / 4))
        np.testing.assert_allclose(increments, w / 4)
        assert np.sum(increments) == pytest.approx(kfun(1.0))

    def test_lipschitz_in_max_weight(self, rng):
        w = rng.uniform(0.0, 5.0, size=11)
        kfun = WeightFunction(w)
        grid = np.sort(rng.uniform(0.0, 1.0, size=200))
        vals = kfun(grid)
        slopes = np.abs(np.diff(vals)) / np.diff(grid)
        assert np.all(slopes <= np.max(w) + 1e-9)

    def test_domain_checks(self):
        kfun = WeightFunction([1.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            kfun(1.5)
        with pytest.raises(ValueError, match="finite"):
            WeightFunction([np.nan])
        with pytest.raises(ValueError, match="at least one"):
            WeightFunction([])

    def test_rejects_negative_argument_and_matrix_weights(self):
        kfun = WeightFunction([1.0, 2.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            kfun(np.array([0.5, -1e-12]))
        with pytest.raises(ValueError, match="at least one"):
            WeightFunction(np.ones((2, 2)))

    def test_vectorized_matches_pointwise(self, rng):
        kfun = WeightFunction(rng.uniform(-1.0, 2.0, size=9))
        grid = rng.uniform(0.0, 1.0, size=50)
        np.testing.assert_array_equal(kfun(grid), [kfun(float(u)) for u in grid])

    def test_scalar_argument_gives_float(self):
        out = WeightFunction([1.0, 3.0])(0.5)
        assert isinstance(out, float)
        assert out == pytest.approx(0.5)

    def test_ordered_weights_are_read_only(self):
        w = np.array([1.0, 2.0])
        kfun = WeightFunction(w)
        with pytest.raises(ValueError):
            kfun.ordered_weights[0] = 5.0

    def test_linear_inside_each_cell(self):
        w = np.array([2.0, 4.0, 6.0, 8.0])
        kfun = WeightFunction(w)
        for i in range(4):
            mid = (i + 0.5) / 4
            assert kfun(mid) == pytest.approx((np.sum(w[:i]) + 0.5 * w[i]) / 4)

    def test_negative_weight_makes_it_decrease(self):
        kfun = WeightFunction([1.0, -2.0, 1.0])
        vals = kfun(np.arange(4) / 3)
        np.testing.assert_allclose(np.diff(vals), [1.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0])
        assert kfun(1.0) == pytest.approx(0.0)


class TestWeightedQuantileThreshold:
    def test_unit_weights_match_order_statistics(self):
        values = np.array([9.0, 2.0, 7.0, 4.0, 1.0])
        ones = np.ones(5)
        for q in (0.2, 0.21, 0.4, 0.5, 0.8, 1.0):
            expected = order_statistic(values, q)
            assert weighted_quantile_threshold(values, ones, q) == expected

    def test_integer_counts_match_materialized_sample(self, rng):
        values = rng.normal(size=12)
        counts = rng.integers(0, 5, size=12).astype(float)
        counts[0] = max(counts[0], 1.0)
        materialized = np.repeat(values, counts.astype(int))
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            expected = order_statistic(materialized, q)
            assert weighted_quantile_threshold(values, counts, q) == expected

    def test_zero_target_returns_none(self):
        assert weighted_quantile_threshold([1.0, 2.0], [1.0, 1.0], 0.0) is None

    def test_signed_weights_first_crossing(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, -1.0, 2.0])
        # Running mass 1, 0, 2 against total 2.
        assert weighted_quantile_threshold(values, weights, 0.5) == 1.0
        assert weighted_quantile_threshold(values, weights, 0.75) == 3.0

    def test_total_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_quantile_threshold([1.0, 2.0], [1.0, -1.0], 0.5)

    def test_unattainable_level(self):
        with pytest.raises(ValueError, match="unattainable"):
            weighted_quantile_threshold([1.0, 2.0], [1.0, 1.0], 1.5)

    def test_snap_absorbs_accumulated_rounding(self):
        # 10 weights of 0.1 sum to 0.9999999999999999; without the snap the
        # threshold at q=0.2 could land one order statistic too high.
        values = np.arange(10.0)
        weights = np.full(10, 0.1)
        assert weighted_quantile_threshold(values, weights, 0.2) == 1.0
        assert weighted_quantile_threshold(values, weights, 0.3) == 2.0

    def test_three_point_sample(self):
        # ceil(0.34 * 3) = 2, so the second order statistic.
        values = np.array([30.0, 10.0, 20.0])
        ones = np.ones(3)
        assert weighted_quantile_threshold(values, ones, 0.34) == 20.0
        # (1/3) * 3 lands on 1 up to rounding, which the snap absorbs.
        assert weighted_quantile_threshold(values, ones, 1.0 / 3.0) == 10.0
        assert weighted_quantile_threshold(values, ones, 1.0) == 30.0

    def test_piecewise_constant_on_level_cells(self):
        # Constant on ((i-1)/n, i/n], jumping only at the grid points.
        values = np.array([4.0, 8.0, 15.0, 16.0, 23.0])
        ones = np.ones(5)
        for i in range(1, 6):
            lo, hi = (i - 1) / 5, i / 5
            assert weighted_quantile_threshold(values, ones, hi) == values[i - 1]
            assert weighted_quantile_threshold(values, ones, lo + 1e-6) == values[i - 1]

    def test_ties_take_the_first_crossing(self):
        values = np.array([1.0, 2.0, 2.0, 5.0])
        ones = np.ones(4)
        assert weighted_quantile_threshold(values, ones, 0.6) == 2.0
        assert weighted_quantile_threshold(values, ones, 0.75) == 2.0
        assert weighted_quantile_threshold(values, ones, 0.75 + 1e-6) == 5.0
        assert weighted_quantile_threshold(values, ones, 1.0) == 5.0

    def test_negative_level_returns_none(self):
        assert weighted_quantile_threshold([1.0, 2.0], [1.0, 1.0], -0.25) is None

    def test_rejects_malformed_inputs(self):
        with pytest.raises(ValueError, match="equal-length"):
            weighted_quantile_threshold([1.0, 2.0], [1.0], 0.5)
        with pytest.raises(ValueError, match="non-empty"):
            weighted_quantile_threshold([], [], 0.5)
        with pytest.raises(ValueError, match="1-d"):
            weighted_quantile_threshold(np.ones((2, 2)), np.ones((2, 2)), 0.5)

    def test_input_order_does_not_matter(self, rng):
        values = rng.normal(size=20)
        weights = rng.uniform(0.0, 3.0, size=20)
        perm = rng.permutation(20)
        for q in (0.05, 0.3, 0.5, 0.77, 1.0):
            assert weighted_quantile_threshold(values, weights, q) == (
                weighted_quantile_threshold(values[perm], weights[perm], q)
            )

    def test_precomputed_order_gives_the_same_threshold(self, rng):
        values = np.round(rng.normal(size=40), 1)  # ties
        order = np.argsort(values, kind="stable")
        for _ in range(5):
            weights = rng.integers(0, 3, size=40).astype(float)
            weights[0] = 1.0
            for q in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
                assert weighted_quantile_threshold(values, weights, q, order) == (
                    weighted_quantile_threshold(values, weights, q)
                )
        with pytest.raises(ValueError, match="one entry per value"):
            weighted_quantile_threshold(values, np.ones(40), 0.5, order[:-1])

    def test_zero_weight_rows_are_never_chosen(self, rng):
        values = rng.normal(size=16)
        weights = rng.integers(0, 3, size=16).astype(float)
        weights[0] = 1.0
        present = weights > 0
        for q in (0.1, 0.4, 0.6, 0.95):
            assert weighted_quantile_threshold(values, weights, q) == (
                weighted_quantile_threshold(values[present], weights[present], q)
            )

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.3, 0.5, 0.77, 1.0, 1.2])
    def test_each_row_of_a_block_is_its_one_draw_threshold(self, rng, q):
        values = np.round(rng.normal(size=30), 1)  # ties
        order = np.argsort(values, kind="stable")
        block = np.vstack([
            rng.integers(0, 3, size=(3, 30)),
            1.0 + rng.normal(size=(4, 30)),  # signed multiplier weights
            np.ones(30),  # never reaches more than its total
            np.zeros(30),
        ])
        block[-1, order[:2]] = [10.0, -5.0]  # running mass 10 against a total of 5
        singles = []
        for w in block:
            try:
                singles.append(weighted_quantile_threshold(values, w, q, order))
            except ValueError as exc:
                assert "unattainable" in str(exc)
                singles.append(exc)
        ok = [i for i, t in enumerate(singles) if not isinstance(t, ValueError)]
        got = weighted_quantile_threshold(values, block[ok], q, order)
        assert got.shape == (len(ok),)
        for t, i in zip(got, ok):
            if singles[i] is None:
                assert np.isnan(t)
            else:
                assert t == singles[i]
        if q > 1.0:
            assert len(ok) < len(block)
            with pytest.raises(ValueError, match="unattainable"):
                weighted_quantile_threshold(values, block, q, order)
        else:
            assert len(ok) == len(block)

    def test_a_tuple_of_levels_gives_each_level_threshold(self, rng):
        # The trim and Winsorizing schemes read both bounds from one cumulative sum.
        values = np.round(rng.normal(size=30), 1)  # ties
        order = np.argsort(values, kind="stable")
        block = np.vstack([rng.integers(0, 3, size=(3, 30)), 1.0 + rng.normal(size=(2, 30))])
        levels = (0.0, 0.05, 0.5, 0.98, 1.0)
        for weights in (block, block[0], block[-1]):
            got = weighted_quantile_threshold(values, weights, levels, order)
            assert isinstance(got, list) and len(got) == len(levels)
            for q, threshold in zip(levels, got):
                expected = weighted_quantile_threshold(values, weights, q, order)
                np.testing.assert_array_equal(threshold, expected)
        assert weighted_quantile_threshold(values, block[0], (0.0,), order) == [None]
        with pytest.raises(ValueError, match="unattainable"):
            weighted_quantile_threshold(values, block, (0.5, 1.2), order)

    @given(
        data=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
        ),
        cell=st.floats(0.0, 1.0, exclude_max=True),
        frac=st.floats(1e-6, 1.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_unit_weights_give_the_order_statistic_of_each_level_cell(self, data, cell, frac):
        # Every level in ((k-1)/n, k/n] maps to the k-th order statistic.
        n = len(data)
        k = int(cell * n) + 1
        q = (k - 1 + frac) / n
        expected = np.sort(np.asarray(data))[k - 1]
        assert weighted_quantile_threshold(data, np.ones(n), q) == expected
