"""Estimator callables for the bootstrap pipeline, and the comparison step that tests them.

Each builder returns a BlockEstimator: f(dataset, row_weights) -> vector
for one draw, f.block(dataset, W) -> K x d for a block of draws.  Both
recompute everything data-dependent from scratch under each draw's row
weights: weight-scheme thresholds come from the reweighted sample, residual
scales come from a fresh reweighted baseline fit, and derived dynamic
parameters are recomputed from the fresh coefficients.  A block is
evaluated without a loop over its draws: weight schemes return one weight
row per draw, L-statistics are row means, and regression comparisons fit
the block with batched linear algebra, trim on one stack of the baseline's
outcome and first-stage residuals and derive their dynamic summaries from
whole coefficient columns.  A block that cannot be evaluated at once
raises (under two or more fixed effects `fit_block` takes one draw), and
the engine then evaluates each of its draws alone.  `comparison_estimator`
is the one builder of the estimator a model runs under a baseline/adjusted
scheme pair, with its statistic labels.  `comparison_tests` tests the
stacked [baseline | adjusted] vector an estimator returns against its
bootstrap covariance, for `test`, `report` and `mc` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bootstrap import BlockEstimator
from .dataset import PanelDataset
from .errors import DataError, NumericalError
from .lstat import LStatSpec, lstat_eval
from .regress import RegressionFit, RegressionModel, derived_params, fit_block, sigma_hat
from .robustness import TestSpec, robustness_test
from .weights import ResidualContext, WeightScheme, compute_weights


def lstat_pair_estimator(
    specs_baseline: list[LStatSpec], specs_adjusted: list[LStatSpec]
) -> BlockEstimator:
    """Estimator returning [baseline stats..., adjusted stats...]."""
    specs = [*specs_baseline, *specs_adjusted]

    def block(data: PanelDataset, row_weights: np.ndarray) -> np.ndarray:
        return np.column_stack([lstat_eval(s, data, row_weights) for s in specs])

    return BlockEstimator(block)


@dataclass(frozen=True)
class RegressionComparison:
    """A baseline fit, an adjusted fit, and which coefficients to report.

    The adjusted scheme may be residual_trim (thresholds from the baseline
    fit's residuals and scale on the current data) or any data-only scheme.
    derived_effect/derived_lags, when set, append the dynamic summaries
    (long-run effect, effect at the horizon, persistence) for each side.
    """

    model: RegressionModel
    baseline_scheme: WeightScheme = field(default_factory=WeightScheme.all_ones)
    adjusted_scheme: WeightScheme = field(default_factory=WeightScheme.residual_trim)
    report_coefficients: tuple[str, ...] = ()
    derived_effect: str = ""
    derived_lags: tuple[str, ...] = ()
    derived_horizon: int = 25

    def coefficient_list(self) -> tuple[str, ...]:
        return self.report_coefficients or self.model.regressors

    def stat_labels(self) -> tuple[str, ...]:
        labels = list(self.coefficient_list())
        if self.derived_effect:
            labels += ["long_run_effect", f"effect_after_{self.derived_horizon}", "persistence"]
        return tuple(labels)


def _side_matrix(comparison: RegressionComparison, fit: RegressionFit) -> np.ndarray:
    """One side's reported statistics for each draw of a block fit, K x dim."""
    coef = fit.coefficients
    cols = [coef[:, [fit.index(c) for c in comparison.coefficient_list()]]]
    if comparison.derived_effect:
        effect = coef[:, fit.index(comparison.derived_effect)]
        lags = coef[:, [fit.index(c) for c in comparison.derived_lags]]
        derived = derived_params(effect, lags, comparison.derived_horizon)
        cols += [derived.long_run_effect, derived.effect_at_horizon, derived.persistence]
    return np.column_stack(cols)


def _residual_context(
    fit: RegressionFit, data: PanelDataset, row_weights: np.ndarray, normalization: str
) -> ResidualContext:
    """The fit's outcome residuals, then its first-stage residuals, c x K x n, with their scales."""
    residuals = fit.residuals[None]
    if fit.first_stage_residuals is not None:
        stages = np.concatenate([residuals, np.moveaxis(fit.first_stage_residuals, -1, 0)])
        residuals = np.ascontiguousarray(stages)  # C order: each row sums as it would alone
    return ResidualContext(residuals, sigma_hat(residuals, data, row_weights, normalization))


def regression_comparison_estimator(comparison: RegressionComparison) -> BlockEstimator:
    """Estimator returning [baseline coefficients..., adjusted coefficients...].

    Baseline fit first (with its scheme's weights), residual context built
    from that fit, then the adjusted fit with the adjusted scheme's weights.
    All under the row weights passed in, so a bootstrap draw recomputes
    thresholds and scales on its reweighted sample.  A block of draws is
    fitted at once; under two or more fixed effects `fit_block` refuses a
    block of several draws, whose present categories differ.
    """
    model = comparison.model

    def block(data: PanelDataset, row_weights: np.ndarray) -> np.ndarray:
        w_base = compute_weights(comparison.baseline_scheme, data, row_weights=row_weights)
        base_fit = fit_block(model, data, w_base, row_weights)
        ctx = None
        if comparison.adjusted_scheme.kind == "residual_trim":
            ctx = _residual_context(base_fit, data, row_weights, model.normalization)
        w_adj = compute_weights(comparison.adjusted_scheme, data, ctx, row_weights)
        adj_fit = fit_block(model, data, w_adj, row_weights)
        return np.hstack([_side_matrix(comparison, base_fit), _side_matrix(comparison, adj_fit)])

    return BlockEstimator(block)


def comparison_estimator(model, baseline_scheme: WeightScheme, adjusted_scheme: WeightScheme):
    """(estimator, statistic labels, LStatSpecs) of a model under a baseline/adjusted scheme pair.

    The model is a RegressionComparison or a tuple of LStatSpecs.  The specs
    returned are the 2d [baseline | adjusted] L-statistics the estimator
    evaluates, or None for a regression model.
    """
    if isinstance(model, RegressionComparison):
        rcomp = replace(model, baseline_scheme=baseline_scheme, adjusted_scheme=adjusted_scheme)
        return regression_comparison_estimator(rcomp), rcomp.stat_labels(), None
    base_specs = [replace(s, scheme=baseline_scheme) for s in model]
    adj_specs = [replace(s, scheme=adjusted_scheme) for s in model]
    labels = tuple(s.label() for s in base_specs)
    return lstat_pair_estimator(base_specs, adj_specs), labels, base_specs + adj_specs


def difference_covariance(cov: np.ndarray, dim: int) -> np.ndarray:
    """Covariance of (baseline - adjusted) from the stacked 2d x 2d matrix."""
    cov = np.asarray(cov)
    v1 = cov[:dim, :dim]
    v2 = cov[dim:, dim:]
    c12 = cov[:dim, dim:]
    return v1 + v2 - c12 - c12.T


def coefficient_specs(spec: TestSpec, d: int) -> list[TestSpec]:
    """Each statistic's test settings: an explicit d x d norm A tests statistic j in [[A[j, j]]]."""
    if isinstance(spec.norm_matrix, str):
        return [spec] * d
    a = np.array(spec.norm_matrix)
    if a.shape != (d, d):
        raise DataError(f"test.norm must be a {d} x {d} matrix, got shape {a.shape}")
    return [replace(spec, norm_matrix=[[a[j, j]]]) for j in range(d)]


@dataclass(frozen=True)
class ComparisonTests:
    """One comparison's estimates, difference covariance and tests."""

    baseline: np.ndarray
    adjusted: np.ndarray
    diff_cov: np.ndarray
    coefficient_tests: tuple
    joint: object


def comparison_tests(
    labels, point: np.ndarray, cov: np.ndarray, spec: TestSpec, heuristic: bool = True
) -> ComparisonTests:
    """One comparison's tests, from its stacked point and bootstrap covariance.

    point is [baseline | adjusted] and cov its 2d x 2d covariance.  The
    d x d difference block feeds each formal test and, unless heuristic is
    False, the baseline block each heuristic p-value (None otherwise): each
    statistic is tested alone, then all d jointly (one statistic's joint
    test is its own).  Under the default norm a singular difference
    covariance is reported with the statistics that make it singular.
    """
    d = len(labels)
    b1, b2 = point[:d], point[d:]
    diff_cov = difference_covariance(cov, d)
    coef_specs = coefficient_specs(spec, d)
    baseline_cov = cov[:d, :d] if heuristic else None
    coef_tests = tuple(
        robustness_test(
            b1[j : j + 1],
            b2[j : j + 1],
            np.array([[float(diff_cov[j, j])]]),
            coef_specs[j],
            baseline_cov=None if baseline_cov is None else np.array([[float(cov[j, j])]]),
        )
        for j in range(d)
    )
    if d == 1:
        return ComparisonTests(b1, b2, diff_cov, coef_tests, coef_tests[0])
    try:
        joint = robustness_test(b1, b2, diff_cov, spec, baseline_cov=baseline_cov)
    except NumericalError as exc:
        if spec.norm_matrix != "diff_cov":
            raise
        # The statistics in the null space of a singular, nonzero covariance.
        _, s, vt = np.linalg.svd(diff_cov)
        null = vt[s <= s[0] * d * np.finfo(float).eps] if s[0] > 0.0 else vt[:0]
        dependent = [label for label, v in zip(labels, np.abs(null).max(axis=0, initial=0.0)) if v > 1e-8]
        if not dependent:
            raise
        raise NumericalError(
            f"the difference covariance is singular: statistics {', '.join(map(repr, dependent))} "
            'are linearly dependent. Set test.norm to "identity", or drop one of them'
        ) from exc
    return ComparisonTests(b1, b2, diff_cov, coef_tests, joint)
