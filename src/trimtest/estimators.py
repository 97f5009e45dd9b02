"""Estimator callables for the bootstrap pipeline.

Each builder returns a BlockEstimator: f(dataset, row_weights) -> vector
for one draw, f.block(dataset, W) -> K x d for a block of draws.  Both
recompute everything data-dependent from scratch under each draw's row
weights: weight-scheme thresholds come from the reweighted sample, residual
scales come from a fresh reweighted baseline fit, and derived dynamic
parameters are recomputed from the fresh coefficients.  Regression
comparisons fit the whole block with batched linear algebra; L-statistic
pairs evaluate the block one draw at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BlockEstimator
from .dataset import PanelDataset
from .lstat import LStatSpec, lstat_eval
from .regress import RegressionFit, RegressionModel, derived_params, fit_block, sigma_hat
from .weights import ResidualContext, WeightScheme, compute_weights


def lstat_pair_estimator(
    specs_baseline: list[LStatSpec], specs_adjusted: list[LStatSpec]
) -> BlockEstimator:
    """Estimator returning [baseline stats..., adjusted stats...]."""
    specs = [*specs_baseline, *specs_adjusted]

    def block(data: PanelDataset, row_weights: np.ndarray) -> np.ndarray:
        return np.array([[lstat_eval(s, data, row_weights=w) for s in specs] for w in row_weights])

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

    @property
    def dim(self) -> int:
        return len(self.stat_labels())


def _side_matrix(comparison: RegressionComparison, fit: RegressionFit) -> np.ndarray:
    """One side's reported statistics for each draw of a block fit, K x dim."""
    coef = fit.coefficients
    cols = [coef[:, fit.index(c)] for c in comparison.coefficient_list()]
    if comparison.derived_effect:
        effect = coef[:, fit.index(comparison.derived_effect)]
        lags = coef[:, [fit.index(c) for c in comparison.derived_lags]]
        derived = [derived_params(e, g, comparison.derived_horizon) for e, g in zip(effect, lags)]
        cols += [
            [dp.long_run_effect for dp in derived],
            [dp.effect_at_horizon for dp in derived],
            [dp.persistence for dp in derived],
        ]
    return np.column_stack(cols)


def _residual_context(
    fit: RegressionFit, data: PanelDataset, row_weights: np.ndarray, normalization: str
) -> ResidualContext:
    """The fit's residuals and first-stage residuals, each column with its sigma_hat scale."""
    first_stage = fit.first_stage_residuals
    columns = [fit.residuals, *([] if first_stage is None else np.moveaxis(first_stage, -1, 0))]
    scales = [sigma_hat(column, data, row_weights, normalization) for column in columns]
    fs_scales = None if first_stage is None else np.stack(scales[1:], axis=-1)
    return ResidualContext(fit.residuals, scales[0], first_stage, fs_scales)


def _block_weights(
    scheme: WeightScheme,
    data: PanelDataset,
    row_weights: np.ndarray,
    context: ResidualContext | None = None,
) -> np.ndarray | None:
    """The scheme's weights: one row per draw, one row shared by the draws, or None for all ones."""
    if scheme.kind == "all_ones":
        return None
    if scheme.kind in {"quantile_trim", "winsorize"}:
        # Order-statistic thresholds move with each draw's row weights.
        return np.array([compute_weights(scheme, data, row_weights=w) for w in row_weights])
    return compute_weights(scheme, data, context, row_weights)


def regression_comparison_estimator(comparison: RegressionComparison) -> BlockEstimator:
    """Estimator returning [baseline coefficients..., adjusted coefficients...].

    Baseline fit first (with its scheme's weights), residual context built
    from that fit, then the adjusted fit with the adjusted scheme's weights.
    All under the row weights passed in, so a bootstrap draw recomputes
    thresholds and scales on its reweighted sample.  A block of draws is
    fitted at once, except under two or more fixed effects, where each
    draw's present categories pick its indicator columns.
    """
    model = comparison.model

    def block(data: PanelDataset, row_weights: np.ndarray) -> np.ndarray:
        if len(model.fixed_effects) > 1 and len(row_weights) > 1:
            return np.vstack([block(data, w[None]) for w in row_weights])
        w_base = _block_weights(comparison.baseline_scheme, data, row_weights)
        base_fit = fit_block(model, data, w_base, row_weights)
        ctx = None
        if comparison.adjusted_scheme.kind == "residual_trim":
            ctx = _residual_context(base_fit, data, row_weights, model.normalization)
        w_adj = _block_weights(comparison.adjusted_scheme, data, row_weights, ctx)
        adj_fit = fit_block(model, data, w_adj, row_weights)
        return np.hstack([_side_matrix(comparison, base_fit), _side_matrix(comparison, adj_fit)])

    return BlockEstimator(block)


def difference_covariance(cov: np.ndarray, dim: int) -> np.ndarray:
    """Covariance of (baseline - adjusted) from the stacked 2d x 2d matrix."""
    cov = np.asarray(cov)
    v1 = cov[:dim, :dim]
    v2 = cov[dim:, dim:]
    c12 = cov[:dim, dim:]
    return v1 + v2 - c12 - c12.T
