"""Weighted least squares and two-stage least squares on clustered panels.

fit_model is the one fit routine; OLS is the case where the design is not
projected on instruments.  Every moment, the residual scale included,
weights rows by _row_scale, the one place that knows the normalization.
Under the default cluster-equal normalization cluster i with T_i rows
contributes (1/n) * (1/T_i) * sum over its rows, so each cluster counts
once regardless of how many rows it has; "pooled" weights every row
1/total_rows.  Fixed-effect factors are expanded into indicator columns
with one baseline category dropped per factor; fitted values do not depend
on which category is the baseline.  Rows with a zero bootstrap multiplier
are absent from the fit, and a category left without rows gets no column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset, factorize_first_appearance
from .errors import RankDeficiencyError

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class RegressionModel:
    """Formula-free regression description over named dataset columns.

    endogenous lists the regressors to be instrumented; instruments must be
    at least as numerous.  Empty endogenous/instruments means plain OLS.
    """

    outcome: str
    regressors: tuple[str, ...]
    endogenous: tuple[str, ...] = ()
    instruments: tuple[str, ...] = ()
    fixed_effects: tuple[str, ...] = ()
    intercept: bool = True
    normalization: str = "equal"  # "equal" (per-cluster) | "pooled"

    def __post_init__(self):
        if not self.regressors:
            if not self.intercept:
                raise ValueError("model needs regressors or an intercept")
        unknown = set(self.endogenous) - set(self.regressors)
        if unknown:
            raise ValueError(f"endogenous columns {sorted(unknown)} are not regressors")
        if self.endogenous and len(self.instruments) < len(self.endogenous):
            raise ValueError("need at least as many instruments as endogenous regressors")
        if bool(self.endogenous) != bool(self.instruments):
            raise ValueError("endogenous and instruments must be supplied together")
        if self.normalization not in {"equal", "pooled"}:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def is_instrumented(self) -> bool:
        return bool(self.endogenous)


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients with names, residuals on the estimation rows, and scales."""

    coefficient_names: tuple[str, ...]
    coefficients: np.ndarray
    residuals: np.ndarray
    sigma: float
    first_stage_residuals: np.ndarray | None = None
    first_stage_sigmas: np.ndarray | None = None

    def coef(self, name: str) -> float:
        try:
            idx = self.coefficient_names.index(name)
        except ValueError:
            raise KeyError(f"no coefficient named {name!r}") from None
        return float(self.coefficients[idx])


def _dummy_columns(labels: tuple, codes: np.ndarray, factor: str, present: np.ndarray):
    """Indicator columns for a factor, dropping one baseline category.

    Only categories with a present row get a column (a bootstrap draw that
    leaves a category out must not leave an all-zero column behind).
    Categories are ordered by first appearance; the first present one is
    the baseline.
    """
    kept = np.unique(codes[present])[1:]
    cols = [(codes == c).astype(float) for c in kept]
    names = [f"{factor}={labels[c]}" for c in kept]
    return cols, names


def build_design(
    data: PanelDataset,
    regressors: tuple[str, ...],
    fixed_effects: tuple[str, ...] = (),
    intercept: bool = True,
    present: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Assemble the design matrix: intercept, regressors, then FE dummies.

    present marks the rows a fit can see (default all); fixed-effect
    categories without a present row get no indicator column.
    """
    cols: list[np.ndarray] = []
    names: list[str] = []
    n = data.n_rows
    if intercept:
        cols.append(np.ones(n))
        names.append("intercept")
    for r in regressors:
        cols.append(data.column(r))
        names.append(r)
    if present is None:
        present = np.ones(n, dtype=bool)
    for f in fixed_effects:
        if f in data.columns:
            labels, codes = factorize_first_appearance(data.column(f))
        elif f == "cluster":
            labels, codes = data.cluster_labels, data.row_cluster_index
        else:
            raise KeyError(f"no column named {f!r} for fixed effect")
        dcols, dnames = _dummy_columns(labels, codes, f, present)
        cols.extend(dcols)
        names.extend(dnames)
    if not cols:
        raise ValueError("empty design")
    return np.column_stack(cols), tuple(names)


def _row_scale(
    data: PanelDataset, weights: np.ndarray, row_multipliers: np.ndarray | None, normalization: str
) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if row_multipliers is not None:
        w = w * np.asarray(row_multipliers, dtype=float)
    if normalization == "equal":
        return w / (data.row_cluster_sizes * data.n_clusters)
    return w / data.n_rows


def _solve_normal_equations(design: np.ndarray, scale: np.ndarray, target: np.ndarray, stage: str):
    """Solve (X' S X) b = X' S t with a rank check at relative tolerance 1e-10."""
    gram = design.T @ (design * scale[:, None])
    rhs = design.T @ (scale[:, None] * np.atleast_2d(target.T).T)
    sv = np.linalg.svd(gram, compute_uv=False)
    tol = sv[0] * RANK_RTOL if len(sv) else 0.0
    rank = int(np.sum(sv > tol))
    if rank < gram.shape[0]:
        raise RankDeficiencyError(rank, gram.shape[0], stage=stage)
    return np.linalg.solve(gram, rhs)


def sigma_hat(
    residuals: np.ndarray,
    data: PanelDataset,
    row_multipliers: np.ndarray | None = None,
    normalization: str = "equal",
) -> float:
    """Residual scale sqrt(sum_r s_r e_r^2 / sum_r s_r), s the fit's row scale.

    s = _row_scale(data, 1, rho, normalization).  Under the cluster-equal
    normalization each cluster contributes its within-cluster mean square
    once, so unit multipliers give sqrt of (1/n) sum_i (1/T_i) sum_t e_it^2;
    under "pooled" it is the plain mean square over rows.  Multiplier
    perturbations, when given, weight the rows.
    """
    eps = np.asarray(residuals, dtype=float)
    if len(eps) != data.n_rows:
        raise ValueError("residual vector does not match dataset rows")
    if data.n_clusters == 0:
        raise ValueError("empty cluster in residual scale computation")
    s = _row_scale(data, np.ones(data.n_rows), row_multipliers, normalization)
    denom = float(s.sum())
    if denom <= 0:
        raise ValueError("non-positive total multiplier mass")
    mean_square = float(np.sum(s * eps**2) / denom)
    # signed multipliers can make the weighted mean square negative
    if mean_square < 0:
        raise ValueError(
            f"residual scale: weighted mean square is negative ({mean_square!r}); "
            "signed multiplier weights outweigh the positive ones"
        )
    return float(np.sqrt(mean_square))


def fit_model(
    model: RegressionModel,
    data: PanelDataset,
    weights: np.ndarray | None = None,
    row_multipliers: np.ndarray | None = None,
) -> RegressionFit:
    """Weighted least squares, or two-stage least squares with instruments.

    weights are the outlier-adjustment weights (default all ones);
    row_multipliers are bootstrap perturbations, and rows with a zero
    multiplier are absent from the fit.  Both stages use the same weights.
    OLS solves on the design itself.  With instruments the solve uses the
    design's projection on the instrument matrix, which is the design with
    the endogenous columns replaced by the instruments (exogenous regressors
    and fixed effects instrument themselves).  Residuals are computed for
    every row from the actual regressors; an instrumented fit also returns
    the first-stage residuals (one column per endogenous regressor) and
    their scales for residual-trimming rules.
    """
    w = np.ones(data.n_rows) if weights is None else np.asarray(weights, dtype=float)
    present = None if row_multipliers is None else np.asarray(row_multipliers) != 0
    design, names = build_design(
        data, model.regressors, model.fixed_effects, model.intercept, present
    )
    scale = _row_scale(data, w, row_multipliers, model.normalization)
    y = data.column(model.outcome)
    fitted_design, stage = design, "design"
    if model.is_instrumented:
        exog = tuple(r for r in model.regressors if r not in model.endogenous)
        z_design, _ = build_design(
            data, model.instruments + exog, model.fixed_effects, model.intercept, present
        )
        # first stage: project the full design on the instrument set
        pi = _solve_normal_equations(z_design, scale, design, stage="first-stage")
        fitted_design, stage = z_design @ pi, "second-stage"
    beta = _solve_normal_equations(fitted_design, scale, y, stage=stage).ravel()
    resid = y - design @ beta
    sig = sigma_hat(resid, data, row_multipliers, model.normalization)
    if not model.is_instrumented:
        return RegressionFit(names, beta, resid, sig)
    endog_idx = [names.index(e) for e in model.endogenous]
    fs_resid = design[:, endog_idx] - fitted_design[:, endog_idx]
    fs_sig = np.array(
        [
            sigma_hat(fs_resid[:, j], data, row_multipliers, model.normalization)
            for j in range(fs_resid.shape[1])
        ]
    )
    return RegressionFit(names, beta, resid, sig, fs_resid, fs_sig)


# Both names stay public because acceptance criterion 10 imports them.
weighted_ols = weighted_2sls = fit_model


@dataclass(frozen=True)
class DerivedParams:
    """Dynamic summaries of an effect coefficient with autoregressive lags.

    persistence: sum of the lag coefficients.
    long_run_effect: effect / (1 - persistence); infinite with a flag at a
    unit root.
    effect_at_horizon: cumulative effect after `horizon` periods from the
    recursion e_j = effect + sum_s lag_s * e_{j-s} with e_j = 0 for j <= 0.
    """

    persistence: float
    long_run_effect: float
    effect_at_horizon: float
    horizon: int
    unit_root: bool = False


def derived_params(effect: float, lag_coefficients, horizon: int = 25) -> DerivedParams:
    """Exact arithmetic on fitted coefficients; no estimation happens here."""
    lags = [float(b) for b in lag_coefficients]
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    persistence = float(np.sum(lags)) if lags else 0.0
    unit_root = persistence == 1.0
    if unit_root:
        long_run = float("inf") if effect > 0 else float("-inf") if effect < 0 else float("nan")
    else:
        long_run = float(effect) / (1.0 - persistence)
    # e_j = effect + sum_s lag_s e_{j-s}, zero initial conditions
    e = [0.0] * (len(lags) + horizon + 1)
    for j in range(1, horizon + 1):
        acc = float(effect)
        for s, b in enumerate(lags, start=1):
            if j - s >= 1:
                acc += b * e[j - s]
        e[j] = acc
    return DerivedParams(
        persistence=persistence,
        long_run_effect=long_run,
        effect_at_horizon=float(e[horizon]),
        horizon=horizon,
        unit_root=unit_root,
    )
