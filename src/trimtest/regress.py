"""Weighted least squares and two-stage least squares on clustered panels.

fit_block is the one fit routine and fit_model its one-draw form; OLS is
the case where the design is not projected on instruments.  Every moment, the residual scale included,
weights rows by _row_scale, the one place that knows the normalization.
Under the default cluster-equal normalization cluster i with T_i rows
contributes (1/n) * (1/T_i) * sum over its rows, so each cluster counts
once regardless of how many rows it has; "pooled" weights every row
1/total_rows.  Rows with a zero bootstrap multiplier are absent from the
fit.

Fixed effects are absorbed, not estimated.  The factor with the most
categories (cluster ids under "cluster") is swept out by demeaning the
outcome, the regressors and the instruments within its categories at the
fit's own row scale, which by Frisch-Waugh-Lovell gives the slopes and
residuals of the fit on a full set of indicator columns.  The intercept
goes with it, so `intercept` is ignored under fixed effects and the
coefficients are the regressors, then one indicator per category of any
further factor, less its first category with a present row.  A category
without a present row drops out; one whose present rows carry zero total
weight leaves its effect unidentified and raises RankDeficiencyError, as
does a regressor with no variation within the absorbed categories.

fit_block fits a block of K bootstrap draws at once: each draw is a row of
row multipliers, the Gram matrices, rank checks and solves are batched over
the draws, and the absorbed factor is swept out with one K x G category sum
per column.  A model with a second factor is fitted one draw at a time,
because that factor's indicator columns depend on which categories the
draw keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset
from .errors import RankDeficiencyError

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class RegressionModel:
    """Formula-free regression description over named dataset columns.

    endogenous lists the regressors to be instrumented; instruments must be
    at least as numerous.  Empty endogenous/instruments means plain OLS.
    """

    outcome: str
    regressors: tuple[str, ...] = ()
    endogenous: tuple[str, ...] = ()
    instruments: tuple[str, ...] = ()
    fixed_effects: tuple[str, ...] = ()
    intercept: bool = True
    normalization: str = "equal"  # "equal" (per-cluster) | "pooled"

    def __post_init__(self):
        if not self.regressors:
            if not self.intercept:
                raise ValueError("model needs regressors or an intercept")
            if self.fixed_effects:
                raise ValueError("a model with fixed effects needs regressors")
        if self.outcome in (*self.regressors, *self.instruments):
            raise ValueError(f"the outcome {self.outcome!r} cannot also be a regressor or an instrument")
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

    @property
    def named_coefficients(self) -> tuple[str, ...]:
        """Coefficients every fit has, whatever the data: fixed effects absorb the intercept."""
        lead = ("intercept",) if self.intercept and not self.fixed_effects else ()
        return lead + self.regressors


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients with names, residuals on the estimation rows, first-stage ones for 2SLS.

    A block fit (fit_block) carries a leading draw axis on every array.
    """

    coefficient_names: tuple[str, ...]
    coefficients: np.ndarray
    residuals: np.ndarray
    first_stage_residuals: np.ndarray | None = None

    def index(self, name: str) -> int:
        try:
            return self.coefficient_names.index(name)
        except ValueError:
            raise KeyError(f"no coefficient named {name!r}") from None

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.index(name)])


def _absorbed_factor(data: PanelDataset, fixed_effects: tuple[str, ...]) -> str:
    """The fixed effect with the most categories (the first listed on a tie)."""
    return max(fixed_effects, key=lambda f: len(data.factor_codes(f)[0]))


def build_design(
    data: PanelDataset,
    regressors: tuple[str, ...],
    fixed_effects: tuple[str, ...] = (),
    intercept: bool = True,
    present: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Assemble the design matrix: intercept, regressors, then FE dummies.

    Under fixed effects, fit_model absorbs the factor with the most
    categories by demeaning, so neither it nor the intercept gets a column.
    Every other factor gets one indicator column per category with a row
    in present (the rows a fit can see, default all), less the first such
    category.
    """
    cols: list[np.ndarray] = []
    names: list[str] = []
    if intercept and not fixed_effects:
        cols.append(np.ones(data.n_rows))
        names.append("intercept")
    for r in regressors:
        cols.append(data.column(r))
        names.append(r)
    if fixed_effects:
        absorbed = _absorbed_factor(data, fixed_effects)
        for f in fixed_effects:
            if f == absorbed:
                continue
            labels, codes = data.factor_codes(f)
            kept = np.unique(codes if present is None else codes[present])[1:]
            cols.extend((codes == c).astype(float) for c in kept)
            names.extend(f"{f}={labels[c]}" for c in kept)
    if not cols:
        raise ValueError("empty design")
    return np.column_stack(cols), tuple(names)


def _row_scale(
    data: PanelDataset,
    weights: np.ndarray | None,
    row_multipliers: np.ndarray | None,
    normalization: str,
) -> np.ndarray:
    """Each row's weight in a fit's moments: weights times multipliers, normalized.

    None stands for all ones, for either factor.
    """
    norm = data.row_cluster_sizes * data.n_clusters if normalization == "equal" else data.n_rows
    scale = np.ones(data.n_rows) if weights is None else np.asarray(weights, dtype=float)
    if row_multipliers is not None:
        scale = scale * np.asarray(row_multipliers, dtype=float)
    return scale / norm


def _weighted_cross(a: np.ndarray, scale: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a' S_k b for each draw k, K x p x q.

    scale is K x n.  a (n x p) and b (n x q) are each either shared by the
    draws or a stack with one matrix per draw (K x n x p, K x n x q).
    """
    if a.ndim == 2 and b.ndim == 2 and len(scale) > 1:
        # A shared design takes one matrix product for the whole block, over
        # the rows' outer products.  It sums in another order than a single
        # draw's product, so a block value may differ in the last bits.
        outer = (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)
        return (scale @ outer).reshape(len(scale), a.shape[1], b.shape[1])
    return np.swapaxes(a, -1, -2) @ (scale[..., None] * b)


def _solve_normal_equations(
    design: np.ndarray,
    scale: np.ndarray,
    target: np.ndarray,
    stage: str,
    norm: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Solve (X' S_k X) b_k = X' S_k t for each draw k, rank-checked at relative tolerance 1e-10.

    Shapes as in _weighted_cross; returns K x p x q.  A draw's tolerance is
    relative to the largest singular value of its X' S X, or to its norm
    when that is larger (a demeaned design passes the largest weighted
    square norm of its columns before demeaning).  The first rank-deficient
    draw raises RankDeficiencyError.
    """
    gram = _weighted_cross(design, scale, design)
    rhs = _weighted_cross(design, scale, target)
    sv = np.linalg.svd(gram, compute_uv=False)
    tol = np.maximum(sv[:, 0], norm) * RANK_RTOL
    rank = np.count_nonzero(sv > tol[:, None], axis=1)
    short = np.flatnonzero(rank < gram.shape[-1])
    if len(short):
        raise RankDeficiencyError(int(rank[short[0]]), gram.shape[-1], stage=stage)
    return np.linalg.solve(gram, rhs)


def _largest_norm(design: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Largest weighted square norm sum_r |s_r| x_rj^2 over the columns, per draw."""
    return np.max(np.abs(scale) @ (design * design), axis=1)


def _within(
    codes: np.ndarray, m: int, scale: np.ndarray, present: np.ndarray | None, ncols: int
):
    """Deviation from each draw's scale-weighted category mean.

    scale (and present, when given) is K x n.  Every sum over categories is
    one bincount over the K x m (draw, category) cells, which adds each
    cell's rows in row order as a bincount over one draw's categories would.
    A category without a present row has zero mass and drops out: its rows
    are demeaned by 0.  A category whose present rows carry zero total
    scale (say, all trimmed by zero outlier weights) leaves its effect
    unidentified and raises RankDeficiencyError.  codes are row ordinals
    into m categories; ncols, the number of columns besides the
    categories, only sizes the error.  The returned function maps an n x p
    matrix shared by the draws to the K x n x p stack of its deviations.
    """
    k = len(scale)
    cells = codes + m * np.arange(k)[:, None]

    def category_sums(values: np.ndarray) -> np.ndarray:
        return np.bincount(cells.ravel(), weights=values.ravel(), minlength=k * m).reshape(k, m)

    mass = category_sums(scale)
    seen = np.ones((k, m), dtype=bool)
    if present is not None:
        seen = np.bincount(cells[present], minlength=k * m).reshape(k, m) > 0
    empty = seen & (np.abs(mass) <= RANK_RTOL * np.abs(mass).max(axis=1, keepdims=True))
    if empty.any():
        first = np.flatnonzero(empty.any(axis=1))[0]
        n_seen = int(seen[first].sum())
        raise RankDeficiencyError(n_seen - int(empty[first].sum()) + ncols, n_seen + ncols)
    inverse_mass = np.divide(1.0, mass, out=np.zeros((k, m)), where=seen)

    def demean(a: np.ndarray) -> np.ndarray:
        out = np.empty((k, *a.shape))
        for j, col in enumerate(a.T):
            means = (category_sums(scale * col) * inverse_mass).ravel()[cells]
            np.subtract(col, means, out=out[..., j])
        return out

    return demean


def sigma_hat(
    residuals: np.ndarray,
    data: PanelDataset,
    row_multipliers: np.ndarray | None = None,
    normalization: str = "equal",
) -> float | np.ndarray:
    """Residual scale sqrt(sum_r s_r e_r^2 / sum_r s_r), s the fit's row scale.

    s = _row_scale(data, None, rho, normalization).  Under the cluster-equal
    normalization each cluster contributes its within-cluster mean square
    once, so unit multipliers give sqrt of (1/n) sum_i (1/T_i) sum_t e_it^2;
    under "pooled" it is the plain mean square over rows.  Multiplier
    perturbations, when given, weight the rows.  Leading axes are kept:
    K x n residuals with K x n multipliers give K scales, a c x K x n stack
    c x K; the first negative mean square raises.  A strided stack may sum
    a row in another order than that row alone, so pass it C-contiguous.
    """
    eps = np.asarray(residuals, dtype=float)
    if eps.shape[-1] != data.n_rows:
        raise ValueError("residual vector does not match dataset rows")
    if data.n_clusters == 0:
        raise ValueError("empty cluster in residual scale computation")
    s = _row_scale(data, None, row_multipliers, normalization)
    denom = s.sum(axis=-1)
    if np.any(denom <= 0):
        raise ValueError("non-positive total multiplier mass")
    weighted = eps**2
    weighted *= s
    mean_square = weighted.sum(axis=-1) / denom
    # signed multipliers can make the weighted mean square negative
    negative = np.asarray(mean_square)[mean_square < 0]  # in C order
    if negative.size:
        raise ValueError(
            f"residual scale: weighted mean square is negative ({float(negative[0])!r}); "
            "signed multiplier weights outweigh the positive ones"
        )
    scale = np.sqrt(mean_square)
    return float(scale) if scale.ndim == 0 else scale


def fit_block(
    model: RegressionModel,
    data: PanelDataset,
    weights: np.ndarray | None,
    row_multipliers: np.ndarray | None = None,
) -> RegressionFit:
    """fit_model for a block of K draws at once; every array of the fit gains a leading draw axis.

    weights is K x n, one n-vector shared by the draws, or None for all
    ones; row_multipliers is K x n (None: all ones, one draw).  With two or
    more fixed effects the block must hold one draw, whose present rows
    pick the indicator columns; a larger block is a ValueError, and the
    bootstrap engine then fits its draws one at a time.  The first draw
    that cannot be fitted raises, as fit_model would on it.
    """
    present = None
    if row_multipliers is not None and model.fixed_effects:
        present = np.asarray(row_multipliers) != 0
    scale = np.atleast_2d(_row_scale(data, weights, row_multipliers, model.normalization))
    if len(model.fixed_effects) > 1 and len(scale) > 1:
        raise ValueError("a model with two or more fixed effects is fitted one draw at a time")
    seen = None if present is None else present[0]
    design, names = build_design(
        data, model.regressors, model.fixed_effects, model.intercept, seen
    )
    y = data.column(model.outcome)[:, None]
    z_design = None
    if model.is_instrumented:
        exog = tuple(r for r in model.regressors if r not in model.endogenous)
        z_design, _ = build_design(
            data, model.instruments + exog, model.fixed_effects, model.intercept, seen
        )
    design_norm = z_norm = 0.0
    if model.fixed_effects:
        labels, codes = data.factor_codes(_absorbed_factor(data, model.fixed_effects))
        demean = _within(codes, len(labels), scale, present, design.shape[1])
        design_norm = _largest_norm(design, scale)
        y, design = demean(y), demean(design)
        if z_design is not None:
            z_norm = _largest_norm(z_design, scale)
            z_design = demean(z_design)
    fitted_design, stage = design, "design"
    if z_design is not None:
        # first stage: project the full design on the instrument set
        pi = _solve_normal_equations(z_design, scale, design, "first-stage", z_norm)
        fitted_design, stage = z_design @ pi, "second-stage"
    beta = _solve_normal_equations(fitted_design, scale, y, stage, design_norm)
    resid = design @ beta
    np.subtract(y, resid, out=resid)
    resid, beta = resid[..., 0], beta[..., 0]
    if not model.is_instrumented:
        return RegressionFit(names, beta, resid)
    endog_idx = [names.index(e) for e in model.endogenous]
    return RegressionFit(names, beta, resid, design[..., endog_idx] - fitted_design[..., endog_idx])


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
    and fixed effects instrument themselves).  Under fixed effects the
    outcome, the design and the instruments are first demeaned within the
    absorbed factor's categories at the fit's row scale (Frisch-Waugh-
    Lovell), and residuals are those of the demeaned outcome.  Residuals
    are computed for every row from the actual regressors; an instrumented
    fit also returns the first-stage residuals (one column per endogenous
    regressor) for residual-trimming rules.  This is fit_block on one draw.
    """
    rho = None if row_multipliers is None else np.asarray(row_multipliers, dtype=float)[None]
    fit = fit_block(model, data, weights, rho)
    first_stage = fit.first_stage_residuals
    return RegressionFit(
        fit.coefficient_names,
        fit.coefficients[0],
        fit.residuals[0],
        None if first_stage is None else first_stage[0],
    )


# Both names stay public because acceptance criterion 10 imports them.
weighted_ols = weighted_2sls = fit_model


@dataclass(frozen=True)
class DerivedParams:
    """Dynamic summaries of an effect coefficient with autoregressive lags.

    persistence: sum of the lag coefficients.
    long_run_effect: effect / (1 - persistence); sign(effect) * inf (NaN for
    a zero effect) with unit_root set at a unit root.
    effect_at_horizon: cumulative effect after `horizon` periods from the
    recursion e_j = effect + sum_s lag_s * e_{j-s} with e_j = 0 for j <= 0.
    Each field is a float, or an array with one entry per draw.
    """

    persistence: float | np.ndarray
    long_run_effect: float | np.ndarray
    effect_at_horizon: float | np.ndarray
    horizon: int
    unit_root: bool | np.ndarray = False


def derived_params(effect, lag_coefficients, horizon: int = 25) -> DerivedParams:
    """Exact arithmetic on fitted coefficients; no estimation happens here.

    A scalar effect with a sequence of lags gives floats; K effects with
    K x L lags (a draw per row) give arrays, entry k that draw's floats.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    effect = np.asarray(effect, dtype=float)
    lags = np.asarray(lag_coefficients, dtype=float)
    persistence = lags.sum(axis=-1)
    unit_root = persistence == 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = effect / (1.0 - persistence)
    long_run = np.select([~unit_root, effect > 0, effect < 0], [ratio, np.inf, -np.inf], np.nan)
    # e_j = effect + sum_s lag_s e_{j-s}, zero initial conditions, added in order of s
    e = [np.zeros_like(effect)]
    for j in range(1, horizon + 1):
        acc = effect
        for s in range(1, min(j - 1, lags.shape[-1]) + 1):
            acc = acc + lags[..., s - 1] * e[j - s]
        e.append(acc)
    values = (persistence, long_run, e[horizon], unit_root)
    if effect.ndim == 0:
        values = tuple(v.item() for v in values)
    return DerivedParams(*values[:3], horizon=horizon, unit_root=values[3])
