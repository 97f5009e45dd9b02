"""Outlier-adjustment weight schemes and the random weight function.

A weight scheme assigns one weight per observation, possibly depending on
the whole sample (order-statistic thresholds, residual scale), which is what
makes the weights random.  The cumulative weight function pairs the sorted
weights with the quantile grid: it is piecewise linear with slope w_(i) on
((i-1)/n, i/n], so integrating a function of the empirical quantile against
it reproduces the weighted sample mean exactly.

Order-statistic thresholds are first crossings of the cumulative row weight
along a column's ascending sort order.  Reweighting the rows never changes
that order, so `compute_weights` takes it from the dataset's memo
(`PanelDataset.sort_order`) and a bootstrap draw pays for a cumulative sum,
not a sort.  A block of K draws, K x n row weights, takes one cumulative
sum along the rows and one argmax for their first crossings.  A column's
thresholds at given levels depend on the block alone, not on the scheme,
so `compute_weights` computes them once per block (`PanelDataset.block_memo`)
for every scheme and estimator that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset
from .errors import NumericalError


@dataclass(frozen=True)
class WeightScheme:
    """Declarative description of how observation weights are computed.

    kind is one of:
      - "all_ones": unit weights.
      - "quantile_trim": keep rows inside per-column order-statistic bands
        [v_(ceil(lower_q*n)), v_(ceil(upper_q*n))], all listed columns at
        once; lower_q = 0 disables the lower bound.
      - "residual_trim": keep rows with |residual| < multiplier * scale for
        every residual row and scale of the caller's ResidualContext.
      - "winsorize": ratio weights clamp(v, L, U) / v on one column with
        order-statistic bounds; undefined when v = 0 and the clamp moves it.
      - "custom": a fixed per-row weight vector.
    """

    kind: str
    columns: tuple[str, ...] = ()
    lower_q: float = 0.0
    upper_q: float = 1.0
    multiplier: float = 1.96
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in {"all_ones", "quantile_trim", "residual_trim", "winsorize", "custom"}:
            raise ValueError(f"unknown weight scheme kind {self.kind!r}")
        if self.kind in {"quantile_trim", "winsorize"}:
            if not 0.0 <= self.lower_q <= self.upper_q <= 1.0:
                raise ValueError("need 0 <= lower_q <= upper_q <= 1")
            if not self.columns:
                raise ValueError(f"{self.kind} requires at least one column")
            if self.kind == "winsorize" and len(self.columns) != 1:
                raise ValueError("winsorize applies to exactly one column")
        if self.kind == "residual_trim" and self.multiplier <= 0:
            raise ValueError("residual_trim multiplier must be positive")
        if self.kind == "custom" and len(self.values) == 0:
            raise ValueError("custom scheme requires a weight vector")

    @classmethod
    def all_ones(cls) -> "WeightScheme":
        return cls("all_ones")

    @classmethod
    def quantile_trim(cls, columns, lower_q: float, upper_q: float) -> "WeightScheme":
        cols = (columns,) if isinstance(columns, str) else tuple(columns)
        return cls("quantile_trim", columns=cols, lower_q=lower_q, upper_q=upper_q)

    @classmethod
    def residual_trim(cls, multiplier: float = 1.96) -> "WeightScheme":
        return cls("residual_trim", multiplier=multiplier)

    @classmethod
    def winsorize(cls, column: str, lower_q: float, upper_q: float) -> "WeightScheme":
        return cls("winsorize", columns=(column,), lower_q=lower_q, upper_q=upper_q)

    @classmethod
    def custom(cls, values) -> "WeightScheme":
        return cls("custom", values=tuple(float(v) for v in values))


@dataclass(frozen=True)
class ResidualContext:
    """Residuals and scales a residual_trim scheme conditions on.

    residuals is c x n, or c x K x n for a block of K draws: row 0 is the
    outcome residual, then one row per endogenous regressor's first-stage
    residual.  scales (c, or c x K) holds each row's scale.
    """

    residuals: np.ndarray
    scales: np.ndarray


def weighted_quantile_threshold(
    values, weights, q: float | tuple[float, ...], order: np.ndarray | None = None
) -> float | np.ndarray | None | list:
    """First value where the cumulative weight mass reaches a q fraction.

    With unit weights this is the ceil(q*n)-th order statistic; with integer
    repetition counts it is the corresponding multiset order statistic, which
    is what resampled-data thresholds need.  Weights may be signed (the
    first crossing of the running mass is returned), which supports
    multiplier-perturbed diagnostics.  q*total <= 0 means no constraint:
    None for one n-vector of weights, NaN in the K thresholds of a K x n
    block (one draw per row, each row's threshold its one-draw value).  A
    tiny relative snap guards ceil against float error in q * total.

    order, when given, must be the stable ascending argsort of values (for
    a dataset column, `PanelDataset.sort_order`); it saves the sort and
    gives the same threshold.  Without it the values are sorted here.

    A tuple of levels q gives the list of their thresholds, read from one
    cumulative sum of the weights.
    """
    v = np.asarray(values, dtype=float)
    w = np.ascontiguousarray(weights, dtype=float)  # rows sum pairwise, as one draw does
    if v.ndim != 1 or len(v) == 0 or w.ndim > 2 or w.shape[-1:] != v.shape:
        raise ValueError("values must be non-empty and 1-d, weights one or K equal-length rows")
    total = w.sum(axis=-1)
    if np.any(total <= 0):
        raise ValueError("total weight must be positive")
    snap = 1e-9 * np.maximum(1.0, np.abs(total))
    if order is None:
        order = np.argsort(v, kind="stable")
    elif len(order) != len(v):
        raise ValueError("order must have one entry per value")
    cum = w[..., order]
    np.cumsum(cum, axis=-1, out=cum)
    out = []
    for level in q if isinstance(q, tuple) else (q,):
        target = level * total
        hit = cum >= (target - snap)[..., None]
        free = target <= snap
        first = hit.argmax(axis=-1)  # 0 where the mass never reaches the target
        missed = ~(free | np.take_along_axis(hit, first[..., None], -1)[..., 0])
        if np.any(missed):
            raise ValueError(f"level unattainable: cumulative weight never reaches {target[missed][0]}")
        threshold = np.where(free, np.nan, v[order[first]])
        out.append(threshold if w.ndim == 2 else None if free else float(threshold))
    return out if isinstance(q, tuple) else out[0]


def weights_quantile_trim(
    columns: list[np.ndarray],
    lower_q: float,
    upper_q: float,
    row_weights: np.ndarray | None = None,
    bounds: list | None = None,
) -> np.ndarray:
    """0/1 weights keeping rows inside every column's quantile band.

    Thresholds are the ceil(q*n)-th order statistics of each column
    (weighted order statistics when repetition weights are given, so
    count-weighted data reproduces the materialized multiset thresholds).
    lower_q = 0 means no lower bound.  Invariant under strictly increasing
    transformations of the columns.  K x n row weights give K x n weights.
    bounds, when given, holds each column's thresholds as
    `weighted_quantile_threshold` returns them for (lower_q, upper_q) and
    the row weights as a K x n block; `compute_weights` passes shared ones.
    """
    if not columns:
        raise ValueError("quantile_trim requires at least one column")
    rw = np.ones(len(columns[0])) if row_weights is None else np.asarray(row_weights, dtype=float)
    block = np.atleast_2d(rw)
    keep = np.ones(block.shape, dtype=bool)
    for j, v in enumerate(columns):
        v = np.asarray(v, dtype=float)
        column_bounds = weighted_quantile_threshold(v, block, (lower_q, upper_q)) if bounds is None else bounds[j]
        for bound, inside in zip(column_bounds, (np.greater_equal, np.less_equal)):
            keep &= inside(v, bound[:, None]) | np.isnan(bound[:, None])  # NaN: no constraint
    return keep.astype(float).reshape(rw.shape)


def weights_residual_trim(context: ResidualContext, multiplier: float) -> np.ndarray:
    """0/1 weights keeping rows with |r| < multiplier * s for every residual row r and scale s.

    A c x K x n context gives K x n weights.  A scale that is not positive
    and finite (zero: a degenerate fit) is a NumericalError.
    """
    residuals = np.asarray(context.residuals, dtype=float)
    scales = np.asarray(context.scales, dtype=float)
    if residuals.ndim not in (2, 3) or residuals.shape[:-1] != scales.shape:
        raise ValueError("residuals must be c x n or c x K x n, with one scale per residual row")
    if not np.all((scales > 0) & np.isfinite(scales)):
        raise NumericalError("residual scale must be positive and finite")
    return np.all(np.abs(residuals) < multiplier * scales[..., None], axis=0).astype(float)


def weights_winsorize(
    values: np.ndarray,
    lower_q: float,
    upper_q: float,
    row_weights: np.ndarray | None = None,
    bounds: list | None = None,
) -> np.ndarray:
    """Ratio weights w_i = clamp(v_i, L, U) / v_i with quantile bounds.

    The weighted mean of v under these weights equals the mean of the
    Winsorized values.  v_i = 0 with a clamp that moves the value has no
    ratio representation and raises, unless the row has row weight 0 and
    so is absent from the sample.  K x n row weights give K x n weights.
    bounds, when given, are the thresholds [L, U] as
    `weighted_quantile_threshold` returns them (see `weights_quantile_trim`).
    """
    v = np.asarray(values, dtype=float)
    rw = np.ones(len(v)) if row_weights is None else np.asarray(row_weights, dtype=float)
    block = np.atleast_2d(rw)
    lower, upper = weighted_quantile_threshold(v, block, (lower_q, upper_q)) if bounds is None else bounds
    # fmax and fmin ignore a NaN bound: no constraint.
    out = np.fmax(v, lower[:, None])
    np.fmin(out, upper[:, None], out=out)
    zero = v == 0.0
    undefined = zero & (out != 0.0) & (block != 0.0)
    if np.any(undefined):
        i = int(np.nonzero(undefined)[1][0])
        raise ValueError(f"winsorize ratio undefined at zero observation (row {i})")
    np.divide(out, v, out=out, where=~zero)
    out[:, zero] = 1.0
    return out.reshape(rw.shape)


def compute_weights(
    scheme: WeightScheme,
    data: PanelDataset,
    residual_context: ResidualContext | None = None,
    row_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate a weight scheme on a dataset, one weight per row.

    K x n row weights give K x n weights, except that all_ones and custom
    give the n-vector every draw shares.  Order-statistic schemes reuse the
    dataset's memoized column sort orders, and take each column's
    thresholds at their levels from the dataset's block memo
    (`PanelDataset.block_memo`): a quantile trim and a Winsorization of one
    column at the same levels, evaluated on the same read-only block, share
    one threshold computation.
    """
    n = data.n_rows
    if scheme.kind == "all_ones":
        return np.ones(n)
    if scheme.kind in ("quantile_trim", "winsorize"):
        rw = np.ones(n) if row_weights is None else np.asarray(row_weights, dtype=float)
        block, levels = np.atleast_2d(rw), (scheme.lower_q, scheme.upper_q)

        def thresholds(column: str):
            return weighted_quantile_threshold(data.column(column), block, levels, data.sort_order(column))

        bounds = [data.block_memo(rw, (c, levels), lambda c=c: thresholds(c)) for c in scheme.columns]
        columns = [data.column(c) for c in scheme.columns]
        if scheme.kind == "winsorize":
            return weights_winsorize(columns[0], *levels, rw, bounds[0])
        return weights_quantile_trim(columns, *levels, rw, bounds)
    if scheme.kind == "residual_trim":
        if residual_context is None:
            raise ValueError("residual_trim requires a ResidualContext")
        return weights_residual_trim(residual_context, scheme.multiplier)
    if scheme.kind == "custom":
        vals = np.asarray(scheme.values, dtype=float)
        if len(vals) != n:
            raise ValueError(f"custom weights have length {len(vals)}, data has {n} rows")
        return vals.copy()
    raise ValueError(f"unknown weight scheme kind {scheme.kind!r}")


@dataclass(frozen=True)
class WeightFunction:
    """Cumulative weight function of a weighted sample on the unit interval.

    Stores the weights aligned with the ascending order of the target
    values.  The function u -> (1/n) * sum_i w_(i) * clamp(n*u - i + 1, 0, 1)
    is piecewise linear with slope w_(i) on ((i-1)/n, i/n]; its increment
    over cell i is w_(i)/n, so Stieltjes-integrating a step function of the
    order statistics against it gives the weighted mean.
    """

    ordered_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.ordered_weights, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("need at least one weight")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "ordered_weights", w)

    @property
    def n(self) -> int:
        return len(self.ordered_weights)

    def __call__(self, u):
        """Evaluate the cumulative weight function at u in [0, 1]."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
            raise ValueError("argument must lie in [0, 1]")
        n = self.n
        t = np.clip(u_arr * n, 0.0, float(n))
        cell = np.minimum(t.astype(int), n - 1)  # cell index 0..n-1
        cum = np.concatenate(([0.0], np.cumsum(self.ordered_weights)))
        frac = np.clip(t - cell, 0.0, 1.0)
        out = (cum[cell] + frac * self.ordered_weights[cell]) / n
        return float(out) if np.isscalar(u) else out
