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
not a sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset


@dataclass(frozen=True)
class WeightScheme:
    """Declarative description of how observation weights are computed.

    kind is one of:
      - "all_ones": unit weights.
      - "quantile_trim": keep rows inside per-column order-statistic bands
        [v_(ceil(lower_q*n)), v_(ceil(upper_q*n))], all listed columns at
        once; lower_q = 0 disables the lower bound.
      - "residual_trim": keep rows with |residual| < multiplier * scale,
        residuals and scale supplied by the caller via ResidualContext.
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

    first_stage_residuals, when present (instrumented fits), is an (n, k)
    matrix; the trim indicator conjoins the bound across all its columns.
    For a block of draws every field gains a leading draw axis.
    """

    residuals: np.ndarray
    scale: float | np.ndarray
    first_stage_residuals: np.ndarray | None = None
    first_stage_scales: np.ndarray | None = None


def weighted_quantile_threshold(
    values, weights, q: float, order: np.ndarray | None = None
) -> float | None:
    """First value where the cumulative weight mass reaches a q fraction.

    With unit weights this is the ceil(q*n)-th order statistic; with integer
    repetition counts it is the corresponding multiset order statistic, which
    is what resampled-data thresholds need.  Weights may be signed (the
    first crossing of the running mass is returned), which supports
    multiplier-perturbed diagnostics.  Returns None when q*total <= 0, i.e.
    no constraint.  A tiny relative snap guards ceil against float error in
    q * total.

    order, when given, must be the stable ascending argsort of values (for
    a dataset column, `PanelDataset.sort_order`); it saves the sort and
    gives the same threshold.  Without it the values are sorted here.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape or v.ndim != 1 or len(v) == 0:
        raise ValueError("values and weights must be equal-length non-empty 1-d arrays")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("total weight must be positive")
    target = q * total
    snap = 1e-9 * max(1.0, abs(total))
    if target <= snap:
        return None
    if order is None:
        order = np.argsort(v, kind="stable")
    elif len(order) != len(v):
        raise ValueError("order must have one entry per value")
    cum = np.cumsum(w[order])
    hit = np.nonzero(cum >= target - snap)[0]
    if len(hit) == 0:
        raise ValueError(f"level unattainable: cumulative weight never reaches {target}")
    return float(v[order[hit[0]]])


def weights_quantile_trim(
    columns: list[np.ndarray],
    lower_q: float,
    upper_q: float,
    row_weights: np.ndarray | None = None,
    orders: list[np.ndarray] | None = None,
) -> np.ndarray:
    """0/1 weights keeping rows inside every column's quantile band.

    Thresholds are the ceil(q*n)-th order statistics of each column
    (weighted order statistics when repetition weights are given, so
    count-weighted data reproduces the materialized multiset thresholds).
    lower_q = 0 means no lower bound.  Invariant under strictly increasing
    transformations of the columns.  orders, when given, holds each
    column's stable ascending argsort (see `weighted_quantile_threshold`).
    """
    if not columns:
        raise ValueError("quantile_trim requires at least one column")
    n = len(columns[0])
    rw = np.ones(n) if row_weights is None else np.asarray(row_weights, dtype=float)
    keep = np.ones(n, dtype=bool)
    for j, v in enumerate(columns):
        v = np.asarray(v, dtype=float)
        order = None if orders is None else orders[j]
        lo = weighted_quantile_threshold(v, rw, lower_q, order)
        hi = weighted_quantile_threshold(v, rw, upper_q, order)
        if lo is not None:
            keep &= v >= lo
        if hi is not None:
            keep &= v <= hi
    return keep.astype(float)


def weights_residual_trim(context: ResidualContext, multiplier: float) -> np.ndarray:
    """0/1 weights keeping rows with |residual| < multiplier * scale.

    With first-stage residuals present, each first-stage column must also
    satisfy its own bound (conjunction).  A context may hold a block of
    draws: K x n residuals with K scales, K x n x k first-stage residuals
    with K x k scales; the weights are then K x n.
    """
    eps = np.asarray(context.residuals, dtype=float)
    scale = np.asarray(context.scale, dtype=float)
    if not np.all((scale > 0) & np.isfinite(scale)):
        raise ValueError("residual scale must be positive and finite")
    keep = np.abs(eps) < multiplier * scale[..., None]
    if context.first_stage_residuals is not None:
        fs = np.atleast_2d(np.asarray(context.first_stage_residuals, dtype=float))
        if fs.shape[0] != len(eps):
            fs = fs.T
        scales = context.first_stage_scales
        if scales is None:
            raise ValueError("first-stage residuals require first-stage scales")
        keep &= np.all(np.abs(fs) < multiplier * np.asarray(scales)[..., None, :], axis=-1)
    return keep.astype(float)


def weights_winsorize(
    values: np.ndarray,
    lower_q: float,
    upper_q: float,
    row_weights: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Ratio weights w_i = clamp(v_i, L, U) / v_i with quantile bounds.

    The weighted mean of v under these weights equals the mean of the
    Winsorized values.  v_i = 0 with a clamp that moves the value has no
    ratio representation and raises, unless the row has row weight 0 and
    so is absent from the sample.  order, when given, is the stable
    ascending argsort of values (see `weighted_quantile_threshold`).
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    rw = np.ones(n) if row_weights is None else np.asarray(row_weights, dtype=float)
    lo = weighted_quantile_threshold(v, rw, lower_q, order)
    hi = weighted_quantile_threshold(v, rw, upper_q, order)
    clamped = v.copy()
    if lo is not None:
        clamped = np.maximum(clamped, lo)
    if hi is not None:
        clamped = np.minimum(clamped, hi)
    zero = v == 0.0
    undefined = zero & (clamped != 0.0) & (rw != 0.0)
    if np.any(undefined):
        i = int(np.nonzero(undefined)[0][0])
        raise ValueError(f"winsorize ratio undefined at zero observation (row {i})")
    out = np.ones(n)
    nz = ~zero
    out[nz] = clamped[nz] / v[nz]
    return out


def compute_weights(
    scheme: WeightScheme,
    data: PanelDataset,
    residual_context: ResidualContext | None = None,
    row_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate a weight scheme on a dataset, one weight per row.

    Order-statistic schemes reuse the dataset's memoized column sort orders.
    """
    n = data.n_rows
    if scheme.kind == "all_ones":
        return np.ones(n)
    if scheme.kind == "quantile_trim":
        cols = [data.column(c) for c in scheme.columns]
        orders = [data.sort_order(c) for c in scheme.columns]
        return weights_quantile_trim(cols, scheme.lower_q, scheme.upper_q, row_weights, orders)
    if scheme.kind == "residual_trim":
        if residual_context is None:
            raise ValueError("residual_trim requires a ResidualContext")
        return weights_residual_trim(residual_context, scheme.multiplier)
    if scheme.kind == "winsorize":
        col = scheme.columns[0]
        return weights_winsorize(
            data.column(col), scheme.lower_q, scheme.upper_q, row_weights, data.sort_order(col)
        )
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
