"""Independent numpy reference for the benchmark's output checks.

These functions recompute, without importing `trimtest`, the point
estimates and individual bootstrap draws of the `lstat_iid` and `panel_fe`
workloads and the rejection count of the `size_study` workload.  They follow the documented definitions rather than the
program's code paths: order statistics instead of cumulative weights for
trim thresholds, and within-cluster demeaning (Frisch-Waugh-Lovell) instead
of dummy columns for fixed effects.  Only the draw-seeding rule is shared,
because a draw can only be recomputed from the same random counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats


def multinomial_counts(seed: int, draw: int, n_units: int) -> np.ndarray:
    """Repetition count of each unit in multinomial bootstrap draw `draw`.

    Draw b's generator derives from (master seed, draw index) in stream
    domain 1, the rule the package documents for bootstrap draws.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(1, draw))
    return np.random.default_rng(ss).multinomial(n_units, np.full(n_units, 1.0 / n_units))


def resample_units(seed: int, draw: int, n_units: int) -> np.ndarray:
    """Unit ordinals of multinomial bootstrap draw `draw`, repeats in order."""
    return np.repeat(np.arange(n_units), multinomial_counts(seed, draw, n_units))


def _order_stat(sorted_x: np.ndarray, q: float) -> float:
    """The ceil(q n)-th order statistic, snapping float error in q n."""
    n = len(sorted_x)
    return float(sorted_x[math.ceil(q * n - 1e-9 * n) - 1])


def lstat_pair(x: np.ndarray, comparison: str, lower_q: float, upper_q: float) -> np.ndarray:
    """[mean, adjusted mean] where the adjustment is a 'trim' or a 'winsor'.

    Both adjusted statistics divide by the full n: trimmed rows count as 0.
    """
    s = np.sort(x)
    lo, hi = _order_stat(s, lower_q), _order_stat(s, upper_q)
    if comparison == "trim":
        adjusted = np.where((x >= lo) & (x <= hi), x, 0.0).sum() / len(x)
    else:
        adjusted = np.clip(x, lo, hi).mean()
    return np.array([x.mean(), adjusted])


@dataclass(frozen=True)
class Panel:
    """Rows in file order; `cluster` holds ordinals 0..G-1 in order of appearance."""

    cluster: np.ndarray
    period: np.ndarray
    x: np.ndarray
    y: np.ndarray
    y_lag1: np.ndarray | None = None


def make_panel(rng: np.random.Generator, n_clusters: int) -> Panel:
    """Unbalanced dynamic panel: 4-10 periods, cluster effects, rare outliers.

    y_t = a_i + 0.5 y_{t-1} + x_t + e_t, with x correlated with a_i.  Three
    in ten clusters of 8 or more periods carry one +-8 outlier, so residual
    trimming has something to remove.  A cluster never holds two outliers
    and short clusters hold none: trimming every row of a cluster would
    leave its fixed effect unidentified and fail the draw.
    """
    sizes = rng.integers(4, 11, n_clusters)
    effect = rng.normal(0.0, 1.0, n_clusters)
    cluster = np.repeat(np.arange(n_clusters), sizes)
    period = np.concatenate([np.arange(s) for s in sizes])
    n = len(cluster)
    x = rng.normal(0.0, 1.0, n) + 0.5 * effect[cluster]
    e = rng.normal(0.0, 1.0, n)
    starts = np.cumsum(sizes) - sizes
    hit = (sizes >= 8) & (rng.random(n_clusters) < 0.3)
    rows = starts + 1 + (rng.random(n_clusters) * (sizes - 1)).astype(int)
    e[rows[hit]] += rng.choice([-8.0, 8.0], n_clusters)[hit]
    y = np.empty(n)
    for r in range(n):
        a = effect[cluster[r]]
        prev = a / 0.5 if period[r] == 0 else y[r - 1]
        y[r] = a + 0.5 * prev + x[r] + e[r]
    return Panel(cluster, period.astype(float), x, y)


def lag_panel(p: Panel) -> Panel:
    """Append y_lag1 within clusters and drop each cluster's first row."""
    keep = p.period > 0
    lag = np.roll(p.y, 1)
    return Panel(p.cluster[keep], p.period[keep], p.x[keep], p.y[keep], lag[keep])


def take_clusters(p: Panel, units: np.ndarray) -> Panel:
    """Materialized cluster resample; each drawn copy becomes a new cluster."""
    parts = [np.nonzero(p.cluster == u)[0] for u in units]
    rows = np.concatenate(parts)
    ids = np.repeat(np.arange(len(units)), [len(r) for r in parts])
    return Panel(ids, p.period[rows], p.x[rows], p.y[rows], p.y_lag1[rows])


def _within_fit(p: Panel, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted slopes on (x, y_lag1) with cluster effects absorbed by demeaning."""
    c = p.cluster
    mass = np.bincount(c, weights=v)
    safe = np.where(mass > 0, mass, 1.0)

    def demean(col):
        return col - (np.bincount(c, weights=v * col) / safe)[c]

    X = np.column_stack([demean(p.x), demean(p.y_lag1)])
    yd = demean(p.y)
    beta = np.linalg.solve(X.T @ (X * v[:, None]), X.T @ (v * yd))
    return beta, yd - X @ beta


def _side(beta: np.ndarray, horizon: int) -> list[float]:
    effect, rho = float(beta[0]), float(beta[1])
    e = 0.0
    for _ in range(horizon):
        e = effect + rho * e
    return [effect, effect / (1.0 - rho), e, rho]


def fe_pair(p: Panel, multiplier: float, horizon: int) -> np.ndarray:
    """[baseline side, residual-trimmed side] of the panel_fe comparison.

    Each side is (x coefficient, long-run effect, effect after `horizon`
    periods, persistence).  Rows are weighted 1 / (T_i G) so every cluster
    counts once; the residual scale is the root mean of the clusters'
    within-cluster mean squares.
    """
    sizes = np.bincount(p.cluster)
    scale = 1.0 / (sizes[p.cluster] * len(sizes))
    beta, resid = _within_fit(p, scale)
    sigma = math.sqrt(np.sum(np.bincount(p.cluster, weights=resid**2) / sizes) / len(sizes))
    keep = (np.abs(resid) < multiplier * sigma).astype(float)
    beta_adj, _ = _within_fit(p, scale * keep)
    return np.array(_side(beta, horizon) + _side(beta_adj, horizon))


def _line_fits(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted fits of y on (1, x), one per row of w: slopes and residual rows."""
    s0, sx, sy = w.sum(axis=1), w @ x, w @ y
    sxx, sxy = w @ (x * x), w @ (x * y)
    slope = (s0 * sxy - sx * sy) / (s0 * sxx - sx * sx)
    intercept = (sy - slope * sx) / s0
    return slope, y[None, :] - intercept[:, None] - slope[:, None] * x[None, :]


def size_study_rejections(
    seed: int, n: int, reps: int, inner: int, multiplier: float, alpha: float
) -> int:
    """Rejections of the h = 0 test of OLS vs residual-trimmed OLS over `reps` datasets.

    Rep r simulates y = x + e (x, e standard normal, n rows) from a seed
    derived from (seed, r), bootstraps rows `inner` times with that seed,
    and rejects when the squared Mahalanobis difference of the two slopes
    exceeds the chi-square(1) quantile.  Every row is its own cluster, so
    the cluster-equal normalization reduces to count-weighted least squares
    and the residual scale to the count-weighted root mean square.
    """
    crit = stats.chi2.ppf(1.0 - alpha, df=1)
    rejections = 0
    for r in range(reps):
        rep_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(1)[0])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rep_seed, spawn_key=(0,)))
        e = rng.normal(0.0, 1.0, n)
        x = rng.normal(0.0, 1.0, n)
        y = x + e
        # Row 0 is the full sample; draws go in small blocks so the check
        # adds next to nothing to the process's peak memory.
        pairs = []
        for lo in range(0, inner + 1, 32):
            w = np.vstack(
                [np.ones(n) if b == 0 else multinomial_counts(rep_seed, b - 1, n) for b in range(lo, min(lo + 32, inner + 1))]
            )
            base, resid = _line_fits(w, x, y)
            sigma = np.sqrt((w * resid**2).sum(axis=1) / n)
            adjusted, _ = _line_fits(w * (np.abs(resid) < multiplier * sigma[:, None]), x, y)
            pairs.append(np.column_stack([base, adjusted]))
        pairs = np.vstack(pairs)
        cov = np.cov(pairs[1:], rowvar=False)
        var = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
        rejections += int((pairs[0, 0] - pairs[0, 1]) ** 2 / var > crit)
    return rejections
