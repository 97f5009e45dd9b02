"""Weighted L-statistics and their covariance estimators.

The statistic for one spec is the weighted sample mean (1/n) sum_i
m(X_i) w_i, equivalently the Stieltjes integral of m composed with the
empirical quantile function against the cumulative weight function.  A
K x n block of bootstrap row weights gives K statistics, row means.  The
analytic covariance estimator is the sample analogue of the asymptotic
covariance form, a Riemann-Stieltjes double sum over the observed order
statistics.  The empirical CDFs and weight functions enter it only through
step functions, so it factorizes through suffix sums of the transform
increments evaluated at each observation's rank: O(n log n) time and O(n)
memory, never an n x n grid.  It is a diagnostic: with all-ones weights
every centered bracket vanishes and it returns an exact zero matrix even
though the statistic itself has positive variance, so bootstrap covariances
are the default inference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import PanelDataset
from .errors import NumericalError
from .weights import WeightFunction, WeightScheme, compute_weights


@dataclass(frozen=True)
class Transform:
    """Continuously differentiable transformation applied to observations.

    kind "identity", "power" (m(x) = x**exponent), or "table" (piecewise
    linear interpolation of supplied (x, y) points on a strictly increasing
    x grid; evaluation outside the table range raises).
    """

    kind: str = "identity"
    exponent: float = 1.0
    table_x: tuple[float, ...] = ()
    table_y: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "table":
            if not self.table_x or len(self.table_x) != len(self.table_y):
                raise ValueError("table x and y must have the same, nonzero length")
            if any(b <= a for a, b in zip(self.table_x, self.table_x[1:])):
                raise ValueError("table x grid must be strictly increasing")

    @classmethod
    def identity(cls) -> "Transform":
        return cls("identity")

    @classmethod
    def power(cls, exponent: float) -> "Transform":
        return cls("power", exponent=float(exponent))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "power":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.power(x, self.exponent)
            if not np.all(np.isfinite(out)):
                bad = int(np.nonzero(~np.isfinite(np.atleast_1d(out)))[0][0])
                raise ValueError(f"transform undefined at observation index {bad}")
            return out
        lo, hi = self.table_x[0], self.table_x[-1]
        if np.any(x < lo) or np.any(x > hi):
            bad = int(np.nonzero((np.atleast_1d(x) < lo) | (np.atleast_1d(x) > hi))[0][0])
            raise ValueError(f"transform undefined at observation index {bad} (outside table)")
        return np.interp(x, self.table_x, self.table_y)


@dataclass(frozen=True)
class LStatSpec:
    """One weighted L-statistic: a column, a transformation, a weight scheme."""

    column: str
    transform: Transform = field(default_factory=Transform.identity)
    scheme: WeightScheme = field(default_factory=WeightScheme.all_ones)
    name: str = ""

    def label(self) -> str:
        return self.name or f"{self.column}:{self.scheme.kind}"


def lstat_eval(
    spec: LStatSpec,
    data: PanelDataset,
    row_weights: np.ndarray | None = None,
) -> float | np.ndarray:
    """Weighted mean (1/n) sum_i m(X_i) w_i rho_i over the rows.

    row_weights rho (repetition counts or multiplier perturbations) default
    to ones.  Weight schemes that depend on the sample see the same
    row_weights so thresholds shift with the resample.  K x n row weights
    give K statistics, each its one-draw value bit for bit.
    """
    # C order: a row mean is then the one-draw pairwise sum.
    rho = np.ones(data.n_rows) if row_weights is None else np.ascontiguousarray(row_weights, float)
    terms = spec.transform(data.column(spec.column)) * compute_weights(spec.scheme, data, None, rho)
    stat = np.mean(terms * rho, axis=-1)
    return float(stat) if stat.ndim == 0 else stat


def lstat_eval_via_integral(spec: LStatSpec, data: PanelDataset) -> float:
    """Same statistic as the Stieltjes integral of m(empirical quantile).

    Integrates the step function u -> m(X_(ceil(u n))) against the cumulative
    weight function on (0, 1]: sum over cells of the level times the
    increment of the weight function across the cell.  Used as an
    independent evaluation route for the integral identity.
    """
    x = data.column(spec.column)
    w = compute_weights(spec.scheme, data)
    order = data.sort_order(spec.column)
    levels = spec.transform(x[order])
    wf = WeightFunction(np.asarray(w)[order])
    grid = np.arange(wf.n + 1) / wf.n
    k_vals = wf(grid)
    return float(np.sum(levels * np.diff(k_vals)))


def _suffix_factors(spec: LStatSpec, x: np.ndarray, w: np.ndarray, order: np.ndarray):
    """Per-observation suffix sums S, SK at each rank, and the scalars A, B.

    order is the stable ascending argsort of x, taken from the dataset's
    memo (`PanelDataset.sort_order`) so the column is not sorted again.

    On the sorted values xs, F[a] = #{X <= xs[a]}/n and K[a] is the mean
    weight over {X <= xs[a]} (ties handled by counting through the last
    equal value).  With dm the forward increments of m over the sorted
    cells, S[p] and SK[p] sum dm[a] and dm[a] K[a] over a >= p (zero at the
    last rank), A = sum dm F and B = sum dm K F.  Observation i enters
    through its rank p(i), the first sorted position of its value, so
    {X_i <= xs[a]} is {p(i) <= a} under ties.
    """
    xs = x[order]
    cnt = np.searchsorted(xs, xs, side="right")
    f_hat = cnt / len(xs)
    k_hat = np.cumsum(w[order])[cnt - 1] / cnt
    dm = np.diff(spec.transform(xs))
    dmk = dm * k_hat[:-1]
    s = np.append(np.cumsum(dm[::-1])[::-1], 0.0)
    sk = np.append(np.cumsum(dmk[::-1])[::-1], 0.0)
    rank = np.searchsorted(xs, x, side="left")
    return s[rank], sk[rank], float(dm @ f_hat[:-1]), float(dmk @ f_hat[:-1])


def analytic_cov(specs: list[LStatSpec], data: PanelDataset, weights: list[np.ndarray] | None = None) -> np.ndarray:
    """Sample-analogue asymptotic covariance of sqrt(n)-scaled L-statistics.

    Entry (j, k) is the double Riemann-Stieltjes sum over the observed order
    statistics of column j and column k of

        [1 - Kj(x) - Kk(y)] [Fjk(x,y) - Fj(x) Fk(y)]
          + [Kjk(x,y) Fjk(x,y) - Kj(x) Kk(y) Fj(x) Fk(y)]

    with forward increments of the transformations, where F are empirical
    CDFs, K are conditional mean weights given {X <= x}, and Kjk conditions
    on the joint event (0 when the conditioning set is empty).

    Fjk and Kjk Fjk are averages over observations of products of the
    indicators {X_ij <= x}{X_ik <= y} (the latter weighted by w_ij w_ik), so
    the double sum factorizes through the suffix sums of `_suffix_factors`
    at each observation's rank:

        sigma_jk = (1/n) sum_i [Sj Sk - SKj Sk - Sj SKk + w_ij w_ik Sj Sk]
                   - (Aj Ak - Bj Ak - Aj Bk) - Bj Bk.

    That costs O(n log n) time (the sorts, shared with the thresholds through
    the dataset's memo) and O(n) memory per spec, with
    no n x n grid.  Diagnostic only: under all-ones weights K = 1 exactly,
    SK = S and B = A bit for bit, and every entry is an exact zero.
    """
    n = data.n_rows
    d = len(specs)
    if weights is None:
        weights = [compute_weights(s.scheme, data) for s in specs]
    sigma = np.zeros((d, d))
    if n < 2:
        return sigma
    weights = [np.asarray(wt, dtype=float) for wt in weights]
    # Overflow is reported as a NumericalError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        factors = [
            _suffix_factors(spec, data.column(spec.column), wt, data.sort_order(spec.column))
            for spec, wt in zip(specs, weights)
        ]
        for j in range(d):
            s_j, sk_j, a_j, b_j = factors[j]
            for k in range(j, d):
                s_k, sk_k, a_k, b_k = factors[k]
                per_obs = s_j * s_k - sk_j * s_k - s_j * sk_k + weights[j] * weights[k] * s_j * s_k
                val = float(np.mean(per_obs)) - (a_j * a_k - b_j * a_k - a_j * b_k) - b_j * b_k
                if not np.isfinite(val):
                    bad = np.flatnonzero(~np.isfinite(per_obs))
                    where = f"at observation {bad[0]}" if bad.size else "in its separable terms"
                    raise NumericalError(
                        f"non-finite analytic covariance for specs {specs[j].label()!r} and "
                        f"{specs[k].label()!r} {where}"
                    )
                sigma[j, k] = sigma[k, j] = val
    return sigma


def analytic_cov_is_degenerate(weights: list[np.ndarray]) -> bool:
    """True when every weight vector is identically one.

    In that case the analytic estimator returns an exact zero matrix even
    though the unweighted statistic has positive asymptotic variance; the
    report layer surfaces this flag and inference falls back to the
    bootstrap.
    """
    return all(np.all(np.asarray(w) == 1.0) for w in weights)


def quantile_process_cov_kernel(s: float, t: float, dmq) -> float:
    """No-adjustment quantile-process kernel m'(Q(s))Q'(s) m'(Q(t))Q'(t) (min(s,t) - st).

    Integrating this kernel over the unit square gives Var(m(X)); for the
    uniform law with the identity transformation the integral is 1/12.
    """
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        raise ValueError("kernel arguments must lie in (0, 1)")
    return float(dmq(s) * dmq(t) * (min(s, t) - s * t))
