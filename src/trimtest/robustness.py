"""Formal test of outlier robustness for estimator pairs.

Null hypothesis: the distance between the full-sample and outlier-adjusted
estimands is at most h (default 0, exact equality).  The statistic is the
norm of the estimate difference, and the critical value is the smallest c
such that sup over unit-norm directions v of Pr(||h v + xi||^2 > c) is at
most alpha, with xi normal with the difference covariance.  When the norm
matrix is proportional to the covariance this is a noncentral chi-square
quantile (exact).  With one statistic every positive norm is proportional
to the variance, so a scalar test is always the df = 1 chi-square (h = 0)
or noncentral chi-square (h > 0) case.  Otherwise, or when the
noncentrality is too large for scipy to evaluate, the supremum is evaluated
on a deterministic grid of boundary directions with common Monte Carlo
draws, and the formal p-value inverts the same construction on the same
draws.

On that Monte Carlo path one test draws once: `_mc_test` generates the
normal draws and their direction-free squared norms a single time, then
streams over the direction grid MC_CHUNK directions at a time, forming each
direction's squared norms as one contiguous row, counting the tail at every
requested statistic and selecting the row's upper quantile.  Memory is
MC_CHUNK rows of draws, not one column per direction, and the critical value
and the formal p-value of a test come from one pass over the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.linalg import cho_factor, cho_solve, cholesky

from .errors import NumericalError

N_DIRECTIONS = 256
MC_CHUNK = 16  # directions per block of the streamed Monte Carlo path
# scipy's noncentral chi-square fails from about 1e10.5 (NaN quantiles, wrong
# tails); tests with a larger noncentrality r h^2 take the Monte Carlo path.
_NCX2_MAX_NC = 1e9


@dataclass(frozen=True)
class TestSpec:
    """Tolerance h, level alpha, norm matrix choice, and MC settings.

    norm_matrix: "diff_cov" (Mahalanobis in the difference covariance),
    "identity", or an explicit positive-definite matrix.
    """

    h: float = 0.0
    alpha: float = 0.05
    norm_matrix: object = "diff_cov"
    mc_draws: int = 100_000
    seed: int = 0
    method: str = "auto"  # "auto" | "exact" | "mc"

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("tolerance h must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.mc_draws < 1000:
            raise ValueError("mc_draws must be >= 1000")
        if self.method not in {"auto", "exact", "mc"}:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class TestReport:
    """Everything the decision used, so reports can be regenerated."""

    statistic: float
    critical_value: float
    reject: bool
    p_value_formal: float
    p_value_heuristic: float | None
    h: float
    alpha: float
    method: str
    seed: int
    path: str  # "chi2" | "ncx2" | "mc" | "zero_cov"
    mc_std_error: float | None = None  # binomial SE of p_value_formal on the mc path


def floor_spd(matrix: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Clip eigenvalues from below and re-symmetrize."""
    m = np.asarray(matrix, dtype=float)
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def mahalanobis(diff: np.ndarray, norm_matrix: np.ndarray) -> float:
    """sqrt(diff' A^{-1} diff) for positive-definite A."""
    d = np.atleast_1d(np.asarray(diff, dtype=float))
    a = np.atleast_2d(np.asarray(norm_matrix, dtype=float))
    try:
        factor = cho_factor(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "norm matrix is not positive definite; floor its eigenvalues "
            "(floor_spd) or supply a different norm"
        ) from exc
    return float(np.sqrt(d @ cho_solve(factor, d)))


def unit_directions(dim: int) -> np.ndarray:
    """Deterministic, antipodally symmetric directions on the unit sphere.

    Scalar: the two signs.  Planar: equally spaced angles.  Higher
    dimensions: a Kronecker low-discrepancy sequence pushed through the
    normal quantile and normalized, with antipodes and the coordinate axes
    appended.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
        return np.vstack([np.column_stack([np.cos(ang), np.sin(ang)]), axes])
    half = N_DIRECTIONS // 2
    primes = []
    cand = 2
    while len(primes) < dim:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    alphas = np.sqrt(np.array(primes, dtype=float))
    k = np.arange(1, half + 1)[:, None]
    u = np.mod(k * alphas[None, :], 1.0)
    u = np.clip(u, 1e-6, 1.0 - 1e-6)
    z = stats.norm.ppf(u)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([z, -z, axes])


def _norm_matrix_of(spec_norm, sigma: np.ndarray) -> np.ndarray:
    if isinstance(spec_norm, str):
        if spec_norm == "diff_cov":
            return np.asarray(sigma, dtype=float)
        if spec_norm == "identity":
            return np.eye(len(sigma))
        raise ValueError(f"unknown norm matrix choice {spec_norm!r}")
    return np.atleast_2d(np.asarray(spec_norm, dtype=float))


def _proportionality(a: np.ndarray, sigma: np.ndarray) -> float | None:
    """Return r with a = r * sigma if the matrices are proportional."""
    a = np.atleast_2d(a)
    sigma = np.atleast_2d(sigma)
    if a.shape != sigma.shape:
        return None
    denom = np.abs(sigma).max()
    if denom == 0:
        return None
    mask = np.abs(sigma) > 1e-12 * denom
    if not mask.any():
        return None
    ratios = a[mask] / sigma[mask]
    r = float(ratios.mean())
    if r <= 0:
        return None
    if np.allclose(a, r * sigma, rtol=1e-9, atol=1e-12 * denom):
        return r
    return None


def _route(
    h: float, sigma: np.ndarray, a: np.ndarray, method: str, mc_draws: int, seed: int,
    alpha: float | None = None, statistics_sq: tuple[float, ...] = (),
) -> tuple[str, float | None, list[float]]:
    """The one route of a test: (path, critical value, tail probabilities).

    path is "chi2" or "ncx2" when the norm matrix is r * covariance (always
    so for one statistic) and the noncentrality r h^2 is at most
    _NCX2_MAX_NC, else "mc" (direction grid on common draws).  The
    critical value is None when alpha is None; tails[i] is
    sup_v Pr(||h v + xi||^2 >= statistics_sq[i]).
    """
    if h < 0:
        raise ValueError("tolerance h must be >= 0")
    if method not in {"auto", "exact", "mc"}:
        raise ValueError(f"unknown method {method!r}")
    if method != "mc":
        r = _proportionality(a, sigma)
        if r is not None and r * h * h <= _NCX2_MAX_NC:
            if h == 0.0:
                path, dist = "chi2", stats.chi2(df=len(sigma))
            else:
                path, dist = "ncx2", stats.ncx2(df=len(sigma), nc=r * h * h)
            crit = None if alpha is None else float(dist.ppf(1.0 - alpha) / r)
            return path, crit, [float(dist.sf(r * s2)) for s2 in statistics_sq]
        if method == "exact":
            raise ValueError("no exact critical value path for this norm/covariance pair and h; use mc")
    crit, tails = _mc_test(h, sigma, a, mc_draws, seed, alpha, statistics_sq)
    return "mc", crit, tails


def _empirical_upper_quantile(values: np.ndarray, alpha: float):
    """Order statistic floor(B(1-alpha)) + 1 (1-based), clipped to B, of each row."""
    b = values.shape[-1]
    k = min(int(np.floor(b * (1.0 - alpha))) + 1, b)
    return np.partition(values, k - 1, axis=-1)[..., k - 1]


def _mc_test(
    h: float,
    sigma: np.ndarray,
    norm: np.ndarray,
    mc_draws: int,
    seed: int,
    alpha: float | None = None,
    statistics_sq: tuple[float, ...] = (),
) -> tuple[float | None, list[float]]:
    """Monte Carlo critical value and tail fractions on one set of common draws.

    xi ~ N(0, sigma) is drawn once.  For a direction v of unit A-norm the
    squared norm ||h v + xi||_A^2 is h^2 + 2h xi'A^{-1}v + base with base =
    xi'A^{-1}xi (base alone when h = 0).  The direction grid is walked
    MC_CHUNK directions at a time, one row of draws per direction, so memory
    stays at MC_CHUNK x mc_draws whatever the grid size.

    Returns (c, tails): c is the max over directions of the per-direction
    empirical upper alpha-quantile (None when alpha is None), and tails[i]
    the max over directions of the fraction of draws whose squared norm is
    >= statistics_sq[i].  Both read the same draws, so s^2 = statistics_sq[i]
    exceeds c exactly when tails[i] < alpha.
    """
    dim = len(sigma)
    # Domain tag 2 keeps this stream disjoint from data simulation (bare
    # one-element spawn keys) and bootstrap draws (domain 1) under seed reuse.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    root = vecs * np.sqrt(np.maximum(vals, 0.0))  # PSD square root, singular ok
    xi = rng.standard_normal((mc_draws, dim)) @ root.T
    factor = cho_factor(norm)
    base = np.einsum("bi,bi->b", xi, cho_solve(factor, xi.T).T)
    if h == 0.0:
        blocks = [base[None, :]]
    else:
        v = unit_directions(dim) @ cholesky(norm, lower=True).T  # rows have unit A-norm
        a_inv_v = cho_solve(factor, v.T)  # dim x n_dirs
        blocks = (
            _squared_norm_rows(h, a_inv_v[:, lo : lo + MC_CHUNK], xi, base)
            for lo in range(0, a_inv_v.shape[1], MC_CHUNK)
        )
    crit = None
    counts = [0] * len(statistics_sq)
    for quad in blocks:
        # Count before selecting: the selection below reorders quad's rows.
        for i, s2 in enumerate(statistics_sq):
            counts[i] = max(counts[i], int(np.count_nonzero(quad >= s2, axis=1).max()))
        if alpha is not None:
            q = float(_empirical_upper_quantile(quad, alpha).max())
            crit = q if crit is None else max(crit, q)
    return crit, [c / mc_draws for c in counts]


def _squared_norm_rows(h: float, a_inv_v: np.ndarray, xi: np.ndarray, base: np.ndarray) -> np.ndarray:
    """h^2 + 2h xi'A^{-1}v + base for each column v of a_inv_v, one row per direction."""
    quad = a_inv_v.T @ xi.T
    quad *= 2.0 * h
    quad += h * h
    quad += base
    return quad


def critical_value(
    h: float,
    sigma: np.ndarray,
    alpha: float = 0.05,
    mc_draws: int = 100_000,
    seed: int = 0,
    norm_matrix: object = "diff_cov",
    method: str = "auto",
) -> float:
    """Smallest c with sup_{||v|| <= 1} Pr(||h v + xi||^2 > c) <= alpha.

    xi is normal with covariance sigma; norms are in the chosen norm matrix.
    The supremum over the unit ball is attained on the boundary, and by
    symmetry of xi the boundary tail probability only grows with h, so when
    the norm matrix is r * sigma (every positive norm of a scalar test) c is
    the chi-square (h = 0) or noncentral chi-square quantile over r, with
    df = dim and noncentrality r h^2 (exact, up to _NCX2_MAX_NC).  The
    Monte Carlo path takes the max over a deterministic direction grid of
    per-direction empirical upper quantiles on common draws.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    a = _norm_matrix_of(norm_matrix, sigma)
    return _route(h, sigma, a, method, mc_draws, seed, alpha=alpha)[1]


def formal_p_value(
    statistic_sq: float,
    h: float,
    sigma: np.ndarray,
    mc_draws: int = 100_000,
    seed: int = 0,
    norm_matrix: object = "diff_cov",
    method: str = "auto",
) -> float:
    """Smallest alpha at which the test rejects: sup_v Pr(||h v + xi||^2 >= s^2).

    Uses the same draws for every alpha (the inversion is exact on the exact
    paths and a common-random-numbers inversion on the Monte Carlo path), so
    reject at level alpha if and only if the p-value is below alpha.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    a = _norm_matrix_of(norm_matrix, sigma)
    return _route(h, sigma, a, method, mc_draws, seed, statistics_sq=(statistic_sq,))[2][0]


def robustness_test(
    baseline: np.ndarray,
    adjusted: np.ndarray,
    diff_cov: np.ndarray,
    spec: TestSpec | None = None,
    baseline_cov: np.ndarray | None = None,
) -> TestReport:
    """Run the formal test on an estimator pair.

    diff_cov is the covariance of (baseline - adjusted); baseline_cov, when
    given, feeds the heuristic p-value that replaces the difference
    covariance with the marginal covariance of the baseline estimator (the
    naive two-column comparison).  Both p-values use the same h.
    """
    spec = spec or TestSpec()
    b1 = np.atleast_1d(np.asarray(baseline, dtype=float))
    b2 = np.atleast_1d(np.asarray(adjusted, dtype=float))
    if b1.shape != b2.shape:
        raise ValueError("baseline and adjusted estimates must have the same length")
    sigma = floor_spd(np.atleast_2d(np.asarray(diff_cov, dtype=float)), 0.0)
    scale = float(np.abs(sigma).max())
    if np.linalg.eigvalsh(sigma).min() < -1e-12 * max(1.0, scale):
        raise NumericalError("difference covariance is not PSD after flooring")
    diff = b1 - b2
    if scale == 0.0:
        # A weight scheme compared against itself: every draw of the
        # difference is identically zero.  No evidence against the null.
        if float(np.abs(diff).max()) != 0.0:
            raise NumericalError(
                "difference covariance is exactly zero but the estimates differ; "
                "the bootstrap draws are inconsistent with the point estimates"
            )
        stat, crit, p_formal, path = 0.0, spec.h * spec.h, 1.0, "zero_cov"
    else:
        a = _norm_matrix_of(spec.norm_matrix, sigma)
        stat = mahalanobis(diff, a)
        path, crit, (p_formal,) = _route(
            spec.h, sigma, a, spec.method, spec.mc_draws, spec.seed, spec.alpha, (stat * stat,)
        )
    p_heur = None
    if baseline_cov is not None:
        marg = floor_spd(np.atleast_2d(np.asarray(baseline_cov, dtype=float)), 0.0)
        if float(np.abs(marg).max()) == 0.0:
            p_heur = 1.0 if float(np.abs(diff).max()) == 0.0 else 0.0
        else:
            stat_heur = mahalanobis(diff, _norm_matrix_of(spec.norm_matrix, marg))
            p_heur = formal_p_value(
                stat_heur * stat_heur, spec.h, marg, spec.mc_draws, spec.seed, spec.norm_matrix, spec.method
            )
    return TestReport(
        statistic=stat,
        critical_value=crit,
        reject=bool(stat * stat > crit),
        p_value_formal=p_formal,
        p_value_heuristic=p_heur,
        h=spec.h,
        alpha=spec.alpha,
        method=spec.method,
        seed=spec.seed,
        path=path,
        mc_std_error=float(np.sqrt(p_formal * (1.0 - p_formal) / spec.mc_draws))
        if path == "mc"
        else None,
    )
