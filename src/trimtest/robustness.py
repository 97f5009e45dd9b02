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

On that Monte Carlo path one test draws once, in the norm's whitened
coordinates (`_mc_test`): with A = L L', eta = L^{-1} xi has ||eta|| =
||xi||_A and the unit-A-norm directions are L u for plain unit vectors u,
so nothing is solved per draw.  A draw whose annulus interval
[(||eta|| - h)^2, (||eta|| + h)^2] cannot tell directions apart is counted
without walking the grid; the rest stream over it MC_CHUNK directions at a
time (`_screened_grid`), with a rounding slack that depends on the
dimension alone.  Every value read is the same floating-point number as on
the full grid, so the result is exact, not an approximation, and the
critical value and the formal p-value of a test come from one pass over the
same draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.special import ndtri

from .errors import NumericalError

N_DIRECTIONS = 256
MC_CHUNK = 16  # directions per block of the streamed Monte Carlo path
_SCREEN_ALIGN = 64  # row-group size the screened draws keep (see _screened_grid)
# scipy's noncentral chi-square fails from about 1e10.5 (NaN quantiles, wrong
# tails); tests with a larger noncentrality r h^2 take the Monte Carlo path.
_NCX2_MAX_NC = 1e9


@dataclass(frozen=True)
class TestSpec:
    """Tolerance h, level alpha, norm matrix choice, and MC settings.

    norm_matrix: "diff_cov" (Mahalanobis in the difference covariance),
    "identity", or an explicit symmetric positive-definite matrix.
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
    z = ndtri(u)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([z, -z, axes])


def explicit_norm(matrix) -> np.ndarray:
    """An explicit norm matrix as an array; ValueError unless square and symmetric.

    Symmetric to 1e-10 of its largest entry, as a computed Q D Q' is: the
    statistic factors the upper triangle and the Monte Carlo path the lower
    one, so an asymmetric matrix would be two different norms.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.shape != (len(a), len(a)) or np.abs(a - a.T).max() > 1e-10 * np.abs(a).max():
        raise ValueError("an explicit norm matrix must be square and symmetric")
    return a


def _norm_matrix_of(spec_norm, sigma: np.ndarray) -> np.ndarray:
    if isinstance(spec_norm, str):
        if spec_norm == "diff_cov":
            return np.asarray(sigma, dtype=float)
        if spec_norm == "identity":
            return np.eye(len(sigma))
        raise ValueError(f"unknown norm matrix choice {spec_norm!r}")
    return explicit_norm(spec_norm)


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
    alpha: float | None = None, statistic_sq: float | None = None,
) -> tuple[str, float | None, float | None]:
    """The one route of a test: (path, critical value, tail probability).

    path is "chi2" or "ncx2" when the norm matrix is r * covariance (always
    so for one statistic) and the noncentrality r h^2 is at most
    _NCX2_MAX_NC, else "mc" (direction grid on common draws).  The
    critical value is None when alpha is None, and the tail
    sup_v Pr(||h v + xi||^2 >= statistic_sq) is None when statistic_sq is.
    """
    if h < 0:
        raise ValueError("tolerance h must be >= 0")
    if method not in {"auto", "exact", "mc"}:
        raise ValueError(f"unknown method {method!r}")
    if method != "mc":
        # scipy.stats costs most of a cold import of the package; only this path needs it.
        from scipy import stats

        r = _proportionality(a, sigma)
        if r is not None and r * h * h <= _NCX2_MAX_NC:
            # Shape arguments, not a frozen distribution: building one costs
            # several times as much as the quantile itself.
            if h == 0.0:
                path, dist, shape = "chi2", stats.chi2, (len(sigma),)
            else:
                path, dist, shape = "ncx2", stats.ncx2, (len(sigma), r * h * h)
            crit = None if alpha is None else float(dist.ppf(1.0 - alpha, *shape) / r)
            tail = None if statistic_sq is None else float(dist.sf(r * statistic_sq, *shape))
            return path, crit, tail
        if method == "exact":
            raise ValueError("no exact critical value path for this norm/covariance pair and h; use mc")
    crit, tail = _mc_test(h, sigma, a, mc_draws, seed, alpha, statistic_sq)
    return "mc", crit, tail


def _upper_rank(b: int, alpha: float) -> int:
    """The 1-based rank floor(B(1-alpha)) + 1, clipped to B, of the upper alpha-quantile."""
    return min(int(np.floor(b * (1.0 - alpha))) + 1, b)


def _empirical_upper_quantile(values: np.ndarray, alpha: float):
    """Order statistic floor(B(1-alpha)) + 1 (1-based), clipped to B, of each row."""
    k = _upper_rank(values.shape[-1], alpha)
    return np.partition(values, k - 1, axis=-1)[..., k - 1]


def _mc_test(
    h: float,
    sigma: np.ndarray,
    norm: np.ndarray,
    mc_draws: int,
    seed: int,
    alpha: float | None = None,
    statistic_sq: float | None = None,
) -> tuple[float | None, float | None]:
    """Monte Carlo critical value and tail fraction on one set of common draws.

    The test runs in the norm's whitened coordinates.  With the lower
    Cholesky factor A = L L', eta = L^{-1} xi has ||eta|| = ||xi||_A, and the
    unit-A-norm directions are v = L u for unit vectors u, so the squared
    norm ||h v + xi||_A^2 is ||h u + eta||^2 = h^2 + 2h u'eta + base with
    base = ||eta||^2 (base alone when h = 0).  eta is drawn once, as standard
    normals times the whitened root L^{-1} sigma^{1/2}; nothing is solved per
    draw.

    Returns (c, tail): c is the max over directions of the per-direction
    empirical upper alpha-quantile, the k-th smallest value with k =
    _upper_rank (None when alpha is None), and tail the max over directions
    of the fraction of draws whose squared norm is >= statistic_sq (None when
    statistic_sq is None).  Both read the same draws, so s^2 exceeds c
    exactly when its tail is below alpha.

    For h > 0 the draws are screened before the direction grid is walked.
    Cauchy-Schwarz gives |u'eta| <= sqrt(base) for every unit u, so each
    direction's value of a draw lies in the annulus interval [lo, hi] =
    [(sqrt(base) - h)^2, (sqrt(base) + h)^2], widened by the rounding slack
    of _screened_grid.
    - Statistic: a draw with lo >= s^2 counts for every direction and one
      with hi < s^2 for none; only the draws whose interval straddles s^2
      can tell directions apart.
    - Critical value: the k-th order statistics Lk of lo and Hk of hi bracket
      every direction's k-th value.  The n_below draws with hi < Lk lie below
      it in every direction and those with lo > Hk above it, so each
      direction's quantile is the (k - n_below)-th smallest of the draws in
      between.
    Only the kept draws go through _squared_norm_rows, MC_CHUNK directions at
    a time, with the same operations as the full product (_screened_grid),
    so every value the counts and the selection read is the same
    floating-point number as without the screen and the result is exact,
    not an approximation.  When h is large against the covariance every
    interval straddles, every draw is walked and the cost is that of the
    full grid.
    """
    dim = len(sigma)
    # Domain tag 2 keeps this stream disjoint from data simulation (bare
    # one-element spawn keys) and bootstrap draws (domain 1) under seed reuse.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    root = vecs * np.sqrt(np.maximum(vals, 0.0))  # PSD square root, singular ok
    root = solve_triangular(cholesky(norm, lower=True), root, lower=True)
    # eta is passed unbound, so the grid walk holds the only reference to it.
    crit, count = _screened_grid(
        h,
        unit_directions(dim).T,
        rng.standard_normal((mc_draws, dim)) @ root.T,
        alpha,
        statistic_sq,
    )
    return crit, None if count is None else count / mc_draws


def _screened_grid(
    h: float,
    directions: np.ndarray,
    eta: np.ndarray,
    alpha: float | None,
    statistic_sq: float | None,
) -> tuple[float | None, int | None]:
    """(critical value, tail count) of the direction grid on the screened rows of eta.

    With h = 0 every direction's value is base = ||eta||^2 and no grid is
    walked.  directions holds the unit vectors u as columns.  The bounds repeat
    _squared_norm_rows's operations in its order with the cross term u'eta
    replaced by -D and +D, D = (1 + slack) sqrt(base).  Each of those
    floating-point steps is monotone, so a computed cross term of magnitude
    at most D gives lo <= computed value <= hi in every direction.

    The slack is 32 d^2 u, u the unit roundoff, whatever the norm.
    Cauchy-Schwarz holds for the stored eta itself, |u'eta| <= ||u|| ||eta||,
    so only the rounding of d-term sums enters (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3):
    - a grid vector is normalized by a computed 2-norm: ||u|| <= 1 + (d/2 + 2)u;
    - the computed cross term is within d u ||u|| ||eta|| of u'eta;
    - base is within d u ||eta||^2 of ||eta||^2: ||eta|| <= sqrt(base) (1 + d u / 2);
    - forming D rounds twice (2u).
    The sum, (2d + 4)u to first order, is below half of the slack for every
    d >= 1; the other half covers the higher-order terms.

    The walked columns are laid out [padding, statistic band, critical-value
    band, tail]; the statistic and critical-value bands overlap in the middle
    so that each is one contiguous slice.  The tail is the last
    len(base) % _SCREEN_ALIGN draws in their order, walked for both
    purposes, and the padding repeats draw 0 until the columns before the
    tail fill whole groups of _SCREEN_ALIGN (at least one group when a tail
    follows, as one column would be a matrix-vector product).  Every kept
    draw then takes the same place in the product's row groups as in the
    full product: a whole group, or the same offset of the final partial
    group.  BLAS kernels compute whole groups and the final partial group
    with different instruction sequences, so without this the last bits of
    a value could depend on which draws were kept; with it they cannot for
    any kernel whose unroll divides _SCREEN_ALIGN.
    """
    base = np.einsum("bi,bi->b", eta, eta)
    if h == 0.0:
        crit = None if alpha is None else float(_empirical_upper_quantile(base, alpha))
        return crit, None if statistic_sq is None else int(np.count_nonzero(base >= statistic_sq))
    k = None if alpha is None else _upper_rank(len(base), alpha)
    rows, sure, rank, (s0, s1, c0, t0) = _screen(h, eta.shape[1], base, k, statistic_sq)
    if rows is not None:
        eta, base = eta[rows], base[rows]
    crit, count = None, None if statistic_sq is None else sure
    if len(base) == 0:
        return crit, count
    for lo_dir in range(0, directions.shape[1], MC_CHUNK):
        quad = _squared_norm_rows(h, directions[:, lo_dir : lo_dir + MC_CHUNK], eta, base)
        if statistic_sq is not None:
            per_dir = np.count_nonzero(quad[:, s0:s1] >= statistic_sq, axis=1)
            per_dir += np.count_nonzero(quad[:, t0:] >= statistic_sq, axis=1)
            count = max(count, sure + int(per_dir.max()))
        if k is not None:
            q = float(np.partition(quad[:, c0:], rank - 1, axis=-1)[:, rank - 1].max())
            crit = q if crit is None else max(crit, q)
    return crit, count


def _screen(
    h: float, dim: int, base: np.ndarray, k: int | None, statistic_sq: float | None
) -> tuple[np.ndarray | None, int, int | None, tuple[int, int, int, int]]:
    """The annulus screen of _screened_grid: (rows, sure count, rank, slice bounds).

    rows lists the draws to walk in the column layout _screened_grid
    describes, or is None when the screen saves nothing and every draw is
    walked.  The bounds are the statistic slice, the critical-value start
    and the tail start.  The full-length bounds and masks live only here, so
    they are freed before the grid walk.
    """
    b = len(base)
    body = b - b % _SCREEN_ALIGN
    cross = np.sqrt(base)
    cross *= 1.0 + 16.0 * dim * dim * np.finfo(float).eps  # the slack: u = eps / 2
    cross *= 2.0 * h
    lo = h * h - cross
    lo += base
    hi = cross + h * h
    hi += base
    lo_body, hi_body = lo[:body], hi[:body]
    # Sure count, critical-value rank and the draws each purpose must walk.
    sure, rank = 0, k
    in_stat = np.zeros(body, dtype=bool)
    if statistic_sq is not None:
        sure = int(np.count_nonzero(lo_body >= statistic_sq))
        in_stat = (lo_body < statistic_sq) & (hi_body >= statistic_sq)
    in_crit = np.zeros(body, dtype=bool)
    if k is not None:
        lk = np.partition(lo, k - 1)[k - 1]
        hk = np.partition(hi, k - 1)[k - 1]
        rank = k - int(np.count_nonzero(hi_body < lk))
        in_crit = (hi_body >= lk) & (lo_body <= hk)
    groups = [
        np.flatnonzero(in_stat & ~in_crit),
        np.flatnonzero(in_stat & in_crit),
        np.flatnonzero(in_crit & ~in_stat),
    ]
    kept = sum(map(len, groups))
    pad = -kept % _SCREEN_ALIGN if kept else _SCREEN_ALIGN * (body < b)
    if pad + kept + b - body >= b:
        return None, 0, k, (0, b, 0, b)
    rows = np.concatenate([np.zeros(pad, dtype=np.intp), *groups, np.arange(body, b)])
    c0 = pad + len(groups[0])
    return rows, sure, rank, (pad, c0 + len(groups[1]), c0, pad + kept)


def _squared_norm_rows(h: float, directions: np.ndarray, eta: np.ndarray, base: np.ndarray) -> np.ndarray:
    """h^2 + 2h u'eta + base for each column u of directions, one row per direction."""
    quad = directions.T @ eta.T
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
    return _route(h, sigma, a, method, mc_draws, seed, statistic_sq=statistic_sq)[2]


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
        path, crit, p_formal = _route(
            spec.h, sigma, a, spec.method, spec.mc_draws, spec.seed, spec.alpha, stat * stat
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
