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
dimension alone.  Once a chunk has set the critical value, only the
directions that can still raise it are partitioned.  Every value read is
the same floating-point number as on the full grid, so the result is exact,
not an approximation, and the critical value and the formal p-value of a
test come from one pass over the same draws.

The draws are made, whitened and screened MC_ROWS rows at a time (`_screen`),
and a block is dropped before the next is drawn.  It keeps only candidates:
the draws whose interval straddles the statistic, those whose interval
reaches a running bound on the critical value's order statistic of the
interval ends, and the last B % 64 draws.  The bound is taken over the draws
seen so far, so it never exceeds the order statistic of all B draws, and a
dropped draw lies below the quantile in every direction: the candidates
give the order statistic exactly, as in selection from a stream with limited
storage (Munro and Paterson, 1980).  The grid walk then holds one chunk of
directions' values at a time and partitions them in place.  Memory is
O(candidates), not O(B d): on the panel_fe benchmark's joint test (d = 4,
100 000 draws) a formal test peaked at 2.4 MB of tracemalloc, against 7.4 MB
with the draws held whole.

A test's settings are checked once, when its TestSpec is built.  The formal
test and the heuristic p-value each make one call of `_quadratic`; the
heuristic is `formal_p_value`, the same test against the baseline
estimator's covariance with no level.  When both walk the grid of two or
more statistics on at least MC_FORK_DRAWS draws, they run side by side on
`bootstrap.fork_map`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
from scipy.special import ndtri

from .bootstrap import fork_map, random_stream
from .errors import NumericalError, setting_error

N_DIRECTIONS = 256
MC_CHUNK = 16  # directions per block of the streamed Monte Carlo path
_SCREEN_ALIGN = 64  # row-group size the screened draws keep (see _screened_grid)
MC_ROWS = 8192  # draws per block of the Monte Carlo path, a multiple of _SCREEN_ALIGN
# scipy's noncentral chi-square fails from about 1e10.5 (NaN quantiles, wrong
# tails); tests with a larger noncentrality r h^2 take the Monte Carlo path.
_NCX2_MAX_NC = 1e9
# robustness_test runs the heuristic p-value beside the formal test when both
# walk the Monte Carlo grid of two or more statistics on at least this many
# draws.  On a 2-core Xeon VM, a fork_map of two no-op items from a 112 MB
# process took 4.1 ms.  The panel_fe benchmark's joint test (d = 4, h = 0.02,
# the screen keeping 6-14% of the draws) took 17.4 ms serially and 19.2 ms
# forked at 60 000 draws, 25.8 and 21.4 ms at 80 000, 37 and 28 ms at
# 100 000; with h = 0, where no grid is walked, 17.5 and 14.5 ms at 100 000.
MC_FORK_DRAWS = 80_000


@dataclass(frozen=True)
class TestSpec:
    """Tolerance h, level alpha, norm matrix choice, and MC settings.

    norm_matrix: "diff_cov" (Mahalanobis in the difference covariance),
    "identity", or an explicit symmetric positive-definite matrix, kept as
    a tuple of float rows.  The settings are checked here, once, and the
    test routines trust them.
    """

    h: float = 0.0
    alpha: float = 0.05
    norm_matrix: object = "diff_cov"
    mc_draws: int = 100_000
    seed: int = 0
    method: str = "auto"  # "auto" | "exact" | "mc"

    def __post_init__(self):
        if not np.isfinite(self.h):
            raise setting_error("h", f"tolerance h must be finite, got {self.h!r}")
        if self.h < 0:
            raise setting_error("h", "tolerance h must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise setting_error("alpha", "alpha must lie in (0, 1)")
        if self.mc_draws < 1000:
            raise setting_error("mc_draws", "mc_draws must be >= 1000")
        if self.method not in {"auto", "exact", "mc"}:
            raise setting_error("method", f"unknown method {self.method!r}")
        if not isinstance(self.norm_matrix, str):
            object.__setattr__(self, "norm_matrix", tuple(map(tuple, explicit_norm(self.norm_matrix).tolist())))
        elif self.norm_matrix not in {"diff_cov", "identity"}:
            raise setting_error("norm_matrix", f"unknown norm matrix choice {self.norm_matrix!r}")


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


def floor_spd(matrix: np.ndarray) -> np.ndarray:
    """Clip eigenvalues at 0 and re-symmetrize."""
    m = np.asarray(matrix, dtype=float)
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def mahalanobis(diff: np.ndarray, norm_matrix: np.ndarray) -> float:
    """sqrt(diff' A^{-1} diff) for positive-definite A."""
    d = np.atleast_1d(np.asarray(diff, dtype=float))
    a = np.atleast_2d(np.asarray(norm_matrix, dtype=float))
    try:
        factor = cho_factor(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "norm matrix is not positive definite (floor_spd clips eigenvalues at 0); "
            "lift its eigenvalues above 0 or supply a different norm"
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
    """An explicit norm matrix as an array; ValueError unless finite, square and symmetric.

    Symmetric to 1e-10 of its largest entry, as a computed Q D Q' is: the
    statistic factors the upper triangle and the Monte Carlo path the lower
    one, so an asymmetric matrix would be two different norms.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.isfinite(a).all():
        raise ValueError("an explicit norm matrix must be finite")
    if a.shape != (len(a), len(a)) or np.abs(a - a.T).max() > 1e-10 * np.abs(a).max():
        raise ValueError("an explicit norm matrix must be square and symmetric")
    return a


def _norm_matrix_of(spec_norm, sigma: np.ndarray) -> np.ndarray:
    if not isinstance(spec_norm, str):
        return np.array(spec_norm)
    return sigma if spec_norm == "diff_cov" else np.eye(len(sigma))


def _proportionality(a: np.ndarray, sigma: np.ndarray) -> float | None:
    """Return r with a = r * sigma if the matrices are proportional."""
    if a.shape != sigma.shape:
        return None
    denom = np.abs(sigma).max()
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


def _exact_ratio(spec: TestSpec, sigma: np.ndarray, a: np.ndarray) -> float | None:
    """r when the test of covariance sigma in norm a takes an exact path, None for the Monte Carlo one.

    The exact path needs a = r * sigma (always so for one statistic) and a
    noncentrality r h^2 of at most _NCX2_MAX_NC, and is never taken under
    method "mc".
    """
    if spec.method == "mc":
        return None
    r = _proportionality(a, sigma)
    return r if r is not None and r * spec.h * spec.h <= _NCX2_MAX_NC else None


def _route(
    spec: TestSpec, sigma: np.ndarray, a: np.ndarray,
    alpha: float | None = None, statistic_sq: float | None = None,
) -> tuple[str, float | None, float | None]:
    """The one route of a test: (path, critical value, tail probability).

    path is "chi2" or "ncx2" on the exact path (_exact_ratio), else "mc"
    (direction grid on spec.mc_draws common draws).  The critical value is
    None when alpha is None, and the tail sup_v Pr(||h v + xi||^2 >=
    statistic_sq) is None when statistic_sq is.
    """
    h, r = spec.h, _exact_ratio(spec, sigma, a)
    if r is not None:
        # scipy.stats costs most of a cold import of the package; only this path needs it.
        from scipy import stats

        # Shape arguments, not a frozen distribution: building one costs
        # several times as much as the quantile itself.
        if h == 0.0:
            path, dist, shape = "chi2", stats.chi2, (len(sigma),)
        else:
            path, dist, shape = "ncx2", stats.ncx2, (len(sigma), r * h * h)
        crit = None if alpha is None else float(dist.ppf(1.0 - alpha, *shape) / r)
        tail = None if statistic_sq is None else float(dist.sf(r * statistic_sq, *shape))
        return path, crit, tail
    if spec.method == "exact":
        raise ValueError("no exact critical value path for this norm/covariance pair and h; use mc")
    crit, tail = _mc_test(spec, sigma, a, alpha, statistic_sq)
    return "mc", crit, tail


def _upper_rank(b: int, alpha: float) -> int:
    """The 1-based rank floor(B(1-alpha)) + 1, clipped to B, of the upper alpha-quantile."""
    return min(int(np.floor(b * (1.0 - alpha))) + 1, b)


def _empirical_upper_quantile(values: np.ndarray, alpha: float):
    """Order statistic floor(B(1-alpha)) + 1 (1-based), clipped to B, of each row."""
    k = _upper_rank(values.shape[-1], alpha)
    return np.partition(values, k - 1, axis=-1)[..., k - 1]


def _mc_test(
    spec: TestSpec, sigma: np.ndarray, norm: np.ndarray,
    alpha: float | None = None, statistic_sq: float | None = None,
) -> tuple[float | None, float | None]:
    """Monte Carlo critical value and tail fraction on spec.mc_draws common draws.

    The test runs in the norm's whitened coordinates.  With the lower
    Cholesky factor A = L L', eta = L^{-1} xi has ||eta|| = ||xi||_A, and the
    unit-A-norm directions are v = L u for unit vectors u, so the squared
    norm ||h v + xi||_A^2 is ||h u + eta||^2 = h^2 + 2h u'eta + base with
    base = ||eta||^2 (base alone when h = 0).  eta is drawn as standard
    normals times the whitened root L^{-1} sigma^{1/2}; nothing is solved per
    draw.  The normals come from the one "test" stream in blocks of MC_ROWS
    rows (_row_blocks), and each block is screened and dropped before the
    next is drawn.

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
    Lk and Hk are found from a candidate set, as an order statistic of a
    stream can be (Munro and Paterson, Selection and sorting with limited
    storage, 1980; _screen).  Each block drops the draws with hi below a
    bound, the m-th largest lo among the draws seen so far with m = B - k +
    1, unless they straddle s^2.  A bound taken over a subset never exceeds
    Lk, the m-th largest lo of all draws, so a dropped draw is in n_below
    and in no band, every draw with lo >= Lk or hi >= Hk is kept, and Lk and
    Hk are the m-th largest lo and hi of the draws kept.  Memory is
    O(kept draws): apart from the h = 0 path's base, nothing of length B or
    B x d is held.  Since the kept draws can be all B, a draw count whose
    B x d matrix the system would refuse fails at once (_reserve_draws).
    Only the walked draws go through _squared_norm_rows, MC_CHUNK directions
    at a time, with the same operations as the full product (_screened_grid),
    so every value the counts and the selection read is the same
    floating-point number as without the screen or the blocks, and the
    result is exact, not an approximation.  When h is large against the
    covariance every interval straddles, every draw is kept and walked, and
    the cost is that of the full grid.
    """
    dim, h, mc_draws = len(sigma), spec.h, spec.mc_draws
    _reserve_draws(mc_draws, dim)
    rng = random_stream(spec.seed, "test")
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    root = vecs * np.sqrt(np.maximum(vals, 0.0))  # PSD square root, singular ok
    root = solve_triangular(cholesky(norm, lower=True), root, lower=True)
    blocks = (rng.standard_normal((r1 - r0, dim)) @ root.T for r0, r1 in _row_blocks(mc_draws))
    crit, count = _screened_grid(h, unit_directions(dim).T, blocks, mc_draws, alpha, statistic_sq)
    return crit, None if count is None else count / mc_draws


def _reserve_draws(b: int, dim: int) -> None:
    """Raise MemoryError at once when b x dim float64 values could not be mapped.

    When every draw straddles, the screen keeps them all, so a test may need
    room for the whole draw matrix.  The matrix is mapped as one anonymous
    private mapping, as a large numpy array is, and unmapped untouched: it
    costs no resident memory and no tracemalloc trace, and fails when the
    system would refuse that array, before any block is drawn.
    """
    # Imported here, as numpy.memmap does: loading mmap adds about 40 KB of
    # resident memory to every process that imports this module, and only
    # the Monte Carlo path needs it.
    import mmap

    nbytes = b * dim * 8
    try:
        mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE).close()
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"Unable to allocate {nbytes / 2**30:.3g} GiB for the {b} x {dim} Monte Carlo draws") from exc


def _row_blocks(b: int) -> Iterator[tuple[int, int]]:
    """The [start, stop) rows of the MC_ROWS-row blocks of b draws, made as they are read.

    A last block of fewer than _SCREEN_ALIGN rows joins the one before it.
    Every block then starts at a multiple of _SCREEN_ALIGN and holds at least
    that many rows (or all b), so each row of a block's product normals @
    root' takes the same place in the kernel's row groups as in the product
    of all b rows, and gets its bits (the argument of _screened_grid), and
    no block is a matrix-vector product.
    """
    starts = range(0, b, MC_ROWS)
    if len(starts) > 1 and b - starts[-1] < _SCREEN_ALIGN:
        starts = starts[:-1]
    return zip(starts, chain(starts[1:], [b]))


def _screened_grid(
    h: float,
    directions: np.ndarray,
    blocks: Iterable[np.ndarray],
    b: int,
    alpha: float | None,
    statistic_sq: float | None,
) -> tuple[float | None, int | None]:
    """(critical value, tail count) of the direction grid on the screened rows of eta.

    blocks yields the rows of eta, b in all, in blocks that start at
    multiples of _SCREEN_ALIGN (_row_blocks).  With h = 0 every direction's
    value is base = ||eta||^2 and no grid is walked.  directions holds the
    unit vectors u as columns.  The bounds repeat _squared_norm_rows's
    operations in its order with the cross term u'eta replaced by -D and +D,
    D = (1 + slack) sqrt(base).  Each of those floating-point steps is
    monotone, so a computed cross term of magnitude at most D gives lo <=
    computed value <= hi in every direction.

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
    b % _SCREEN_ALIGN draws in their order, walked for both purposes, and
    the padding repeats draw 0 until the columns before the tail fill whole
    groups of _SCREEN_ALIGN (at least one group when a tail follows, as one
    column would be a matrix-vector product).  Every walked draw then takes
    the same place in the product's row groups as in the full product: a
    whole group, or the same offset of the final partial group.  BLAS
    kernels compute whole groups and the final partial group with different
    instruction sequences, so without this the last bits of a value could
    depend on which draws were kept; with it they cannot for any kernel
    whose unroll divides _SCREEN_ALIGN.

    Once a chunk has set crit, a direction with at least rank values <= crit
    has its rank-th smallest value <= crit, so it cannot raise the maximum;
    one count per direction finds those, and only the others are
    partitioned.  The maximum is the same floating-point number.  A chunk's
    values are dropped before the next chunk's are made and are partitioned
    in place, so the walk holds MC_CHUNK rows of the walked draws at a time.
    """
    if h == 0.0:
        base, r0 = np.empty(b), 0
        for eta in blocks:
            np.einsum("bi,bi->b", eta, eta, out=base[r0 : r0 + len(eta)])
            r0 += len(eta)
        crit = None if alpha is None else float(_empirical_upper_quantile(base, alpha))
        return crit, None if statistic_sq is None else int(np.count_nonzero(base >= statistic_sq))
    k = None if alpha is None else _upper_rank(b, alpha)
    eta, base, sure, rank, (s0, s1, c0, t0) = _screen(h, blocks, b, k, statistic_sq)
    crit, count = None, None if statistic_sq is None else sure
    if len(base) == 0:
        return crit, count
    for lo_dir in range(0, directions.shape[1], MC_CHUNK):
        quad = open_rows = None  # one chunk's values at a time
        quad = _squared_norm_rows(h, directions[:, lo_dir : lo_dir + MC_CHUNK], eta, base)
        if statistic_sq is not None:
            per_dir = np.count_nonzero(quad[:, s0:s1] >= statistic_sq, axis=1)
            per_dir += np.count_nonzero(quad[:, t0:] >= statistic_sq, axis=1)
            count = max(count, sure + int(per_dir.max()))
        if k is not None:
            open_rows = quad[:, c0:]
            if crit is not None:
                open_rows = open_rows[np.count_nonzero(open_rows <= crit, axis=1) < rank]
            if len(open_rows):
                q = float(_kth_smallest_rows(open_rows, rank - 1).max())
                crit = q if crit is None else max(crit, q)
    return crit, count


def _kth_smallest_rows(values: np.ndarray, kth: int) -> np.ndarray:
    """The kth smallest (0-based) of each row, partitioning the rows in place."""
    values.partition(kth, axis=-1)
    return values[:, kth]


def _screen(
    h: float, blocks: Iterable[np.ndarray], b: int, k: int | None, statistic_sq: float | None
) -> tuple[np.ndarray, np.ndarray, int, int | None, tuple[int, int, int, int]]:
    """The annulus screen of _screened_grid, one block at a time: (eta, base, sure count, rank, slice bounds).

    eta and base hold the draws to walk in the column layout _screened_grid
    describes.  The bounds are the statistic slice, the critical-value start
    and the tail start.

    Each block keeps its tail rows, draw 0, the draws whose interval
    straddles s^2, and, when k is given, the draws with hi >= bound; all
    others are counted in n_below and dropped.  A kept draw is sorted into
    its bands, or none, once Lk and Hk are known.  top holds every lo >=
    bound seen so far, and after each block that leaves it m = B - k + 1
    values or more, bound becomes its m-th largest and top keeps only the
    values at or above it.  The bound is the m-th largest lo of the draws
    seen, never above Lk, the m-th largest of all, so a dropped draw has
    hi < Lk <= Hk, and every draw with lo >= Lk or hi >= Hk is kept
    (_mc_test).
    """
    body = b - b % _SCREEN_ALIGN
    sure = n_below = 0
    m = None if k is None else b - k + 1
    bound, top = -np.inf, np.empty(0)
    etas, bases = [], []  # each block's kept draws, in draw order
    r0 = 0
    for eta in blocks:
        base = np.einsum("bi,bi->b", eta, eta)
        lo, hi = _annulus(h, base, eta.shape[1])
        n_body = min(len(eta), body - r0)
        keep = np.zeros(len(eta), dtype=bool)
        if statistic_sq is not None:
            sure += int(np.count_nonzero(lo[:n_body] >= statistic_sq))
            keep = (lo < statistic_sq) & (hi >= statistic_sq)
        if k is not None:
            top = np.concatenate([top, lo[lo >= bound]])
            if len(top) >= m:
                top = np.partition(top, len(top) - m)[len(top) - m :]
                bound = top[0]
            keep |= hi >= bound
        keep[n_body:] = True
        keep[0] |= r0 == 0  # draw 0, which the padding repeats
        n_below += n_body - int(np.count_nonzero(keep[:n_body]))
        etas.append(eta[keep])
        bases.append(base[keep])
        r0 += len(eta)
    del eta, base, lo, hi, keep, top  # the last block, before the kept draws are joined
    eta, base = np.concatenate(etas), np.concatenate(bases)
    del etas, bases
    lo, hi = _annulus(h, base, eta.shape[1])
    n_body = len(base) - (b - body)  # the tail is kept whole, last
    lo_body, hi_body = lo[:n_body], hi[:n_body]
    # Critical-value rank and the draws each purpose must walk.
    rank = k
    in_stat = np.zeros(n_body, dtype=bool)
    if statistic_sq is not None:
        in_stat = (lo_body < statistic_sq) & (hi_body >= statistic_sq)
    in_crit = np.zeros(n_body, dtype=bool)
    if k is not None:
        lk = np.partition(lo, len(lo) - m)[len(lo) - m]
        hk = np.partition(hi, len(hi) - m)[len(hi) - m]
        rank = k - n_below - int(np.count_nonzero(hi_body < lk))
        in_crit = (hi_body >= lk) & (lo_body <= hk)
    groups = [
        np.flatnonzero(in_stat & ~in_crit),
        np.flatnonzero(in_stat & in_crit),
        np.flatnonzero(in_crit & ~in_stat),
    ]
    n_kept = sum(map(len, groups))
    pad = -n_kept % _SCREEN_ALIGN if n_kept else _SCREEN_ALIGN * (body < b)
    rows = np.concatenate([np.zeros(pad, dtype=np.intp), *groups, np.arange(n_body, len(base))])
    c0 = pad + len(groups[0])
    return eta[rows], base[rows], sure, rank, (pad, c0 + len(groups[1]), c0, pad + n_kept)


def _annulus(h: float, base: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The screen's interval [lo, hi] of each draw's squared norms, widened by the slack of _screened_grid."""
    cross = np.sqrt(base)
    cross *= 1.0 + 16.0 * dim * dim * np.finfo(float).eps  # the slack: u = eps / 2
    cross *= 2.0 * h
    lo = h * h - cross
    lo += base
    cross += h * h
    cross += base
    return lo, cross


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
    spec = TestSpec(h, alpha, norm_matrix, mc_draws, seed, method)
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    return _route(spec, sigma, _norm_matrix_of(spec.norm_matrix, sigma), alpha)[1]


def _quadratic(
    diff: np.ndarray, cov: np.ndarray, spec: TestSpec, alpha: float | None = None
) -> tuple[float, str, float | None, float] | None:
    """(statistic, path, critical value, p-value) of diff against cov, floored to PSD.

    None when the floored covariance is exactly zero; the critical value is
    None when alpha is.  The test rejects at alpha exactly when p < alpha.
    """
    sigma = floor_spd(np.atleast_2d(cov))
    if float(np.abs(sigma).max()) == 0.0:
        return None
    a = _norm_matrix_of(spec.norm_matrix, sigma)
    stat = mahalanobis(diff, a)
    return (stat, *_route(spec, sigma, a, alpha, stat * stat))


def formal_p_value(diff: np.ndarray, cov: np.ndarray, spec: TestSpec) -> float:
    """Formal p-value of diff against cov; with no spread in cov, 1.0 if diff is 0, else 0.0."""
    test = _quadratic(diff, cov, spec)
    return test[3] if test else float(not np.any(diff))


def _walks_grid(spec: TestSpec, cov: np.ndarray) -> bool:
    """Whether the test against cov takes the Monte Carlo path, as _quadratic floors and routes it.

    False for a cov that is not finite: the test itself raises its error.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        return False
    sigma = floor_spd(cov)
    a = _norm_matrix_of(spec.norm_matrix, sigma)
    return bool(np.abs(sigma).max() > 0.0) and _exact_ratio(spec, sigma, a) is None


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

    The two are independent, and each draws its own normals.  When a test
    of two or more statistics walks the Monte Carlo grid for both, on at
    least MC_FORK_DRAWS draws, they run as two items of bootstrap.fork_map,
    the heuristic in a forked worker when this process may use two CPUs;
    the report and the error raised are those of running them one after
    the other.
    """
    spec = spec or TestSpec()
    b1 = np.atleast_1d(np.asarray(baseline, dtype=float))
    b2 = np.atleast_1d(np.asarray(adjusted, dtype=float))
    if b1.shape != b2.shape:
        raise ValueError("baseline and adjusted estimates must have the same length")
    diff = b1 - b2

    def formal_test() -> tuple[float, str, float, float]:
        test = _quadratic(diff, diff_cov, spec, spec.alpha)
        if test is not None:
            return test
        # A weight scheme compared against itself: every draw of the
        # difference is identically zero.  No evidence against the null.
        if np.any(diff):
            raise NumericalError(
                "difference covariance is exactly zero but the estimates differ; "
                "the bootstrap draws are inconsistent with the point estimates"
            )
        return 0.0, "zero_cov", spec.h * spec.h, 1.0

    def heuristic() -> float | None:
        return None if baseline_cov is None else formal_p_value(diff, baseline_cov, spec)

    steps = (formal_test, heuristic)
    # A scalar test's grid holds two directions, too little work to repay a fork.
    if (
        baseline_cov is not None
        and len(diff) > 1
        and spec.mc_draws >= MC_FORK_DRAWS
        and _walks_grid(spec, diff_cov)
        and _walks_grid(spec, baseline_cov)
    ):
        (stat, path, crit, p_formal), p_heur = fork_map(lambda i: steps[i](), len(steps))
    else:
        (stat, path, crit, p_formal), p_heur = [step() for step in steps]
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
