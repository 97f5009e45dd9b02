"""Nonparametric bootstrap for joint distributions of estimator vectors.

Every draw is a random weight on each observation of the original dataset:
the bootstrap statistic is the same estimator integrated against a randomly
reweighted empirical measure, so no resampled dataset is ever built.  Draw b
uses a generator derived from the master seed and the draw index alone, so
no draw depends on the order in which the draws are run.

Unit weights (one per cluster or per row, by resample unit):
  - "multinomial": counts ~ Multinomial(U; 1/U, ..., 1/U) over the U units.
  - "multiplier" with distribution "poisson": counts ~ Poisson(1).
  - "multiplier" with distribution "normal": 1 + xi with xi standard
    normal.  Signed weights make this a variance diagnostic, not a
    resampling scheme.
Cluster weights are copied to every row of their cluster.  Count weights
are rescaled to sum to the row count n, so an estimator's fixed 1/n equals
the 1/n_b of the resample the counts describe.

Estimator contract: estimator_fn(data, row_weights) always receives the full
dataset, must honour row_weights in every data-dependent quantity
(thresholds, scales, fits), and returns a fixed-length float vector.  A row
with weight 0 is absent from the draw.  Because every call sees the same
dataset object, work that depends on the data alone is memoized on it (the
sort order of a column, the cluster row blocks) and shared by all draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PanelDataset
from .errors import NumericalError

_CATCHABLE = (ValueError, ArithmeticError, np.linalg.LinAlgError, NumericalError)


@dataclass(frozen=True)
class BootstrapPlan:
    """How to resample: iteration count, seed, unit, and engine."""

    iterations: int = 10_000
    seed: int = 0
    resample_unit: str = "cluster"  # "cluster" | "row"
    engine: str = "multinomial"  # "multinomial" | "multiplier"
    multiplier_distribution: str = "normal"  # "normal" | "poisson"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.resample_unit not in {"cluster", "row"}:
            raise ValueError(f"unknown resample unit {self.resample_unit!r}")
        if self.engine not in {"multinomial", "multiplier"}:
            raise ValueError(f"unknown bootstrap engine {self.engine!r}")
        if self.engine == "multiplier" and self.multiplier_distribution not in {"normal", "poisson"}:
            raise ValueError(f"unknown multiplier distribution {self.multiplier_distribution!r}")


@dataclass(frozen=True)
class BootstrapResult:
    """Draw matrix plus summaries; failed draws are NaN rows.

    cov is the unbiased sample covariance of the successful draws,
    symmetrized; a single-draw result carries a zero matrix by convention.
    """

    draws: np.ndarray
    point: np.ndarray
    cov: np.ndarray
    seed: int
    iterations: int
    n_failed: int
    failed_indices: tuple[int, ...] = ()


def draw_rng(master_seed: int, draw_index: int) -> np.random.Generator:
    """Generator for one draw, derived from (master seed, draw index) only.

    The leading 1 in the spawn key is a stream domain tag: data simulation
    uses bare one-element keys and the test's Monte Carlo uses domain 2, so
    reusing one seed value across components never aliases their streams
    (resample counts must not be built from the same bits as the data).
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(1, draw_index))
    return np.random.default_rng(ss)


def multinomial_counts(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric multinomial repetition counts: sum to n, each mean 1."""
    if n < 1:
        raise ValueError("need at least one unit")
    return rng.multinomial(n, np.full(n, 1.0 / n))


def multiplier_weights(n: int, distribution: str, rng: np.random.Generator) -> np.ndarray:
    """Mean-zero unit-variance multipliers: standard normal or Poisson(1) - 1."""
    if n == 0:
        return np.empty(0)
    if distribution == "normal":
        return rng.standard_normal(n)
    if distribution == "poisson":
        return rng.poisson(1.0, n) - 1.0
    raise ValueError(f"unknown multiplier distribution {distribution!r}")


def _one_draw(data: PanelDataset, plan: BootstrapPlan, estimator_fn, b: int):
    rng = draw_rng(plan.seed, b)
    by_cluster = plan.resample_unit == "cluster"
    n_units = data.n_clusters if by_cluster else data.n_rows
    if plan.engine == "multinomial":
        rho = multinomial_counts(n_units, rng).astype(float)
    else:
        rho = 1.0 + multiplier_weights(n_units, plan.multiplier_distribution, rng)
    if by_cluster:
        rho = rho[data.row_cluster_index]
    if plan.engine == "multinomial" or plan.multiplier_distribution == "poisson":
        total = rho.sum()
        if total == 0:
            raise ValueError("empty multiplier resample")
        if total != data.n_rows:
            rho *= data.n_rows / total
    return estimator_fn(data, rho)


def tolerant_results(count: int, attempt, noun: str, unit: str):
    """Yield attempt(i) as a float vector for i in range(count), or None where that raised.

    A numerical or value error marks i as failed.  After the last result, more
    than max(1, 1% of count) failures raise a NumericalError naming noun and
    unit: count >= 100 keeps the plain 1% rule, a shorter run survives one.
    """
    n_failed = 0
    for i in range(count):
        try:
            value = np.atleast_1d(np.asarray(attempt(i), dtype=float))
        except _CATCHABLE:
            value = None
            n_failed += 1
        yield value
    if n_failed > max(1.0, 0.01 * count):
        raise NumericalError(
            f"{n_failed} of {count} {noun} failed (limit is 1% of {unit}, at least one)"
        )


def bootstrap_pipeline(data: PanelDataset, plan: BootstrapPlan, estimator_fn) -> BootstrapResult:
    """Run the full bootstrap: point estimate, draws, covariance.

    estimator_fn(dataset, row_weights) is always called on `data` itself,
    with all-ones weights for the point estimate and the draw's row weights
    for each draw (count weights sum to n_rows); it must honour row_weights
    and return a fixed-length float vector.  Draws that raise a numerical
    or value error are recorded as missing (NaN rows), within the failure
    limit of tolerant_results.
    """
    point = np.atleast_1d(np.asarray(estimator_fn(data, np.ones(data.n_rows)), dtype=float))
    d = len(point)
    B = plan.iterations
    draws = np.full((B, d), np.nan)
    failed: list[int] = []
    results = tolerant_results(
        B, lambda b: _one_draw(data, plan, estimator_fn, b), "bootstrap draws", "draws"
    )
    for b, val in enumerate(results):
        if val is None:
            failed.append(b)
        elif val.shape != (d,):
            raise ValueError(
                f"estimator returned length {val.shape} on draw {b}, expected {d}"
            )
        else:
            draws[b] = val
    n_ok = int(np.sum(~np.isnan(draws).any(axis=1)))
    cov = bootstrap_cov(draws) if n_ok >= 2 else np.zeros((d, d))
    return BootstrapResult(
        draws=draws,
        point=point,
        cov=cov,
        seed=plan.seed,
        iterations=B,
        n_failed=len(failed),
        failed_indices=tuple(failed),
    )


def bootstrap_cov(draws: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of the non-missing draws, symmetrized."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    ok = draws[~np.isnan(draws).any(axis=1)]
    if len(ok) < 2:
        raise ValueError("need at least two non-missing draws for a covariance")
    d = draws.shape[1]
    cov = np.cov(ok, rowvar=False, ddof=1).reshape(d, d)
    return 0.5 * (cov + cov.T)
