"""Nonparametric bootstrap for joint distributions of estimator vectors.

Every draw is a random weight on each observation of the original dataset:
the bootstrap statistic is the same estimator integrated against a randomly
reweighted empirical measure, so no resampled dataset is ever built.  Draw b
uses a generator derived from the master seed and the draw index alone, so
draw b's weights do not depend on the order in which the draws are run.

Unit weights (one per cluster or per row, by resample unit):
  - "multinomial": counts ~ Multinomial(U; 1/U, ..., 1/U) over the U units.
  - "multiplier" with distribution "poisson": counts ~ Poisson(1).
  - "multiplier" with distribution "normal": 1 + xi with xi standard
    normal.  Signed weights make this a variance diagnostic, not a
    resampling scheme.
Cluster weights are copied to every row of their cluster.  Count weights
are rescaled to sum to the row count n, so an estimator's fixed 1/n equals
the 1/n_b of the resample the counts describe.  A count draw whose counts
are all zero is an empty resample and fails.

Draws run in blocks: a block of K draws is one K x n matrix of row weights,
K = BLOCK_ENTRIES // n, so the layout depends on (n, B) alone.

Estimator contract: estimator_fn(data, row_weights) always receives the full
dataset, must honour row_weights in every data-dependent quantity
(thresholds, scales, fits), and returns a fixed-length float vector.  A row
with weight 0 is absent from the draw.  A BlockEstimator also evaluates a
whole block, block(data, W) -> K x d, row k the estimate under W[k]; a
plain callable is called once per draw.  Draw b's weights depend on
(seed, b) alone.  A block estimate may differ from the one-draw estimate in
the last bits; the layout depends on (n, B) alone, so outputs are
byte-identical from run to run.  Because every call sees the same dataset object, work that
depends on the data alone is memoized on it (the sort order of a column,
the cluster row blocks) and shared by all draws.

Failures: a draw fails when its estimate raises a numerical or value
error.  A block call that raises is evaluated again one draw at a time, so
a draw fails exactly when its one-draw evaluation raises, and at the same
index.  More than max(1, 1%) failed draws abort (check_failures, shared
with the Monte Carlo covariance).
"""

from __future__ import annotations

from collections.abc import Callable
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


@dataclass(frozen=True)
class BlockEstimator:
    """An estimator that also evaluates a block of draws in one call.

    block(data, W) maps a K x n_rows matrix of row weights to a K x d
    matrix whose row k is the estimate under row weights W[k], and raises
    when any draw of the block cannot be evaluated.  Calling the estimator
    on one weight vector is the block of that one draw.
    """

    block: Callable[[PanelDataset, np.ndarray], np.ndarray]

    def __call__(self, data: PanelDataset, row_weights: np.ndarray) -> np.ndarray:
        return self.block(data, np.asarray(row_weights, dtype=float)[None])[0]


# Row weights in one block of draws: 32 draws of a 1000-row dataset.  A
# block fit holds a few K x n temporaries at once, so this bounds its
# memory; blocks twice as large were no faster.
BLOCK_ENTRIES = 1 << 15


def _draw_block(
    data: PanelDataset, plan: BootstrapPlan, draws: range
) -> tuple[np.ndarray, np.ndarray]:
    """Row weights of the given draws, one row each, and which draws are empty resamples."""
    by_cluster = plan.resample_unit == "cluster"
    n_units = data.n_clusters if by_cluster else data.n_rows
    units = np.empty((len(draws), n_units))
    for i, b in enumerate(draws):
        rng = draw_rng(plan.seed, b)
        if plan.engine == "multinomial":
            units[i] = multinomial_counts(n_units, rng)
        else:
            units[i] = 1.0 + multiplier_weights(n_units, plan.multiplier_distribution, rng)
    rho = units[:, data.row_cluster_index] if by_cluster else units
    empty = np.zeros(len(draws), dtype=bool)
    if plan.engine == "multinomial" or plan.multiplier_distribution == "poisson":
        total = rho.sum(axis=1)
        empty = total == 0
        rho *= (data.n_rows / np.where(empty, 1.0, total))[:, None]
    return rho, empty


def attempt(fn, *args) -> np.ndarray | None:
    """fn(*args) as a float vector, or None when it raised a numerical or value error."""
    try:
        return np.atleast_1d(np.asarray(fn(*args), dtype=float))
    except _CATCHABLE:
        return None


def check_failures(n_failed: int, count: int, noun: str, unit: str) -> None:
    """Raise a NumericalError when more than max(1, 1% of count) attempts failed.

    count >= 100 keeps the plain 1% rule, a shorter run survives one failure.
    """
    if n_failed > max(1.0, 0.01 * count):
        raise NumericalError(
            f"{n_failed} of {count} {noun} failed (limit is 1% of {unit}, at least one)"
        )


def _block_values(data: PanelDataset, estimator_fn, rho: np.ndarray) -> list:
    """Each draw's estimate as a float vector, or None where it failed."""
    if isinstance(estimator_fn, BlockEstimator) and len(rho):
        try:
            return list(np.asarray(estimator_fn.block(data, rho), dtype=float))
        except _CATCHABLE:
            pass  # find the failed draws one at a time
    return [attempt(estimator_fn, data, w) for w in rho]


def bootstrap_pipeline(data: PanelDataset, plan: BootstrapPlan, estimator_fn) -> BootstrapResult:
    """Run the full bootstrap: point estimate, draws, covariance.

    estimator_fn(dataset, row_weights) is always called on `data` itself,
    with all-ones weights for the point estimate and the draw's row weights
    for each draw (count weights sum to n_rows); it must honour row_weights
    and return a fixed-length float vector.  A BlockEstimator gets a block
    of draws per call.  Draws that raise a numerical or value error are
    recorded as missing (NaN rows), within the limit of check_failures.
    """
    point = np.atleast_1d(np.asarray(estimator_fn(data, np.ones(data.n_rows)), dtype=float))
    d = len(point)
    B = plan.iterations
    draws = np.full((B, d), np.nan)
    failed: list[int] = []
    size = max(1, BLOCK_ENTRIES // max(data.n_rows, 1))
    for start in range(0, B, size):
        block = range(start, min(B, start + size))
        rho, empty = _draw_block(data, plan, block)
        values = iter(_block_values(data, estimator_fn, rho[~empty] if empty.any() else rho))
        for b, is_empty in zip(block, empty):
            val = None if is_empty else next(values)
            if val is None:
                failed.append(b)
            elif val.shape != (d,):
                raise ValueError(
                    f"estimator returned length {val.shape} on draw {b}, expected {d}"
                )
            else:
                draws[b] = val
    check_failures(len(failed), B, "bootstrap draws", "draws")
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
