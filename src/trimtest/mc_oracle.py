"""Simulation harness: data generators, ground-truth covariances, size studies.

Everything here is deterministic given the DGP description and the seed;
replication r uses a generator derived from (seed, r) so results do not
depend on execution order.  The Monte Carlo covariance across fresh datasets is the
ground truth that bootstrap and analytic covariance estimators are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import BootstrapPlan, attempt, bootstrap_pipeline, check_failures
from .dataset import PanelDataset
from .errors import NumericalError, stage
from .estimators import (
    RegressionComparison,
    difference_covariance,
    regression_comparison_estimator,
)
from .regress import RegressionModel
from .robustness import TestSpec, robustness_test
from .weights import WeightScheme

_LAWS = {"normal", "uniform", "lognormal", "student_t"}


@dataclass(frozen=True)
class DGPSpec:
    """Data-generating process description.

    kind "univariate": one column "x" with the given law, each row its own
    cluster.  kind "linear_regression": y = intercept + slope * x + error
    with exogenous normal errors; with instrument_strength > 0 an instrument
    z is generated and x = strength * z + noise.  kind "panel": n_clusters
    clusters with sizes uniform on [t_min, t_max] and the same linear
    outcome equation.

    Trimmed columns need a bit more than two moments, so student_t requires
    df > 2.
    """

    kind: str
    n: int = 100
    law: str = "normal"
    loc: float = 0.0
    scale: float = 1.0
    df: float = 5.0
    intercept: float = 0.0
    slope: float = 1.0
    error_scale: float = 1.0
    instrument_strength: float = 0.0
    n_clusters: int = 0
    t_min: int = 1
    t_max: int = 1

    def __post_init__(self):
        if self.kind not in {"univariate", "linear_regression", "panel"}:
            raise ValueError(f"unknown DGP kind {self.kind!r}")
        for name, value in (("scale", self.scale), ("error_scale", self.error_scale)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.law not in _LAWS:
            raise ValueError(f"unknown law {self.law!r}")
        if self.law == "student_t" and self.df <= 2.0:
            raise ValueError(
                "student_t needs df > 2: trimmed-column theory requires slightly "
                "more than two finite moments"
            )
        if self.kind == "panel":
            if self.n_clusters < 1 or self.t_min < 1 or self.t_max < self.t_min:
                raise ValueError("panel needs n_clusters >= 1 and 1 <= t_min <= t_max")
        elif self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def columns(self) -> tuple[str, ...]:
        """The columns simulate() draws."""
        if self.kind == "univariate":
            return ("x",)
        if self.kind == "panel":
            return ("x", "y", "period")
        return ("z", "x", "y") if self.instrument_strength > 0.0 else ("x", "y")

    @classmethod
    def univariate(cls, law: str, n: int, loc: float = 0.0, scale: float = 1.0, df: float = 5.0):
        return cls("univariate", n=n, law=law, loc=loc, scale=scale, df=df)

    @classmethod
    def linear_regression(
        cls,
        n: int,
        intercept: float = 0.0,
        slope: float = 1.0,
        error_scale: float = 1.0,
        instrument_strength: float = 0.0,
    ):
        return cls(
            "linear_regression",
            n=n,
            intercept=intercept,
            slope=slope,
            error_scale=error_scale,
            instrument_strength=instrument_strength,
        )

    @classmethod
    def panel(
        cls,
        n_clusters: int,
        t_min: int,
        t_max: int,
        intercept: float = 0.0,
        slope: float = 1.0,
        error_scale: float = 1.0,
    ):
        return cls(
            "panel",
            n_clusters=n_clusters,
            t_min=t_min,
            t_max=t_max,
            intercept=intercept,
            slope=slope,
            error_scale=error_scale,
        )


@dataclass(frozen=True)
class CoverageReport:
    """Rejection-rate summary of a size (or power) study."""

    rejections: int
    reps: int
    rate: float
    std_error: float
    alpha: float
    h: float
    seed: int


def _rng_for_rep(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _draw_law(rng: np.random.Generator, dgp: DGPSpec, size: int) -> np.ndarray:
    if dgp.law == "normal":
        return rng.normal(dgp.loc, dgp.scale, size)
    if dgp.law == "uniform":
        return rng.uniform(dgp.loc, dgp.loc + dgp.scale, size)
    if dgp.law == "lognormal":
        return rng.lognormal(dgp.loc, dgp.scale, size)
    return dgp.loc + dgp.scale * rng.standard_t(dgp.df, size)


def simulate(dgp: DGPSpec, seed: int) -> PanelDataset:
    """One dataset from the DGP, deterministic given (dgp, seed)."""
    rng = _rng_for_rep(seed, 0)
    if dgp.kind == "univariate":
        x = _draw_law(rng, dgp, dgp.n)
        return PanelDataset({"x": x}, np.arange(dgp.n))
    if dgp.kind == "linear_regression":
        n = dgp.n
        eps = rng.normal(0.0, dgp.error_scale, n)
        cols: dict[str, np.ndarray] = {}
        if dgp.instrument_strength > 0.0:
            z = rng.normal(0.0, 1.0, n)
            v = rng.normal(0.0, 1.0, n)
            x = dgp.instrument_strength * z + np.sqrt(max(0.0, 1.0 - dgp.instrument_strength**2)) * v
            cols["z"] = z
        else:
            x = rng.normal(0.0, 1.0, n)
        cols["x"] = x
        cols["y"] = dgp.intercept + dgp.slope * x + eps
        return PanelDataset(cols, np.arange(n))
    sizes = rng.integers(dgp.t_min, dgp.t_max + 1, dgp.n_clusters)
    total = int(sizes.sum())
    x = rng.normal(0.0, 1.0, total)
    eps = rng.normal(0.0, dgp.error_scale, total)
    y = dgp.intercept + dgp.slope * x + eps
    ids = np.repeat(np.arange(dgp.n_clusters), sizes)
    period = np.concatenate([np.arange(s) for s in sizes]).astype(float)
    return PanelDataset({"x": x, "y": y, "period": period}, ids)


def mc_covariance(
    dgp: DGPSpec, estimator_fn, reps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth covariance of sqrt(n) * (statistic - MC mean) across reps.

    Returns (covariance, mean vector).  estimator_fn(dataset, row_weights)
    is the same callable the bootstrap uses.  A replication whose simulation
    or estimate raises a numerical or value error is dropped, within the
    failure limit of check_failures that bootstrap_pipeline also uses.
    """
    # Every simulated dataset has this many clusters: one per row unless a panel.
    n_units = dgp.n_clusters if dgp.kind == "panel" else dgp.n

    def replicate(r: int):
        data = simulate(dgp, _child_seed(seed, r))
        return estimator_fn(data, np.ones(data.n_rows))

    results = [attempt(replicate, r) for r in range(reps)]
    stats_list = [v for v in results if v is not None]
    check_failures(reps - len(stats_list), reps, "Monte Carlo replications", "reps")
    if len(stats_list) < 2:
        raise NumericalError(f"only {len(stats_list)} of {reps} Monte Carlo replications succeeded")
    stats = np.vstack(stats_list)
    mean = stats.mean(axis=0)
    centered = np.sqrt(n_units) * (stats - mean)
    cov = centered.T @ centered / (len(stats) - 1)
    return 0.5 * (cov + cov.T), mean


def _child_seed(seed: int, rep: int) -> int:
    # distinct deterministic per-rep entropy; simulate() itself spawns key 0
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(1)[0])


def size_study(
    dgp: DGPSpec, analysis_fn, reps: int = 100, seed: int = 0, alpha: float = 0.05, h: float = 0.0
) -> CoverageReport:
    """Rejection rate of analysis_fn(dataset, seed) -> bool over fresh data.

    The per-rep seed feeds the inner bootstrap so replications are
    independent and the whole study is reproducible.  A failure of a
    replication is reported in the `mc` stage.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rejections = 0
    with stage("mc"):
        for r in range(reps):
            rep_seed = _child_seed(seed, r)
            data = simulate(dgp, rep_seed)
            if analysis_fn(data, rep_seed):
                rejections += 1
    rate = rejections / reps
    se = float(np.sqrt(rate * (1.0 - rate) / reps)) if 0 < rate < 1 else float(
        np.sqrt(alpha * (1.0 - alpha) / reps)
    )
    return CoverageReport(
        rejections=rejections, reps=reps, rate=rate, std_error=se, alpha=alpha, h=h, seed=seed
    )


def residual_trim_size_analysis(
    multiplier: float = 1.96,
    inner_iterations: int = 299,
    alpha: float = 0.05,
    h: float = 0.0,
    coefficient: str = "x",
):
    """analysis_fn for the canonical size study: OLS vs residual-trimmed OLS.

    Fits outcome on the regressor with an intercept, trims at
    multiplier * residual scale, bootstraps the pair, and runs the formal
    test on the reported coefficient.  The settings are checked here, once;
    each replication's seed feeds both its bootstrap and its test.
    """
    comparison = RegressionComparison(
        model=RegressionModel(outcome="y", regressors=(coefficient,)),
        baseline_scheme=WeightScheme.all_ones(),
        adjusted_scheme=WeightScheme.residual_trim(multiplier),
        report_coefficients=(coefficient,),
    )
    estimator = regression_comparison_estimator(comparison)
    dim = comparison.dim
    plan = BootstrapPlan(iterations=inner_iterations, resample_unit="cluster")
    spec = TestSpec(h=h, alpha=alpha)

    def analyze(data: PanelDataset, rep_seed: int) -> bool:
        result = bootstrap_pipeline(data, replace(plan, seed=rep_seed), estimator)
        b1, b2 = result.point[:dim], result.point[dim:]
        sig_d = difference_covariance(result.cov, dim)
        return robustness_test(b1, b2, sig_d, replace(spec, seed=rep_seed)).reject

    return analyze
