"""Trimmed and Winsorized L-statistics with formal outlier-robustness tests.

The package estimates statistics of the form (1/n) sum_i m(X_i) w_i where
the weights w_i come from data-dependent outlier-adjustment rules (quantile
trimming, residual trimming, Winsorizing), estimates the joint distribution
of full-sample and adjusted estimators by cluster bootstrap (and an analytic
diagnostic), and tests whether adjusting for outliers moved the estimand.
"""

from .analysis import point_estimates, run_analysis
from .bootstrap import (
    BootstrapPlan,
    BootstrapResult,
    bootstrap_cov,
    bootstrap_pipeline,
    multinomial_counts,
    multiplier_weights,
)
from .config import AnalysisConfig
from .dataset import PanelDataset, add_within_cluster_lags
from .errors import DataError, NumericalError, RankDeficiencyError, TrimtestError
from .estimators import (
    RegressionComparison,
    difference_covariance,
    lstat_pair_estimator,
    regression_comparison_estimator,
)
from .lstat import (
    LStatSpec,
    Transform,
    analytic_cov,
    analytic_cov_is_degenerate,
    lstat_eval,
    lstat_eval_via_integral,
    quantile_process_cov_kernel,
)
from .mc_oracle import CoverageReport, DGPSpec, mc_covariance, simulate, size_study
from .plotgrid import PlotGrid, emit_plot_grid, silverman_bandwidth
from .regress import (
    DerivedParams,
    RegressionFit,
    RegressionModel,
    derived_params,
    sigma_hat,
    weighted_2sls,
    weighted_ols,
)
from .report import ReportBundle, regenerate_report, write_outputs
from .robustness import (
    TestReport,
    TestSpec,
    critical_value,
    mahalanobis,
    robustness_test,
)
from .weights import (
    ResidualContext,
    WeightFunction,
    WeightScheme,
    compute_weights,
    weighted_quantile_threshold,
    weights_quantile_trim,
    weights_residual_trim,
    weights_winsorize,
)

__version__ = "0.1.0"
