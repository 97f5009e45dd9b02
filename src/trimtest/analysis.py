"""The pipeline: config -> data -> bootstrap -> tests -> report bundle.

This module owns the order of the stages a run goes through and what each
one computes; `config` reads the settings and `report` writes the files.
`run_analysis` loads the data, adds the configured lags, draws every
comparison's bootstrap in one shared pass and tests each comparison, and
returns the ReportBundle that `report.write_outputs` writes.  Failures are
re-raised with the pipeline stage in the message.
"""

from __future__ import annotations

import numpy as np

from .bootstrap import bootstrap_pipeline
from .config import AnalysisConfig
from .csvio import LoadReport, load_csv
from .dataset import PanelDataset, add_within_cluster_lags
from .errors import stage
from .estimators import comparison_estimator, comparison_tests
from .lstat import analytic_cov, analytic_cov_is_degenerate
from .report import ComparisonResult, ReportBundle, report_bundle, write_outputs  # noqa: F401 (re-exported)
from .weights import compute_weights


def _prepared_data(
    config: AnalysisConfig, data: PanelDataset | None
) -> tuple[PanelDataset, LoadReport]:
    if data is None:
        with stage("load"):
            data, load_report = load_csv(config.input_path, config.cluster_column)
    else:
        load_report = LoadReport(data.n_rows, 0, {})
    with stage("lags"):
        for lag in config.lags:
            data = add_within_cluster_lags(data, **lag)
    return data, load_report


def point_estimates(
    config: AnalysisConfig, data: PanelDataset | None = None
) -> dict[str, dict]:
    """Evaluate every comparison once on the full sample, skipping the bootstrap.

    Returns a mapping from comparison name to labels and the baseline and
    adjusted statistic vectors.
    """
    data, _ = _prepared_data(config, data)
    out = {}
    for c in config.comparisons:
        estimator, labels, _ = comparison_estimator(config.model, c.baseline_scheme, c.adjusted_scheme)
        with stage(f"estimate:{c.name}"):
            stacked = np.asarray(estimator(data, np.ones(data.n_rows)), dtype=float)
        d = len(labels)
        out[c.name] = {
            "labels": list(labels),
            "baseline": stacked[:d].tolist(),
            "adjusted": stacked[d:].tolist(),
        }
    return out


def run_analysis(config: AnalysisConfig, data: PanelDataset | None = None) -> ReportBundle:
    """Execute the full pipeline described by the config.

    Stages, in order: [load] and [lags]; one bootstrap pass that draws each
    block once and gives it to every comparison's estimator, its errors
    reported under [bootstrap:<name>] of the comparison they concern; then,
    comparison by comparison in config order, [test:<name>] and
    [analytic:<name>].
    """
    data, load_report = _prepared_data(config, data)
    built = [comparison_estimator(config.model, c.baseline_scheme, c.adjusted_scheme) for c in config.comparisons]
    estimators = [(f"bootstrap:{c.name}", estimator) for c, (estimator, _, _) in zip(config.comparisons, built)]
    parts = bootstrap_pipeline(data, config.plan, estimators).parts
    results = []
    for comparison, (_, labels, lstat_specs), part in zip(config.comparisons, built, parts):
        flags = {}
        with stage(f"test:{comparison.name}"):
            tests = comparison_tests(labels, part.point, part.cov, config.test)
        analytic = None
        if config.include_analytic_cov and lstat_specs is not None:
            with stage(f"analytic:{comparison.name}"):
                weights = [compute_weights(s.scheme, data) for s in lstat_specs]
                analytic = analytic_cov(lstat_specs, data, weights)
                flags["analytic_cov_degenerate_all_ones"] = analytic_cov_is_degenerate(weights)
        results.append(
            ComparisonResult(
                name=comparison.name,
                labels=labels,
                bootstrap=part,
                tests=tests,
                flags=flags,
                analytic=analytic,
            )
        )
    return report_bundle(config, load_report, results)
