"""End-to-end analysis: config -> data -> bootstrap -> tests -> reports.

The configuration is a JSON document (objects, arrays, scalars).  A run
produces a ReportBundle holding point estimates, bootstrap draws,
covariances with provenance, per-coefficient and joint robustness tests,
and a formatted comparison table.  Machine-readable outputs are
deterministic: identical config and seeds give byte-identical files
regardless of thread count.  Failures are re-raised with the pipeline stage
in the message.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .bootstrap import BootstrapPlan, BootstrapResult, bootstrap_cov, bootstrap_pipeline
from .csvio import (
    LoadReport,
    atomic_write_text,
    draws_csv_text,
    grid_csv_text,
    load_csv,
    read_draws_csv,
)
from .dataset import PanelDataset, add_within_cluster_lags
from .errors import DataError, TrimtestError
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
)
from .plotgrid import emit_plot_grid
from .regress import RegressionModel
from .robustness import TestSpec, robustness_test
from .weights import WeightScheme, compute_weights


@contextmanager
def _stage(name: str):
    try:
        yield
    except (TrimtestError, ValueError, KeyError) as exc:
        first = str(exc.args[0]) if exc.args else type(exc).__name__
        exc.args = (f"[{name}] {first}",) + tuple(exc.args[1:])
        raise


# The keys README documents for each config section; any other key is refused.
_ROOT_KEYS = frozenset(
    "input cluster_column model weights comparisons lags bootstrap test output mc".split()
)
_MODEL_KEYS = frozenset(
    "type outcome regressors fixed_effects intercept normalization report_coefficients"
    " endogenous instruments derived statistics".split()
)
_DERIVED_KEYS = frozenset({"effect", "lags", "horizon"})
_BOOTSTRAP_KEYS = frozenset(
    {"iterations", "seed", "resample_unit", "engine", "multiplier_distribution"}
)
_TEST_KEYS = frozenset({"alpha", "h", "norm", "mc_draws", "seed", "method"})
_OUTPUT_KEYS = frozenset({"directory", "plot_pairs", "analytic_cov"})
_MC_KEYS = frozenset("dgp reps seed alpha h multiplier inner_iterations coefficient".split())
_STATISTIC_KEYS = frozenset({"column", "transform", "name"})
_LAG_KEYS = frozenset({"column", "count"})
# Keys, and which of them are real numbers, per weight-scheme and transform kind.
_BOUNDS = frozenset({"lower_q", "upper_q"})
_SCHEME_KEYS = {
    "all_ones": frozenset(),
    "quantile_trim": frozenset({"columns"}) | _BOUNDS,
    "winsorize": frozenset({"columns"}) | _BOUNDS,
    "residual_trim": frozenset({"multiplier"}),
    "custom": frozenset({"values"}),
}
_TRANSFORM_KEYS = {
    "identity": frozenset(),
    "power": frozenset({"exponent"}),
    "table": frozenset({"x", "y", "dy"}),
}
_REAL_KEYS = _BOUNDS | {"multiplier", "exponent"}


def _known_keys(section, allowed: frozenset, name: str) -> dict:
    """The section, once it is an object holding only allowed keys."""
    if not isinstance(section, dict):
        raise DataError(f"{name} must be an object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise DataError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return section


def config_int(value, name: str) -> int:
    """An integer setting (count or seed); fractions, bools and strings are refused."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_float(value, name: str) -> float:
    """A real-valued setting; integers are accepted, bools and strings refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{name} must be a number, got {value!r}")
    return float(value)


def config_names(value, name: str) -> tuple[str, ...]:
    """A list of column or coefficient names; a bare string and non-string entries are refused."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{name} must be a list of names, got {value!r}")
    return tuple(value)


def _kind_section(raw, keys_by_kind: dict, name: str, default_kind: str | None = None) -> dict:
    """A scheme or transform object checked against its kind's keys, reals as floats.

    An unknown kind passes through for the kind's own constructor to refuse.
    """
    if not isinstance(raw, dict):
        raise DataError(f"{name} must be an object")
    kind = raw.get("kind", default_kind)
    if isinstance(kind, str) and kind in keys_by_kind:
        _known_keys(raw, keys_by_kind[kind] | {"kind"}, name)
    return {k: config_float(v, f"{name}.{k}") if k in _REAL_KEYS else v for k, v in raw.items()}


def mc_section(raw: dict) -> dict:
    """The mc section of a config, with the keys of every section it reads checked."""
    with _stage("config"):
        _known_keys(raw, _ROOT_KEYS, "config root")
        _known_keys(raw.get("output", {}), _OUTPUT_KEYS, "output")
        if not raw.get("mc"):
            raise DataError("config has no mc section")
        return _known_keys(raw["mc"], _MC_KEYS, "mc")


def _statistic(raw, name: str) -> LStatSpec:
    entry = _known_keys(raw, _STATISTIC_KEYS, name)
    transform = _kind_section(
        entry.get("transform", {}), _TRANSFORM_KEYS, f"{name}.transform", "identity"
    )
    return LStatSpec(
        column=entry["column"],
        transform=Transform.from_dict(transform),
        name=entry.get("name", entry["column"]),
    )


@dataclass(frozen=True)
class Comparison:
    """One baseline/adjusted estimator pair to run and test."""

    name: str
    baseline_scheme: WeightScheme
    adjusted_scheme: WeightScheme


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated analysis description; build from a dict with from_dict."""

    input_path: str
    cluster_column: str | None
    mode: str  # "regression" | "lstat"
    model: RegressionModel | None
    statistics: tuple[LStatSpec, ...]
    comparisons: tuple[Comparison, ...]
    report_coefficients: tuple[str, ...]
    derived_effect: str
    derived_lags: tuple[str, ...]
    derived_horizon: int
    plan: BootstrapPlan
    test: TestSpec
    output_dir: str
    plot_pairs: tuple = ()
    lags: tuple = ()
    include_analytic_cov: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        with _stage("config"):
            _known_keys(raw, _ROOT_KEYS, "config root")
            for key in ("input", "model"):
                if key not in raw:
                    raise DataError(f"config is missing required key {key!r}")
            model_raw = _known_keys(raw["model"], _MODEL_KEYS, "model")
            mtype = model_raw.get("type", "ols")
            if mtype not in {"ols", "iv", "lstat"}:
                raise DataError(f"unknown model type {mtype!r}")
            comparisons = _parse_comparisons(raw)
            statistics: tuple[LStatSpec, ...] = ()
            model = None
            report_coefficients: tuple[str, ...] = ()
            derived_effect = ""
            derived_lags: tuple[str, ...] = ()
            derived_horizon = 25
            if mtype == "lstat":
                stats_raw = model_raw.get("statistics")
                if not stats_raw:
                    raise DataError("lstat model requires a statistics list")
                statistics = tuple(
                    _statistic(e, f"model.statistics[{i}]") for i, e in enumerate(stats_raw)
                )
            else:
                endog = config_names(model_raw.get("endogenous", []), "model.endogenous")
                instr = config_names(model_raw.get("instruments", []), "model.instruments")
                if mtype == "iv" and not endog:
                    raise DataError("iv model requires endogenous and instruments lists")
                if mtype == "ols":
                    endog, instr = (), ()
                model = RegressionModel(
                    outcome=model_raw["outcome"],
                    regressors=config_names(model_raw.get("regressors", []), "model.regressors"),
                    endogenous=endog,
                    instruments=instr,
                    fixed_effects=config_names(
                        model_raw.get("fixed_effects", []), "model.fixed_effects"
                    ),
                    intercept=bool(model_raw.get("intercept", True)),
                    normalization=model_raw.get("normalization", "equal"),
                )
                report_coefficients = config_names(
                    model_raw.get("report_coefficients", list(model.regressors)),
                    "model.report_coefficients",
                )
                derived = model_raw.get("derived")
                if derived:
                    _known_keys(derived, _DERIVED_KEYS, "model.derived")
                    derived_effect = derived["effect"]
                    derived_lags = config_names(derived["lags"], "model.derived.lags")
                    horizon = derived.get("horizon", 25)
                    derived_horizon = config_int(horizon, "model.derived.horizon")
                # Under fixed effects no name depends on the data.
                for key, names in (
                    ("model.report_coefficients", report_coefficients),
                    ("model.derived.effect", (derived_effect,) if derived_effect else ()),
                    ("model.derived.lags", derived_lags),
                ):
                    unknown = [c for c in names if c not in model.named_coefficients]
                    if unknown:
                        raise DataError(
                            f"{key} names {', '.join(map(repr, unknown))}, not a model "
                            f"coefficient ({', '.join(model.named_coefficients)})"
                        )
            boot_raw = _known_keys(raw.get("bootstrap", {}), _BOOTSTRAP_KEYS, "bootstrap")
            plan = BootstrapPlan(
                iterations=config_int(boot_raw.get("iterations", 10_000), "bootstrap.iterations"),
                seed=config_int(boot_raw.get("seed", 0), "bootstrap.seed"),
                resample_unit=boot_raw.get("resample_unit", "cluster"),
                engine=boot_raw.get("engine", "multinomial"),
                multiplier_distribution=boot_raw.get("multiplier_distribution", "normal"),
            )
            test_raw = _known_keys(raw.get("test", {}), _TEST_KEYS, "test")
            test = TestSpec(
                h=config_float(test_raw.get("h", 0.0), "test.h"),
                alpha=config_float(test_raw.get("alpha", 0.05), "test.alpha"),
                norm_matrix=test_raw.get("norm", "diff_cov"),
                mc_draws=config_int(test_raw.get("mc_draws", 100_000), "test.mc_draws"),
                seed=config_int(test_raw.get("seed", 0), "test.seed"),
                method=test_raw.get("method", "auto"),
            )
            out_raw = _known_keys(raw.get("output", {}), _OUTPUT_KEYS, "output")
            lag_entries = [
                _known_keys(e, _LAG_KEYS, f"lags[{i}]") for i, e in enumerate(raw.get("lags", ()))
            ]
            lags = tuple((e["column"], config_int(e["count"], "lags.count")) for e in lag_entries)
            return cls(
                input_path=raw["input"],
                cluster_column=raw.get("cluster_column"),
                mode="lstat" if mtype == "lstat" else "regression",
                model=model,
                statistics=statistics,
                comparisons=comparisons,
                report_coefficients=report_coefficients,
                derived_effect=derived_effect,
                derived_lags=derived_lags,
                derived_horizon=derived_horizon,
                plan=plan,
                test=test,
                output_dir=out_raw.get("directory", "trimtest-output"),
                plot_pairs=tuple(tuple(p) if isinstance(p, list) else p for p in out_raw.get("plot_pairs", ())),
                lags=lags,
                include_analytic_cov=bool(out_raw.get("analytic_cov", False)),
            )

    @classmethod
    def from_json_file(cls, path: str) -> "AnalysisConfig":
        return cls.from_dict(read_json_config(path))

    def override(self, seed=None, iterations=None, output_dir=None) -> "AnalysisConfig":
        plan_changes = {"seed": seed, "iterations": iterations}
        plan = replace(self.plan, **{k: v for k, v in plan_changes.items() if v is not None})
        return replace(
            self, plan=plan, output_dir=self.output_dir if output_dir is None else output_dir
        )


def read_json_config(path: str) -> dict:
    """Parsed JSON config; an unreadable or malformed file is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc


def _parse_comparisons(raw: dict) -> tuple[Comparison, ...]:
    entries = raw.get("comparisons")
    where = "comparisons[{}]"
    if entries is None:
        weights = raw.get("weights")
        if weights is None:
            raise DataError("config needs a weights object or a comparisons list")
        entries = [{"name": "main", "weights": weights}]
        where = "weights"
    elif not isinstance(entries, list):
        raise DataError(f"comparisons must be a list of objects, got {entries!r}")
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise DataError(f"comparisons[{i}] must be an object, got {e!r}")
        w = e.get("weights", e)
        if not isinstance(w, dict):
            name = "weights" if where == "weights" else f"comparisons[{i}].weights"
            raise DataError(f"{name} must be an object, got {w!r}")
        extra = set(w) - {"baseline", "adjusted", "name"}
        if "baseline" not in w or "adjusted" not in w:
            raise DataError(
                "each comparison needs exactly a baseline and an adjusted weight scheme"
            )
        if extra:
            raise DataError(f"unexpected keys in comparison weights: {sorted(extra)}")
        out.append(
            Comparison(
                name=e.get("name", "main"),
                baseline_scheme=WeightScheme.from_dict(
                    _kind_section(w["baseline"], _SCHEME_KEYS, f"{where.format(i)}.baseline")
                ),
                adjusted_scheme=WeightScheme.from_dict(
                    _kind_section(w["adjusted"], _SCHEME_KEYS, f"{where.format(i)}.adjusted")
                ),
            )
        )
    names = [c.name for c in out]
    if len(set(names)) != len(names):
        raise DataError("comparison names must be unique")
    return tuple(out)


@dataclass(frozen=True)
class ComparisonResult:
    """Everything computed for one baseline/adjusted pair."""

    name: str
    labels: tuple[str, ...]
    baseline: np.ndarray
    adjusted: np.ndarray
    bootstrap: BootstrapResult
    diff_cov: np.ndarray
    coefficient_tests: tuple
    joint_test: object
    flags: dict = field(default_factory=dict)
    analytic: np.ndarray | None = None


@dataclass(frozen=True)
class ReportBundle:
    """Full analysis output: results, table text, and draw matrices."""

    config: AnalysisConfig
    load_report: LoadReport
    results: tuple[ComparisonResult, ...]
    table_text: str
    results_dict: dict


def _build_estimator(config: AnalysisConfig, comparison: Comparison):
    if config.mode == "lstat":
        base_specs = [
            LStatSpec(s.column, s.transform, comparison.baseline_scheme, s.name)
            for s in config.statistics
        ]
        adj_specs = [
            LStatSpec(s.column, s.transform, comparison.adjusted_scheme, s.name)
            for s in config.statistics
        ]
        labels = tuple(s.label() for s in base_specs)
        return lstat_pair_estimator(base_specs, adj_specs), labels, (base_specs, adj_specs)
    rcomp = RegressionComparison(
        model=config.model,
        baseline_scheme=comparison.baseline_scheme,
        adjusted_scheme=comparison.adjusted_scheme,
        report_coefficients=config.report_coefficients,
        derived_effect=config.derived_effect,
        derived_lags=config.derived_lags,
        derived_horizon=config.derived_horizon,
    )
    return regression_comparison_estimator(rcomp), rcomp.stat_labels(), None


def _prepared_data(
    config: AnalysisConfig, data: PanelDataset | None
) -> tuple[PanelDataset, LoadReport]:
    if data is None:
        with _stage("load"):
            data, load_report = load_csv(config.input_path, config.cluster_column)
    else:
        load_report = LoadReport(data.n_rows, 0, {})
    with _stage("lags"):
        for column, count in config.lags:
            data = add_within_cluster_lags(data, column, count)
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
    for comparison in config.comparisons:
        estimator, labels, _ = _build_estimator(config, comparison)
        with _stage(f"estimate:{comparison.name}"):
            stacked = np.asarray(estimator(data, np.ones(data.n_rows)), dtype=float)
        d = len(labels)
        out[comparison.name] = {
            "labels": list(labels),
            "baseline": [float(v) for v in stacked[:d]],
            "adjusted": [float(v) for v in stacked[d:]],
        }
    return out


def _robustness_tests(
    b1: np.ndarray, b2: np.ndarray, cov: np.ndarray, diff_cov: np.ndarray, spec: TestSpec
) -> tuple[tuple, object]:
    """Per-coefficient tests, then the joint test over all d statistics.

    cov is the stacked 2d x 2d bootstrap covariance (its baseline block
    feeds the heuristic p-value); diff_cov is the d x d difference block.
    An explicit d x d norm matrix A tests statistic j alone in the norm
    [[A[j, j]]].
    """
    d = len(b1)
    coef_specs = [spec] * d
    if not isinstance(spec.norm_matrix, str):
        a = np.atleast_2d(np.asarray(spec.norm_matrix, dtype=float))
        if a.shape != (d, d):
            raise DataError(f"test.norm must be a {d} x {d} matrix, got shape {a.shape}")
        coef_specs = [replace(spec, norm_matrix=[[float(a[j, j])]]) for j in range(d)]
    coef_tests = tuple(
        robustness_test(
            b1[j : j + 1],
            b2[j : j + 1],
            np.array([[float(diff_cov[j, j])]]),
            coef_specs[j],
            baseline_cov=np.array([[float(cov[j, j])]]),
        )
        for j in range(d)
    )
    joint = robustness_test(b1, b2, diff_cov, spec, baseline_cov=cov[:d, :d])
    return coef_tests, joint


def run_analysis(
    config: AnalysisConfig, n_threads: int = 1, data: PanelDataset | None = None
) -> ReportBundle:
    """Execute the full pipeline described by the config."""
    data, load_report = _prepared_data(config, data)
    results = []
    for comparison in config.comparisons:
        estimator, labels, lstat_specs = _build_estimator(config, comparison)
        d = len(labels)
        with _stage(f"bootstrap:{comparison.name}"):
            boot = bootstrap_pipeline(data, config.plan, estimator, n_threads=n_threads)
        b1, b2 = boot.point[:d], boot.point[d:]
        diff_cov = difference_covariance(boot.cov, d)
        flags = {}
        with _stage(f"test:{comparison.name}"):
            coef_tests, joint = _robustness_tests(b1, b2, boot.cov, diff_cov, config.test)
        analytic = None
        if config.include_analytic_cov and lstat_specs is not None:
            with _stage(f"analytic:{comparison.name}"):
                base_specs, adj_specs = lstat_specs
                specs_all = list(base_specs) + list(adj_specs)
                weights = [compute_weights(s.scheme, data) for s in specs_all]
                analytic = analytic_cov(specs_all, data, weights)
                flags["analytic_cov_degenerate_all_ones"] = analytic_cov_is_degenerate(weights)
        results.append(
            ComparisonResult(
                name=comparison.name,
                labels=labels,
                baseline=b1,
                adjusted=b2,
                bootstrap=boot,
                diff_cov=diff_cov,
                coefficient_tests=coef_tests,
                joint_test=joint,
                flags=flags,
                analytic=analytic,
            )
        )
    table = _format_table(results)
    rd = _results_dict(config, load_report, results, table)
    return ReportBundle(
        config=config,
        load_report=load_report,
        results=tuple(results),
        table_text=table,
        results_dict=rd,
    )


_COLUMNS = (
    "statistic",
    "baseline",
    "adjusted",
    "se_baseline",
    "se_adjusted",
    "p_formal",
    "p_heuristic",
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _table_rows(res: ComparisonResult) -> list[dict]:
    rows = []
    d = len(res.labels)
    for j, label in enumerate(res.labels):
        t = res.coefficient_tests[j]
        rows.append(
            {
                "statistic": label,
                "baseline": _fmt(res.baseline[j]),
                "adjusted": _fmt(res.adjusted[j]),
                "se_baseline": _fmt(float(np.sqrt(max(res.bootstrap.cov[j, j], 0.0)))),
                "se_adjusted": _fmt(
                    float(np.sqrt(max(res.bootstrap.cov[d + j, d + j], 0.0)))
                ),
                "p_formal": _fmt(t.p_value_formal),
                "p_heuristic": _fmt(t.p_value_heuristic)
                if t.p_value_heuristic is not None
                else "",
            }
        )
    return rows


def _format_table(results: list[ComparisonResult]) -> str:
    lines = []
    for res in results:
        rows = _table_rows(res)
        widths = {
            c: max(len(c), max(len(r[c]) for r in rows)) for c in _COLUMNS
        }
        lines.append(f"comparison: {res.name}")
        lines.append("  ".join(c.ljust(widths[c]) for c in _COLUMNS))
        for r in rows:
            lines.append("  ".join(r[c].ljust(widths[c]) for c in _COLUMNS))
        jt = res.joint_test
        lines.append(
            f"joint: statistic={_fmt(jt.statistic)} critical={_fmt(jt.critical_value)} "
            f"p_formal={_fmt(jt.p_value_formal)} reject={str(jt.reject).lower()}"
        )
        if res.flags.get("analytic_cov_degenerate_all_ones"):
            lines.append(
                "note: analytic covariance (diagnostic) is exactly zero under "
                "all-ones weights; bootstrap covariance is authoritative"
            )
        lines.append("")
    return "\n".join(lines)


def _test_dict(t) -> dict:
    return {
        "statistic": t.statistic,
        "critical_value": t.critical_value,
        "reject": bool(t.reject),
        "p_value_formal": t.p_value_formal,
        "p_value_heuristic": t.p_value_heuristic,
        "h": t.h,
        "alpha": t.alpha,
        "method": t.method,
        "path": t.path,
        "mc_std_error": t.mc_std_error,
        "seed": t.seed,
    }


def _results_dict(
    config: AnalysisConfig,
    load_report: LoadReport,
    results: list[ComparisonResult],
    table: str,
) -> dict:
    comparisons = {}
    for res in results:
        d = len(res.labels)
        entry = {
            "labels": list(res.labels),
            "baseline": [float(v) for v in res.baseline],
            "adjusted": [float(v) for v in res.adjusted],
            "bootstrap_cov": {
                "matrix": res.bootstrap.cov.tolist(),
                "provenance": "bootstrap",
                "iterations": res.bootstrap.iterations,
                "seed": res.bootstrap.seed,
                "failed_draws": res.bootstrap.n_failed,
            },
            "difference_cov": res.diff_cov.tolist(),
            "tests": {
                res.labels[j]: _test_dict(res.coefficient_tests[j]) for j in range(d)
            },
            "joint_test": _test_dict(res.joint_test),
            "table_rows": _table_rows(res),
            "flags": dict(res.flags),
        }
        if res.analytic is not None:
            entry["analytic_cov"] = {
                "matrix": res.analytic.tolist(),
                "provenance": "analytic-diagnostic",
            }
        comparisons[res.name] = entry
    return {
        "input": config.input_path,
        "rows_used": load_report.n_rows,
        "rows_dropped": load_report.n_dropped,
        "dropped_by_column": dict(load_report.dropped_by_column),
        "bootstrap": {
            "iterations": config.plan.iterations,
            "seed": config.plan.seed,
            "resample_unit": config.plan.resample_unit,
            "engine": config.plan.engine,
        },
        "test": {
            "h": config.test.h,
            "alpha": config.test.alpha,
            "norm": config.test.norm_matrix
            if isinstance(config.test.norm_matrix, str)
            else np.asarray(config.test.norm_matrix, dtype=float).tolist(),
            "mc_draws": config.test.mc_draws,
            "seed": config.test.seed,
            "method": config.test.method,
        },
        "comparisons": comparisons,
    }


def _plot_pair_columns(res: ComparisonResult, pair) -> tuple[int, int, str]:
    d = len(res.labels)
    if isinstance(pair, str):
        if pair not in res.labels:
            raise DataError(f"plot pair {pair!r} is not a reported statistic")
        j = res.labels.index(pair)
        return j, d + j, pair
    i, j = int(pair[0]), int(pair[1])
    if not (0 <= i < 2 * d and 0 <= j < 2 * d):
        raise DataError(f"plot pair {pair} out of range for {2 * d} draw columns")
    return i, j, f"col{i}_col{j}"


def write_outputs(bundle: ReportBundle) -> dict[str, str]:
    """Write results.json, report.txt, draws, and plot grids; returns paths.

    Every file goes into the config's output directory.
    """
    directory = bundle.config.output_dir
    paths = {}
    results_json = json.dumps(bundle.results_dict, sort_keys=True, indent=2)
    paths["results"] = os.path.join(directory, "results.json")
    atomic_write_text(paths["results"], results_json + "\n")
    paths["report"] = os.path.join(directory, "report.txt")
    atomic_write_text(paths["report"], bundle.table_text)
    for res in bundle.results:
        p = os.path.join(directory, f"draws_{res.name}.csv")
        atomic_write_text(p, draws_csv_text(res.bootstrap.draws))
        paths[f"draws_{res.name}"] = p
        point = np.concatenate([res.baseline, res.adjusted])
        for pair in bundle.config.plot_pairs:
            i, j, tag = _plot_pair_columns(res, pair)
            grid = emit_plot_grid(
                res.bootstrap.draws[:, i],
                res.bootstrap.draws[:, j],
                point=(float(point[i]), float(point[j])),
            )
            gp = os.path.join(directory, f"plotgrid_{res.name}_{tag}.csv")
            atomic_write_text(gp, grid_csv_text(grid.x, grid.y, grid.density))
            paths[f"plotgrid_{res.name}_{tag}"] = gp
    return paths


def regenerate_report(directory: str) -> dict:
    """Recompute p-values from stored draws and the stored test settings.

    Returns {comparison: {label: p_value_formal, ..., "joint": p}} for
    comparison with the stored values; `_regenerated_tests` has the full
    test records.  No file is written.
    """
    return {
        name: {label: t["p_value_formal"] for label, t in tests.items()}
        for name, tests in _regenerated_tests(directory).items()
    }


def _regenerated_tests(directory: str) -> dict:
    """{comparison: {label: test record, ..., "joint": test record}}.

    Reads results.json and each draws CSV under the directory, recomputes
    the difference covariance and all tests from the draws, and returns
    each test in its results.json form.
    """
    with _stage("report"):
        try:
            with open(os.path.join(directory, "results.json"), "r", encoding="utf-8") as fh:
                stored = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot open results.json in {directory}: {exc}") from exc
        test_raw = stored["test"]
        spec = TestSpec(
            h=float(test_raw["h"]),
            alpha=float(test_raw["alpha"]),
            norm_matrix=test_raw["norm"],
            mc_draws=int(test_raw["mc_draws"]),
            seed=int(test_raw["seed"]),
            method=test_raw["method"],
        )
        out: dict = {}
        for name, entry in stored["comparisons"].items():
            draws = read_draws_csv(os.path.join(directory, f"draws_{name}.csv"))
            cov = bootstrap_cov(draws)
            diff_cov = difference_covariance(cov, len(entry["labels"]))
            b1 = np.asarray(entry["baseline"], dtype=float)
            b2 = np.asarray(entry["adjusted"], dtype=float)
            coef_tests, joint = _robustness_tests(b1, b2, cov, diff_cov, spec)
            tests = {label: _test_dict(t) for label, t in zip(entry["labels"], coef_tests)}
            tests["joint"] = _test_dict(joint)
            out[name] = tests
        return out
