"""End-to-end analysis: config -> data -> bootstrap -> tests -> reports.

The configuration is a JSON document (objects, arrays, scalars); the
`mc.dgp` schema takes the settings `mc_oracle.DGP_SETTINGS` lists per kind.
A run produces a ReportBundle holding, per comparison, its bootstrap
result and the `ComparisonTests` record of `estimators.comparison_tests`
(estimates, difference covariance, per-statistic and joint robustness
tests), which `trimtest report` rebuilds from the stored draws; and a
formatted comparison table.  Machine-readable outputs are deterministic:
identical config and seeds give byte-identical files.  Failures are
re-raised with the pipeline stage in the message.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

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
from .errors import DataError, stage
from .estimators import (
    ComparisonTests,
    RegressionComparison,
    coefficient_specs,
    comparison_tests,
    lstat_pair_estimator,
    regression_comparison_estimator,
)
from .lstat import LStatSpec, Transform, analytic_cov, analytic_cov_is_degenerate
from .mc_oracle import DGP_SETTINGS, DGPSpec, residual_trim_size_analysis, size_study
from .plotgrid import emit_plot_grid
from .regress import RegressionModel
from .robustness import TestSpec, explicit_norm
from .weights import WeightScheme, compute_weights


# The config schema.  A reader takes (value, dotted path), refuses a value of
# the wrong type with a DataError naming the path, and returns what the
# setting's field gets.  A key the config leaves out is not passed on, so its
# default is the one of the dataclass field or function parameter it fills.


def _int(value, path: str) -> int:
    """A count or seed; an integral float such as 2.0 is accepted, bools and strings refused."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise DataError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _seed(value, path: str) -> int:
    """An integer that numpy's SeedSequence takes: negative ones are refused."""
    seed = _int(value, path)
    if seed < 0:
        raise DataError(f"{path} must be a non-negative integer, got {value!r}")
    return seed


def _draw_count(value, path: str) -> int:
    """A bootstrap draw count: a covariance needs two draws, so every count below 2 is refused."""
    count = _int(value, path)
    if count < 2:
        raise DataError(f"{path} must be at least 2, got {count}: a bootstrap covariance needs two draws")
    return count


def _horizon(value, path: str) -> int:
    """The derived summaries' horizon, a number of periods after the impulse: at least 1."""
    horizon = _int(value, path)
    if horizon < 1:
        raise DataError(f"{path} must be at least 1, got {horizon}")
    return horizon


def _finite(value: int | float, path: str) -> float:
    """A number as a float; NaN, Infinity and integers past the float range refused."""
    if not abs(value) <= sys.float_info.max:
        raise DataError(f"{path} must be finite, got {value!r}")
    return float(value)


def _real(value, path: str) -> float:
    """A finite real number; integers are accepted, bools and strings refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{path} must be a number, got {value!r}")
    return _finite(value, path)


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise DataError(f"{path} must be true or false, got {value!r}")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"{path} must be a string, got {value!r}")
    return value


def _str_or_null(value, path: str) -> str | None:
    return None if value is None else _str(value, path)


def _file_tag(value, path: str) -> str:
    """A string that becomes part of an output file name: no path separator or NUL."""
    if any(c in _str(value, path) for c in "/\\\0"):
        raise DataError(f"{path} names an output file, so it cannot hold '/', '\\' or NUL, got {value!r}")
    return value


def _names(value, path: str) -> tuple[str, ...]:
    """A list of column or coefficient names; a bare string is refused."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{path} must be a list of names, got {value!r}")
    return tuple(value)


def _numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        raise DataError(f"{path} must be a list of numbers, got {value!r}")
    return tuple(_finite(v, f"{path}[{i}]") for i, v in enumerate(value))


# Refused above this: an explicit norm's Monte Carlo critical value errs by ~ kappa * u.
MAX_NORM_CONDITION = 1e10


def _norm(value, path: str):
    """"diff_cov", "identity", or a symmetric positive definite matrix as a tuple of rows."""
    if value in ("diff_cov", "identity"):
        return value
    rows = isinstance(value, list) and tuple(
        _numbers(row, f"{path}[{i}]") for i, row in enumerate(value)
    )
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DataError(f'{path} must be "diff_cov", "identity" or a square matrix, got {value!r}')
    try:
        eig = np.linalg.eigvalsh(explicit_norm(rows))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}, got {value!r}") from None
    if not eig[0] > 0:
        raise DataError(f"{path}: not positive definite, smallest eigenvalue {eig[0]:.3g}")
    kappa = eig[-1] / eig[0]
    if kappa > MAX_NORM_CONDITION:
        raise DataError(f"{path}: condition number {kappa:.3g} exceeds {MAX_NORM_CONDITION:.3g}")
    return rows


def _plot_pairs(value, path: str) -> tuple:
    """Statistic labels, or [i, j] pairs of draw columns."""
    if not isinstance(value, list):
        raise DataError(f"{path} must be a list, got {value!r}")
    out = []
    for i, pair in enumerate(value):
        if isinstance(pair, list) and len(pair) == 2:
            pair = tuple(_int(v, f"{path}[{i}]") for v in pair)
        elif isinstance(pair, str):
            _file_tag(pair, f"{path}[{i}]")
        else:
            raise DataError(f"{path}[{i}] must be a label or an [i, j] pair, got {pair!r}")
        out.append(pair)
    return tuple(out)


_READERS = {"int": _int, "float": _real, "bool": _bool, "str": _str, "tuple[str, ...]": _names}


def _fields(cls) -> dict:
    """One key per field of a dataclass, read by the reader its (postponed) annotation names."""
    return {f.name: _READERS[f.type] for f in fields(cls)}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise DataError(f"{path or 'config'} must be an object, got {value!r}")
    return value


def _missing(path: str, key: str) -> DataError:
    return DataError(f"config is missing required key {_join(path, key)!r}")


class _Section:
    """An object's keys, each mapped to a reader (or to (reader, field) when named otherwise).

    Reading refuses unknown keys and missing required ones, reads every
    key present and passes the values by field name to `build`; a
    ValueError from `build` is reported with the section's path.
    """

    def __init__(self, keys: dict, required=(), build=dict):
        self.keys = {k: r if isinstance(r, tuple) else (r, k) for k, r in keys.items()}
        self.required, self.build = required, build

    def __call__(self, raw, path: str):
        unknown = sorted(set(_object(raw, path)) - set(self.keys))
        if unknown:
            raise DataError(f"unknown key(s) in {path or 'config root'}: {', '.join(unknown)}")
        for key in self.required:
            if key not in raw:
                raise _missing(path, key)
        values = {
            name: read(raw[key], _join(path, key))
            for key, (read, name) in self.keys.items()
            if key in raw
        }
        try:
            return self.build(**values)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


class _Kinds:
    """An object whose keys depend on its kind, the value of `key`: {kind: (keys, required)}."""

    def __init__(self, key: str, kinds: dict, build=dict, default=None):
        self.key, self.default = key, default
        self.sections = {
            kind: _Section({key: _str, **keys}, required, build)
            for kind, (keys, required) in kinds.items()
        }

    def __call__(self, raw, path: str):
        kind = _object(raw, path).get(self.key, self.default)
        if kind is None:
            raise _missing(path, self.key)
        if not isinstance(kind, str) or kind not in self.sections:
            where = "" if isinstance(kind, str) else f": {_join(path, self.key)} must be a string"
            raise DataError(f"unknown {path} {self.key} {kind!r}{where}")
        return self.sections[kind]({**raw, self.key: kind}, path)


class _Entries:
    """A list of objects, entry i read by `item` at path[i]."""

    def __init__(self, item):
        self.item = item

    def __call__(self, raw, path: str) -> tuple:
        if not isinstance(raw, list):
            raise DataError(f"{path} must be a list of objects, got {raw!r}")
        return tuple(self.item(entry, f"{path}[{i}]") for i, entry in enumerate(raw))


@dataclass(frozen=True)
class Comparison:
    """One baseline/adjusted estimator pair to run and test."""

    baseline_scheme: WeightScheme
    adjusted_scheme: WeightScheme
    name: str = "main"


def _statistic(column: str, name: str | None = None, **transform) -> LStatSpec:
    """A statistics entry; its name defaults to its column."""
    return LStatSpec(column, name=column if name is None else name, **transform)


_BOUNDS = {"columns": _names, "lower_q": _real, "upper_q": _real}
_SCHEME = _Kinds(
    "kind",
    {
        "all_ones": ({}, ()),
        "quantile_trim": (_BOUNDS, ("columns",)),
        "winsorize": (_BOUNDS, ("columns",)),
        "residual_trim": ({"multiplier": _real}, ()),
        "custom": ({"values": _numbers}, ("values",)),
    },
    WeightScheme,
)
_PAIR = _Section(
    {
        "name": _file_tag, "baseline": (_SCHEME, "baseline_scheme"),
        "adjusted": (_SCHEME, "adjusted_scheme"),
    },
    ("baseline", "adjusted"),
    Comparison,
)


def _comparison(raw, path: str) -> Comparison:
    """A comparisons entry: a named pair, its schemes under `weights` or beside `name`."""
    if isinstance(raw, dict) and "weights" in raw:
        weights = _object(raw["weights"], f"{path}.weights")
        raw = {**weights, **{k: v for k, v in raw.items() if k != "weights"}}
    return _PAIR(raw, path)


_TRANSFORM = _Kinds(
    "kind",
    {
        "identity": ({}, ()),
        "power": ({"exponent": _real}, ("exponent",)),
        "table": ({"x": (_numbers, "table_x"), "y": (_numbers, "table_y")}, ("x", "y")),
    },
    Transform,
    default=Transform.kind,  # the dataclass field's default
)
_STATISTIC = _Section(
    {"column": _str, "transform": _TRANSFORM, "name": _str}, ("column",), _statistic
)
_DERIVED = _Section(
    {
        "effect": (_str, "derived_effect"), "lags": (_names, "derived_lags"),
        "horizon": (_horizon, "derived_horizon"),
    },
    ("effect", "lags"),
)
_REGRESSION = (
    {**_fields(RegressionModel), "report_coefficients": _names, "derived": _DERIVED},
    ("outcome",),
)
_LSTAT = ({"statistics": _Entries(_STATISTIC)}, ("statistics",))


def _model(statistics=(), report_coefficients=None, derived=None, **model):
    """What each comparison runs, less its weight schemes: LStatSpecs or a RegressionComparison."""
    kind = model.pop("type")
    if kind == "lstat":
        if not statistics:
            raise DataError("lstat model requires a statistics list")
        return statistics
    if (kind == "iv") != bool(model.get("endogenous")):
        raise DataError(
            'an "iv" model requires endogenous and instruments lists; "ols" takes neither'
        )
    # The library keeps such a model (its 2SLS fit is the OLS fit); a config naming one is a slip.
    for name in model.get("endogenous", ()):
        if name in model.get("instruments", ()):
            raise ValueError(f"the endogenous regressor {name!r} cannot also be its own instrument")
    model = RegressionModel(**model)
    report = model.regressors if report_coefficients is None else report_coefficients
    comparison = RegressionComparison(model, report_coefficients=report, **(derived or {}))
    effect = comparison.derived_effect
    # Under fixed effects no name depends on the data.
    for key, names in (
        ("model.report_coefficients", report),
        ("model.derived.effect", (effect,) if effect else ()),
        ("model.derived.lags", comparison.derived_lags),
    ):
        unknown = [n for n in names if n not in model.named_coefficients]
        if unknown:
            raise DataError(
                f"{key} names {', '.join(map(repr, unknown))}, not a model "
                f"coefficient ({', '.join(model.named_coefficients)})"
            )
    return comparison


_MODEL = _Kinds(
    "type", {"ols": _REGRESSION, "iv": _REGRESSION, "lstat": _LSTAT}, _model, default="ols"
)
_TEST = _Section(
    {
        "h": _real, "alpha": _real, "norm": (_norm, "norm_matrix"), "mc_draws": _int,
        "seed": _seed, "method": _str,
    },
    build=TestSpec,
)
_OUTPUT = _Section(
    {
        "directory": (_str, "output_dir"), "plot_pairs": _plot_pairs,
        "analytic_cov": (_bool, "include_analytic_cov"),
    }
)
# Keyword arguments of `add_within_cluster_lags`.
_LAG = _Section({"column": _str, "count": (_int, "lags")}, ("column", "count"))
_ANALYSIS_PARAMETERS = inspect.signature(residual_trim_size_analysis).parameters
_STUDY_PARAMETERS = inspect.signature(size_study).parameters


def _size_study(**study) -> dict:
    """Keyword arguments of `size_study`, with its `analysis_fn` built from the mc settings.

    Each setting goes to the function with a parameter of its name (`alpha`
    and `h` to both), so building the analysis checks its settings; `reps`
    is checked here, as `size_study` checks it only when it runs.  The
    size study regresses y on the coefficient's column, so the DGP must
    simulate both and the coefficient cannot be y itself.
    """
    if study.get("reps", 1) < 1:
        raise ValueError("reps must be >= 1")
    dgp = study["dgp"]
    coefficient = study.get("coefficient", _ANALYSIS_PARAMETERS["coefficient"].default)
    for key, column in (("mc.dgp.kind", "y"), ("mc.coefficient", coefficient)):
        if column not in dgp.columns:
            raise DataError(
                f"{key}: the size study regresses y on {coefficient!r}, but a {dgp.kind!r} "
                f"DGP simulates only {', '.join(dgp.columns)}"
            )
    if coefficient == "y":
        raise DataError("mc.coefficient: 'y' is the size study's outcome, not a coefficient")
    analysis_fn = residual_trim_size_analysis(
        **{k: v for k, v in study.items() if k in _ANALYSIS_PARAMETERS}
    )
    return {k: v for k, v in study.items() if k in _STUDY_PARAMETERS} | {"analysis_fn": analysis_fn}


_DGP_FIELDS = _fields(DGPSpec)
_DGP = _Kinds(
    "kind", {kind: ({k: _DGP_FIELDS[k] for k in keys}, ()) for kind, keys in DGP_SETTINGS.items()}, DGPSpec
)
_MC = _Section(
    {
        "dgp": _DGP, "reps": _int, "seed": _seed, "alpha": _real, "h": _real,
        "multiplier": _real, "inner_iterations": _draw_count, "coefficient": _str,
    },
    ("dgp",),
    _size_study,
)
_BOOTSTRAP = _Section({**_fields(BootstrapPlan), "iterations": _draw_count, "seed": _seed}, build=BootstrapPlan)
_ROOT = _Section(
    {
        "input": (_str, "input_path"), "cluster_column": _str_or_null, "model": _MODEL,
        "weights": _PAIR, "comparisons": _Entries(_comparison), "lags": _Entries(_LAG),
        "bootstrap": (_BOOTSTRAP, "plan"), "test": _TEST, "output": _OUTPUT, "mc": _MC,
    },
    ("input", "model"),
)
# `trimtest mc` needs neither input nor model.
_MC_ROOT = _Section(_ROOT.keys, ("mc",))


def mc_settings(raw: dict) -> tuple[dict, str]:
    """`size_study`'s keyword arguments from the mc section, and the configured output directory."""
    with stage("config"):
        root = _MC_ROOT(raw, "")
    return root["mc"], root.get("output", {}).get("output_dir", AnalysisConfig.output_dir)


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated analysis description; build from a dict with from_dict."""

    input_path: str
    model: RegressionComparison | tuple[LStatSpec, ...]
    comparisons: tuple[Comparison, ...]
    cluster_column: str | None = None
    plan: BootstrapPlan = field(default_factory=BootstrapPlan)
    test: TestSpec = field(default_factory=TestSpec)
    output_dir: str = "trimtest-output"
    plot_pairs: tuple = ()
    lags: tuple = ()  # add_within_cluster_lags keyword arguments
    include_analytic_cov: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        with stage("config"):
            c = _ROOT(raw, "")
            c.pop("mc", None)
            c.update(c.pop("output", {}))
            if c.get("include_analytic_cov") and isinstance(c["model"], RegressionComparison):
                raise DataError('output.analytic_cov is for lstat models only, not "ols" or "iv"')
            pair = c.pop("weights", None)
            if "comparisons" not in c:
                if pair is None:
                    raise DataError("config needs a weights object or a comparisons list")
                c["comparisons"] = (pair,)
            names = [comparison.name for comparison in c["comparisons"]]
            if len(set(names)) != len(names):
                raise DataError("comparison names must be unique")
            config = cls(**c)
            regression = isinstance(config.model, RegressionComparison)
            for comparison in config.comparisons:
                if comparison.baseline_scheme.kind == "residual_trim" or (
                    comparison.adjusted_scheme.kind == "residual_trim" and not regression
                ):
                    raise DataError(
                        f"comparison {comparison.name!r}: residual_trim needs a regression "
                        "model's baseline residuals, so it must be the adjusted scheme of an "
                        '"ols" or "iv" model'
                    )
                labels = _build_estimator(config, comparison)[1]
                # Tests are stored by label, next to the joint test's "joint".
                taken = [label for label in labels if labels.count(label) > 1 or label == "joint"]
                if taken:
                    raise DataError(f"statistic label {taken[0]!r} is taken; 'joint' and each label name one test")
                coefficient_specs(config.test, len(labels))  # refuses a norm of the wrong size
                for i, pair in enumerate(config.plot_pairs):
                    try:
                        _plot_pair_columns(labels, pair)
                    except DataError as exc:
                        raise DataError(f"output.plot_pairs[{i}]: {exc}") from None
            return config


def read_json(path: str, what: str) -> dict:
    """Parsed JSON file; an unreadable or malformed one is a DataError naming what it is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class ComparisonResult:
    """Everything computed for one baseline/adjusted pair; `tests` as `comparison_tests` returns it."""

    name: str
    labels: tuple[str, ...]
    bootstrap: BootstrapResult
    tests: ComparisonTests
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
    if isinstance(config.model, RegressionComparison):
        rcomp = replace(
            config.model,
            baseline_scheme=comparison.baseline_scheme,
            adjusted_scheme=comparison.adjusted_scheme,
        )
        return regression_comparison_estimator(rcomp), rcomp.stat_labels(), None
    base_specs = [replace(s, scheme=comparison.baseline_scheme) for s in config.model]
    adj_specs = [replace(s, scheme=comparison.adjusted_scheme) for s in config.model]
    labels = tuple(s.label() for s in base_specs)
    return lstat_pair_estimator(base_specs, adj_specs), labels, base_specs + adj_specs


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
            if data.n_rows == 0:
                raise DataError(
                    f"{lag['lags']} lag(s) of {lag['column']!r} leave no rows: "
                    f"a cluster needs more than {lag['lags']} rows"
                )
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
        with stage(f"estimate:{comparison.name}"):
            stacked = np.asarray(estimator(data, np.ones(data.n_rows)), dtype=float)
        d = len(labels)
        out[comparison.name] = {
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
    built = [_build_estimator(config, comparison) for comparison in config.comparisons]
    estimators = {
        f"bootstrap:{c.name}": estimator for c, (estimator, _, _) in zip(config.comparisons, built)
    }
    parts = bootstrap_pipeline(data, config.plan, estimators).parts if estimators else ()
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
    table = _format_table(results)
    rd = _results_dict(config, load_report, results)
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
    se = np.sqrt(np.maximum(np.diag(res.bootstrap.cov), 0.0))
    for j, label in enumerate(res.labels):
        t = res.tests.coefficient_tests[j]
        rows.append(
            {
                "statistic": label,
                "baseline": _fmt(res.tests.baseline[j]),
                "adjusted": _fmt(res.tests.adjusted[j]),
                "se_baseline": _fmt(se[j]),
                "se_adjusted": _fmt(se[d + j]),
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
        jt = res.tests.joint
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


def _results_dict(config: AnalysisConfig, load_report: LoadReport, results: list[ComparisonResult]) -> dict:
    comparisons = {}
    for res in results:
        entry = {
            "labels": list(res.labels),
            "baseline": res.tests.baseline.tolist(),
            "adjusted": res.tests.adjusted.tolist(),
            "bootstrap_cov": {
                "matrix": res.bootstrap.cov.tolist(),
                "provenance": "bootstrap",
                "iterations": res.bootstrap.iterations,
                "seed": res.bootstrap.seed,
                "failed_draws": res.bootstrap.n_failed,
            },
            "difference_cov": res.tests.diff_cov.tolist(),
            "tests": dict(zip(res.labels, map(asdict, res.tests.coefficient_tests))),
            "joint_test": asdict(res.tests.joint),
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
        "bootstrap": {key: getattr(config.plan, name) for key, (_, name) in _BOOTSTRAP.keys.items()},
        "test": {key: getattr(config.test, name) for key, (_, name) in _TEST.keys.items()},
        "comparisons": comparisons,
    }


def _plot_pair_columns(labels, pair) -> tuple[int, int, str]:
    """The two draw columns a plot pair names, and the tag of its file name."""
    d = len(labels)
    if isinstance(pair, str):
        if pair not in labels:
            raise DataError(f"plot pair {pair!r} is not a reported statistic")
        j = labels.index(pair)
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
        for pair in bundle.config.plot_pairs:
            i, j, tag = _plot_pair_columns(res.labels, pair)
            grid = emit_plot_grid(
                res.bootstrap.draws[:, i],
                res.bootstrap.draws[:, j],
                point=(float(res.bootstrap.point[i]), float(res.bootstrap.point[j])),
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


def _stored(raw, file: str, path: str, **keys) -> dict:
    """The named keys of an object in a results file, each read at its path; other keys are ignored."""
    try:
        where = path or "the top level"
        obj = _object(raw, where)
        for key in keys:
            if key not in obj:
                raise DataError(f"{where} has no key {key!r}")
        return {key: read(obj[key], _join(path, key)) for key, read in keys.items()}
    except DataError as exc:
        raise DataError(f"{file}: {exc}") from None


def _regenerated_tests(directory: str) -> dict:
    """{comparison: {label: test record, ..., "joint": test record}}.

    Reads results.json and each draws CSV under the directory, recomputes
    the difference covariance and all tests from the draws, and returns
    each test in its results.json form.  A file that does not hold what
    `trimtest test` writes is a DataError naming it and the key at fault.
    """
    with stage("report"):
        path = os.path.join(directory, "results.json")
        stored = _stored(read_json(path, "results file"), path, "", test=_TEST, comparisons=_object)
        out: dict = {}
        for name, entry in stored["comparisons"].items():
            entry = _stored(entry, path, f"comparisons.{name}", labels=_names, baseline=_numbers, adjusted=_numbers)
            labels, draws_path = entry["labels"], os.path.join(directory, f"draws_{name}.csv")
            if not len(labels) == len(entry["baseline"]) == len(entry["adjusted"]):
                raise DataError(f"{path}: comparisons.{name}: baseline and adjusted need one number per label")
            draws = read_draws_csv(draws_path)
            if draws.shape[1] != 2 * len(labels):
                raise DataError(
                    f"{draws_path}: {draws.shape[1]} columns, not 2 x {len(labels)} for comparisons.{name}.labels"
                )
            try:
                cov = bootstrap_cov(draws)
            except ValueError as exc:
                raise DataError(f"{draws_path}: {exc}") from None
            point = np.array(entry["baseline"] + entry["adjusted"])
            tests = comparison_tests(labels, point, cov, stored["test"])
            out[name] = dict(zip(labels, map(asdict, tests.coefficient_tests)), joint=asdict(tests.joint))
        return out
