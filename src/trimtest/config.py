"""The config schema: what a JSON config may hold, and the settings it becomes.

This module owns every config key.  Its readers take the parsed document
(objects, arrays, scalars), refuse a value that does not fit with a
DataError naming the key's dotted path under the `[config]` stage, and
build the settings the pipeline runs on: `AnalysisConfig` for `estimate`
and `test`, `mc_settings` for `mc`.  The `mc.dgp` schema takes the
settings `mc_oracle.DGP_SETTINGS` lists per kind.  `report` reads the
stored test settings back with the same readers.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .bootstrap import BootstrapPlan
from .errors import DataError, setting_error, stage
from .estimators import RegressionComparison, coefficient_specs, comparison_estimator
from .lstat import LStatSpec, Transform
from .mc_oracle import DGP_SETTINGS, DGPSpec, residual_trim_size_analysis, size_study
from .regress import RegressionModel
from .robustness import TestSpec, explicit_norm
from .weights import WeightScheme


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


def _count(value, path: str) -> int:
    """A count of at least 1: a lag count, or the derived summaries' horizon in periods."""
    count = _int(value, path)
    if count < 1:
        raise DataError(f"{path} must be at least 1, got {count}")
    return count


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
    ValueError from `build` is reported with the path of the key whose
    field it names (`errors.setting_error`), else with the section's path.
    """

    def __init__(self, keys: dict, required=(), build=dict):
        self.keys = {k: r if isinstance(r, tuple) else (r, k) for k, r in keys.items()}
        self.fields = {name: key for key, (_, name) in self.keys.items()}
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
            key = self.fields.get(getattr(exc, "field", None))
            raise DataError(f"{_join(path, key) if key else path}: {exc}") from exc


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
        "horizon": (_count, "derived_horizon"),
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
    if not comparison.stat_labels():
        raise DataError(
            "model.report_coefficients is empty and the model has no regressors, so it reports "
            'no statistic; set it to ["intercept"] to compare the intercepts'
        )
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
_LAG = _Section({"column": _str, "count": (_count, "lags")}, ("column", "count"))
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
        raise setting_error("reps", "reps must be >= 1")
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
    """Validated analysis description; build from a dict with from_dict.

    Built directly, it checks only that comparisons is not empty and that
    their names are unique; from_dict checks every setting.
    """

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

    def __post_init__(self):
        if not self.comparisons:
            raise DataError("comparisons must hold at least one pair")
        names = [comparison.name for comparison in self.comparisons]
        if len(set(names)) != len(names):
            raise DataError("comparison names must be unique")

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
                labels = comparison_estimator(config.model, comparison.baseline_scheme, comparison.adjusted_scheme)[1]
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

