"""The output files: what a run writes, and `trimtest report`'s reading of it back.

This module owns the output directory's layout and every file format in
it.  `trimtest test` writes `results.json`, `report.txt`, one
`draws_<comparison>.csv` per comparison and one `plotgrid_<comparison>_<tag>.csv`
per plot pair; `estimate` writes `estimates.json`, `mc` writes
`mc_results.json`, and `plot-data` writes one density grid where it is
told.  A run's ReportBundle holds, per comparison, its bootstrap result
and the `ComparisonTests` record of `estimators.comparison_tests`
(estimates, difference covariance, per-statistic and joint robustness
tests), and the formatted comparison table; `trimtest report` rebuilds
the tests from the stored draws.  Every file is deterministic: identical
config and seeds give byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .bootstrap import BootstrapResult, bootstrap_cov, fork_map
from .config import (
    _BOOTSTRAP,
    _TEST,
    AnalysisConfig,
    _join,
    _names,
    _numbers,
    _object,
    _plot_pair_columns,
    read_json,
)
from .csvio import (
    LoadReport,
    atomic_write_text,
    draws_csv_text,
    format_float,
    grid_csv_text,
    read_draws_csv,
)
from .errors import DataError, stage
from .estimators import ComparisonTests, comparison_tests
from .mc_oracle import CoverageReport
from .plotgrid import GRID_POINTS, PlotGrid, emit_plot_grid

RESULTS_FILE = "results.json"


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


def report_bundle(config: AnalysisConfig, load_report: LoadReport, results: list[ComparisonResult]) -> ReportBundle:
    """The bundle of these results: `report.txt` and `results.json` share each comparison's table rows."""
    rows = [_table_rows(res) for res in results]
    return ReportBundle(
        config=config,
        load_report=load_report,
        results=tuple(results),
        table_text=_format_table(results, rows),
        results_dict=_results_dict(config, load_report, results, rows),
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


def _format_table(results: list[ComparisonResult], table_rows: list[list[dict]]) -> str:
    lines = []
    for res, rows in zip(results, table_rows):
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


def _results_dict(
    config: AnalysisConfig, load_report: LoadReport, results: list[ComparisonResult], table_rows: list[list[dict]]
) -> dict:
    comparisons = {}
    for res, rows in zip(results, table_rows):
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
            "table_rows": rows,
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


def json_text(doc) -> str:
    """doc as JSON with sorted keys and two-space indents, ending in a newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_json(path: str, doc) -> str:
    """Write doc to path as `json_text`; returns the text."""
    text = json_text(doc)
    atomic_write_text(path, text)
    return text


def _write_grid(path: str, draws_x: np.ndarray, draws_y: np.ndarray, point=None) -> PlotGrid:
    """Write the density grid of two draw columns to path as CSV; returns the grid."""
    grid = emit_plot_grid(draws_x, draws_y, point=point)
    atomic_write_text(path, grid_csv_text(grid.x, grid.y, grid.density))
    return grid


def _draws_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"draws_{name}.csv")


def write_estimates(directory: str, estimates: dict) -> str:
    """Write `point_estimates`' result to estimates.json; returns the text."""
    return _write_json(os.path.join(directory, "estimates.json"), estimates)


def write_mc_results(directory: str, report: CoverageReport) -> str:
    """Write a size study's report to mc_results.json; returns the text."""
    return _write_json(os.path.join(directory, "mc_results.json"), asdict(report))


# A writer process is forked for at least this many values of comparison
# files: 2d cells per draw in a draws file, GRID_POINTS^2 densities per plot
# grid.  On a 2-core Xeon VM, computing, formatting and writing one value
# took 1.1-2.0 us (a 40 000-cell draws file, a 101 x 101 grid of 2000 draws)
# and a fork_map fork 3.2-3.9 ms, so a writer's fork costs a fifth to a third
# of the work it takes off the caller.  The 800 cells of 100 draws of four
# statistics are written in this process.
WRITE_VALUES_PER_WORKER = 10_000


def _write_comparison(directory: str, res: ComparisonResult, plot_pairs: tuple) -> dict[str, str]:
    """Write one comparison's draws file and plot grids; returns their paths."""
    paths = {f"draws_{res.name}": _draws_path(directory, res.name)}
    atomic_write_text(paths[f"draws_{res.name}"], draws_csv_text(res.bootstrap.draws))
    for pair in plot_pairs:
        i, j, tag = _plot_pair_columns(res.labels, pair)
        gp = os.path.join(directory, f"plotgrid_{res.name}_{tag}.csv")
        point = (float(res.bootstrap.point[i]), float(res.bootstrap.point[j]))
        _write_grid(gp, res.bootstrap.draws[:, i], res.bootstrap.draws[:, j], point)
        paths[f"plotgrid_{res.name}_{tag}"] = gp
    return paths


def write_outputs(bundle: ReportBundle) -> dict[str, str]:
    """Write results.json, report.txt, draws, and plot grids; returns paths.

    Every file goes into the config's output directory.  results.json and
    report.txt are written first, then each comparison's draws file and
    plot grids, comparisons spread over `bootstrap.fork_map`'s workers
    when they hold enough values to repay a fork (WRITE_VALUES_PER_WORKER).
    The files are the same for any worker count, and so is the error
    raised: the first failing comparison's.  After a failure, files of
    other comparisons, later ones included, may already be written.
    """
    directory = bundle.config.output_dir
    paths = {}
    paths["results"] = os.path.join(directory, RESULTS_FILE)
    _write_json(paths["results"], bundle.results_dict)
    paths["report"] = os.path.join(directory, "report.txt")
    atomic_write_text(paths["report"], bundle.table_text)
    results, plot_pairs = bundle.results, bundle.config.plot_pairs
    values = max((res.bootstrap.draws.size for res in results), default=0) + GRID_POINTS**2 * len(plot_pairs)
    written = fork_map(
        lambda k: _write_comparison(directory, results[k], plot_pairs),
        len(results),
        -(-WRITE_VALUES_PER_WORKER // max(values, 1)),
    )
    for comparison_paths in written:
        paths.update(comparison_paths)
    return paths


def write_plot_data(draws_path: str, i: int, j: int, path: str) -> str:
    """Write the density grid of a draws file's 1-based columns i and j to path.

    Returns the grid's bandwidths, reference diagonal and point as one JSON line.
    """
    draws = read_draws_csv(draws_path)
    # 1-based, matching the stat_1..stat_d draw file header.
    if not (1 <= i <= draws.shape[1] and 1 <= j <= draws.shape[1]):
        raise DataError(f"columns {i},{j} out of range for {draws.shape[1]} statistics")
    grid = _write_grid(path, draws[:, i - 1], draws[:, j - 1])
    meta = {
        "bandwidth_x": format_float(grid.bandwidth_x),
        "bandwidth_y": format_float(grid.bandwidth_y),
        "diagonal_start": list(grid.diagonal_start),
        "diagonal_end": list(grid.diagonal_end),
        "point": list(grid.point),
    }
    return json.dumps(meta, sort_keys=True) + "\n"


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
        path = os.path.join(directory, RESULTS_FILE)
        stored = _stored(read_json(path, "results file"), path, "", test=_TEST, comparisons=_object)
        out: dict = {}
        for name, entry in stored["comparisons"].items():
            entry = _stored(entry, path, f"comparisons.{name}", labels=_names, baseline=_numbers, adjusted=_numbers)
            labels, draws_path = entry["labels"], _draws_path(directory, name)
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
