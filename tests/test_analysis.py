"""Tests for CSV ingestion, output writers, plot grids, and the pipeline."""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trimtest import BootstrapPlan, DataError, NumericalError, PanelDataset, WeightScheme, analysis
from trimtest import config as schema
from trimtest.analysis import point_estimates, run_analysis
from trimtest.bootstrap import BootstrapResult
from trimtest.config import AnalysisConfig, Comparison
from trimtest.csvio import (
    ROWS_PER_CHUNK,
    LoadReport,
    atomic_write_chunks,
    atomic_write_text,
    draws_csv_chunks,
    format_float,
    grid_csv_chunks,
    load_csv,
    read_draws_csv,
)
from trimtest.estimators import RegressionComparison
from trimtest.lstat import LStatSpec
from trimtest.plotgrid import GRID_POINTS, KERNEL_CHUNK, emit_plot_grid, silverman_bandwidth
from trimtest.regress import RegressionModel, weighted_ols
from trimtest.report import ComparisonResult, _write_comparison, regenerate_report, report_bundle, write_outputs

from conftest import _tracemalloc_peak, make_panel
from reference import cluster_sizes, grid_integral


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadCsv:
    def test_happy_path_with_clusters(self, tmp_path):
        path = write_csv(tmp_path, "y,x,firm\n1.0,2.0,a\n3.5,4.0,b\n5.0,6.0,a\n")
        data, report = load_csv(path, cluster_column="firm")
        assert report.n_rows == 3
        assert report.n_dropped == 0
        np.testing.assert_array_equal(data.column("y"), [1.0, 3.5, 5.0])
        assert data.n_clusters == 2
        # Cluster labels are kept verbatim, grouped in first-appearance order.
        assert list(data.cluster_ids) == ["a", "b", "a"]
        assert "firm" not in data.columns

    def test_without_cluster_column_each_row_own_cluster(self, tmp_path):
        path = write_csv(tmp_path, "v\n1\n2\n3\n")
        data, _ = load_csv(path)
        assert data.n_clusters == 3

    def test_missing_cells_drop_rows_and_count(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,2\n,3\n4,\n,\n5,6\n")
        data, report = load_csv(path)
        assert report.n_rows == 2
        assert report.n_dropped == 3
        assert report.dropped_by_column == {"y": 2, "x": 2}
        np.testing.assert_array_equal(data.column("y"), [1.0, 5.0])

    def test_garbage_cell_is_an_error_with_location(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"line 3, column 'x'.*'oops'"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write_csv(tmp_path, "y,y\n1,2\n")
        with pytest.raises(DataError, match="duplicate column names"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3 has 1 cells, expected 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n")
        with pytest.raises(DataError, match="no usable data rows"):
            load_csv(path)

    def test_missing_cluster_column(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,2\n")
        with pytest.raises(DataError, match="cluster column 'firm'"):
            load_csv(path, cluster_column="firm")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_header_names_and_cells_are_stripped(self, tmp_path):
        path = write_csv(tmp_path, " y , x ,firm\n 1.5 ,2, a \n3, 4 ,b\n")
        data, _ = load_csv(path, cluster_column="firm")
        assert tuple(data.columns) == ("y", "x")
        np.testing.assert_array_equal(data.column("y"), [1.5, 3.0])
        assert list(data.cluster_ids) == ["a", "b"]

    def test_cluster_labels_are_not_parsed(self, tmp_path):
        # Numeric-looking labels stay text; "01" and "1" are distinct clusters.
        path = write_csv(tmp_path, "y,firm\n1,01\n2,1\n3,01\n")
        data, _ = load_csv(path, cluster_column="firm")
        assert data.cluster_labels == ("01", "1")
        np.testing.assert_array_equal(cluster_sizes(data), [2, 1])

    def test_every_row_dropped_is_an_error(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n,1\n2,\n")
        with pytest.raises(DataError, match="no usable data rows"):
            load_csv(path)

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading EF BB BF.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx,firm\n1.5,a\n2.5,b\n")
        data, _ = load_csv(str(path), cluster_column="firm")
        assert tuple(data.columns) == ("x",)
        np.testing.assert_array_equal(data.column("x"), [1.5, 2.5])

    def test_empty_cluster_label_keeps_the_row(self, tmp_path):
        # Only numeric columns are required; the label column is not.
        path = write_csv(tmp_path, "y,firm\n1,a\n2,\n")
        data, report = load_csv(path, cluster_column="firm")
        assert report.n_dropped == 0
        assert data.cluster_labels == ("a", "")


class TestAtomicOutput:
    # Values whose text is easy to get wrong: signed zero, the smallest
    # subnormal, the first power of ten repr writes with an exponent.
    EDGE_VALUES = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16]

    def test_write_and_overwrite(self, tmp_path):
        p = str(tmp_path / "out" / "file.txt")
        atomic_write_text(p, "first\n")
        atomic_write_text(p, "second\n")
        with open(p, encoding="utf-8") as fh:
            assert fh.read() == "second\n"
        leftovers = [f for f in os.listdir(tmp_path / "out") if f.endswith(".part")]
        assert leftovers == []

    def test_output_mode_follows_umask(self, tmp_path):
        p = str(tmp_path / "out" / "file.txt")
        old = os.umask(0o022)
        try:
            atomic_write_text(p, "x\n")
            atomic_write_text(p, "y\n")  # replacing keeps the same rule
            assert os.stat(p).st_mode & 0o777 == 0o644
            os.umask(0o077)
            atomic_write_text(p, "z\n")
            assert os.stat(p).st_mode & 0o777 == 0o600
        finally:
            os.umask(old)

    def test_creates_missing_directories(self, tmp_path):
        p = tmp_path / "a" / "b" / "c.txt"
        atomic_write_text(str(p), "deep\n")
        assert p.read_text(encoding="utf-8") == "deep\n"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "inside").write_text("x", encoding="utf-8")
        with pytest.raises(DataError, match="cannot write .*taken"):
            atomic_write_text(str(target), "text\n")
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_writes_lf_line_endings(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(str(p), "a\nb\n")
        assert p.read_bytes() == b"a\nb\n"

    def test_chunks_are_written_in_order(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_chunks(str(p), iter(["a\n", "", "b", "c\n"]))
        assert p.read_bytes() == b"a\nbc\n"

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new", "existing"])
    def test_failing_chunk_iterator_leaves_no_trace(self, tmp_path, old):
        target = tmp_path / "out.csv"
        if old is not None:
            target.write_bytes(old)
        part_sizes = []

        def chunks():
            yield "x" * 100_000
            # Chunks reach the temp file as they come, not at the end.
            part_sizes.extend(os.path.getsize(tmp_path / f) for f in os.listdir(tmp_path) if f.endswith(".part"))
            yield "more\n"
            raise NumericalError("formatting failed")

        with pytest.raises(NumericalError, match="formatting failed"):
            atomic_write_chunks(str(target), chunks())
        assert len(part_sizes) == 1 and part_sizes[0] > 0
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".part")]
        if old is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == old

    def test_draws_file_spans_row_chunks(self, rng):
        draws = rng.normal(size=(2 * ROWS_PER_CHUNK + 3, 2))
        chunks = list(draws_csv_chunks(draws))
        assert len(chunks) == 1 + 3
        lines = ["draw_index,stat_1,stat_2"] + [
            f"{b}," + ",".join(format_float(v) for v in row) for b, row in enumerate(draws)
        ]
        assert "".join(chunks) == "\n".join(lines) + "\n"

    def test_format_float_round_trips(self):
        for x in (0.1, -3.0, 1e-17, 12345.6789, float(np.pi)):
            assert float(format_float(x)) == x
        assert format_float(float("nan")) == "nan"
        assert [format_float(np.float64(v)) for v in self.EDGE_VALUES] == [
            "nan", "inf", "-inf", "-0.0", "5e-324", "1e+16"
        ]

    def test_draws_round_trip(self, tmp_path, rng):
        draws = rng.normal(size=(20, 3))
        draws[4] = np.nan  # a failed draw
        draws[5] = self.EDGE_VALUES[1:4]
        draws[6] = self.EDGE_VALUES[4:] + [np.nan]
        p = str(tmp_path / "draws.csv")
        text = "".join(draws_csv_chunks(draws))
        lines = text.splitlines()
        assert lines[0] == "draw_index,stat_1,stat_2,stat_3"
        assert lines[1:] == [
            f"{b}," + ",".join(format_float(v) for v in row) for b, row in enumerate(draws)
        ]
        assert lines[6] == "5,inf,-inf,-0.0"
        atomic_write_text(p, text)
        back = read_draws_csv(p)
        np.testing.assert_array_equal(back, draws)
        assert np.signbit(back[5, 2])

    def test_read_draws_rejects_other_csv(self, tmp_path):
        p = write_csv(tmp_path, "y,x\n1,2\n")
        with pytest.raises(DataError, match="draw_index"):
            read_draws_csv(p)

    def test_read_draws_skips_a_byte_order_mark(self, tmp_path):
        p = tmp_path / "draws.csv"
        p.write_bytes(b"\xef\xbb\xbfdraw_index,stat_1\n0,1.5\n1,nan\n")
        np.testing.assert_array_equal(read_draws_csv(str(p)), [[1.5], [np.nan]])

    def test_read_draws_keeps_the_width_of_an_empty_file(self, tmp_path):
        p = write_csv(tmp_path, "draw_index,stat_1,stat_2\n", name="draws.csv")
        assert read_draws_csv(p).shape == (0, 2)

    @pytest.mark.parametrize("line", ["1,0.5", "1,0.5,0.5,0.5", ""], ids=["short", "long", "blank"])
    def test_read_draws_refuses_a_ragged_row(self, tmp_path, line):
        p = write_csv(tmp_path, f"draw_index,stat_1,stat_2\n0,1.0,2.0\n{line}\n2,1.0,2.0\n", name="draws.csv")
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: line 3 has \d fields, not 3$"):
            read_draws_csv(p)

    def test_grid_csv_layout(self):
        x = np.array([0.0, 1.0])
        y = np.array([10.0, 20.0, 30.0])
        dens = np.arange(6, dtype=float).reshape(2, 3)
        lines = "".join(grid_csv_chunks(x, y, dens)).splitlines()
        assert lines[0] == "x,y,density"
        assert len(lines) == 1 + 6
        # x is the outer loop: first three rows share x=0.
        assert lines[1] == "0.0,10.0,0.0"
        assert lines[4] == "1.0,10.0,3.0"
        # Every row is format_float of its three values, edge values included.
        x = np.array(self.EDGE_VALUES[:3])
        y = np.array(self.EDGE_VALUES[3:] + [2.5])
        dens = np.array(self.EDGE_VALUES * 2).reshape(3, 4)
        lines = "".join(grid_csv_chunks(x, y, dens)).splitlines()
        assert lines[1:] == [
            f"{format_float(x[i])},{format_float(y[j])},{format_float(dens[i, j])}"
            for i in range(3)
            for j in range(4)
        ]
        assert lines[1] == "nan,-0.0,nan"
        assert lines[12] == "-inf,2.5,1e+16"


class TestPlotGrid:
    def test_silverman_formula(self, rng):
        v = rng.normal(size=400)
        sd = np.std(v, ddof=1)
        q75, q25 = np.percentile(v, [75.0, 25.0])
        expected = 0.9 * min(sd, (q75 - q25) / 1.34) * 400 ** (-0.2)
        assert silverman_bandwidth(v) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_draws_error(self):
        with pytest.raises(NumericalError, match="zero spread"):
            silverman_bandwidth(np.full(50, 3.0))
        with pytest.raises(NumericalError, match="at least two"):
            silverman_bandwidth(np.array([1.0]))

    def test_density_integrates_to_one(self, rng):
        g = emit_plot_grid(rng.normal(size=800), rng.normal(2.0, 0.5, size=800))
        assert g.density.shape == (GRID_POINTS, GRID_POINTS)
        assert grid_integral(g) == pytest.approx(1.0, abs=0.02)

    def test_nan_rows_removed_pairwise(self, rng):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        x2, y2 = x.copy(), y.copy()
        x2[3] = np.nan
        y2[7] = np.nan
        g = emit_plot_grid(x2, y2)
        keep = np.ones(100, dtype=bool)
        keep[[3, 7]] = False
        ref = emit_plot_grid(x[keep], y[keep])
        np.testing.assert_array_equal(g.density, ref.density)

    def test_diagonal_spans_overlap(self, rng):
        g = emit_plot_grid(rng.uniform(0, 1, 300), rng.uniform(10, 11, 300))
        lo, hi = g.diagonal_start[0], g.diagonal_end[0]
        assert g.diagonal_start == (lo, lo)
        assert g.diagonal_end == (hi, hi)
        assert lo == max(g.x[0], g.y[0])
        assert hi == min(g.x[-1], g.y[-1])

    def test_point_payload(self, rng):
        x, y = rng.normal(size=50), rng.normal(size=50)
        g = emit_plot_grid(x, y, point=(1.5, -2.0))
        assert g.point == (1.5, -2.0)
        g2 = emit_plot_grid(x, y)
        assert g2.point == (pytest.approx(x.mean()), pytest.approx(y.mean()))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            emit_plot_grid(np.zeros(5), np.zeros(6))

    def test_silverman_falls_back_to_sd_when_iqr_is_zero(self):
        v = np.concatenate([np.zeros(40), [5.0, -5.0]])
        expected = 0.9 * np.std(v, ddof=1) * len(v) ** (-0.2)
        assert silverman_bandwidth(v) == pytest.approx(expected, rel=1e-12)

    def test_grid_extends_three_bandwidths_past_the_draws(self, rng):
        x, y = rng.normal(size=200), rng.exponential(size=200)
        g = emit_plot_grid(x, y)
        assert g.bandwidth_x == silverman_bandwidth(x)
        assert g.bandwidth_y == silverman_bandwidth(y)
        assert g.x[0] == pytest.approx(x.min() - 3.0 * g.bandwidth_x)
        assert g.x[-1] == pytest.approx(x.max() + 3.0 * g.bandwidth_x)
        assert g.y[0] == pytest.approx(y.min() - 3.0 * g.bandwidth_y)
        assert g.y[-1] == pytest.approx(y.max() + 3.0 * g.bandwidth_y)
        assert len(g.x) == len(g.y) == GRID_POINTS
        assert np.all(g.density >= 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_density_has_the_bits_of_the_plain_kernel_expression(self, seed):
        # The kernels are built in place and summed over chunks of draws: the grid
        # has the bits of the plain expression summed over the same chunks in the
        # same order, and matches the whole product up to rounding.
        rng = np.random.default_rng(seed)
        n = (700, KERNEL_CHUNK, 2 * KERNEL_CHUNK + 1, 30, 1500)[seed]
        x, y = rng.standard_t(3, size=n), rng.normal(2.0, 0.3, size=n)
        g = emit_plot_grid(x, y)

        def kernel(grid, draws, h):
            u = (grid[:, None] - draws[None, :]) / h
            return np.exp(-0.5 * u * u) / (h * np.sqrt(2.0 * np.pi))

        chunked = np.zeros((GRID_POINTS, GRID_POINTS))
        for start in range(0, n, KERNEL_CHUNK):
            c = slice(start, start + KERNEL_CHUNK)
            chunked += kernel(g.x, x[c], g.bandwidth_x) @ kernel(g.y, y[c], g.bandwidth_y).T
        chunked /= n
        assert g.density.tobytes() == chunked.tobytes()
        whole = kernel(g.x, x, g.bandwidth_x) @ kernel(g.y, y, g.bandwidth_y).T / n
        assert np.max(np.abs(g.density - whole)) <= 1e-14 * whole.max()

    def test_density_matches_direct_kernel_sum(self, rng):
        x, y = rng.normal(size=30), rng.normal(size=30)
        g = emit_plot_grid(x, y)
        i, j = 37, 64
        ux = (g.x[i] - x) / g.bandwidth_x
        uy = (g.y[j] - y) / g.bandwidth_y
        direct = np.mean(np.exp(-0.5 * (ux**2 + uy**2))) / (2.0 * np.pi * g.bandwidth_x * g.bandwidth_y)
        assert g.density[i, j] == pytest.approx(direct, rel=1e-12)


class TestWriterMemory:
    # With whole 101 x B kernels and whole-file texts, a grid of 10 000 draws
    # peaked at 23.3 MB, and so did one comparison's files (10 000 draws of
    # four statistics, one plot pair); its draws file alone at 2.9 MB.
    BOUND = 2 * 2**20
    B = 10_000

    def test_plot_grid_memory_does_not_grow_with_the_draw_count(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_t(3, size=self.B), rng.normal(size=self.B)
        assert _tracemalloc_peak(lambda: emit_plot_grid(x, y)) < self.BOUND

    @pytest.mark.parametrize("plot_pairs", [(), ("a",)], ids=["draws", "draws_and_grid"])
    def test_comparison_files_are_written_in_bounded_memory(self, tmp_path, plot_pairs):
        rng = np.random.default_rng(6)
        draws = rng.standard_t(3, size=(self.B, 4))
        boot = BootstrapResult(
            draws=draws, point=draws.mean(axis=0), cov=np.cov(draws.T), seed=0, iterations=self.B, n_failed=0
        )
        res = ComparisonResult(name="main", labels=("a", "b"), bootstrap=boot, tests=None)
        paths = {}
        peak = _tracemalloc_peak(lambda: paths.update(_write_comparison(str(tmp_path), res, plot_pairs)))
        assert peak < self.BOUND
        assert sorted(paths) == ["draws_main"] + ["plotgrid_main_a"] * len(plot_pairs)
        np.testing.assert_array_equal(read_draws_csv(paths["draws_main"]), draws)


def regression_config(**overrides) -> dict:
    raw = {
        "input": "unused.csv",
        "cluster_column": None,
        "model": {"type": "ols", "outcome": "y", "regressors": ["x"]},
        "weights": {
            "baseline": {"kind": "all_ones"},
            "adjusted": {"kind": "residual_trim", "multiplier": 1.5},
        },
        "bootstrap": {"iterations": 80, "seed": 5},
        "test": {"alpha": 0.05, "seed": 5},
        "output": {"directory": "ignored"},
    }
    raw.update(overrides)
    return raw


class TestAnalysisConfig:
    def test_minimal_regression_config(self):
        config = AnalysisConfig.from_dict(regression_config())
        assert isinstance(config.model, RegressionComparison)
        assert config.model.model.outcome == "y"
        assert config.model.report_coefficients == ("x",)
        assert len(config.comparisons) == 1
        assert config.comparisons[0].name == "main"
        assert config.plan.iterations == 80

    def test_direct_construction_refuses_no_comparisons(self):
        # The message the CLI prints under [config].
        with pytest.raises(DataError, match=r"^comparisons must hold at least one pair$"):
            AnalysisConfig(input_path="unused", model=(LStatSpec("x"),), comparisons=())

    def test_direct_construction_refuses_repeated_names(self):
        # Two comparisons named alike would share one estimator in the
        # bootstrap pass and one set of output files.
        from trimtest.config import Comparison
        from trimtest.weights import WeightScheme

        pairs = (
            Comparison(WeightScheme.all_ones(), WeightScheme.quantile_trim(["x"], 0.02, 0.98), name="main"),
            Comparison(WeightScheme.all_ones(), WeightScheme.winsorize("x", 0.02, 0.98), name="main"),
        )
        with pytest.raises(DataError, match=r"^comparison names must be unique$"):
            AnalysisConfig(input_path="unused", model=(LStatSpec("x", name="x"),), comparisons=pairs)

    # Each cross-field rule: (edit of an lstat or OLS config document, the
    # same defect as fields of a config built in code, the message).
    _RESIDUAL_TRIM = (
        "comparison 'main': residual_trim needs a regression model's baseline residuals, "
        'so it must be the adjusted scheme of an "ols" or "iv" model'
    )
    _CROSS_FIELD = {
        "analytic_cov-ols": (
            "ols",
            lambda r: r["output"].update(analytic_cov=True),
            lambda c: dict(include_analytic_cov=True),
            'output.analytic_cov is for lstat models only, not "ols" or "iv"',
        ),
        "residual_trim-baseline": (
            "ols",
            lambda r: r.update(weights={"baseline": {"kind": "residual_trim"}, "adjusted": {"kind": "all_ones"}}),
            lambda c: dict(comparisons=(Comparison(WeightScheme.residual_trim(), WeightScheme.all_ones()),)),
            _RESIDUAL_TRIM,
        ),
        "residual_trim-lstat": (
            "lstat",
            lambda r: r["weights"].update(adjusted={"kind": "residual_trim"}),
            lambda c: dict(comparisons=(Comparison(WeightScheme.all_ones(), WeightScheme.residual_trim()),)),
            _RESIDUAL_TRIM,
        ),
        "label-repeated": (
            "lstat",
            lambda r: r["model"].update(statistics=[{"column": "x", "name": "a"}, {"column": "y", "name": "a"}]),
            lambda c: dict(model=(LStatSpec("x", name="a"), LStatSpec("y", name="a"))),
            "statistic label 'a' is taken; 'joint' and each label name one test",
        ),
        "label-joint": (
            "lstat",
            lambda r: r["model"]["statistics"][1].update(name="joint"),
            lambda c: dict(model=(LStatSpec("x", name="x"), LStatSpec("y", name="joint"))),
            "statistic label 'joint' is taken; 'joint' and each label name one test",
        ),
        "label-repeated-coefficient": (
            "ols",
            lambda r: r["model"].update(report_coefficients=["x", "x"]),
            lambda c: dict(model=replace(c.model, report_coefficients=("x", "x"))),
            "statistic label 'x' is taken; 'joint' and each label name one test",
        ),
        "norm-size": (
            "lstat",
            lambda r: r["test"].update(norm=[[1.0]]),
            lambda c: dict(test=replace(c.test, norm_matrix=[[1.0]])),
            "test.norm must be a 2 x 2 matrix, got shape (1, 1)",
        ),
        "plot_pairs-label": (
            "lstat",
            lambda r: r["output"].update(plot_pairs=["x", "nope"]),
            lambda c: dict(plot_pairs=("x", "nope")),
            "output.plot_pairs[1]: plot pair 'nope' is not a reported statistic",
        ),
        "plot_pairs-range": (
            "lstat",
            lambda r: r["output"].update(plot_pairs=[[0, 4]]),
            lambda c: dict(plot_pairs=((0, 4),)),
            "output.plot_pairs[0]: plot pair (0, 4) out of range for 4 draw columns",
        ),
        # Several defects: the analytic rule is checked before the names,
        # and the names before any comparison's own rules.
        "analytic_cov-before-names": (
            "ols",
            lambda r: (r["output"].update(analytic_cov=True), r.pop("weights"), r.update(comparisons=[])),
            lambda c: dict(include_analytic_cov=True, comparisons=()),
            'output.analytic_cov is for lstat models only, not "ols" or "iv"',
        ),
        "names-before-comparisons": (
            "lstat",
            lambda r: (
                r["model"]["statistics"][1].update(name="x"),
                r.update(comparisons=[{"name": "c", "weights": r.pop("weights")}] * 2),
            ),
            lambda c: dict(model=(LStatSpec("x"), LStatSpec("y", name="x")), comparisons=c.comparisons * 2),
            "comparison names must be unique",
        ),
    }

    @staticmethod
    def _document(model: str) -> dict:
        raw = regression_config()
        if model == "lstat":
            raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}, {"column": "y"}]}
            raw["weights"]["adjusted"] = {"kind": "quantile_trim", "columns": ["x", "y"], "upper_q": 0.9}
        return raw

    @pytest.mark.parametrize("case", list(_CROSS_FIELD))
    def test_direct_construction_meets_every_cross_field_rule(self, case):
        model, edit, fields, message = self._CROSS_FIELD[case]
        raw = self._document(model)
        valid = AnalysisConfig.from_dict(raw)
        edit(raw)
        with pytest.raises(DataError, match=rf"^\[config\] {re.escape(message)}$"):
            AnalysisConfig.from_dict(raw)
        # Built in code, with no stage around it: the same text, unprefixed.
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            replace(valid, **fields(valid))

    def test_repeated_statistic_labels_are_refused_before_the_run(self):
        # Tests are stored by label, so a second statistic named "a" would
        # replace the first one's test in results.json.
        rng = np.random.default_rng(3)
        data = PanelDataset({"x": rng.standard_t(3, size=300), "z": rng.standard_t(3, size=300)}, np.arange(300))
        trim = Comparison(WeightScheme.all_ones(), WeightScheme.quantile_trim(["x", "z"], 0.02, 0.98))
        with pytest.raises(DataError, match=r"^statistic label 'a' is taken; 'joint' and each label name one test$"):
            run_analysis(
                AnalysisConfig(
                    input_path="unused",
                    model=(LStatSpec("x", name="a"), LStatSpec("z", name="a")),
                    comparisons=(trim,),
                    plan=BootstrapPlan(iterations=50, seed=1),
                ),
                data=data,
            )

    def test_lstat_config_model_is_its_statistics(self):
        raw = regression_config()
        raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}, {"column": "y", "name": "m"}]}
        raw["weights"]["adjusted"] = {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.9}
        model = AnalysisConfig.from_dict(raw).model
        assert model == (LStatSpec("x", name="x"), LStatSpec("y", name="m"))

    def test_missing_required_keys(self):
        with pytest.raises(DataError, match="missing required key 'input'"):
            AnalysisConfig.from_dict({"model": {}})
        with pytest.raises(DataError, match="missing required key 'model'"):
            AnalysisConfig.from_dict({"input": "x.csv"})

    def test_unknown_model_type(self):
        raw = regression_config()
        raw["model"]["type"] = "quantile"
        with pytest.raises(DataError, match="unknown model type"):
            AnalysisConfig.from_dict(raw)

    def test_lstat_requires_statistics(self):
        raw = regression_config()
        raw["model"] = {"type": "lstat"}
        with pytest.raises(DataError, match="statistics"):
            AnalysisConfig.from_dict(raw)

    def test_iv_requires_endogenous(self):
        raw = regression_config()
        raw["model"] = {"type": "iv", "outcome": "y", "regressors": ["x"]}
        with pytest.raises(DataError, match="endogenous"):
            AnalysisConfig.from_dict(raw)

    def test_comparison_validation(self):
        raw = regression_config()
        raw.pop("weights")
        raw["comparisons"] = [
            {"name": "a", "weights": {"baseline": {"kind": "all_ones"}}}
        ]
        with pytest.raises(DataError, match=r"missing required key 'comparisons\[0\]\.adjusted'"):
            AnalysisConfig.from_dict(raw)
        raw["comparisons"] = [
            {
                "name": "a",
                "weights": {
                    "baseline": {"kind": "all_ones"},
                    "adjusted": {"kind": "all_ones"},
                    "typo": 1,
                },
            }
        ]
        with pytest.raises(DataError, match=r"unknown key\(s\) in comparisons\[0\]: typo"):
            AnalysisConfig.from_dict(raw)
        ok = {
            "baseline": {"kind": "all_ones"},
            "adjusted": {"kind": "all_ones"},
        }
        raw["comparisons"] = [
            {"name": "dup", "weights": ok},
            {"name": "dup", "weights": ok},
        ]
        with pytest.raises(DataError, match="unique"):
            AnalysisConfig.from_dict(raw)

    def test_config_needs_some_weights(self):
        raw = regression_config()
        raw.pop("weights")
        with pytest.raises(DataError, match="weights object or a comparisons"):
            AnalysisConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    def test_number_readers_refuse_non_finite_values(self, value):
        with pytest.raises(DataError, match=rf"^test\.h must be finite, got {re.escape(repr(value))}$"):
            schema._real(value, "test.h")
        with pytest.raises(DataError, match=rf"^x\[2\] must be finite, got {re.escape(repr(value))}$"):
            schema._numbers([0.0, 1, value], "x")
        # A wrong type keeps its own message.
        with pytest.raises(DataError, match=r"^test\.h must be a number, got 'nan'$"):
            schema._real("nan", "test.h")
        assert schema._real(10**300, "test.h") == 1e300
        assert schema._numbers([0, 2.5], "x") == (0.0, 2.5)

    def test_stage_prefix_on_errors(self):
        with pytest.raises(DataError, match=r"^\[config\]"):
            AnalysisConfig.from_dict({"input": "x.csv"})


class TestReadmeConfigKeys:
    """README's "Config file" lists, under each heading, exactly the keys the schema reads."""

    SECTIONS = {
        "Top level": schema._ROOT,
        '`model` of type `"ols"` or `"iv"`': (
            schema._MODEL.sections["ols"],
            schema._MODEL.sections["iv"],
        ),
        '`model` of type `"lstat"`': schema._MODEL.sections["lstat"],
        "`model.derived`": schema._DERIVED,
        "`statistics` entry": schema._STATISTIC,
        "Transform": schema._TRANSFORM,
        "Comparison pair": schema._PAIR,
        "Weight scheme": schema._SCHEME,
        "`lags` entry": schema._LAG,
        "`bootstrap`": schema._ROOT.keys["bootstrap"][0],
        "`test`": schema._TEST,
        "`output`": schema._OUTPUT,
        "`mc`": schema._MC,
        "`mc.dgp`": schema._DGP,
    }

    @staticmethod
    def _sections(unit) -> list:
        """The object sections under one heading: a section, some, or every one of a kind."""
        if isinstance(unit, schema._Kinds):
            return list(unit.sections.values())
        return list(unit) if isinstance(unit, tuple) else [unit]

    @classmethod
    def _reachable(cls, reader, seen: dict) -> dict:
        """{id: section} of every object section the reader reads, nested ones included."""
        if reader is schema._comparison:
            reader = schema._PAIR
        if isinstance(reader, schema._Entries):
            return cls._reachable(reader.item, seen)
        if isinstance(reader, (schema._Section, schema._Kinds)):
            for section in cls._sections(reader):
                if id(section) not in seen:
                    seen[id(section)] = section
                    for read, _ in section.keys.values():
                        cls._reachable(read, seen)
        return seen

    @staticmethod
    def _readme() -> dict[str, set[str]]:
        """{heading: keys} of README's config lists; a key is a bullet's `name` followed by " ("."""
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        config = text.split("\n### Config file\n")[1].split("\n### ")[0]
        out = {}
        for block in config.split("\n#### ")[1:]:
            heading, _, body = block.partition("\n")
            bullets = "\n".join(line for line in body.splitlines() if line.startswith(("- ", "  ")))
            out[heading] = set(re.findall(r"`(\w+)` \(", bullets))
        return out

    def test_every_schema_section_has_a_readme_list(self):
        listed = {id(s): s for unit in self.SECTIONS.values() for s in self._sections(unit)}
        assert set(self._reachable(schema._ROOT, {})) == set(listed)
        assert set(self._readme()) == set(self.SECTIONS)

    @pytest.mark.parametrize("heading", list(SECTIONS))
    def test_readme_names_exactly_the_schema_keys(self, heading):
        schema = {key for s in self._sections(self.SECTIONS[heading]) for key in s.keys}
        assert self._readme()[heading] == schema


class TestPointEstimates:
    def test_matches_direct_fit(self):
        data = make_panel(25, 4, seed=9)
        config = AnalysisConfig.from_dict(regression_config())
        out = point_estimates(config, data=data)
        assert set(out) == {"main"}
        fit = weighted_ols(RegressionModel("y", ("x",)), data)
        assert out["main"]["labels"] == ["x"]
        assert out["main"]["baseline"][0] == pytest.approx(fit.coef("x"), abs=1e-13)
        assert out["main"]["adjusted"][0] != out["main"]["baseline"][0]


@pytest.fixture(scope="module")
def bundle():
    data = make_panel(30, 4, seed=14)
    config = AnalysisConfig.from_dict(regression_config())
    return run_analysis(config, data=data), data


class TestRunAnalysis:
    def test_baseline_matches_plain_ols(self, bundle):
        report, data = bundle
        res = report.results[0]
        fit = weighted_ols(RegressionModel("y", ("x",)), data)
        assert res.tests.baseline[0] == pytest.approx(fit.coef("x"), abs=1e-13)

    def test_table_and_dict_agree_verbatim(self, bundle):
        report, _ = bundle
        res = report.results[0]
        rows = report.results_dict["comparisons"]["main"]["table_rows"]
        # The formatted table contains exactly the numbers stored in the
        # JSON payload, token for token.
        for row in rows:
            for token in row.values():
                if token:
                    assert token in report.table_text

    def test_dict_carries_provenance_and_seeds(self, bundle):
        report, _ = bundle
        entry = report.results_dict["comparisons"]["main"]
        assert entry["bootstrap_cov"]["provenance"] == "bootstrap"
        assert entry["bootstrap_cov"]["iterations"] == 80
        assert entry["bootstrap_cov"]["seed"] == 5
        assert report.results_dict["rows_used"] == 120
        d = len(entry["labels"])
        diff = np.asarray(entry["difference_cov"])
        assert diff.shape == (d, d)

    def test_identical_schemes_accept_with_p_one(self):
        data = make_panel(20, 3, seed=6)
        raw = regression_config()
        raw["weights"] = {
            "baseline": {"kind": "all_ones"},
            "adjusted": {"kind": "all_ones"},
        }
        report = run_analysis(AnalysisConfig.from_dict(raw), data=data)
        res = report.results[0]
        np.testing.assert_array_equal(res.tests.baseline, res.tests.adjusted)
        assert res.tests.joint.p_value_formal == 1.0
        assert not res.tests.joint.reject
        for t in res.tests.coefficient_tests:
            assert t.p_value_formal == 1.0

    def test_lstat_mode_with_analytic_covariance(self):
        rng = np.random.default_rng(3)
        from trimtest.dataset import PanelDataset

        data = PanelDataset({"x": rng.normal(size=90)}, np.arange(90))
        raw = regression_config()
        raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}]}
        raw["weights"] = {
            "baseline": {"kind": "all_ones"},
            "adjusted": {
                "kind": "quantile_trim",
                "columns": ["x"],
                "lower_q": 0.05,
                "upper_q": 0.95,
            },
        }
        raw["output"]["analytic_cov"] = True
        report = run_analysis(AnalysisConfig.from_dict(raw), data=data)
        res = report.results[0]
        assert res.labels == ("x",)
        assert res.tests.baseline[0] == pytest.approx(data.column("x").mean())
        assert res.analytic is not None
        assert res.analytic.shape == (2, 2)
        assert res.flags["analytic_cov_degenerate_all_ones"] is False

    def test_all_ones_lstat_flags_degenerate_analytic(self):
        rng = np.random.default_rng(4)
        from trimtest.dataset import PanelDataset

        data = PanelDataset({"x": rng.normal(size=40)}, np.arange(40))
        raw = regression_config()
        raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}]}
        raw["weights"] = {
            "baseline": {"kind": "all_ones"},
            "adjusted": {"kind": "all_ones"},
        }
        raw["output"]["analytic_cov"] = True
        report = run_analysis(AnalysisConfig.from_dict(raw), data=data)
        res = report.results[0]
        assert res.flags["analytic_cov_degenerate_all_ones"] is True
        np.testing.assert_array_equal(res.analytic, np.zeros((2, 2)))
        assert "bootstrap covariance is authoritative" in report.table_text


def _three_comparisons(iterations=40, seed=11):
    """An lstat config with three comparisons, and its data."""
    rng = np.random.default_rng(21)
    data = PanelDataset({"x": rng.standard_t(3, size=120)}, np.repeat(np.arange(40), 3))
    raw = regression_config(bootstrap={"iterations": iterations, "seed": seed})
    raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}]}
    del raw["weights"]
    raw["comparisons"] = [
        {"name": "trim", "baseline": {"kind": "all_ones"},
         "adjusted": {"kind": "quantile_trim", "columns": ["x"], "lower_q": 0.05, "upper_q": 0.95}},
        {"name": "wins", "baseline": {"kind": "all_ones"},
         "adjusted": {"kind": "winsorize", "columns": ["x"], "lower_q": 0.1, "upper_q": 0.9}},
        {"name": "upper", "baseline": {"kind": "all_ones"},
         "adjusted": {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.8}},
    ]
    return raw, data


class TestSharedDrawPass:
    """Every comparison of an analysis is evaluated on one pass of draws."""

    def test_draws_are_built_once_per_analysis(self, monkeypatch):
        from trimtest import bootstrap

        calls = []
        original = bootstrap.draw_rng

        def counted(seed, b):
            calls.append(b)
            return original(seed, b)

        monkeypatch.setattr(bootstrap, "draw_rng", counted)
        raw, data = _three_comparisons(iterations=40)
        report = run_analysis(AnalysisConfig.from_dict(raw), data=data)
        assert len(report.results) == 3
        assert calls == list(range(40))

    def test_each_comparison_equals_its_own_run(self):
        raw, data = _three_comparisons()
        report = run_analysis(AnalysisConfig.from_dict(raw), data=data)
        for i, res in enumerate(report.results):
            alone_raw = {**raw, "comparisons": [raw["comparisons"][i]]}
            alone_report = run_analysis(AnalysisConfig.from_dict(alone_raw), data=data)
            (alone,) = alone_report.results
            assert res.name == alone.name
            np.testing.assert_array_equal(res.bootstrap.draws, alone.bootstrap.draws)
            np.testing.assert_array_equal(res.bootstrap.cov, alone.bootstrap.cov)
            np.testing.assert_array_equal(res.tests.baseline, alone.tests.baseline)
            np.testing.assert_array_equal(res.tests.adjusted, alone.tests.adjusted)
            assert report.results_dict["comparisons"][res.name] == (
                alone_report.results_dict["comparisons"][res.name]
            )

    def test_a_draw_that_fails_one_comparison_leaves_the_other_complete(self, monkeypatch):
        raw, data = _three_comparisons(iterations=30)
        raw["comparisons"] = raw["comparisons"][:2]
        config = AnalysisConfig.from_dict(raw)
        build = analysis.comparison_estimator
        names = iter(c.name for c in config.comparisons)  # built in config order
        counter = {"calls": 0}

        def build_failing_on_draw_7(*model_and_schemes):
            estimator, labels, specs = build(*model_and_schemes)
            if next(names) != "trim":
                return estimator, labels, specs

            def one_draw_at_a_time(data, row_weights):
                # Call 0 is the point estimate, call b + 1 draw b.
                call = counter["calls"]
                counter["calls"] += 1
                if call == 8:
                    raise NumericalError("draw 7 is refused")
                return estimator(data, row_weights)

            return one_draw_at_a_time, labels, specs

        monkeypatch.setattr(analysis, "comparison_estimator", build_failing_on_draw_7)
        trim, wins = run_analysis(config, data=data).results
        assert trim.bootstrap.failed_indices == (7,)
        assert np.isnan(trim.bootstrap.draws[7]).all()
        assert np.isfinite(np.delete(trim.bootstrap.draws, 7, axis=0)).all()
        assert wins.bootstrap.failed_indices == () and wins.bootstrap.n_failed == 0
        assert np.isfinite(wins.bootstrap.draws).all() and wins.bootstrap.draws.shape == (30, 2)

    def test_bootstrap_errors_come_before_test_errors(self, monkeypatch):
        # The shared pass ends before the first comparison's test runs.
        raw, data = _three_comparisons(iterations=20)
        config = AnalysisConfig.from_dict(raw)
        build = analysis.comparison_estimator
        names = iter(c.name for c in config.comparisons)  # built in config order

        def build_failing_last(*model_and_schemes):
            estimator, labels, specs = build(*model_and_schemes)
            if next(names) != "upper":
                return estimator, labels, specs

            def fails(data, row_weights):
                raise ValueError("point refused")

            return fails, labels, specs

        def refuse_tests(*args):
            raise NumericalError("test refused")

        monkeypatch.setattr(analysis, "comparison_estimator", build_failing_last)
        monkeypatch.setattr(analysis, "comparison_tests", refuse_tests)
        with pytest.raises(ValueError, match=r"^\[bootstrap:upper\] point refused$"):
            run_analysis(config, data=data)


class TestOutputsAndReport:
    def test_write_outputs_and_regenerate(self, tmp_path):
        data = make_panel(25, 4, seed=21)
        raw = regression_config()
        raw["output"] = {"directory": str(tmp_path / "out"), "plot_pairs": ["x"]}
        config = AnalysisConfig.from_dict(raw)
        report = run_analysis(config, data=data)
        paths = write_outputs(report)
        for key in ("results", "report", "draws_main", "plotgrid_main_x"):
            assert key in paths
            assert os.path.exists(paths[key])
        with open(paths["results"], encoding="utf-8") as fh:
            stored = json.load(fh)
        regenerated = regenerate_report(str(tmp_path / "out"))
        for label, t in stored["comparisons"]["main"]["tests"].items():
            assert regenerated["main"][label] == t["p_value_formal"]
        joint = stored["comparisons"]["main"]["joint_test"]["p_value_formal"]
        assert regenerated["main"]["joint"] == joint

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        data = make_panel(15, 3, seed=30)
        raws = []
        for sub in ("a", "b"):
            raw = regression_config()
            raw["output"] = {"directory": str(tmp_path / sub)}
            config = AnalysisConfig.from_dict(raw)
            bundle = run_analysis(config, data=data)
            write_outputs(bundle)
            with open(tmp_path / sub / "results.json", "rb") as fh:
                raws.append(fh.read())
        # Byte-identical apart from the self-referential output paths, which
        # do not appear in results.json at all.
        assert raws[0] == raws[1]

    def test_index_plot_pairs(self, tmp_path):
        data = make_panel(15, 3, seed=12)
        raw = regression_config()
        raw["output"] = {"directory": str(tmp_path / "o"), "plot_pairs": [[0, 1]]}
        config = AnalysisConfig.from_dict(raw)
        bundle = run_analysis(config, data=data)
        paths = write_outputs(bundle)
        assert "plotgrid_main_col0_col1" in paths

    def test_unknown_plot_pair_label(self, tmp_path):
        raw = regression_config()
        raw["output"] = {"directory": str(tmp_path / "o"), "plot_pairs": ["zzz"]}
        with pytest.raises(
            DataError, match=r"\[config\] output\.plot_pairs\[0\]: .* not a reported statistic"
        ):
            AnalysisConfig.from_dict(raw)

    def test_explicit_norm_matrix_runs_and_regenerates(self, tmp_path):
        rng = np.random.default_rng(8)
        data = PanelDataset(
            {"a": rng.standard_t(3, size=120), "b": rng.normal(size=120)}, np.arange(120)
        )
        norm = [[2.0, 0.5], [0.5, 1.0]]
        raw = regression_config()
        raw["model"] = {"type": "lstat", "statistics": [{"column": "a"}, {"column": "b"}]}
        raw["weights"] = {
            "baseline": {"kind": "all_ones"},
            "adjusted": {"kind": "quantile_trim", "columns": ["a", "b"], "lower_q": 0.05, "upper_q": 0.95},
        }
        raw["test"] = {"alpha": 0.05, "seed": 5, "norm": norm, "mc_draws": 2000}
        raw["output"] = {"directory": str(tmp_path / "out")}
        bundle = run_analysis(AnalysisConfig.from_dict(raw), data=data)
        res = bundle.results[0]
        diff = res.tests.baseline - res.tests.adjusted
        # Statistic j alone is tested in the norm [[A[j, j]]].
        for j, t in enumerate(res.tests.coefficient_tests):
            assert t.path == "chi2"
            assert t.statistic == pytest.approx(abs(diff[j]) / np.sqrt(norm[j][j]), rel=1e-12)
            assert 0.0 <= t.p_value_formal <= 1.0
            assert 0.0 <= t.p_value_heuristic <= 1.0
        assert res.tests.joint.path == "mc"
        expected = np.sqrt(diff @ np.linalg.solve(np.array(norm), diff))
        assert res.tests.joint.statistic == pytest.approx(expected, rel=1e-12)
        write_outputs(bundle)
        with open(tmp_path / "out" / "results.json", encoding="utf-8") as fh:
            stored = json.load(fh)
        assert stored["test"]["norm"] == norm
        regenerated = regenerate_report(str(tmp_path / "out"))
        main = stored["comparisons"]["main"]
        for label, t in main["tests"].items():
            assert regenerated["main"][label] == t["p_value_formal"]
        assert regenerated["main"]["joint"] == main["joint_test"]["p_value_formal"]

    def test_norm_matrix_shape_must_match_statistics(self):
        # Refused when the config is read, before any draw is made.
        raw = regression_config()
        raw["test"] = {"norm": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(DataError, match=r"\[config\] test.norm must be a 1 x 1 matrix"):
            AnalysisConfig.from_dict(raw)

    def test_a_bundle_with_no_comparison_writes_results_and_report(self, tmp_path):
        raw = regression_config()
        raw["output"] = {"directory": str(tmp_path), "plot_pairs": ["x"]}
        config = AnalysisConfig.from_dict(raw)
        paths = write_outputs(report_bundle(config, LoadReport(10, 0, {}), []))
        assert paths == {"results": str(tmp_path / "results.json"), "report": str(tmp_path / "report.txt")}
        assert sorted(os.listdir(tmp_path)) == ["report.txt", "results.json"]
        assert json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))["comparisons"] == {}

    def test_regenerate_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="results.json"):
            regenerate_report(str(tmp_path / "missing"))
