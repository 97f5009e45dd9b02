"""End-to-end tests of the command-line interface.

main() is driven in-process; one test exercises the module entry point
through a subprocess, importing the package from this checkout's src.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trimtest import bootstrap
from trimtest.cli import main
from trimtest.report import _regenerated_tests

from conftest import _count_forks, _pin_cpus, _raising, make_panel


@pytest.fixture
def workdir(tmp_path):
    data = make_panel(25, 4, seed=77)
    lines = ["y,x,unit"]
    for i in range(data.n_rows):
        lines.append(
            f"{float(data.column('y')[i])!r},{float(data.column('x')[i])!r},"
            f"c{data.cluster_ids[i]}"
        )
    csv_path = tmp_path / "panel.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {
        "input": str(csv_path),
        "cluster_column": "unit",
        "model": {"type": "ols", "outcome": "y", "regressors": ["x"]},
        "weights": {
            "baseline": {"kind": "all_ones"},
            "adjusted": {"kind": "residual_trim", "multiplier": 1.5},
        },
        "bootstrap": {"iterations": 120, "seed": 9},
        "test": {"alpha": 0.05, "seed": 9},
        "output": {"directory": str(tmp_path / "out")},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, str(config_path)


def _read_config(config: str) -> dict:
    with open(config, encoding="utf-8") as fh:
        return json.load(fh)


def _put(raw: dict, dotted: str, value) -> None:
    """Set the config setting at a dotted path."""
    *parents, key = dotted.split(".")
    for part in parents:
        raw = raw[part]
    raw[key] = value


class TestEstimate:
    def test_writes_estimates_and_prints_them(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["estimate", "--config", config]) == 0
        printed = json.loads(capsys.readouterr().out)
        with open(tmp_path / "out" / "estimates.json", encoding="utf-8") as fh:
            stored = json.load(fh)
        assert printed == stored
        assert printed["main"]["labels"] == ["x"]
        assert printed["main"]["baseline"][0] != printed["main"]["adjusted"][0]
        # Point estimation must not produce bootstrap artifacts.
        assert not os.path.exists(tmp_path / "out" / "draws_main.csv")


    def test_an_input_with_a_byte_order_mark_reads_as_without_one(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["estimate", "--config", config]) == 0
        plain = capsys.readouterr().out
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "panel.csv").read_bytes())
        raw = _read_config(config)
        raw["input"] = str(bom)
        (tmp_path / "bom.json").write_text(json.dumps(raw), encoding="utf-8")
        assert main(["estimate", "--config", str(tmp_path / "bom.json"), "--output", str(tmp_path / "bom-out")]) == 0
        assert capsys.readouterr().out == plain
        written = (tmp_path / "bom-out" / "estimates.json").read_bytes()
        assert written == (tmp_path / "out" / "estimates.json").read_bytes()
        assert not written.startswith(b"\xef\xbb\xbf")


class TestBootstrapAndTest:
    def test_test_subcommand_writes_everything(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["test", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "comparison: main" in out
        assert "p_formal" in out
        for name in ("results.json", "report.txt", "draws_main.csv"):
            assert os.path.exists(tmp_path / "out" / name)

    def test_bootstrap_is_another_name_for_test(self, workdir, capsys):
        tmp_path, config = workdir
        runs = []
        for sub in ("test", "bootstrap"):
            assert main([sub, "--config", config, "--output", str(tmp_path / sub)]) == 0
            table = capsys.readouterr().out.split("wrote ")[0]
            runs.append((table, (tmp_path / sub / "results.json").read_bytes()))
        assert runs[0] == runs[1]
        assert "comparison: main" in runs[0][0]

    def test_outputs_identical_across_threads_and_runs(self, workdir, capsys):
        tmp_path, config = workdir
        contents = []
        for sub, threads in (("t1", "1"), ("t4", "4"), ("t1b", "1")):
            code = main(
                [
                    "test",
                    "--config",
                    config,
                    "--threads",
                    threads,
                    "--output",
                    str(tmp_path / sub),
                ]
            )
            assert code == 0
            blob = {}
            for name in ("results.json", "report.txt", "draws_main.csv"):
                with open(tmp_path / sub / name, "rb") as fh:
                    blob[name] = fh.read()
            contents.append(blob)
        capsys.readouterr()
        assert contents[0] == contents[1] == contents[2]

    @staticmethod
    def _lstat_config(tmp_path, iterations: int) -> str:
        """Two columns of 300 rows, each trimmed and Winsorized in its own comparison."""
        rng = np.random.default_rng(5)
        x = np.round(rng.standard_t(3, size=300), 2)
        x[x == 0.0] = 0.5
        z = np.round(rng.normal(size=300), 1)
        lines = ["x,z"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, z)]
        (tmp_path / "sample.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = {
            "input": str(tmp_path / "sample.csv"),
            "model": {"type": "lstat", "statistics": [{"column": "x"}, {"column": "z"}]},
            "comparisons": [
                {"name": "trim", "weights": {
                    "baseline": {"kind": "all_ones"},
                    "adjusted": {"kind": "quantile_trim", "columns": ["x", "z"],
                                 "lower_q": 0.05, "upper_q": 0.95},
                }},
                {"name": "winsor", "weights": {
                    "baseline": {"kind": "all_ones"},
                    "adjusted": {"kind": "winsorize", "columns": ["x"],
                                 "lower_q": 0.05, "upper_q": 0.95},
                }},
            ],
            "bootstrap": {"iterations": iterations, "seed": 3, "resample_unit": "row"},
            "test": {"alpha": 0.05, "h": 0.0, "norm": "diff_cov", "seed": 4},
            "output": {"plot_pairs": ["x"], "analytic_cov": True},
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        return str(tmp_path / "config.json")

    def test_lstat_outputs_identical_across_threads(self, tmp_path, capsys):
        # Both order-statistic schemes in two comparisons share each column's
        # sort order across draws and threads; the files must not notice.
        config = self._lstat_config(tmp_path, 200)
        contents = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            argv = ["test", "--config", config, "--threads", threads]
            assert main(argv + ["--output", str(out)]) == 0
            contents.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        capsys.readouterr()
        assert {"draws_trim.csv", "draws_winsor.csv", "results.json"} <= set(contents[0])
        assert contents[0] == contents[1]

    def test_lstat_outputs_identical_across_worker_counts(self, tmp_path, capsys, monkeypatch):
        # 12 blocks of draws: enough for three workers.  Each of the two
        # comparisons writes 1308 x 4 draw cells and a 101 x 101 grid, enough
        # for a writer of its own.
        config = self._lstat_config(tmp_path, 12 * (bootstrap.BLOCK_ENTRIES // 300))
        forks = _count_forks(monkeypatch)
        writer_forks = _writer_forks(monkeypatch, forks)
        digests = []
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            forks.clear()
            out = tmp_path / f"cpus{cpus}"
            assert main(["test", "--config", config, "--output", str(out)]) == 0
            assert writer_forks[-1] == min(cpus, 2) - 1
            assert len(forks) - writer_forks[-1] == cpus - 1  # the bootstrap's
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            digests.append(digest.hexdigest())
        capsys.readouterr()
        assert digests[0] == digests[1] == digests[2]

    @pytest.mark.parametrize("call, error", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)], ids=["fork-EAGAIN", "pipe-EMFILE"])
    def test_a_worker_that_cannot_start_leaves_the_outputs_unchanged(self, tmp_path, capsys, monkeypatch, call, error):
        # Out of processes or file descriptors: this process runs the blocks instead.
        config = self._lstat_config(tmp_path, 12 * (bootstrap.BLOCK_ENTRIES // 300))
        digests = []
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            if cpus > 1:
                monkeypatch.setattr(os, call, _raising(call, error))
            out = tmp_path / f"cpus{cpus}"
            assert main(["test", "--config", config, "--output", str(out)]) == 0
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            digests.append(digest.hexdigest())
        assert "Traceback" not in capsys.readouterr().err
        assert digests[0] == digests[1] == digests[2]

    def test_seed_override_changes_draws(self, workdir, capsys):
        tmp_path, config = workdir
        main(["bootstrap", "--config", config, "--output", str(tmp_path / "s9")])
        main(
            [
                "bootstrap",
                "--config",
                config,
                "--seed",
                "10",
                "--output",
                str(tmp_path / "s10"),
            ]
        )
        capsys.readouterr()
        a = (tmp_path / "s9" / "draws_main.csv").read_bytes()
        b = (tmp_path / "s10" / "draws_main.csv").read_bytes()
        assert a != b


def _writer_forks(monkeypatch, forks: list) -> list:
    """One entry per write_outputs call of the CLI: how many of `forks` it made."""
    from trimtest import cli

    counts, write = [], cli.write_outputs

    def counted(bundle):
        before = len(forks)
        try:
            return write(bundle)
        finally:
            counts.append(len(forks) - before)

    monkeypatch.setattr(cli, "write_outputs", counted)
    return counts


def _comparisons_config(tmp_path, count: int, iterations: int, plot_pairs: list) -> str:
    """The first `count` of three L-statistic comparisons of x and z, 300 rows; the config's path."""
    rng = np.random.default_rng(8)
    x = np.round(rng.standard_t(3, size=300), 2)
    x[x == 0.0] = 0.5
    z = np.round(rng.normal(size=300), 1)
    lines = ["x,z"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, z)]
    (tmp_path / "sample.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    levels = {"lower_q": 0.05, "upper_q": 0.95}
    comparisons = [
        ("trim", {"kind": "quantile_trim", "columns": ["x", "z"], **levels}),
        ("winsor", {"kind": "winsorize", "columns": ["x"], **levels}),
        ("upper", {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.9}),
    ]
    config = {
        "input": str(tmp_path / "sample.csv"),
        "model": {"type": "lstat", "statistics": [{"column": "x"}, {"column": "z"}]},
        "comparisons": [
            {"name": name, "baseline": {"kind": "all_ones"}, "adjusted": adjusted}
            for name, adjusted in comparisons[:count]
        ],
        "bootstrap": {"iterations": iterations, "seed": 5, "resample_unit": "row"},
        "test": {"alpha": 0.05, "h": 0.0, "seed": 6},
        "output": {"plot_pairs": plot_pairs},
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return str(tmp_path / "config.json")


class TestComparisonWriters:
    """Each comparison's draws file and plot grids are written on the fork map."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_outputs_identical_for_any_cpu_count(self, tmp_path, capsys, monkeypatch, count):
        # 200 x 4 draw cells and a 101 x 101 grid per comparison: a writer each.
        config = _comparisons_config(tmp_path, count, 200, ["x"])
        writer_forks = _writer_forks(monkeypatch, _count_forks(monkeypatch))
        runs = []
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["test", "--config", config, "--output", str(out)]) == 0
            printed = capsys.readouterr().out.replace(str(out), "<out>")
            runs.append((printed, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert writer_forks == [min(cpus, count) - 1 for cpus in (1, 2, 3)]
        assert len(runs[0][1]) == 2 + 2 * count  # results, report, and a draws file and grid each
        assert runs[0] == runs[1] == runs[2]

    def test_small_outputs_are_written_by_this_process(self, tmp_path, capsys, monkeypatch):
        # 100 x 4 draw cells per comparison and no plot pair: not worth a fork.
        config = _comparisons_config(tmp_path, 2, 100, [])
        writer_forks = _writer_forks(monkeypatch, _count_forks(monkeypatch))
        _pin_cpus(monkeypatch, 2)
        assert main(["test", "--config", config, "--output", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert writer_forks == [0]
        assert {"draws_trim.csv", "draws_winsor.csv"} <= {p.name for p in (tmp_path / "out").iterdir()}

    def test_the_first_failing_comparison_is_the_error_raised(self, tmp_path, monkeypatch):
        # Comparison 0's draws have zero spread and comparison 1's only one
        # finite row, so both grids fail, each with its own message.
        from trimtest.bootstrap import BootstrapResult
        from trimtest.config import AnalysisConfig
        from trimtest.csvio import LoadReport
        from trimtest.errors import NumericalError, stage
        from trimtest.report import ComparisonResult, ReportBundle, write_outputs

        raw = _read_config(_comparisons_config(tmp_path, 3, 2000, ["x"]))
        config = AnalysisConfig.from_dict({**raw, "output": {"plot_pairs": ["x"], "directory": str(tmp_path / "out")}})
        one_row = np.full((2000, 4), np.nan)
        one_row[0] = 1.0
        draws = [np.ones((2000, 4)), one_row, np.random.default_rng(1).normal(size=(2000, 4))]
        results = tuple(
            ComparisonResult(c.name, ("x", "z"), BootstrapResult(d, np.zeros(4), np.eye(4), 5, 2000, 0), tests=None)
            for c, d in zip(config.comparisons, draws)
        )
        bundle = ReportBundle(config, LoadReport(300, 0, {}), results, "", {})
        forks = _count_forks(monkeypatch)
        raised = []
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            forks.clear()
            with pytest.raises(NumericalError) as info:
                with stage("write"):
                    write_outputs(bundle)
            raised.append(str(info.value))
            assert len(forks) == cpus - 1
        assert raised == ["[write] kernel density is degenerate: draws have zero spread"] * 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFlags:
    """--seed, --iterations and --output set one config setting each."""

    def test_test_flags_set_bootstrap_and_output_settings(self, workdir, capsys):
        # The bare config has no bootstrap or output section: the flags create them.
        tmp_path, config = workdir
        raw = _read_config(config)
        del raw["bootstrap"], raw["output"]
        (tmp_path / "bare.json").write_text(json.dumps(raw), encoding="utf-8")
        raw["bootstrap"] = {"iterations": 50, "seed": 10}
        raw["output"] = {"directory": str(tmp_path / "by-config")}
        (tmp_path / "set.json").write_text(json.dumps(raw), encoding="utf-8")
        flags = ["--seed", "10", "--iterations", "50", "--output", str(tmp_path / "by-flags")]
        assert main(["test", "--config", str(tmp_path / "bare.json")] + flags) == 0
        assert main(["test", "--config", str(tmp_path / "set.json")]) == 0
        capsys.readouterr()
        results = json.loads((tmp_path / "by-flags" / "results.json").read_text(encoding="utf-8"))
        assert (results["bootstrap"]["seed"], results["bootstrap"]["iterations"]) == (10, 50)
        for name in ("results.json", "report.txt", "draws_main.csv"):
            by_flags, by_config = (tmp_path / d / name for d in ("by-flags", "by-config"))
            assert by_flags.read_bytes() == by_config.read_bytes()

    def test_flag_leaves_a_section_that_is_not_an_object(self, workdir, capsys):
        tmp_path, config = workdir
        raw = _read_config(config)
        raw["bootstrap"] = 5
        (tmp_path / "five.json").write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        argv = ["test", "--config", str(tmp_path / "five.json"), "--seed", "1"]
        assert main(argv + ["--output", str(out)]) == 2
        assert capsys.readouterr().err == "data error: [config] bootstrap must be an object, got 5\n"
        assert not out.exists()

    def test_mc_flags_set_mc_and_output_settings(self, tmp_path, capsys, monkeypatch):
        mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2}
        (tmp_path / "mc.json").write_text(json.dumps({"mc": mc}), encoding="utf-8")
        set_mc = {**mc, "seed": 7, "inner_iterations": 20}
        doc = {"mc": set_mc, "output": {"directory": str(tmp_path / "by-config")}}
        (tmp_path / "set.json").write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # the default output directory would land here
        flags = ["--seed", "7", "--iterations", "20", "--output", str(tmp_path / "by-flags")]
        assert main(["mc", "--config", str(tmp_path / "mc.json")] + flags) == 0
        assert main(["mc", "--config", str(tmp_path / "set.json")]) == 0
        capsys.readouterr()
        blobs = [(tmp_path / d / "mc_results.json").read_bytes() for d in ("by-flags", "by-config")]
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["seed"] == 7
        assert not (tmp_path / "trimtest-output").exists()


class TestReport:
    def test_report_matches_stored_pvalues(self, workdir, capsys):
        tmp_path, config = workdir
        main(["test", "--config", config])
        capsys.readouterr()
        assert main(["report", "--output", str(tmp_path / "out")]) == 0
        regenerated = json.loads(capsys.readouterr().out)
        with open(tmp_path / "out" / "results.json", encoding="utf-8") as fh:
            stored = json.load(fh)
        tests = stored["comparisons"]["main"]["tests"]
        for label, t in tests.items():
            assert regenerated["main"][label] == t["p_value_formal"]


    def test_report_regenerates_test_paths(self, workdir, capsys):
        # Two statistics under the identity norm with h > 0: the joint test
        # takes the Monte Carlo path, the per-statistic tests the df = 1
        # noncentral chi-square one.
        tmp_path, config = workdir
        raw = _read_config(config)
        raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}, {"column": "y"}]}
        raw["weights"]["adjusted"] = {
            "kind": "quantile_trim", "columns": ["x", "y"], "lower_q": 0.05, "upper_q": 0.95,
        }
        raw["test"] = {"alpha": 0.05, "seed": 9, "norm": "identity", "h": 0.01, "mc_draws": 2000}
        p = tmp_path / "mc_path.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["test", "--config", str(p)]) == 0
        capsys.readouterr()
        with open(tmp_path / "out" / "results.json", encoding="utf-8") as fh:
            stored = json.load(fh)["comparisons"]["main"]
        joint = stored["joint_test"]
        assert joint["path"] == "mc"
        p_formal = joint["p_value_formal"]
        assert joint["mc_std_error"] == np.sqrt(p_formal * (1.0 - p_formal) / 2000)
        for t in stored["tests"].values():
            assert t["path"] == "ncx2"
            assert t["mc_std_error"] is None
        regenerated = _regenerated_tests(str(tmp_path / "out"))["main"]
        assert regenerated == {**stored["tests"], "joint": joint}


    def test_report_refuses_a_stored_norm_of_the_wrong_size(self, workdir, capsys):
        # results.json is read back from disk, so its norm is checked again.
        tmp_path, config = workdir
        raw = _read_config(config)
        raw["test"]["norm"] = [[2.0]]
        p = tmp_path / "norm.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["test", "--config", str(p)]) == 0
        results = tmp_path / "out" / "results.json"
        stored = json.loads(results.read_text(encoding="utf-8"))
        stored["test"]["norm"] = [[1.0, 0.0], [0.0, 1.0]]
        results.write_text(json.dumps(stored), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "data error: [report] test.norm must be a 1 x 1 matrix, got shape (2, 2)\n"
        )

    def test_report_on_a_draws_file_without_draws_is_exit_2(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["test", "--config", config]) == 0
        (tmp_path / "out" / "draws_main.csv").write_text("draw_index,stat_1,stat_2\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: [report] {tmp_path / 'out' / 'draws_main.csv'}: "
            "need at least two non-missing draws for a covariance\n"
        )

    def test_records_every_bootstrap_setting(self, workdir, capsys):
        tmp_path, config = workdir
        raw = _read_config(config)
        raw["bootstrap"].update(engine="multiplier", multiplier_distribution="poisson")
        p = tmp_path / "poisson.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["test", "--config", str(p)]) == 0
        capsys.readouterr()
        stored = json.loads((tmp_path / "out" / "results.json").read_text(encoding="utf-8"))
        assert stored["bootstrap"] == {
            "iterations": 120, "seed": 9, "resample_unit": "cluster", "engine": "multiplier",
            "multiplier_distribution": "poisson",
        }


class TestPlotData:
    def test_draws_file_without_draws_is_exit_3(self, tmp_path, capsys):
        draws, grid = tmp_path / "draws.csv", tmp_path / "g.csv"
        draws.write_text("draw_index,stat_1,stat_2\n", encoding="utf-8")
        assert main(["plot-data", "--draws", str(draws), "--columns", "1,2", "--output", str(grid)]) == 3
        assert capsys.readouterr().err == "numerical failure: kernel density needs at least two draws\n"
        assert not grid.exists()

    def test_ragged_draws_file_is_exit_2(self, tmp_path, capsys):
        draws, grid = tmp_path / "draws.csv", tmp_path / "g.csv"
        draws.write_text("draw_index,stat_1,stat_2\n0,1.0,2.0\n1,1.5\n", encoding="utf-8")
        assert main(["plot-data", "--draws", str(draws), "--columns", "1,2", "--output", str(grid)]) == 2
        assert capsys.readouterr().err == f"data error: {draws}: line 3 has 2 fields, not 3\n"
        assert not grid.exists()

    def test_non_numeric_draws_cell_is_exit_2(self, tmp_path, capsys):
        # A "nan" cell is a failed draw and still reads as NaN; "abc" is refused.
        draws, grid = tmp_path / "draws.csv", tmp_path / "g.csv"
        draws.write_text("draw_index,stat_1,stat_2\n0,nan,nan\n1,1.0,abc\n", encoding="utf-8")
        assert main(["plot-data", "--draws", str(draws), "--columns", "1,2", "--output", str(grid)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {draws}: line 3, column 'stat_2': 'abc' is not a number\n"
        )
        assert not grid.exists()

    def test_grid_from_draws(self, workdir, capsys):
        tmp_path, config = workdir
        main(["test", "--config", config])
        capsys.readouterr()
        draws = str(tmp_path / "out" / "draws_main.csv")
        grid_out = str(tmp_path / "grid.csv")
        code = main(
            ["plot-data", "--draws", draws, "--columns", "1,2", "--output", grid_out]
        )
        assert code == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["bandwidth_x"] != meta["bandwidth_y"]
        assert len(meta["point"]) == 2
        with open(grid_out, encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "x,y,density"

    def test_draws_file_with_a_byte_order_mark_gives_the_same_grid(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["test", "--config", config]) == 0
        draws = tmp_path / "out" / "draws_main.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + draws.read_bytes())
        printed = {}
        for name, path in (("plain", draws), ("bom", bom)):
            capsys.readouterr()
            grid = tmp_path / f"grid-{name}.csv"
            assert main(["plot-data", "--draws", str(path), "--columns", "1,2", "--output", str(grid)]) == 0
            printed[name] = capsys.readouterr().out
        assert printed["bom"] == printed["plain"]
        assert (tmp_path / "grid-bom.csv").read_bytes() == (tmp_path / "grid-plain.csv").read_bytes()
        assert (tmp_path / "grid-bom.csv").read_bytes().startswith(b"x,y,density")

    def test_zero_based_columns_rejected(self, workdir, capsys):
        tmp_path, config = workdir
        main(["test", "--config", config])
        capsys.readouterr()
        draws = str(tmp_path / "out" / "draws_main.csv")
        code = main(
            [
                "plot-data",
                "--draws",
                draws,
                "--columns",
                "0,1",
                "--output",
                str(tmp_path / "g.csv"),
            ]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_malformed_columns_rejected(self, workdir, capsys):
        tmp_path, config = workdir
        code = main(
            [
                "plot-data",
                "--draws",
                "whatever.csv",
                "--columns",
                "a,b",
                "--output",
                str(tmp_path / "g.csv"),
            ]
        )
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_missing_required_flag_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        code = main(["test", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_invalid_json_config_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        code = main(["test", "--config", str(p)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[]", "{results}: the top level must be an object, got []", id="list"),
            pytest.param("{}", "{results}: the top level has no key 'test'", id="empty"),
            pytest.param('{"test": {}}', "{results}: the top level has no key 'comparisons'", id="no-comparisons"),
            pytest.param(
                '{"test": {}, "comparisons": []}',
                "{results}: comparisons must be an object, got []",
                id="comparisons-list",
            ),
            pytest.param(
                '{"test": {"h": "a"}, "comparisons": {}}',
                "{results}: test.h must be a number, got 'a'",
                id="test-setting",
            ),
            pytest.param(
                '{"test": {}, "comparisons": {"main": []}}',
                "{results}: comparisons.main must be an object, got []",
                id="entry-list",
            ),
            pytest.param(
                '{"test": {}, "comparisons": {"main": {"labels": ["x"], "baseline": [1.0]}}}',
                "{results}: comparisons.main has no key 'adjusted'",
                id="no-adjusted",
            ),
            pytest.param(
                '{"test": {}, "comparisons": {"main": {"labels": "x", "baseline": [1], "adjusted": [2]}}}',
                "{results}: comparisons.main.labels must be a list of names, got 'x'",
                id="labels-string",
            ),
            pytest.param(
                '{"test": {}, "comparisons": {"main": {"labels": ["x"], "baseline": [1, 2], "adjusted": [2]}}}',
                "{results}: comparisons.main: baseline and adjusted need one number per label",
                id="point-length",
            ),
            pytest.param(
                '{"test": {}, "comparisons": {"main": {"labels": ["x", "w"], "baseline": [1, 2], "adjusted": [3, 4]}}}',
                "{draws}: 2 columns, not 2 x 2 for comparisons.main.labels",
                id="draws-width",
            ),
            pytest.param("{not json", "results file {results} is not valid JSON: ", id="not-json"),
        ],
    )
    def test_malformed_results_file_is_exit_2(self, workdir, capsys, text, message):
        # results.json and the draws files are read back from disk, so each is checked.
        tmp_path, config = workdir
        assert main(["test", "--config", config]) == 0
        out = tmp_path / "out"
        (out / "results.json").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        message = message.format(results=out / "results.json", draws=out / "draws_main.csv")
        assert err.startswith("data error: [report] " + message) and err.count("\n") == 1

    def test_draws_file_with_one_row_is_exit_2(self, workdir, capsys):
        # One draw has no covariance; the message names the draws file.
        tmp_path, config = workdir
        assert main(["test", "--config", config]) == 0
        draws = tmp_path / "out" / "draws_main.csv"
        draws.write_text("draw_index,stat_1,stat_2\n0,1.0,2.0\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: [report] {draws}: need at least two non-missing draws for a covariance\n"
        )

    def test_mc_missing_config_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["mc", "--config", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot open config")
        assert missing in err

    def test_mc_unknown_dgp_key_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "mc.json"
        dgp = {"kind": "linear_regression", "n": 50, "slop": 2.0}
        p.write_text(json.dumps({"mc": {"dgp": dgp, "reps": 1}}), encoding="utf-8")
        assert main(["mc", "--config", str(p), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: [config] unknown key(s) in mc.dgp: slop")

    @pytest.mark.parametrize("reps", [0, -1])
    def test_mc_nonpositive_reps_is_exit_2(self, tmp_path, capsys, reps):
        p = tmp_path / "mc.json"
        dgp = {"kind": "linear_regression", "n": 50}
        p.write_text(json.dumps({"mc": {"dgp": dgp, "reps": reps}}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(p), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "data error: [config] mc.reps: reps must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["reps", "inner_iterations", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_mc_non_integer_count_is_exit_2(self, tmp_path, capsys, key, value):
        p = tmp_path / "mc.json"
        mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2, "inner_iterations": 20}
        mc[key] = value
        p.write_text(json.dumps({"mc": mc}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(p), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: [config] mc.{key} must be an integer")
        assert not out.exists()

    def test_mc_integral_float_count_runs(self, tmp_path, capsys):
        p = tmp_path / "mc.json"
        mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2.0, "inner_iterations": 20}
        p.write_text(json.dumps({"mc": mc}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(p), "--output", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads((out / "mc_results.json").read_text(encoding="utf-8"))
        assert doc["reps"] == 2

    # The six integer config settings, at the values the lagged config uses.
    _INTEGERS = {
        "bootstrap.iterations": 40,
        "bootstrap.seed": 9,
        "test.mc_draws": 2000,
        "test.seed": 9,
        "model.derived.horizon": 3,
        "lags.count": 1,
    }

    @classmethod
    def _lagged_config(cls, config: str, **overrides) -> dict:
        """The workdir config with lags and derived summaries, so every integer setting appears."""
        v = {**cls._INTEGERS, **overrides}
        with open(config, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["lags"] = [{"column": "y", "count": v["lags.count"]}]
        raw["model"]["regressors"] = ["x", "y_lag1"]
        raw["model"]["report_coefficients"] = ["x"]
        raw["model"]["derived"] = {
            "effect": "x",
            "lags": ["y_lag1"],
            "horizon": v["model.derived.horizon"],
        }
        raw["bootstrap"] = {"iterations": v["bootstrap.iterations"], "seed": v["bootstrap.seed"]}
        raw["test"] = {
            "seed": v["test.seed"],
            "mc_draws": v["test.mc_draws"],
            "norm": "identity",
            "h": 0.01,
        }
        return raw

    @pytest.mark.parametrize("name", list(_INTEGERS))
    @pytest.mark.parametrize("value", [20.7, True, "20"])
    def test_non_integer_config_setting_is_exit_2(self, workdir, capsys, name, value):
        tmp_path, config = workdir
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(self._lagged_config(config, **{name: value})), encoding="utf-8")
        out = tmp_path / "bad-out"
        assert main(["test", "--config", str(p), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        shown = name.replace("lags.", "lags[0].")  # the lagged config's one lags entry
        assert err.startswith(f"data error: [config] {shown} must be an integer, got {value!r}")
        assert not out.exists()

    def test_integral_float_config_settings_run(self, workdir, capsys):
        tmp_path, config = workdir
        floats = {name: float(v) for name, v in self._INTEGERS.items()}
        blobs = []
        for tag, raw in (
            ("ints", self._lagged_config(config)),
            ("floats", self._lagged_config(config, **floats)),
        ):
            p = tmp_path / f"{tag}.json"
            p.write_text(json.dumps(raw), encoding="utf-8")
            assert main(["test", "--config", str(p), "--output", str(tmp_path / tag)]) == 0
            blobs.append((tmp_path / tag / "results.json").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["bootstrap"]["iterations"] == 40

    @pytest.mark.parametrize(
        "path,key",
        [
            ((), "ouptut"),
            (("model",), "regresors"),
            (("model", "derived"), "horizn"),
            (("bootstrap",), "iteration"),
            (("test",), "alfa"),
            (("output",), "dir"),
        ],
        ids=lambda v: ".".join(v) or "root" if isinstance(v, tuple) else v,
    )
    def test_unknown_config_key_is_exit_2(self, workdir, capsys, path, key):
        tmp_path, config = workdir
        raw = self._lagged_config(config)
        section = raw
        for part in path:
            section = section[part]
        section[key] = 1
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["estimate", "--config", str(p), "--output", str(tmp_path / "o")]) == 2
        name = ".".join(path) or "config root"
        assert capsys.readouterr().err == f"data error: [config] unknown key(s) in {name}: {key}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path", [(), ("mc",), ("output",)], ids=["root", "mc", "output"])
    def test_mc_unknown_config_key_is_exit_2(self, tmp_path, capsys, path):
        doc = {"mc": {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2}, "output": {}}
        section = doc
        for part in path:
            section = section[part]
        section["inner_iteration"] = 20
        p = tmp_path / "mc.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(p), "--output", str(out)]) == 2
        name = ".".join(path) or "config root"
        err = capsys.readouterr().err
        assert err == f"data error: [config] unknown key(s) in {name}: inner_iteration\n"
        assert not out.exists()

    def _exit_2(self, tmp_path, capsys, raw, command="estimate") -> str:
        """Run a config that must exit 2 before writing anything; return stderr."""
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "bad-out"
        assert main([command, "--config", str(p), "--output", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,value",
        [
            (("report_coefficients",), ["intercept"]),
            (("derived", "effect"), "intercept"),
            (("derived", "lags"), ["cluster=c1"]),
        ],
        ids=["report_coefficients", "derived.effect", "derived.lags"],
    )
    def test_fixed_effect_coefficient_names_are_checked(self, workdir, capsys, path, value):
        # Under fixed effects the intercept is absorbed and no name depends
        # on the data; only regressors can be reported.
        tmp_path, config = workdir
        raw = self._lagged_config(config)
        raw["model"]["fixed_effects"] = ["cluster"]
        section = raw["model"]
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = value
        err = self._exit_2(tmp_path, capsys, raw)
        named = repr(value if isinstance(value, str) else value[0])
        assert err == (
            f"data error: [config] model.{'.'.join(path)} names {named}, "
            "not a model coefficient (x, y_lag1)\n"
        )

    def test_intercept_is_reportable_without_fixed_effects(self, workdir, capsys):
        tmp_path, config = workdir
        raw = self._lagged_config(config)
        raw["model"]["report_coefficients"] = ["intercept", "x"]
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["estimate", "--config", str(p), "--output", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out)["main"]["labels"][:2] == ["intercept", "x"]

    @pytest.mark.parametrize(
        "scheme,typo",
        [
            ({"kind": "residual_trim", "multipler": 1.5}, "multipler"),
            ({"kind": "quantile_trim", "columns": ["x"], "lowerq": 0.1}, "lowerq"),
            ({"kind": "winsorize", "columns": ["x"], "upper_quantile": 0.9}, "upper_quantile"),
        ],
    )
    def test_unknown_weight_scheme_key_is_exit_2(self, workdir, capsys, scheme, typo):
        tmp_path, config = workdir
        raw = _read_config(config)
        raw["weights"]["adjusted"] = scheme
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == f"data error: [config] unknown key(s) in weights.adjusted: {typo}\n"
        raw["comparisons"] = [{"name": "a", "weights": raw.pop("weights")}]
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == f"data error: [config] unknown key(s) in comparisons[0].adjusted: {typo}\n"

    @pytest.mark.parametrize(
        "where,typo",
        [("statistic", "colum"), ("transform", "exponant"), ("lags", "cnt")],
    )
    def test_unknown_entry_key_is_exit_2(self, workdir, capsys, where, typo):
        tmp_path, config = workdir
        raw = _read_config(config)
        stat = {"column": "x", "transform": {"kind": "power", "exponent": 2}}
        raw["model"] = {"type": "lstat", "statistics": [stat]}
        raw["weights"]["adjusted"] = {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.9}
        raw["lags"] = [{"column": "y", "count": 1}]
        name = {
            "statistic": "model.statistics[0]",
            "transform": "model.statistics[0].transform",
            "lags": "lags[0]",
        }[where]
        target = {"statistic": stat, "transform": stat["transform"], "lags": raw["lags"][0]}[where]
        target[typo] = 1
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == f"data error: [config] unknown key(s) in {name}: {typo}\n"

    @staticmethod
    def _lstat_config(config: str) -> dict:
        """The workdir config as an L-statistic comparison of column x."""
        with open(config, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}]}
        raw["weights"]["adjusted"] = {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.9}
        return raw

    @pytest.mark.parametrize("value", [[5], "abc", {"a": 1}], ids=["entry", "string", "object"])
    def test_malformed_comparisons_is_exit_2(self, workdir, capsys, value):
        tmp_path, config = workdir
        raw = self._lstat_config(config)
        del raw["weights"]
        raw["comparisons"] = value
        err = self._exit_2(tmp_path, capsys, raw)
        if isinstance(value, list):
            assert err == "data error: [config] comparisons[0] must be an object, got 5\n"
        else:
            assert err == f"data error: [config] comparisons must be a list of objects, got {value!r}\n"

    def test_comparison_weights_not_an_object_is_exit_2(self, workdir, capsys):
        tmp_path, config = workdir
        raw = self._lstat_config(config)
        raw["comparisons"] = [{"name": "a", "weights": raw.pop("weights")}, {"weights": 5}]
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == "data error: [config] comparisons[1].weights must be an object, got 5\n"
        raw["weights"] = 5
        del raw["comparisons"]
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == "data error: [config] weights must be an object, got 5\n"

    @pytest.mark.parametrize(
        "name",
        [
            "model.regressors",
            "model.endogenous",
            "model.instruments",
            "model.fixed_effects",
            "model.report_coefficients",
            "model.derived.lags",
        ],
    )
    @pytest.mark.parametrize("value", [5, "x", ["x", 2], None], ids=["int", "string", "mixed", "null"])
    def test_name_list_setting_not_a_list_of_strings_is_exit_2(self, workdir, capsys, name, value):
        tmp_path, config = workdir
        raw = self._lagged_config(config)
        section = raw
        *path, key = name.split(".")
        for part in path:
            section = section[part]
        section[key] = value
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == f"data error: [config] {name} must be a list of names, got {value!r}\n"

    # Every real-valued setting of `test` and the weight schemes, with an
    # integer value it accepts (None: no integer is a valid alpha).
    _REALS = {
        "test.h": 0,
        "test.alpha": None,
        "weights.adjusted.multiplier": 2,
        "weights.baseline.lower_q": 0,
        "weights.baseline.upper_q": 1,
        "model.statistics[0].transform.exponent": 1,
    }

    @staticmethod
    def _real_config(config: str, name: str, value) -> dict:
        """The workdir config with the real-valued setting `name` set to value."""
        with open(config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if name.startswith("model."):
            transform = {"kind": "power", "exponent": value}
            statistic = {"column": "x", "transform": transform}
            raw["model"] = {"type": "lstat", "statistics": [statistic]}
            raw["weights"]["adjusted"] = {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.9}
            return raw
        if name.startswith("weights.baseline."):
            raw["weights"]["baseline"] = {"kind": "quantile_trim", "columns": ["y"]}
        section, _, key = name.rpartition(".")
        target = raw
        for part in section.split("."):
            target = target[part]
        target[key] = value
        return raw

    @pytest.mark.parametrize("name", list(_REALS))
    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_non_numeric_real_setting_is_exit_2(self, workdir, capsys, name, value):
        tmp_path, config = workdir
        err = self._exit_2(tmp_path, capsys, self._real_config(config, name, value))
        assert err == f"data error: [config] {name} must be a number, got {value!r}\n"

    @pytest.mark.parametrize("name", [k for k, v in _REALS.items() if v is not None])
    def test_integer_real_setting_runs(self, workdir, capsys, name):
        tmp_path, config = workdir
        value = self._REALS[name]
        for tag, v in (("int", value), ("float", float(value))):
            p = tmp_path / f"{tag}.json"
            p.write_text(json.dumps(self._real_config(config, name, v)), encoding="utf-8")
            assert main(["estimate", "--config", str(p), "--output", str(tmp_path / tag)]) == 0
        capsys.readouterr()
        blobs = [(tmp_path / tag / "estimates.json").read_bytes() for tag in ("int", "float")]
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("key", ["alpha", "h", "multiplier"])
    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_mc_non_numeric_real_setting_is_exit_2(self, tmp_path, capsys, key, value):
        mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2, "inner_iterations": 20}
        mc[key] = value
        err = self._exit_2(tmp_path, capsys, {"mc": mc}, "mc")
        assert err == f"data error: [config] mc.{key} must be a number, got {value!r}\n"

    def test_mc_integer_real_settings_run(self, tmp_path, capsys):
        docs = []
        for tag, h, multiplier in (("int", 0, 2), ("float", 0.0, 2.0)):
            mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2, "inner_iterations": 20}
            mc.update(h=h, multiplier=multiplier)
            p = tmp_path / f"{tag}.json"
            p.write_text(json.dumps({"mc": mc}), encoding="utf-8")
            assert main(["mc", "--config", str(p), "--output", str(tmp_path / tag)]) == 0
            docs.append((tmp_path / tag / "mc_results.json").read_bytes())
        capsys.readouterr()
        assert docs[0] == docs[1]

    # Configs that used to end in a traceback, be silently misread, or fail
    # with a message that did not name the setting:
    # id -> (command, edit of the lagged or mc config, text the message names).
    _DEFECTS = {
        "bootstrap.engine-list": ("estimate", lambda r: _put(r, "bootstrap.engine", ["x"]), "bootstrap.engine"),
        "model.type-list": ("estimate", lambda r: _put(r, "model.type", ["ols"]), "model type"),
        "comparisons.name-list": (
            "estimate",
            lambda r: r.update(comparisons=[{"name": ["a"], "weights": r.pop("weights")}]),
            "comparisons[0].name",
        ),
        "plot_pairs-int": ("estimate", lambda r: _put(r, "output.plot_pairs", 5), "output.plot_pairs"),
        "plot_pairs-short": ("test", lambda r: _put(r, "output.plot_pairs", [[0]]), "output.plot_pairs[0]"),
        "plot_pairs-label": ("test", lambda r: _put(r, "output.plot_pairs", ["nope"]), "output.plot_pairs[0]"),
        "plot_pairs-range": ("test", lambda r: _put(r, "output.plot_pairs", [[0, 9]]), "output.plot_pairs[0]"),
        "lags-int": ("estimate", lambda r: r.update(lags=5), "lags"),
        "dgp.n-string": ("mc", lambda r: _put(r, "mc.dgp.n", "50"), "mc.dgp.n"),
        "dgp.n-fraction": ("mc", lambda r: _put(r, "mc.dgp.n", 50.5), "mc.dgp.n"),
        "dgp.kind-list": ("mc", lambda r: _put(r, "mc.dgp.kind", ["x"]), "mc.dgp.kind"),
        "dgp-list": ("mc", lambda r: _put(r, "mc.dgp", [1]), "mc.dgp"),
        "mc-output.directory": ("mc", lambda r: r.update(output={"directory": 5}), "output.directory"),
        "input-int": ("estimate", lambda r: r.update(input=0), "input"),
        "intercept-string": ("estimate", lambda r: _put(r, "model.intercept", "false"), "model.intercept"),
        "analytic_cov-string": ("estimate", lambda r: _put(r, "output.analytic_cov", "no"), "output.analytic_cov"),
        "analytic_cov-ols": ("test", lambda r: _put(r, "output.analytic_cov", True), "output.analytic_cov"),
        "comparisons.name-int": (
            "estimate",
            lambda r: r.update(comparisons=[{"name": 5, "weights": r.pop("weights")}]),
            "comparisons[0].name",
        ),
        "norm-unknown": ("estimate", lambda r: _put(r, "test.norm", "foo"), "test.norm"),
        "norm-ragged": ("estimate", lambda r: _put(r, "test.norm", [[1, 0], [0]]), "test.norm"),
        "norm-asymmetric": ("estimate", lambda r: _put(r, "test.norm", [[1, 0.5], [0, 1]]), "test.norm"),
        "norm-not-pd": (
            "estimate",
            lambda r: _put(r, "test.norm", [[1, 2], [2, 1]]),
            "[config] test.norm: not positive definite",
        ),
        "norm-size": ("test", lambda r: _put(r, "test.norm", [[1.0]]), "[config] test.norm must be a 4 x 4 matrix"),
        "norm-ill-conditioned": (
            "estimate",
            lambda r: _put(r, "test.norm", [[1, 0], [0, 1e-11]]),
            "[config] test.norm: condition number 1e+11 exceeds 1e+10",
        ),
        "dgp.kind-no-outcome": ("mc", lambda r: _put(r, "mc.dgp.kind", "univariate"), "mc.dgp.kind"),
        "coefficient-not-simulated": ("mc", lambda r: _put(r, "mc.coefficient", "z"), "mc.coefficient"),
        "model.outcome-missing": ("estimate", lambda r: r["model"].pop("outcome"), "model.outcome"),
        "lags.count-missing": ("estimate", lambda r: r["lags"][0].pop("count"), "lags[0].count"),
        "derived.lags-missing": ("estimate", lambda r: r["model"]["derived"].pop("lags"), "model.derived.lags"),
        "winsorize-two-columns": (
            "estimate",
            lambda r: _put(r, "weights.adjusted", {"kind": "winsorize", "columns": ["x", "y"]}),
            "weights.adjusted",
        ),
        "custom-values-string": (
            "estimate",
            lambda r: _put(r, "weights.adjusted", {"kind": "custom", "values": "abc"}),
            "weights.adjusted.values",
        ),
        "coefficient-outcome": ("mc", lambda r: _put(r, "mc.coefficient", "y"), "mc.coefficient"),
        "bootstrap.iterations-one": (
            "test",
            lambda r: _put(r, "bootstrap.iterations", 1),
            "[config] bootstrap.iterations must be at least 2, got 1",
        ),
        "mc.inner_iterations-one": (
            "mc",
            lambda r: _put(r, "mc.inner_iterations", 1),
            "[config] mc.inner_iterations must be at least 2, got 1",
        ),
        # Each draw's index is one 32-bit word of its spawn key: a larger count would also run for days.
        "bootstrap.iterations-past-2**32": (
            "test",
            lambda r: _put(r, "bootstrap.iterations", 2**32 + 1),
            "[config] bootstrap.iterations must be at most 2**32 = 4294967296, got 4294967297",
        ),
        "mc.inner_iterations-past-2**32": (
            "mc",
            lambda r: _put(r, "mc.inner_iterations", 2**32 + 1),
            "[config] mc.inner_iterations must be at most 2**32 = 4294967296, got 4294967297",
        ),
        "model.outcome-regressor": (
            "test",
            lambda r: _put(r, "model.regressors", ["x", "y"]),
            "[config] model: the outcome 'y' cannot also be a regressor or an instrument",
        ),
        "model.outcome-regressor-estimate": (
            "estimate",
            lambda r: _put(r, "model.regressors", ["x", "y"]),
            "[config] model: the outcome 'y' cannot also be a regressor or an instrument",
        ),
        "model.outcome-instrument": (
            "test",
            lambda r: r["model"].update(type="iv", endogenous=["x"], instruments=["y"]),
            "[config] model: the outcome 'y' cannot also be a regressor or an instrument",
        ),
        "model.endogenous-own-instrument": (
            "estimate",
            lambda r: r["model"].update(type="iv", endogenous=["x"], instruments=["x"]),
            "[config] model: the endogenous regressor 'x' cannot also be its own instrument",
        ),
        "bootstrap.seed-negative": ("test", lambda r: _put(r, "bootstrap.seed", -1), "bootstrap.seed"),
        "test.seed-negative": ("test", lambda r: _put(r, "test.seed", -1), "test.seed"),
        "mc.seed-negative": ("mc", lambda r: _put(r, "mc.seed", -3), "mc.seed"),
        "dgp.error_scale-negative": (
            "mc",
            lambda r: _put(r, "mc.dgp.error_scale", -1),
            "[config] mc.dgp.error_scale: error_scale must be >= 0",
        ),
        "dgp.scale-negative": (
            "mc",
            lambda r: r["mc"]["dgp"].update(kind="univariate", scale=-1),
            "[config] mc.dgp.scale: scale must be >= 0",
        ),
        "model.derived.horizon-zero": (
            "test",
            lambda r: _put(r, "model.derived.horizon", 0),
            "[config] model.derived.horizon must be at least 1, got 0",
        ),
        "lags.count-zero": (
            "test",
            lambda r: r["lags"][0].update(count=0),
            "[config] lags[0].count must be at least 1, got 0",
        ),
        "mc.reps-zero": ("mc", lambda r: _put(r, "mc.reps", 0), "[config] mc.reps: reps must be >= 1"),
        "comparisons-empty": (
            "test",
            lambda r: r.update(comparisons=[]),
            "[config] comparisons must hold at least one pair",
        ),
        "comparisons-empty-estimate": (
            "estimate",
            lambda r: r.update(comparisons=[]),
            "[config] comparisons must hold at least one pair",
        ),
        "model.report_coefficients-none": (
            "test",
            lambda r: r.update(model={"type": "ols", "outcome": "y"}),
            "[config] model.report_coefficients is empty",
        ),
        "bootstrap.multiplier_distribution-multinomial": (
            "test",
            lambda r: _put(r, "bootstrap.multiplier_distribution", "bogus"),
            "[config] bootstrap.multiplier_distribution: unknown multiplier distribution 'bogus'",
        ),
        "test.alpha-out-of-range": (
            "test",
            lambda r: _put(r, "test.alpha", 1.5),
            "[config] test.alpha: alpha must lie in (0, 1)",
        ),
        "mc.reps-zero-test": (
            "test",
            lambda r: r.update(mc={"dgp": {"kind": "linear_regression"}, "reps": 0}),
            "[config] mc.reps: reps must be >= 1",
        ),
        "mc.reps-zero-estimate": (
            "estimate",
            lambda r: r.update(mc={"dgp": {"kind": "linear_regression"}, "reps": 0}),
            "[config] mc.reps: reps must be >= 1",
        ),
    }

    @pytest.mark.parametrize("case", list(_DEFECTS))
    def test_config_defect_exits_2_and_names_the_setting(self, workdir, capsys, monkeypatch, case):
        tmp_path, config = workdir
        command, edit, name = self._DEFECTS[case]
        if command == "mc":
            raw = {"mc": {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2, "inner_iterations": 20}}
        else:
            raw = self._lagged_config(config)
        edit(raw)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # `mc` without --output writes under the working directory
        assert main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and name in err and "Traceback" not in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "trimtest-output").exists()

    @pytest.mark.parametrize("command", ["test", "estimate", "mc"])
    def test_unwritable_output_exits_2_at_write(self, workdir, capsys, command):
        tmp_path, config = workdir
        if command == "mc":
            config = str(tmp_path / "mc.json")
            mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 1, "inner_iterations": 19}
            (tmp_path / "mc.json").write_text(json.dumps({"mc": mc}), encoding="utf-8")
        blocker = tmp_path / "a-file"
        blocker.write_text("", encoding="utf-8")
        # A directory under a file, and a file where the directory should be.
        for output in (blocker / "sub", blocker):
            assert main([command, "--config", config, "--output", str(output)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: [write] cannot write {output}")
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["test", "estimate", "mc"])
    def test_unwritable_output_is_found_before_any_work(self, workdir, capsys, monkeypatch, command):
        from trimtest import cli

        tmp_path, config = workdir
        if command == "mc":
            config = str(tmp_path / "mc.json")
            mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 1, "inner_iterations": 19}
            (tmp_path / "mc.json").write_text(json.dumps({"mc": mc}), encoding="utf-8")

        def no_work(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        for name in ("run_analysis", "point_estimates", "size_study"):
            monkeypatch.setattr(cli, name, no_work)
        blocker = tmp_path / "a-file"
        blocker.write_text("", encoding="utf-8")
        output = blocker / "sub" / "deeper"
        assert main([command, "--config", config, "--output", str(output)]) == 2
        assert capsys.readouterr().err == (
            f"data error: [write] cannot write {output}: {blocker} is not a writable directory\n"
        )
        # A path that can be created is left uncreated by the check.
        writable = tmp_path / "new" / "out"
        cli.check_writable_directory(str(writable))
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["test", "estimate"])
    def test_lags_leaving_no_row_exit_2_at_lags(self, workdir, capsys, command):
        tmp_path, config = workdir
        raw = self._lagged_config(config, **{"lags.count": 4})  # every cluster has 4 rows
        assert self._exit_2(tmp_path, capsys, raw, command) == (
            "data error: [lags] 4 lag(s) of 'y' leave no rows: a cluster needs more than 4 rows\n"
        )

    def test_lag_named_like_an_input_column_is_exit_2(self, workdir, capsys):
        # The computed lag used to replace the input column of its name.
        tmp_path, config = workdir
        csv = tmp_path / "panel.csv"
        header, *rows = csv.read_text(encoding="utf-8").splitlines()
        csv.write_text("\n".join([header + ",y_lag1"] + [row + ",7.0" for row in rows]) + "\n", encoding="utf-8")
        assert self._exit_2(tmp_path, capsys, self._lagged_config(config)) == (
            "data error: [lags] 1 lag(s) of 'y' would replace the column 'y_lag1'\n"
        )

    @pytest.mark.parametrize("case", ["lstat-power", "report_coefficients", "derived-persistence", "joint"])
    def test_repeated_statistic_label_is_exit_2(self, workdir, capsys, case):
        # Tests are keyed by label, so a repeated label used to drop a test,
        # and one named "joint" was overwritten by the joint test.
        tmp_path, config = workdir
        raw, label = self._lagged_config(config), "x"
        if case == "lstat-power":
            raw = self._lstat_config(config)
            power = {"kind": "power", "exponent": 2}
            raw["model"]["statistics"] = [{"column": "x"}, {"column": "x", "transform": power}]
            raw["test"]["norm"] = "identity"
        elif case == "joint":
            raw, label = self._lstat_config(config), "joint"
            raw["model"]["statistics"] = [{"column": "x", "name": "joint"}, {"column": "y"}]
            raw["test"]["norm"] = "identity"
        elif case == "report_coefficients":
            raw["model"]["report_coefficients"] = ["x", "x"]
        else:
            label, renamed = "persistence", tmp_path / "renamed.csv"
            text = (tmp_path / "panel.csv").read_text(encoding="utf-8")
            renamed.write_text(text.replace("y,x,", "y,persistence,", 1), encoding="utf-8")
            raw["input"] = str(renamed)
            raw["model"].update(regressors=["persistence", "y_lag1"], report_coefficients=["persistence"])
            raw["model"]["derived"]["effect"] = "persistence"
        assert self._exit_2(tmp_path, capsys, raw, "test") == (
            f"data error: [config] statistic label {label!r} is taken; 'joint' and each label name one test\n"
        )

    @pytest.mark.parametrize("name", ["a/b", "x/../../escaped", "a\\b", "a\0b"])
    def test_file_tag_with_a_path_separator_is_exit_2(self, workdir, capsys, name):
        # A comparison name, or a plot-pair label, becomes part of a file name.
        tmp_path, config = workdir
        raw = self._lstat_config(config)
        raw["weights"]["name"] = name
        refused = "names an output file, so it cannot hold '/', '\\' or NUL"
        err = self._exit_2(tmp_path, capsys, raw, "test")
        assert err == f"data error: [config] weights.name {refused}, got {name!r}\n"
        raw["weights"]["name"] = "main"
        raw["model"]["statistics"] = [{"column": "x", "name": name}]
        raw["output"]["plot_pairs"] = [name]
        err = self._exit_2(tmp_path, capsys, raw, "test")
        assert err == f"data error: [config] output.plot_pairs[0] {refused}, got {name!r}\n"
        assert not (tmp_path / "escaped.csv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "name",
        [
            "test.h",
            "weights.adjusted.multiplier",
            "weights.adjusted.values[99]",
            "model.statistics[0].transform.x[1]",
            "mc.h",
            "mc.dgp.instrument_strength",
        ],
    )
    def test_non_finite_number_is_exit_2(self, workdir, capsys, name, value):
        # Python's JSON reader takes NaN and Infinity.  These used to fail
        # later with a message that did not name the setting, or to run.
        tmp_path, config = workdir
        raw, command = _read_config(config), "test"
        if name == "weights.adjusted.values[99]":
            raw["weights"]["adjusted"] = {"kind": "custom", "values": [1.0] * 99 + [value]}
        elif name.startswith("model."):
            raw = self._lstat_config(config)
            table = {"kind": "table", "x": [-100.0, value, 100.0], "y": [-100.0, 0.0, 100.0]}
            raw["model"]["statistics"][0]["transform"] = table
        elif name.startswith("mc."):
            raw = {"mc": {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2, "inner_iterations": 20}}
            command = "mc"
            _put(raw, name, value)
        else:
            _put(raw, name, value)
        err = self._exit_2(tmp_path, capsys, raw, command)
        assert err == f"data error: [config] {name} must be finite, got {value!r}\n"

    def test_unknown_column_is_printed_without_quotes(self, workdir, capsys):
        tmp_path, config = workdir
        raw = _read_config(config)
        raw["model"]["regressors"] = ["x", "zz"]
        assert self._exit_2(tmp_path, capsys, raw, "test") == (
            "data error: [bootstrap:main] no column named 'zz'\n"
        )

    def test_second_comparison_past_its_failure_limit_exits_3(self, workdir, capsys, monkeypatch):
        # Both comparisons share one pass of draws; only the second one's
        # estimator fails them, so only its failure limit is passed.
        from trimtest import analysis

        tmp_path, config = workdir
        raw = self._lstat_config(config)
        raw["comparisons"] = [
            {"name": "first", "weights": raw["weights"]},
            {"name": "second", "weights": raw.pop("weights")},
        ]
        build = analysis.comparison_estimator
        names = iter(("first", "second"))  # built in config order

        def build_refusing_second(*model_and_schemes):
            estimator, labels, specs = build(*model_and_schemes)
            if next(names) != "second":
                return estimator, labels, specs

            def refuses_draws(data, row_weights):
                if not np.all(row_weights == 1.0):
                    raise np.linalg.LinAlgError("draw refused")
                return estimator(data, row_weights)

            return refuses_draws, labels, specs

        monkeypatch.setattr(analysis, "comparison_estimator", build_refusing_second)
        p = tmp_path / "two.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "two-out"
        assert main(["test", "--config", str(p), "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: [bootstrap:second] 120 of 120 bootstrap draws failed "
            "(limit is 1% of draws, at least one)\n"
        )
        assert not out.exists()

    def test_dependent_statistics_are_named(self, workdir, capsys):
        tmp_path, config = workdir
        raw = self._lstat_config(config)
        raw["model"]["statistics"] = [{"column": "x"}, {"column": "x", "name": "x2"}]
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["test", "--config", str(p), "--output", str(tmp_path / "dup")]) == 3
        err = capsys.readouterr().err
        assert err == (
            "numerical failure: [test:main] the difference covariance is singular: statistics "
            "'x', 'x2' are linearly dependent. Set test.norm to \"identity\", or drop one of them\n"
        )
        # The remedy the message names runs.
        raw["test"] = {"norm": "identity", "seed": 9}
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["test", "--config", str(p), "--output", str(tmp_path / "dup")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--seed", "--iterations", "--threads"])
    def test_estimate_takes_no_draw_flags(self, workdir, capsys, flag):
        _, config = workdir
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--config", config, flag, "2"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_mc_takes_no_threads_flag(self, workdir, capsys):
        _, config = workdir
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--config", config, "--threads", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_missing_input_csv_is_exit_2(self, workdir, tmp_path, capsys):
        _, config = workdir
        raw = _read_config(config)
        raw["input"] = str(tmp_path / "gone.csv")
        p = tmp_path / "config2.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        code = main(["test", "--config", str(p)])
        assert code == 2
        err = capsys.readouterr().err
        assert "[load]" in err

    @pytest.mark.parametrize(
        "command,flag,value,message",
        [
            (
                "test", "--iterations", "0",
                "[config] bootstrap.iterations must be at least 2, got 0: a bootstrap covariance needs two draws",
            ),
            (
                "mc", "--iterations", "0",
                "[config] mc.inner_iterations must be at least 2, got 0: a bootstrap covariance needs two draws",
            ),
            (
                "test", "--iterations", "1",
                "[config] bootstrap.iterations must be at least 2, got 1: a bootstrap covariance needs two draws",
            ),
            (
                "mc", "--iterations", "1",
                "[config] mc.inner_iterations must be at least 2, got 1: a bootstrap covariance needs two draws",
            ),
            ("test", "--seed", "-1", "[config] bootstrap.seed must be a non-negative integer, got -1"),
            ("mc", "--seed", "-1", "[config] mc.seed must be a non-negative integer, got -1"),
        ],
        ids=["test-iterations", "mc-iterations", "test-one-draw", "mc-one-draw", "test-seed", "mc-seed"],
    )
    def test_flag_is_checked_like_its_setting(self, workdir, capsys, command, flag, value, message):
        tmp_path, config = workdir
        if command == "mc":
            mc = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2, "inner_iterations": 20}
            config = str(tmp_path / "mc.json")
            (tmp_path / "mc.json").write_text(json.dumps({"mc": mc}), encoding="utf-8")
        out = tmp_path / "flag-out"
        assert main([command, "--config", config, flag, value, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("alpha", 1.5, "mc.alpha: alpha must lie in (0, 1)"),
            ("h", -0.1, "mc.h: tolerance h must be >= 0"),
            (
                "inner_iterations", 0,
                "mc.inner_iterations must be at least 2, got 0: a bootstrap covariance needs two draws",
            ),
        ],
        ids=["alpha", "h", "inner_iterations"],
    )
    @pytest.mark.parametrize("command", ["mc", "test", "estimate"])
    def test_mc_setting_out_of_range_is_exit_2(self, workdir, capsys, key, value, message, command):
        # Checked when the config is read: before anything is simulated or
        # written, and by every command that reads the mc section.
        tmp_path, config = workdir
        raw = _read_config(config)
        raw["mc"] = {"dgp": {"kind": "linear_regression", "n": 50}, "reps": 2, key: value}
        err = self._exit_2(tmp_path, capsys, raw, command)
        assert err == f"data error: [config] {message}\n"

    def test_failing_size_study_names_its_stage(self, tmp_path, capsys):
        # Without noise y is exactly linear in x: every residual is zero, so
        # residual trimming drops every row and the inner bootstrap fails.
        dgp = {"kind": "linear_regression", "n": 50, "error_scale": 0}
        p = tmp_path / "mc.json"
        mc = {"dgp": dgp, "reps": 2, "inner_iterations": 20}
        p.write_text(json.dumps({"mc": mc}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(p), "--output", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: [mc] ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, h", [("test", None), ("test", 0.02), ("mc", None)], ids=["test", "test-h", "mc"]
    )
    def test_array_too_large_for_memory_is_exit_3_naming_its_stage(self, workdir, capsys, command, h):
        # 1e15 float64 values are 7.1 PiB, past the 128 TiB user address
        # space of x86-64, so no machine can map them under any overcommit
        # setting.  With h > 0 the test draws in blocks and keeps few of them,
        # but it still fails before the first block.
        tmp_path, config = workdir
        if command == "mc":
            raw, where = {"mc": {"dgp": {"kind": "linear_regression", "n": 1e15}, "reps": 2}}, "mc"
        else:
            raw, where = _read_config(config), "test:main"
            raw["test"] = {"mc_draws": 1e15, "method": "mc"}
            if h is not None:
                raw["test"]["h"] = h
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "huge-out"
        assert main([command, "--config", str(p), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: [{where}] Unable to allocate ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_zero_residual_scale_is_a_numerical_failure(self, tmp_path, capsys):
        # An intercept-only fit of an all-zero outcome leaves residuals of
        # exactly zero, so residual trimming has no scale to cut at.
        lines = ["y,unit"] + [f"0.0,c{i % 10}" for i in range(40)]
        (tmp_path / "zero.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = {
            "input": str(tmp_path / "zero.csv"),
            "cluster_column": "unit",
            "model": {
                "type": "ols", "outcome": "y", "regressors": [], "report_coefficients": ["intercept"]
            },
            "weights": {"baseline": {"kind": "all_ones"}, "adjusted": {"kind": "residual_trim"}},
            "bootstrap": {"iterations": 20, "seed": 1},
        }
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["test", "--config", str(p), "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: [bootstrap:main] residual scale must be positive and finite\n"
        )
        assert not out.exists()

    def test_zero_first_stage_scale_is_a_numerical_failure(self, tmp_path, capsys):
        # x = 2 z exactly, so the first stage fits x without error: its
        # residual scale is exactly zero, as the outcome's is above.
        rng = np.random.default_rng(3)
        lines = ["y,x,z,unit"]
        for i in range(40):
            z = float(i % 7) - 3.0
            lines.append(f"{2.0 * z + rng.normal()!r},{2.0 * z!r},{z!r},c{i % 10}")
        (tmp_path / "iv.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = {
            "input": str(tmp_path / "iv.csv"),
            "cluster_column": "unit",
            "model": {
                "type": "iv", "outcome": "y", "regressors": ["x"], "endogenous": ["x"],
                "instruments": ["z"],
            },
            "weights": {"baseline": {"kind": "all_ones"}, "adjusted": {"kind": "residual_trim"}},
            "bootstrap": {"iterations": 20, "seed": 1},
        }
        p = tmp_path / "iv.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["test", "--config", str(p), "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: [bootstrap:main] residual scale must be positive and finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "estimate"])
    @pytest.mark.parametrize(
        "model_type, side", [("lstat", "adjusted"), ("lstat", "baseline"), ("ols", "baseline")]
    )
    def test_residual_trim_without_baseline_residuals_is_exit_2(
        self, workdir, capsys, command, model_type, side
    ):
        tmp_path, config = workdir
        raw = _read_config(config)
        if model_type == "lstat":
            raw["model"] = {"type": "lstat", "statistics": [{"column": "x"}]}
        raw["weights"] = {"baseline": {"kind": "all_ones"}, "adjusted": {"kind": "all_ones"}}
        raw["weights"][side] = {"kind": "residual_trim"}
        err = self._exit_2(tmp_path, capsys, raw, command)
        assert err == (
            "data error: [config] comparison 'main': residual_trim needs a regression model's "
            'baseline residuals, so it must be the adjusted scheme of an "ols" or "iv" model\n'
        )

    @pytest.mark.parametrize("df", [5, 1.5])
    def test_mc_dgp_key_of_another_kind_is_exit_2(self, tmp_path, capsys, df):
        # n_clusters and t_max belong to "panel", law and df to "univariate".
        dgp = {
            "kind": "linear_regression", "n": 50, "n_clusters": 7, "law": "student_t", "df": df,
            "t_max": 9,
        }
        raw = {"mc": {"dgp": dgp, "reps": 2, "inner_iterations": 19}}
        err = self._exit_2(tmp_path, capsys, raw, "mc")
        assert err == "data error: [config] unknown key(s) in mc.dgp: df, law, n_clusters, t_max\n"

    def test_nul_in_cluster_label_is_exit_2(self, tmp_path, capsys):
        # numpy's fixed-width strings drop trailing NULs, so "a" and "a\x00"
        # would be read as one cluster.
        csv_path = tmp_path / "nul.csv"
        csv_path.write_text("x,unit\n1.0,a\n2.0,a\x00\n3.0,a\n4.0,b\n", encoding="utf-8")
        raw = {
            "input": str(csv_path),
            "cluster_column": "unit",
            "model": {"type": "lstat", "statistics": [{"column": "x"}]},
            "weights": {"baseline": {"kind": "all_ones"}, "adjusted": {"kind": "all_ones"}},
        }
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == (
            f"data error: [load] {csv_path}: line 3, column 'unit': 'a\\x00' contains a NUL character\n"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_csv_cell_is_exit_2(self, tmp_path, capsys, cell):
        # float() parses these spellings; a statistic of them is not a
        # number, and results.json could not hold it as JSON.
        lines = ["x"] + [repr(float(v)) for v in range(10)]
        lines[4] = cell
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw = {
            "input": str(csv_path),
            "model": {"type": "lstat", "statistics": [{"column": "x"}]},
            "weights": {
                "baseline": {"kind": "all_ones"},
                "adjusted": {"kind": "quantile_trim", "columns": ["x"], "upper_q": 0.9},
            },
        }
        err = self._exit_2(tmp_path, capsys, raw)
        assert err == (
            f"data error: [load] {csv_path}: line 5, column 'x': {cell!r} is not a finite number\n"
        )

    def test_numerical_failure_is_exit_3(self, workdir, capsys):
        # A regressor that is twice another makes every design matrix rank
        # deficient, starting with the point estimate's.
        tmp_path, config = workdir
        header, *lines = (tmp_path / "panel.csv").read_text(encoding="utf-8").splitlines()
        rows = [f"{line},{2 * float(line.split(',')[1])!r}" for line in lines]
        (tmp_path / "collinear.csv").write_text("\n".join([header + ",x2", *rows]) + "\n", encoding="utf-8")
        raw = _read_config(config)
        raw["input"] = str(tmp_path / "collinear.csv")
        raw["model"]["regressors"] = ["x", "x2"]
        p = tmp_path / "collinear.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["test", "--config", str(p)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: [bootstrap:main] design matrix is rank deficient")


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, workdir):
        tmp_path, config = workdir
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "trimtest", "estimate", "--config", config],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["main"]["labels"] == ["x"]

    def test_import_does_not_load_scipy_stats(self):
        # scipy.stats is most of a cold import; only the closed-form test route loads it.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, trimtest.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
