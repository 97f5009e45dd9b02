"""Command-line interface.

Subcommands: estimate (point estimates only), test (full analysis with
robustness tests; bootstrap is another name for it), mc (simulation
studies), report (regenerate the report from stored draws), plot-data
(density grid from a stored draws file).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import point_estimates, run_analysis
from .config import AnalysisConfig, mc_settings, read_json
from .csvio import check_writable_directory
from .errors import DataError, NumericalError, stage
from .mc_oracle import size_study
from .report import (
    RESULTS_FILE,
    json_text,
    regenerate_report,
    write_estimates,
    write_mc_results,
    write_outputs,
    write_plot_data,
)

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, seed=None, iterations=None) -> None:
    """--config and --output; commands that draw also get --seed and --iterations.

    Each flag overrides the config setting at its dotted path.
    """
    p.add_argument("--config", required=True, help="path to the JSON analysis config")
    settings = {"output": "output.directory"}
    if seed:
        p.add_argument("--seed", type=int, help=f"override {seed}")
        p.add_argument("--iterations", type=int, help=f"override {iterations}")
        settings.update(seed=seed, iterations=iterations)
    p.add_argument("--output", help="override output.directory")
    p.set_defaults(settings=settings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trimtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("estimate", help="compute point estimates only"))
    for name, help_text in (
        ("bootstrap", "same as test"),
        ("test", "full analysis: bootstrap plus robustness tests"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, "bootstrap.seed", "bootstrap.iterations")
        p.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    p = sub.add_parser("mc", help="Monte Carlo studies driven by the config's mc section")
    _add_common(p, "mc.seed", "mc.inner_iterations")

    p = sub.add_parser("report", help="regenerate the report from stored draws")
    p.add_argument("--output", required=True, help=f"directory holding {RESULTS_FILE} and draws")

    p = sub.add_parser("plot-data", help="write a density grid CSV from a draws file")
    p.add_argument("--draws", required=True, help="path to a draws CSV")
    p.add_argument("--columns", required=True, help="two 1-based stat columns, e.g. 1,2")
    p.add_argument("--output", required=True, help="output CSV path")
    return parser


def _config(args) -> dict:
    """The parsed config, each flag given written at its setting (a missing section is created)."""
    raw = read_json(args.config, "config")
    for flag, setting in args.settings.items():
        section, key = setting.split(".")
        if getattr(args, flag) is not None and isinstance(raw, dict):
            if isinstance(raw.setdefault(section, {}), dict):
                raw[section][key] = getattr(args, flag)
    return raw


def _check_output(directory: str) -> None:
    """Refuse at [write], before any work, an output directory that cannot be written."""
    with stage("write"):
        check_writable_directory(directory)


def _cmd_estimate(args) -> int:
    config = AnalysisConfig.from_dict(_config(args))
    _check_output(config.output_dir)
    estimates = point_estimates(config)
    with stage("write"):
        text = write_estimates(config.output_dir, estimates)
    sys.stdout.write(text)
    return 0


def _cmd_test(args) -> int:
    config = AnalysisConfig.from_dict(_config(args))
    _check_output(config.output_dir)
    bundle = run_analysis(config)
    with stage("write"):
        paths = write_outputs(bundle)
    sys.stdout.write(bundle.table_text)
    sys.stdout.write("wrote " + " ".join(sorted(paths.values())) + "\n")
    return 0


def _cmd_mc(args) -> int:
    study, out_dir = mc_settings(_config(args))
    _check_output(out_dir)
    report = size_study(**study)
    with stage("write"):
        text = write_mc_results(out_dir, report)
    sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    sys.stdout.write(json_text(regenerate_report(args.output)))
    return 0


def _cmd_plot_data(args) -> int:
    try:
        i, j = (int(v) for v in args.columns.split(","))
    except ValueError:
        raise DataError("--columns must be two comma-separated integers") from None
    sys.stdout.write(write_plot_data(args.draws, i, j, args.output))
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "bootstrap": _cmd_test,
    "test": _cmd_test,
    "mc": _cmd_mc,
    "report": _cmd_report,
    "plot-data": _cmd_plot_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return DATA_EXIT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERICAL_EXIT
    except (ValueError, KeyError) as exc:
        # args[0], not str(exc): str() of a KeyError quotes its message.
        sys.stderr.write(f"data error: {exc.args[0] if exc.args else exc}\n")
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
