"""The three benchmark workloads: seeded inputs, the CLI call, output checks.

Each workload turns a seed into input files and a config, names the
`trimtest` command line that one timed operation runs, and checks the
output directory that operation wrote.  Inputs are generated here, never by
the program under test, so the program only ever sees files on disk, the
way a user drives it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from scipy import stats

import oracle

# Tolerances the benchmark fixes for comparing numbers against a reference.
# Bytes are not compared across commits: changing only the BLAS thread count
# moves the panel_fe joint statistic in the 16th digit.
RTOL = 1e-8
ATOL_SCALE = 1e-10


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload; `smoke` shrinks them for self-tests."""

    n: int
    iterations: int
    reps: int = 0
    mc_draws: int = 100_000


FULL = {
    "lstat_iid": Sizes(n=2000, iterations=2000),
    "panel_fe": Sizes(n=200, iterations=100),
    "size_study": Sizes(n=1000, iterations=299, reps=30),
}
SMOKE = {
    "lstat_iid": Sizes(n=200, iterations=50),
    "panel_fe": Sizes(n=24, iterations=20, mc_draws=2000),
    "size_study": Sizes(n=100, iterations=19, reps=3),
}

# How many bootstrap draws per comparison the independent oracle recomputes.
SPOT_DRAWS = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header: list[str], columns: list) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(v if isinstance(v, str) else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[object, str]:
    """Call trimtest.cli.main in-process; returns (exit status, captured text).

    An exception escaping main is an operation failure, not a benchmark
    crash, so it is caught here and returned with its traceback.
    """
    from trimtest.cli import main

    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(out):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # noqa: BLE001 - an escaping exception is a failed operation
        rc = "exception"
        out.write(traceback.format_exc())
    return rc, out.getvalue()


def dir_digest(directory: str) -> str:
    """sha256 over every file name and its bytes, in sorted order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _close(a, b, scale: float = 1.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.allclose(a, b, rtol=RTOL, atol=ATOL_SCALE * scale, equal_nan=False)
    )


def _finite_symmetric(m) -> bool:
    m = np.asarray(m, dtype=float)
    scale = float(np.abs(m).max()) if m.size else 0.0
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(np.all(np.isfinite(m))) and _close(m, m.T, scale)


def _is_prob(p) -> bool:
    return isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p <= 1.0


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_draws(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        return np.array([[float(v) for v in line.split(",")[1:]] for line in fh])


class Workload:
    """Base: subclasses generate inputs and check one operation's output."""

    name = ""
    command = ""
    max_threads = 1  # `--threads` is min(max_threads, nproc)

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.sizes = (SMOKE if smoke else FULL)[self.name]
        self.threads = min(self.max_threads, os.cpu_count() or 1)
        self.config_path = os.path.join(work_dir, "config.json")

    def generate(self) -> None:
        """Write the input files and the config into work_dir."""
        raise NotImplementedError

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.command, "--config", self.config_path, "--output", out_dir]
        if self.threads > 1:
            argv += ["--threads", str(self.threads)]
        return argv

    def check(self, out_dir: str, reference: dict | None) -> list[str]:
        """Problems found in one operation's output; empty means correct."""
        raise NotImplementedError

    def check_once(self, out_dir: str) -> list[str]:
        """Slower checks made once per run, untimed, on one output directory."""
        return []

    def record(self, out_dir: str) -> dict:
        """The values a reference entry keeps for this workload."""
        raise NotImplementedError


class _AnalysisWorkload(Workload):
    """Shared checks for the `trimtest test` workloads."""

    command = "test"

    def _oracle_point(self, name: str, draw: int | None) -> np.ndarray:
        raise NotImplementedError

    def _scale(self) -> float:
        raise NotImplementedError

    def record(self, out_dir: str) -> dict:
        res = _load_json(os.path.join(out_dir, "results.json"))
        out = {}
        for name, entry in res["comparisons"].items():
            tests = {label: t for label, t in entry["tests"].items()}
            tests["joint"] = entry["joint_test"]
            out[name] = {
                "baseline": entry["baseline"],
                "adjusted": entry["adjusted"],
                "bootstrap_cov": entry["bootstrap_cov"]["matrix"],
                "difference_cov": entry["difference_cov"],
                "analytic_cov": entry.get("analytic_cov", {}).get("matrix"),
                "statistic": {k: t["statistic"] for k, t in tests.items()},
                "critical_value": {k: t["critical_value"] for k, t in tests.items()},
                "p_value_formal": {k: t["p_value_formal"] for k, t in tests.items()},
                "p_value_heuristic": {k: t["p_value_heuristic"] for k, t in tests.items()},
            }
        return out

    def check(self, out_dir: str, reference: dict | None) -> list[str]:
        problems: list[str] = []
        try:
            res = _load_json(os.path.join(out_dir, "results.json"))
            comparisons = res["comparisons"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"results.json unreadable: {exc}"]
        scale = self._scale()
        for name, entry in comparisons.items():
            boot = entry["bootstrap_cov"]
            if boot["failed_draws"] != 0:
                problems.append(f"{name}: {boot['failed_draws']} failed draws")
            cov = np.asarray(boot["matrix"], dtype=float)
            for key, m in (("bootstrap_cov", cov), ("difference_cov", entry["difference_cov"])):
                if not _finite_symmetric(m):
                    problems.append(f"{name}: {key} is not finite and symmetric")
            if "analytic_cov" in entry and not _finite_symmetric(entry["analytic_cov"]["matrix"]):
                problems.append(f"{name}: analytic_cov is not finite and symmetric")
            tests = list(entry["tests"].values()) + [entry["joint_test"]]
            for t in tests:
                if not _is_prob(t["p_value_formal"]):
                    problems.append(f"{name}: formal p-value {t['p_value_formal']} not in [0, 1]")
                if t["p_value_heuristic"] is not None and not _is_prob(t["p_value_heuristic"]):
                    problems.append(f"{name}: heuristic p-value {t['p_value_heuristic']} not in [0, 1]")
                if t["reject"] != (t["statistic"] ** 2 > t["critical_value"]):
                    problems.append(f"{name}: reject flag disagrees with statistic and critical value")
            problems += [f"{name}: {p}" for p in _check_tests(entry, res["test"])]
            point = np.asarray(entry["baseline"] + entry["adjusted"], dtype=float)
            if not _close(point, self._oracle_point(name, None), scale):
                problems.append(f"{name}: point estimates differ from the oracle")
            try:
                draws = _read_draws(os.path.join(out_dir, f"draws_{name}.csv"))
            except (OSError, ValueError, StopIteration) as exc:
                problems.append(f"{name}: draws file unreadable: {exc}")
                continue
            if draws.shape != (self.sizes.iterations, len(point)) or not np.all(np.isfinite(draws)):
                problems.append(f"{name}: draws file has shape {draws.shape} or non-finite rows")
                continue
            if not _close(np.cov(draws, rowvar=False, ddof=1), cov, scale * scale):
                problems.append(f"{name}: bootstrap_cov is not the covariance of the draws file")
            for b in range(min(SPOT_DRAWS, len(draws))):
                if not _close(draws[b], self._oracle_point(name, b), scale):
                    problems.append(f"{name}: draw {b} differs from the oracle")
            if reference is not None:
                problems += _compare_reference(name, self.record(out_dir)[name], reference[name], scale)
        return problems


def _scalar_tail(stat: float, h: float, var: float, a: float) -> float:
    """Pr(|h + xi| >= stat) measured in the a-norm, xi ~ N(0, var)."""
    sd, ra = math.sqrt(var), math.sqrt(a)
    return float(stats.norm.sf((stat * ra - h * ra) / sd) + stats.norm.cdf((-stat * ra - h * ra) / sd))


def _scalar_test(diff: float, h: float, var: float, norm: str) -> tuple[float, float, float]:
    """(statistic, p-value, norm weight a) of a scalar test in the chosen norm."""
    a = var if norm == "diff_cov" else 1.0
    stat = abs(diff) / math.sqrt(a)
    return stat, _scalar_tail(stat, h, var, a), a


def _check_tests(entry: dict, spec: dict) -> list[str]:
    """Recompute every exact-path statistic, critical value and p-value.

    Per-statistic tests are scalar, so their p-values have a closed form.
    The joint test is recomputed the same way when it is scalar; otherwise
    only its statistic is, because its critical value comes from Monte
    Carlo draws (`trimtest report` re-derives those once per run).
    """
    problems = []
    h, alpha, norm = spec["h"], spec["alpha"], spec["norm"]
    diff = np.subtract(entry["baseline"], entry["adjusted"])
    dcov = np.asarray(entry["difference_cov"], dtype=float)
    bcov = np.asarray(entry["bootstrap_cov"]["matrix"], dtype=float)
    d = len(diff)
    checks = [(entry["tests"][label], j) for j, label in enumerate(entry["labels"])]
    if d == 1:
        checks.append((entry["joint_test"], 0))
    for t, j in checks:
        stat, p_formal, a = _scalar_test(diff[j], h, dcov[j, j], norm)
        _, p_heuristic, _ = _scalar_test(diff[j], h, bcov[j, j], norm)
        want = {"statistic": stat, "p_value_formal": p_formal, "p_value_heuristic": p_heuristic}
        for key, w in want.items():
            if not _close(t[key], w):
                problems.append(f"{key} {t[key]} != recomputed {w}")
        if abs(_scalar_tail(math.sqrt(t["critical_value"]), h, dcov[j, j], a) - alpha) > 1e-8:
            problems.append(f"critical value {t['critical_value']} does not leave tail mass alpha")
    if d > 1:
        norm_m = dcov if norm == "diff_cov" else np.eye(d)
        stat = math.sqrt(diff @ np.linalg.solve(norm_m, diff))
        if not _close(entry["joint_test"]["statistic"], stat):
            problems.append(f"joint statistic {entry['joint_test']['statistic']} != recomputed {stat}")
    return problems


def _compare_reference(name: str, got: dict, want: dict, scale: float) -> list[str]:
    problems = []
    for key, want_v in want.items():
        got_v = got.get(key)
        if isinstance(want_v, dict):
            for label, w in want_v.items():
                g = got_v.get(label) if isinstance(got_v, dict) else None
                if (w is None) != (g is None) or (w is not None and not _close(g, w, scale)):
                    problems.append(f"{name}: {key}[{label}] = {g}, reference {w}")
        elif (want_v is None) != (got_v is None) or (
            want_v is not None and not _close(got_v, want_v, scale * scale if "cov" in key else scale)
        ):
            problems.append(f"{name}: {key} differs from the seed-commit reference")
    return problems


class LStatIID(_AnalysisWorkload):
    """L-statistic pairs on an iid Student-t(3) sample with two comparisons."""

    name = "lstat_iid"
    Q = (0.02, 0.98)

    def generate(self) -> None:
        self.x = _rng(self.seed, 1).standard_t(3.0, self.sizes.n)
        _write(os.path.join(self.work_dir, "sample.csv"), _csv(["x"], [self.x]))
        lo, hi = self.Q
        config = {
            "input": os.path.join(self.work_dir, "sample.csv"),
            "model": {"type": "lstat", "statistics": [{"column": "x"}]},
            "comparisons": [
                {"name": "trim", "weights": {
                    "baseline": {"kind": "all_ones"},
                    "adjusted": {"kind": "quantile_trim", "columns": ["x"], "lower_q": lo, "upper_q": hi},
                }},
                {"name": "winsor", "weights": {
                    "baseline": {"kind": "all_ones"},
                    "adjusted": {"kind": "winsorize", "columns": ["x"], "lower_q": lo, "upper_q": hi},
                }},
            ],
            "bootstrap": {"iterations": self.sizes.iterations, "seed": self.seed, "resample_unit": "row"},
            "test": {"alpha": 0.05, "h": 0.0, "norm": "diff_cov", "seed": self.seed + 1},
            "output": {"plot_pairs": ["x"], "analytic_cov": True},
        }
        _write(self.config_path, json.dumps(config, indent=2))

    def _scale(self) -> float:
        return float(np.mean(np.abs(self.x)))

    def _oracle_point(self, name: str, draw: int | None) -> np.ndarray:
        x = self.x if draw is None else self.x[oracle.resample_units(self.seed, draw, len(self.x))]
        return oracle.lstat_pair(x, name, *self.Q)


class PanelFE(_AnalysisWorkload):
    """OLS with cluster fixed effects and a lagged outcome on an unbalanced panel."""

    name = "panel_fe"
    max_threads = 2
    MULTIPLIER = 1.96
    HORIZON = 3

    def generate(self) -> None:
        self.panel = oracle.make_panel(_rng(self.seed, 2), self.sizes.n)
        p = self.panel
        _write(
            os.path.join(self.work_dir, "panel.csv"),
            _csv(["unit", "period", "x", "y"], [[f"u{c}" for c in p.cluster], p.period, p.x, p.y]),
        )
        config = {
            "input": os.path.join(self.work_dir, "panel.csv"),
            "cluster_column": "unit",
            "lags": [{"column": "y", "count": 1}],
            "model": {
                "type": "ols",
                "outcome": "y",
                "regressors": ["x", "y_lag1"],
                "fixed_effects": ["cluster"],
                "report_coefficients": ["x"],
                "derived": {"effect": "x", "lags": ["y_lag1"], "horizon": self.HORIZON},
            },
            "weights": {
                "baseline": {"kind": "all_ones"},
                "adjusted": {"kind": "residual_trim", "multiplier": self.MULTIPLIER},
            },
            "bootstrap": {"iterations": self.sizes.iterations, "seed": self.seed, "resample_unit": "cluster"},
            "test": {
                "alpha": 0.05, "h": 0.02, "norm": "identity",
                "mc_draws": self.sizes.mc_draws, "seed": self.seed + 1,
            },
            "output": {},
        }
        _write(self.config_path, json.dumps(config, indent=2))

    def _scale(self) -> float:
        return 1.0

    def _oracle_point(self, name: str, draw: int | None) -> np.ndarray:
        lagged = oracle.lag_panel(self.panel)
        if draw is not None:
            units = oracle.resample_units(self.seed, draw, int(lagged.cluster.max()) + 1)
            lagged = oracle.take_clusters(lagged, units)
        return oracle.fe_pair(lagged, self.MULTIPLIER, self.HORIZON)

    def check_once(self, out_dir: str) -> list[str]:
        """`trimtest report` must reproduce the stored formal p-values."""
        rc, text = run_cli(["report", "--output", out_dir])
        if rc != 0:
            return [f"report exited {rc}: {text[-500:]}"]
        regenerated = json.loads(text)
        res = _load_json(os.path.join(out_dir, "results.json"))
        problems = []
        for name, entry in res["comparisons"].items():
            stored = {k: t["p_value_formal"] for k, t in entry["tests"].items()}
            stored["joint"] = entry["joint_test"]["p_value_formal"]
            if not _close(list(regenerated[name].values()), [stored[k] for k in regenerated[name]]):
                problems.append(f"{name}: report p-values {regenerated[name]} != stored {stored}")
        return problems


class SizeStudy(Workload):
    """`trimtest mc` on the size-study design of OLS vs residual-trimmed OLS."""

    name = "size_study"
    command = "mc"
    expected_rejections = None  # computed by the oracle on first check

    def generate(self) -> None:
        self.config = config = {
            "mc": {
                "dgp": {"kind": "linear_regression", "n": self.sizes.n},
                "reps": self.sizes.reps,
                "seed": self.seed,
                "alpha": 0.05,
                "h": 0.0,
                "multiplier": 1.96,
                "inner_iterations": self.sizes.iterations,
                "coefficient": "x",
            }
        }
        _write(self.config_path, json.dumps(config, indent=2))

    def record(self, out_dir: str) -> dict:
        doc = _load_json(os.path.join(out_dir, "mc_results.json"))
        return {"rejections": doc["rejections"], "reps": doc["reps"]}

    def check(self, out_dir: str, reference: dict | None) -> list[str]:
        try:
            doc = _load_json(os.path.join(out_dir, "mc_results.json"))
        except (OSError, ValueError) as exc:
            return [f"mc_results.json unreadable: {exc}"]
        problems = []
        reps, rej = doc.get("reps"), doc.get("rejections")
        if reps != self.sizes.reps:
            problems.append(f"reps = {reps}, expected {self.sizes.reps}")
        elif not (isinstance(rej, int) and 0 <= rej <= reps) or doc.get("rate") != rej / reps:
            problems.append(f"rejections {rej} and rate {doc.get('rate')} are inconsistent")
        if not math.isfinite(doc.get("std_error", float("nan"))):
            problems.append("std_error is not finite")
        if self.expected_rejections is None:
            z = self.config["mc"]
            self.expected_rejections = oracle.size_study_rejections(
                z["seed"], z["dgp"]["n"], z["reps"], z["inner_iterations"], z["multiplier"], z["alpha"]
            )
        if rej != self.expected_rejections:
            problems.append(f"rejections {rej} differ from the oracle's {self.expected_rejections}")
        if reference is not None and {"rejections": rej, "reps": reps} != reference:
            problems.append(f"rejections {rej}/{reps} differ from the seed-commit reference {reference}")
        return problems


WORKLOADS = {w.name: w for w in (LStatIID, PanelFE, SizeStudy)}
