"""Tests for the Monte Carlo data generators and sampling-distribution oracle."""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

import trimtest.mc_oracle
from trimtest import NumericalError
from trimtest.analysis import AnalysisConfig, run_analysis
from trimtest.cli import main
from trimtest.errors import RankDeficiencyError
from trimtest.lstat import LStatSpec
from trimtest.estimators import lstat_pair_estimator
from trimtest.config import _DGP
from trimtest.mc_oracle import (
    DGP_SETTINGS,
    CoverageReport,
    DGPSpec,
    _child_seed,
    mc_covariance,
    residual_trim_size_analysis,
    simulate,
    size_study,
)
from trimtest.regress import RegressionModel, weighted_ols
from trimtest.weights import WeightScheme

from conftest import _pin_cpus
from reference import cluster_sizes


class TestDGPSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown DGP kind"):
            DGPSpec(kind="mystery", n=10)

    def test_unknown_law(self):
        with pytest.raises(ValueError, match="unknown law"):
            DGPSpec.univariate("cauchyish", 10)

    def test_student_t_needs_heavy_moment_margin(self):
        with pytest.raises(ValueError, match="df > 2"):
            DGPSpec.univariate("student_t", 10, df=2.0)

    def test_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must be"):
            DGPSpec.univariate("normal", 0)

    @pytest.mark.parametrize("name", ["scale", "error_scale"])
    def test_negative_scale(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1.0$"):
            DGPSpec("linear_regression", n=10, **{name: -1.0})
        assert getattr(DGPSpec("linear_regression", n=10, **{name: 0.0}), name) == 0.0

    def test_constructor_refuses_a_setting_of_another_kind(self):
        with pytest.raises(TypeError, match="^a 'univariate' DGP takes no setting slope$"):
            DGPSpec.univariate("normal", 5, slope=2.0)
        with pytest.raises(TypeError, match="^a 'panel' DGP takes no setting df, n$"):
            DGPSpec.panel(3, 1, 2, n=10, df=3.0)
        assert DGPSpec.linear_regression(n=10, slope=2.0) == DGPSpec("linear_regression", n=10, slope=2.0)

    @pytest.mark.parametrize("kind", list(DGP_SETTINGS))
    def test_config_schema_takes_the_settings_of_each_kind(self, kind):
        assert set(_DGP.sections[kind].keys) == {"kind", *DGP_SETTINGS[kind]}

    def test_panel_bounds(self):
        with pytest.raises(ValueError, match="t_min"):
            DGPSpec.panel(n_clusters=5, t_min=0, t_max=3)
        with pytest.raises(ValueError, match="t_min"):
            DGPSpec.panel(n_clusters=5, t_min=4, t_max=3)
        with pytest.raises(ValueError, match="n_clusters"):
            DGPSpec.panel(n_clusters=0, t_min=1, t_max=3)


class TestSimulate:
    def test_same_seed_reproduces(self):
        dgp = DGPSpec.univariate("lognormal", 200)
        a = simulate(dgp, seed=7)
        b = simulate(dgp, seed=7)
        np.testing.assert_array_equal(a.column("x"), b.column("x"))
        np.testing.assert_array_equal(a.cluster_ids, b.cluster_ids)

    def test_different_seeds_differ(self):
        dgp = DGPSpec.univariate("normal", 200)
        a = simulate(dgp, seed=1)
        b = simulate(dgp, seed=2)
        assert not np.array_equal(a.column("x"), b.column("x"))

    def test_univariate_rows_are_own_clusters(self):
        data = simulate(DGPSpec.univariate("normal", 50), seed=0)
        assert data.n_rows == 50
        assert data.n_clusters == 50

    def test_law_moments(self):
        n = 200_000
        norm = simulate(DGPSpec.univariate("normal", n, loc=2.0, scale=3.0), seed=5)
        assert norm.column("x").mean() == pytest.approx(2.0, abs=0.05)
        assert norm.column("x").std() == pytest.approx(3.0, abs=0.05)
        unif = simulate(DGPSpec.univariate("uniform", n), seed=6)
        x = unif.column("x")
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert x.mean() == pytest.approx(0.5, abs=0.01)
        logn = simulate(DGPSpec.univariate("lognormal", n), seed=7)
        assert logn.column("x").min() > 0.0
        t5 = simulate(DGPSpec.univariate("student_t", n, df=5.0), seed=8)
        assert t5.column("x").mean() == pytest.approx(0.0, abs=0.05)

    def test_regression_slope_recovered(self):
        dgp = DGPSpec.linear_regression(5000, intercept=1.0, slope=0.0)
        data = simulate(dgp, seed=11)
        fit = weighted_ols(RegressionModel("y", ("x",)), data)
        se_proxy = dgp.error_scale / np.sqrt(5000 * np.var(data.column("x")))
        assert abs(fit.coef("x")) < 3.0 * se_proxy

    def test_instrumented_regression_has_correlated_instrument(self):
        dgp = DGPSpec.linear_regression(20_000, instrument_strength=0.6)
        data = simulate(dgp, seed=13)
        assert "z" in data.columns
        r = np.corrcoef(data.column("z"), data.column("x"))[0, 1]
        assert r == pytest.approx(0.6, abs=0.05)

    def test_uninstrumented_regression_has_no_z(self):
        data = simulate(DGPSpec.linear_regression(100), seed=1)
        assert "z" not in data.columns

    @pytest.mark.parametrize(
        "dgp",
        [
            DGPSpec.univariate("normal", 10),
            DGPSpec.linear_regression(10),
            DGPSpec("linear_regression", n=10, instrument_strength=0.5),
            DGPSpec.panel(n_clusters=4, t_min=1, t_max=3),
        ],
        ids=["univariate", "regression", "instrumented", "panel"],
    )
    def test_columns_are_the_simulated_ones(self, dgp):
        assert tuple(simulate(dgp, seed=2).columns) == dgp.columns

    def test_panel_shape(self):
        dgp = DGPSpec.panel(n_clusters=40, t_min=3, t_max=8)
        data = simulate(dgp, seed=21)
        assert data.n_clusters == 40
        sizes = cluster_sizes(data)
        assert sizes.min() >= 3 and sizes.max() <= 8
        assert "period" in data.columns
        # Periods restart from zero inside every cluster.
        for c in range(40):
            mask = data.row_cluster_index == c
            np.testing.assert_array_equal(
                data.column("period")[mask], np.arange(mask.sum(), dtype=float)
            )


class TestChildSeed:
    def test_deterministic(self):
        assert _child_seed(42, 3) == _child_seed(42, 3)

    def test_distinct_across_reps(self):
        seeds = {_child_seed(42, r) for r in range(200)}
        assert len(seeds) == 200

    def test_distinct_across_masters(self):
        assert _child_seed(1, 0) != _child_seed(2, 0)


def _mean_estimator(data, row_weights):
    x = data.column("x")
    return np.array([float(np.sum(x * row_weights) / np.sum(row_weights))])


class TestMcCovariance:
    def test_deterministic(self):
        dgp = DGPSpec.univariate("normal", 60)
        cov1, mean1 = mc_covariance(dgp, _mean_estimator, reps=50, seed=9)
        cov2, mean2 = mc_covariance(dgp, _mean_estimator, reps=50, seed=9)
        np.testing.assert_array_equal(cov1, cov2)
        np.testing.assert_array_equal(mean1, mean2)

    def test_scaling_matches_clt_for_mean(self):
        # For an iid normal mean, n * Var(mean) = scale^2 exactly in
        # expectation; with 4000 replications the MC error is about 2%.
        dgp = DGPSpec.univariate("normal", 250, scale=2.0)
        cov, mean = mc_covariance(dgp, _mean_estimator, reps=4000, seed=17)
        assert mean[0] == pytest.approx(0.0, abs=0.05)
        assert cov[0, 0] == pytest.approx(4.0, rel=0.1)

    def test_symmetry_and_shape(self):
        dgp = DGPSpec.univariate("normal", 80)
        est = lstat_pair_estimator(
            [LStatSpec("x")],
            [LStatSpec("x", scheme=WeightScheme.quantile_trim("x", 0.05, 0.95))],
        )
        cov, mean = mc_covariance(dgp, est, reps=60, seed=3)
        assert cov.shape == (2, 2)
        assert mean.shape == (2,)
        np.testing.assert_array_equal(cov, cov.T)

    def test_failed_replications_abort(self):
        def flaky(data, row_weights):
            raise ValueError("always broken")

        with pytest.raises(NumericalError, match="failed"):
            mc_covariance(DGPSpec.univariate("normal", 20), flaky, reps=30, seed=1)

    def test_one_failed_replication_is_tolerated_below_100_reps(self):
        # The limit is max(1, 1% of reps): one failure out of 30 is dropped,
        # and the covariance is that of the 29 replications that succeeded.
        dgp = DGPSpec.univariate("normal", 20)
        seen = []

        def fails_once(data, row_weights):
            seen.append(None)
            if len(seen) == 4:
                raise ValueError("broken replication")
            return _mean_estimator(data, row_weights)

        cov, mean = mc_covariance(dgp, fails_once, reps=30, seed=1)
        kept = [
            _mean_estimator(simulate(dgp, _child_seed(1, r)), np.ones(20))
            for r in range(30)
            if r != 3
        ]
        stats = np.vstack(kept)
        centered = np.sqrt(20) * (stats - stats.mean(axis=0))
        np.testing.assert_allclose(cov, centered.T @ centered / 28, rtol=1e-12)
        np.testing.assert_allclose(mean, stats.mean(axis=0), rtol=1e-12)

        def fails_twice(data, row_weights):
            seen.append(None)
            if len(seen) in (40, 41):
                raise ValueError("broken replication")
            return _mean_estimator(data, row_weights)

        with pytest.raises(NumericalError, match="2 of 30 Monte Carlo replications failed"):
            mc_covariance(dgp, fails_twice, reps=30, seed=1)

    def test_fewer_than_two_successes_abort(self):
        calls = []

        def fails_first(data, row_weights):
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("broken replication")
            return _mean_estimator(data, row_weights)

        with pytest.raises(NumericalError, match="only 1 of 2"):
            mc_covariance(DGPSpec.univariate("normal", 20), fails_first, reps=2, seed=1)


class TestSizeStudy:
    def test_counts_rejections_exactly(self, monkeypatch):
        # Deterministic analysis: reject iff the rep seed is even.  One
        # worker, so every call is made here and `seen` records it.
        _pin_cpus(monkeypatch, 1)
        seen = []

        def analysis(data, rep_seed):
            seen.append(rep_seed)
            return rep_seed % 2 == 0

        report = size_study(
            DGPSpec.univariate("normal", 10), analysis, reps=40, seed=123, alpha=0.05
        )
        assert isinstance(report, CoverageReport)
        assert report.reps == 40
        assert report.alpha == 0.05
        assert report.h == 0.0
        expected = sum(1 for s in seen if s % 2 == 0)
        assert report.rejections == expected
        assert report.rate == pytest.approx(expected / 40)

    def test_std_error_formula(self):
        def always(data, rep_seed):
            return True

        report = size_study(
            DGPSpec.univariate("normal", 5), always, reps=25, seed=0, alpha=0.05
        )
        assert report.rate == 1.0
        # Degenerate observed rate falls back to the nominal-level binomial SE.
        assert report.std_error == pytest.approx(np.sqrt(0.05 * 0.95 / 25))

        def half(data, rep_seed):
            return rep_seed % 2 == 0

        rep2 = size_study(
            DGPSpec.univariate("normal", 5), half, reps=64, seed=5, alpha=0.05
        )
        p = rep2.rate
        assert 0.0 < p < 1.0
        assert rep2.std_error == pytest.approx(np.sqrt(p * (1 - p) / 64))

    def test_rep_seeds_match_child_seed(self, monkeypatch):
        _pin_cpus(monkeypatch, 1)
        captured = []

        def analysis(data, rep_seed):
            captured.append(rep_seed)
            return False

        size_study(
            DGPSpec.univariate("normal", 5), analysis, reps=6, seed=77, alpha=0.05
        )
        assert captured == [_child_seed(77, r) for r in range(6)]


def _failing_at(seed, failures):
    """analysis_fn raising failures[r] at rep r and rejecting at odd reps."""
    rep_of = {_child_seed(seed, r): r for r in range(64)}

    def analysis(data, rep_seed):
        rep = rep_of[rep_seed]
        if rep in failures:
            raise failures[rep]
        return rep % 2 == 1

    return analysis


def test_size_analysis_skips_the_heuristic_it_does_not_read(monkeypatch):
    # Each replication decides by the joint test's reject flag alone.
    real, seen = trimtest.mc_oracle.comparison_tests, []

    def spy(*args, **kwargs):
        seen.append((real(*args, **kwargs), real(*args[:4])))
        return seen[-1][0]

    monkeypatch.setattr(trimtest.mc_oracle, "comparison_tests", spy)
    analysis = residual_trim_size_analysis(inner_iterations=19, alpha=0.3)
    dgp = DGPSpec.linear_regression(80, slope=0.5)
    for r in range(3):
        analysis(simulate(dgp, _child_seed(4, r)), _child_seed(4, r))
    assert len(seen) == 3
    for lean, full in seen:
        assert lean.joint.p_value_heuristic is None and full.joint.p_value_heuristic is not None
        assert lean.joint.reject == full.joint.reject
        assert lean.joint.p_value_formal == full.joint.p_value_formal


@pytest.mark.parametrize("cpus", [1, 2, 3])
class TestSizeStudyWorkers:
    def test_report_is_the_same_for_any_worker_count(self, monkeypatch, cpus):
        dgp = DGPSpec.linear_regression(80, slope=0.5)
        analysis = residual_trim_size_analysis(inner_iterations=19, alpha=0.3)
        expected = sum(
            analysis(simulate(dgp, _child_seed(4, r)), _child_seed(4, r)) for r in range(7)
        )
        _pin_cpus(monkeypatch, cpus)
        report = size_study(dgp, analysis, reps=7, seed=4, alpha=0.3)
        assert 0 < expected < 7
        assert report == CoverageReport(
            rejections=expected, reps=7, rate=expected / 7,
            std_error=float(np.sqrt(expected / 7 * (1 - expected / 7) / 7)),
            alpha=0.3, h=0.0, seed=4,
        )
        assert size_study(
            DGPSpec.univariate("normal", 5), _failing_at(9, {}), reps=10, seed=9
        ).rejections == 5

    def test_first_failing_rep_is_raised(self, monkeypatch, cpus):
        # With 2 workers rep 1 fails in the child and rep 4 here; with 3 both
        # belong to one child, which stops at rep 1.
        _pin_cpus(monkeypatch, cpus)
        analysis = _failing_at(3, {1: ValueError("rep 1 failed"), 4: ValueError("rep 4 failed")})
        with pytest.raises(ValueError, match=r"^\[mc\] rep 1 failed$"):
            size_study(DGPSpec.univariate("normal", 5), analysis, reps=6, seed=3)

    def test_rank_deficiency_keeps_its_type_and_fields(self, monkeypatch, cpus):
        _pin_cpus(monkeypatch, cpus)
        analysis = _failing_at(3, {1: RankDeficiencyError(2, 3, "adjusted design")})
        with pytest.raises(RankDeficiencyError) as info:
            size_study(DGPSpec.univariate("normal", 5), analysis, reps=4, seed=3)
        exc = info.value
        assert str(exc) == "[mc] adjusted design matrix is rank deficient: rank 2 < 3 columns"
        assert (exc.rank, exc.ncols, exc.stage) == (2, 3, "adjusted design")

    def test_bootstraps_inside_a_replication_run_on_one_worker(self, monkeypatch, cpus):
        # One draw per block gives each inner bootstrap 19 blocks, enough to
        # fork anywhere but inside a replication.
        dgp = DGPSpec.linear_regression(80, slope=0.5)
        analysis = residual_trim_size_analysis(inner_iterations=19, alpha=0.3)
        monkeypatch.setattr(trimtest.bootstrap, "BLOCK_ENTRIES", 1)
        _pin_cpus(monkeypatch, 1)
        serial = size_study(dgp, analysis, reps=5, seed=4, alpha=0.3)
        inside, fork = [], os.fork

        def fork_outside(*args):
            if inside:
                raise AssertionError("a bootstrap inside a replication forked")
            return fork(*args)

        def watched(data, rep_seed):  # every fork of the study comes before a replication
            inside.append(rep_seed)
            return analysis(data, rep_seed)

        monkeypatch.setattr(os, "fork", fork_outside)
        _pin_cpus(monkeypatch, cpus)
        assert size_study(dgp, watched, reps=5, seed=4, alpha=0.3) == serial


@pytest.mark.parametrize("cpus", [2, 3])
class TestWorkerFailures:
    def test_killed_worker_is_a_numerical_failure_at_exit_3(
        self, monkeypatch, tmp_path, capsys, cpus
    ):
        # Rep 1 runs in a child from 2 workers on; that child kills itself.
        _pin_cpus(monkeypatch, cpus)
        parent, simulate_rep = os.getpid(), trimtest.mc_oracle.simulate

        def simulate_or_die(dgp, rep_seed):
            if os.getpid() != parent and rep_seed == _child_seed(0, 1):
                os.kill(os.getpid(), signal.SIGKILL)
            return simulate_rep(dgp, rep_seed)

        monkeypatch.setattr(trimtest.mc_oracle, "simulate", simulate_or_die)
        config = tmp_path / "mc.json"
        mc = {"dgp": {"kind": "linear_regression", "n": 40}, "reps": 4, "inner_iterations": 9}
        config.write_text(json.dumps({"mc": mc}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(config), "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: [mc] a worker process exited with status -9 and no results\n"
        )
        assert not out.exists()

    def test_unpicklable_exception_keeps_its_message(self, monkeypatch, cpus):
        # Rep 1 runs in a child.  A lambda in its args stops the exception
        # from pickling, so it comes back as a NumericalError naming its
        # type and text.
        _pin_cpus(monkeypatch, cpus)
        analysis = _failing_at(3, {1: ValueError("broken", lambda: None)})
        with pytest.raises(NumericalError) as info:
            size_study(DGPSpec.univariate("normal", 5), analysis, reps=4, seed=3)
        assert str(info.value).startswith("[mc] ValueError: ('broken', <function ")

    def test_interrupt_kills_the_workers(self, monkeypatch, cpus):
        # Rep 0 runs here and is interrupted while rep 1 sleeps in a child:
        # the child is killed and reaped rather than waited for.
        _pin_cpus(monkeypatch, cpus)
        parent = os.getpid()

        def analysis(data, rep_seed):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            size_study(DGPSpec.univariate("normal", 5), analysis, reps=4, seed=0)
        assert time.monotonic() - start < 30


class TestResidualTrimSizeAnalysis:
    def test_returns_boolean_decision(self):
        analysis = residual_trim_size_analysis(multiplier=1.96, inner_iterations=59)
        dgp = DGPSpec.linear_regression(120, slope=0.5)
        data = simulate(dgp, seed=31)
        out = analysis(data, rep_seed=31)
        assert out in (True, False)

    def test_decision_is_seed_deterministic(self):
        analysis = residual_trim_size_analysis(inner_iterations=59)
        data = simulate(DGPSpec.linear_regression(150, slope=1.0), seed=8)
        assert analysis(data, rep_seed=4) == analysis(data, rep_seed=4)

    def test_rejections_match_trimtest_test_on_each_rep(self, monkeypatch):
        # Each replication is tested the way `trimtest test` tests it: OLS
        # against residual_trim, cluster resampling, the rep seed seeding
        # both the bootstrap and the test.
        dgp = DGPSpec.linear_regression(80, slope=0.5)
        _pin_cpus(monkeypatch, 1)
        analysis = residual_trim_size_analysis(multiplier=1.5, inner_iterations=19, alpha=0.3, h=0.02)
        report = size_study(dgp, analysis, reps=8, seed=6, alpha=0.3, h=0.02)
        rejections = 0
        for r in range(8):
            rep_seed = _child_seed(6, r)
            config = AnalysisConfig.from_dict({
                "input": "simulated",
                "model": {"type": "ols", "outcome": "y", "regressors": ["x"]},
                "weights": {
                    "baseline": {"kind": "all_ones"},
                    "adjusted": {"kind": "residual_trim", "multiplier": 1.5},
                },
                "bootstrap": {"iterations": 19, "resample_unit": "cluster", "seed": rep_seed},
                "test": {"alpha": 0.3, "h": 0.02, "seed": rep_seed},
            })
            (result,) = run_analysis(config, data=simulate(dgp, rep_seed)).results
            rejections += result.tests.joint.reject
        assert 0 < rejections < 8
        assert report.rejections == rejections
