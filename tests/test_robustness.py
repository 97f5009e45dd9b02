"""Tests for the formal outlier-robustness hypothesis test."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from trimtest import bootstrap, robustness
from trimtest.errors import NumericalError
from trimtest.robustness import (
    TestSpec,
    critical_value,
    explicit_norm,
    floor_spd,
    mahalanobis,
    robustness_test,
    unit_directions,
)
from trimtest.robustness import MC_CHUNK, _empirical_upper_quantile

from conftest import _count_forks, _pin_cpus, _tracemalloc_peak


def _formal_p_value(statistic_sq, h, sigma, norm_matrix="diff_cov", **settings):
    """The formal p-value alone: the tail at statistic_sq of the test's one route."""
    spec = TestSpec(h, norm_matrix=norm_matrix, **settings)
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    return robustness._route(spec, sigma, robustness._norm_matrix_of(norm_matrix, sigma), None, statistic_sq)[2]


class TestSpecValidation:
    def test_field_checks(self):
        with pytest.raises(ValueError, match="h must be >= 0"):
            TestSpec(h=-0.1)
        with pytest.raises(ValueError, match="alpha"):
            TestSpec(alpha=1.0)
        with pytest.raises(ValueError, match="mc_draws"):
            TestSpec(mc_draws=10)
        with pytest.raises(ValueError, match="method"):
            TestSpec(method="bayes")

    def test_norm_is_checked_when_built(self):
        with pytest.raises(ValueError, match="unknown norm matrix choice 'mahalanobis'"):
            TestSpec(norm_matrix="mahalanobis")
        with pytest.raises(ValueError, match="symmetric"):
            TestSpec(norm_matrix=[[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            TestSpec(norm_matrix=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        # A matrix is kept as float rows, so a later change to the caller's list leaves it.
        rows = [[2, 0], [0, 1]]
        spec = TestSpec(norm_matrix=rows)
        rows[0][0] = -1
        assert spec.norm_matrix == ((2.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_non_finite_h_is_refused(self, h):
        with pytest.raises(ValueError, match=f"tolerance h must be finite, got {h!r}"):
            TestSpec(h=h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_norm_is_refused(self, bad):
        for matrix in ([[bad]], [[1.0, bad], [bad, 1.0]], [[bad, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="an explicit norm matrix must be finite"):
                explicit_norm(matrix)
            with pytest.raises(ValueError, match="an explicit norm matrix must be finite"):
                TestSpec(norm_matrix=matrix)

    def test_critical_value_checks_its_settings_as_test_spec_does(self):
        with pytest.raises(ValueError, match="alpha"):
            critical_value(0.0, np.eye(2), alpha=1.0)
        with pytest.raises(ValueError, match="mc_draws"):
            critical_value(0.0, np.eye(2), mc_draws=999)
        with pytest.raises(ValueError, match="unknown norm matrix choice"):
            critical_value(0.0, np.eye(2), norm_matrix="mahalanobis")


class TestFloorSpd:
    def test_clips_negative_eigenvalue(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        out = floor_spd(m)
        vals = np.linalg.eigvalsh(out)
        assert vals.min() >= -1e-12
        assert vals.max() == pytest.approx(3.0)

    def test_noop_on_spd(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(floor_spd(m), m, atol=1e-12)

    def test_symmetrizes(self):
        m = np.array([[1.0, 0.3], [0.1, 1.0]])
        out = floor_spd(m)
        np.testing.assert_array_equal(out, out.T)


class TestMahalanobis:
    def test_identity_is_euclidean(self):
        d = np.array([3.0, 4.0])
        assert mahalanobis(d, np.eye(2)) == pytest.approx(5.0)

    def test_diagonal_scaling(self):
        assert mahalanobis(np.array([2.0]), np.array([[4.0]])) == pytest.approx(1.0)

    def test_singular_norm_raises_with_advice(self):
        with pytest.raises(NumericalError, match="floor_spd"):
            mahalanobis(np.array([1.0, 1.0]), np.zeros((2, 2)))


class TestUnitDirections:
    def test_scalar_signs(self):
        np.testing.assert_array_equal(unit_directions(1), [[1.0], [-1.0]])

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unit_norm_and_antipodes(self, dim):
        dirs = unit_directions(dim)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        # Coordinate axes present in both signs.
        for sign in (1.0, -1.0):
            for j in range(dim):
                axis = sign * np.eye(dim)[j]
                assert np.any(np.all(np.isclose(dirs, axis), axis=1))
        # Every direction has its antipode in the set.
        for row in dirs[: len(dirs) // 2]:
            assert np.any(np.all(np.isclose(dirs, -row), axis=1))


class TestEmpiricalUpperQuantile:
    def test_order_statistic_rule(self):
        values = np.arange(1.0, 101.0)
        assert _empirical_upper_quantile(values, 0.05) == 96.0
        assert _empirical_upper_quantile(values, 0.5) == 51.0

    def test_clipped_at_maximum(self):
        values = np.arange(1.0, 11.0)
        assert _empirical_upper_quantile(values, 1e-9) == 10.0


class TestCriticalValueExact:
    def test_scalar_no_tolerance_is_chi2(self):
        # In the difference-covariance norm the statistic is pivotal.
        for s2 in (0.1, 1.0, 2.5, 40.0):
            c = critical_value(0.0, np.array([[s2]]), alpha=0.05)
            assert c == pytest.approx(stats.chi2.ppf(0.95, df=1), rel=1e-10)

    def test_scalar_identity_norm_scales_with_variance(self):
        c = critical_value(0.0, np.array([[2.5]]), alpha=0.05, norm_matrix="identity")
        assert c == pytest.approx(2.5 * stats.chi2.ppf(0.95, df=1), rel=1e-10)

    def test_matrix_chi2_quantile(self):
        c = critical_value(0.0, np.eye(2), alpha=0.05)
        assert c == pytest.approx(stats.chi2.ppf(0.95, df=2), rel=1e-12)
        c3 = critical_value(0.0, 4.0 * np.eye(3), alpha=0.01)
        assert c3 == pytest.approx(stats.chi2.ppf(0.99, df=3), rel=1e-10)

    def test_scalar_root_find_agrees_with_noncentral_chi2(self):
        # Two independent exact routes: the package's df = 1 noncentral
        # chi-square quantile versus root-finding on the normal CDF.
        for h in (0.5, 1.0, 2.0):
            c = critical_value(h, np.array([[1.0]]), alpha=0.05)
            assert c == pytest.approx(_normal_cdf_critical_value(h, 1.0, 1.0, 0.05), rel=1e-9)

    def test_proportional_norm_noncentral_quantile(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        h = 1.2
        c = critical_value(h, sigma, alpha=0.05, norm_matrix=sigma)
        assert c == pytest.approx(stats.ncx2.ppf(0.95, df=2, nc=h * h), rel=1e-9)
        # Norm = 2 * sigma gives ratio r = 2.
        c2 = critical_value(h, sigma, alpha=0.05, norm_matrix=2.0 * sigma)
        assert c2 == pytest.approx(stats.ncx2.ppf(0.95, df=2, nc=2.0 * h * h) / 2.0, rel=1e-9)

    def test_exact_method_refuses_general_norm(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        with pytest.raises(ValueError, match="no exact critical value path"):
            critical_value(0.0, sigma, norm_matrix="identity", method="exact")

    def test_monotone_in_h(self):
        grid = [critical_value(h, np.array([[1.0]])) for h in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(grid) > 0)

    def test_monotone_in_alpha(self):
        cs = [critical_value(0.0, np.eye(2), alpha=a) for a in (0.01, 0.05, 0.2, 0.5)]
        assert np.all(np.diff(cs) < 0)

    def test_rejects_negative_h(self):
        with pytest.raises(ValueError, match=">= 0"):
            critical_value(-1.0, np.array([[1.0]]))


def _normal_tail(c, h, sigma2, a):
    """Pr((h sqrt(a) + xi)^2 > c a) with xi ~ N(0, sigma2): the scalar test's
    tail in the norm [[a]], written with the normal CDF alone."""
    if c <= 0:
        return 1.0
    sd, root, hs = np.sqrt(sigma2), np.sqrt(c * a), h * np.sqrt(a)
    return float(stats.norm.sf((root - hs) / sd) + stats.norm.cdf((-root - hs) / sd))


def _normal_cdf_critical_value(h, sigma2, a, alpha):
    """Root of _normal_tail(c) = alpha, found without any chi-square code."""
    hi = (h * np.sqrt(a) + 10.0 * np.sqrt(sigma2)) ** 2 / a
    return optimize.brentq(
        lambda c: _normal_tail(c, h, sigma2, a) - alpha, 0.0, hi, xtol=1e-300, rtol=1e-15
    )


SCALAR_GRID = list(
    itertools.product((0.0, 0.3, 2.0), (1e-4, 1.0, 40.0), (0.5, 1.0, 3.0), (0.01, 0.05, 0.2))
)


class TestScalarRoute:
    """One statistic: every positive norm [[a]] is a / sigma2 times the
    variance, so the test is the df = 1 chi-square (h = 0) or noncentral
    chi-square (h > 0) case, checked against the normal-CDF tail."""

    @pytest.mark.parametrize("h,sigma2,a,alpha", SCALAR_GRID)
    def test_matches_normal_cdf_reference(self, h, sigma2, a, alpha):
        sigma = np.array([[sigma2]])
        c = critical_value(h, sigma, alpha, norm_matrix=[[a]])
        assert c == pytest.approx(_normal_cdf_critical_value(h, sigma2, a, alpha), rel=1e-10)
        for s2 in (0.5 * c, c, 2.0 * c):
            p = _formal_p_value(s2, h, sigma, norm_matrix=[[a]])
            assert p == pytest.approx(_normal_tail(s2, h, sigma2, a), rel=1e-10)
        spec = TestSpec(h=h, alpha=alpha, norm_matrix=[[a]])
        for s2 in (0.5 * c, 2.0 * c):
            report = robustness_test(np.array([np.sqrt(s2 * a)]), np.zeros(1), sigma, spec)
            assert report.path == ("chi2" if h == 0.0 else "ncx2")
            assert report.reject == (report.p_value_formal < alpha)
            assert report.reject == (s2 > c)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_huge_noncentrality_takes_mc_path(self, dim):
        # h = 1 with standard errors of 1e-6 is noncentrality 1e12, where
        # scipy's noncentral chi-square returns NaN or wrong tails.
        sigma = 1e-12 * np.eye(dim)
        spec = TestSpec(h=1.0, norm_matrix="identity", mc_draws=20_000, seed=2)
        diff = np.zeros(dim)
        diff[0] = 1.0 + 2.5e-6
        report = robustness_test(diff, np.zeros(dim), sigma, spec)
        assert report.path == "mc"
        assert np.isfinite(report.critical_value) and report.reject
        assert report.reject == (report.p_value_formal < spec.alpha)
        if dim == 1:
            ref = _normal_cdf_critical_value(1.0, 1e-12, 1.0, 0.05)
            assert report.critical_value == pytest.approx(ref, rel=1e-7)
        with pytest.raises(ValueError, match="no exact critical value path"):
            critical_value(1.0, sigma, norm_matrix="identity", method="exact")

    def test_p_value_rejects_negative_h(self):
        with pytest.raises(ValueError, match=">= 0"):
            _formal_p_value(1.0, -1.0, np.array([[1.0]]))


class TestCriticalValueMonteCarlo:
    def test_matches_chi2_at_h_zero(self):
        c = critical_value(0.0, np.eye(2), alpha=0.05, method="mc", mc_draws=200_000, seed=4)
        exact = stats.chi2.ppf(0.95, df=2)
        # Quantile-estimator standard error from the density at the target.
        se = np.sqrt(0.05 * 0.95 / 200_000) / stats.chi2.pdf(exact, df=2)
        assert abs(c - exact) < 4 * se

    def test_matches_noncentral_quantile_with_tolerance(self):
        h = 1.0
        c = critical_value(h, np.eye(2), alpha=0.05, method="mc", mc_draws=200_000, seed=9)
        exact = stats.ncx2.ppf(0.95, df=2, nc=h * h)
        se = np.sqrt(0.05 * 0.95 / 200_000) / stats.ncx2.pdf(exact, df=2, nc=h * h)
        # The max over a direction grid adds a small upward bias on top of
        # the sampling error, so keep the band one-sided-friendly.
        assert abs(c - exact) < 5 * se

    def test_seed_determinism(self):
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        a = critical_value(0.7, sigma, method="mc", mc_draws=20_000, seed=11)
        b = critical_value(0.7, sigma, method="mc", mc_draws=20_000, seed=11)
        c = critical_value(0.7, sigma, method="mc", mc_draws=20_000, seed=12)
        assert a == b
        assert a != c

    def test_monotone_in_h_on_common_draws(self):
        sigma = np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 0.8]])
        grid = [
            critical_value(h, sigma, method="mc", mc_draws=30_000, seed=3)
            for h in (0.0, 0.5, 1.0, 2.0)
        ]
        assert np.all(np.diff(grid) > 0)

    def test_singular_covariance_supported(self):
        # Rank-one covariance: draws live on a line, norm matrix is identity.
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        c = critical_value(0.0, sigma, method="mc", norm_matrix="identity", mc_draws=50_000, seed=5)
        # ||xi||^2 = 2 Z^2 with Z standard normal.
        exact = 2.0 * stats.chi2.ppf(0.95, df=1)
        se = 2.0 * np.sqrt(0.05 * 0.95 / 50_000) / stats.chi2.pdf(exact / 2.0, df=1)
        assert abs(c - exact) < 4 * se


def _unchunked_mc(h, sigma, norm, mc_draws, seed, alpha, statistic_sq):
    """The Monte Carlo path as one draws x directions matrix, column by column.

    Transcribes the implementation before the draws were shared and
    streamed: every direction's squared norms sit in one column of quad.
    """

    def upper_quantile(values):
        k = min(int(np.floor(len(values) * (1.0 - alpha))) + 1, len(values))
        return float(np.partition(values, k - 1)[k - 1])

    dim = len(sigma)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    xi = rng.standard_normal((mc_draws, dim)) @ root.T
    factor = cho_factor(norm)
    base = np.einsum("bi,bi->b", xi, cho_solve(factor, xi.T).T)
    if h == 0.0:
        return upper_quantile(base), float(np.mean(base >= statistic_sq))
    v = unit_directions(dim) @ cholesky(norm, lower=True).T
    quad = h * h + 2.0 * h * (xi @ cho_solve(factor, v.T)) + base[:, None]
    crit = max(upper_quantile(quad[:, j]) for j in range(quad.shape[1]))
    p = max(np.mean(quad[:, j] >= statistic_sq) for j in range(quad.shape[1]))
    return crit, float(p)


def _streamed_quad(h, sigma, norm, mc_draws, seed):
    """Every direction's squared norms, one row per direction, computed as the
    package computes them without the annulus screen: every draw through every
    MC_CHUNK block of directions, in the norm's whitened coordinates (eta =
    L^{-1} xi for A = L L', and plain unit directions).  Also returns base.
    """
    dim = len(sigma)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    root = vecs * np.sqrt(np.maximum(vals, 0.0))
    root = solve_triangular(cholesky(norm, lower=True), root, lower=True)
    eta = rng.standard_normal((mc_draws, dim)) @ root.T
    base = np.einsum("bi,bi->b", eta, eta)
    directions = unit_directions(dim).T
    blocks = []
    for lo in range(0, directions.shape[1], MC_CHUNK):
        quad = directions[:, lo : lo + MC_CHUNK].T @ eta.T
        quad *= 2.0 * h
        quad += h * h
        quad += base
        blocks.append(quad)
    return np.vstack(blocks), base


def _streamed_mc(h, sigma, norm, mc_draws, seed, alpha, statistic_sq):
    """(critical value, tail) of the grid in _streamed_quad.

    Under an explicit norm this, not _unchunked_mc, reproduces the package
    bit for bit: it works in the norm's whitened coordinates, and the product
    of the final, partial block of directions rounds differently from the
    same columns of a single product (the identity norm's axis directions
    have exact cross products).
    """
    quad, _ = _streamed_quad(h, sigma, norm, mc_draws, seed)
    crit = float(_empirical_upper_quantile(quad, alpha).max())
    return crit, int(np.count_nonzero(quad >= statistic_sq, axis=1).max()) / mc_draws


@pytest.fixture(params=[robustness.MC_ROWS, 128], ids=lambda rows: f"{rows}-rows")
def mc_rows(request, monkeypatch):
    """The package's row blocks, and 128-row blocks.

    A test of a few thousand draws fits in one block of MC_ROWS; in blocks
    of 128 rows the screen's bound updates, the count of dropped draws, the
    tail and the merged last block cross block edges.
    """
    monkeypatch.setattr(robustness, "MC_ROWS", request.param)


class TestStreamedMonteCarlo:
    @pytest.mark.usefixtures("mc_rows")
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("h", [0.0, 0.35])
    def test_bit_identical_to_unchunked(self, dim, h):
        # 256 + 2 dim directions is not a multiple of the chunk size, so the
        # last chunk is partial.  Under the identity norm the trailing
        # coordinate-axis directions have exact cross products, whatever
        # kernel the matrix product uses for the last columns.
        assert (256 + 2 * dim) % MC_CHUNK != 0
        rng = np.random.default_rng(40 + dim)
        m = rng.normal(size=(dim, dim))
        sigma = m @ m.T + 0.2 * np.eye(dim)
        alpha, draws, seed = 0.05, 20_000, 13
        crit_ref, _ = _unchunked_mc(h, sigma, np.eye(dim), draws, seed, alpha, 0.0)
        kwargs = dict(mc_draws=draws, seed=seed, norm_matrix="identity", method="mc")
        assert critical_value(h, sigma, alpha, **kwargs) == crit_ref
        for s2 in (0.5 * crit_ref, crit_ref, 1.5 * crit_ref):
            _, p_ref = _unchunked_mc(h, sigma, np.eye(dim), draws, seed, alpha, s2)
            assert _formal_p_value(s2, h, sigma, **kwargs) == p_ref
        # robustness_test floors both covariances first, then draws once for
        # the difference covariance and once for the marginal one.
        diff = 0.9 * np.sqrt(crit_ref / dim) * np.ones(dim)
        stat_sq = float(diff @ diff)
        spec = TestSpec(h=h, alpha=alpha, norm_matrix="identity", mc_draws=draws, seed=seed)
        report = robustness_test(diff, np.zeros(dim), sigma, spec, baseline_cov=2.0 * sigma)
        ref = _unchunked_mc(h, floor_spd(sigma), np.eye(dim), draws, seed, alpha, stat_sq)
        heur = _unchunked_mc(h, floor_spd(2.0 * sigma), np.eye(dim), draws, seed, alpha, stat_sq)
        assert (report.critical_value, report.p_value_formal) == ref
        assert report.p_value_heuristic == heur[1]

    @pytest.mark.usefixtures("mc_rows")
    def test_trailing_axis_directions_are_searched(self):
        # Variance on one axis only: the worst directions are +-e1, which the
        # grid holds only among the coordinate axes of the final, partial
        # chunk (264 directions in chunks of MC_CHUNK).
        sigma = np.diag([1.0, 1e-4, 1e-4, 1e-4])
        crit_ref, _ = _unchunked_mc(0.5, sigma, np.eye(4), 20_000, 3, 0.05, 0.0)
        c = critical_value(0.5, sigma, 0.05, 20_000, 3, "identity", "mc")
        assert c == crit_ref

    @pytest.mark.usefixtures("mc_rows")
    def test_reject_iff_p_below_alpha_on_mc_path(self):
        rng = np.random.default_rng(8)
        spec = TestSpec(h=0.2, alpha=0.1, norm_matrix="identity", mc_draws=5_000, seed=4)
        for _ in range(12):
            m = rng.normal(size=(3, 3))
            cov = m @ m.T + 0.1 * np.eye(3)
            report = robustness_test(rng.normal(size=3), rng.normal(size=3), cov, spec)
            assert report.path == "mc"
            assert report.reject == (report.p_value_formal < spec.alpha)
            p = report.p_value_formal
            assert report.mc_std_error == np.sqrt(p * (1.0 - p) / spec.mc_draws)

    def test_exact_paths_are_recorded(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        one = robustness_test(np.array([1.0]), np.array([0.5]), np.array([[0.25]]))
        chi2 = robustness_test(np.ones(2), np.zeros(2), sigma)
        ncx2 = robustness_test(np.ones(2), np.zeros(2), sigma, TestSpec(h=0.1))
        zero = robustness_test(np.ones(2), np.ones(2), np.zeros((2, 2)))
        assert [r.path for r in (one, chi2, ncx2, zero)] == ["chi2", "chi2", "ncx2", "zero_cov"]
        assert all(r.mc_std_error is None for r in (one, chi2, ncx2, zero))


def _spd_with_condition(rng, dim, log10_cond):
    """A random SPD matrix with eigenvalues spread evenly (in logs) over 10^log10_cond."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return (q * np.logspace(0.0, log10_cond, dim)) @ q.T


# The difference covariance of the panel_fe benchmark workload (OLS with
# cluster fixed effects; x, long-run effect, effect after 3 periods and
# persistence) at one seed, rounded.  It is tested with h = 0.02 under the
# identity norm.
PANEL_FE_DIFF_COV = np.array(
    [
        [1.17e-3, 1.82e-3, 1.80e-3, 1.39e-4],
        [1.82e-3, 4.65e-3, 4.01e-3, 9.26e-4],
        [1.80e-3, 4.01e-3, 3.61e-3, 7.32e-4],
        [1.39e-4, 9.26e-4, 7.32e-4, 3.59e-4],
    ]
)


class TestAnnulusScreen:
    """The Monte Carlo path walks the direction grid only over the draws whose
    annulus interval leaves the answer open, and must still reproduce the
    unscreened grid bit for bit."""

    @pytest.mark.usefixtures("mc_rows")
    @settings(
        derandomize=True,
        max_examples=30,
        deadline=None,
        database=None,
        # mc_rows is set once per test, the same for every example.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        dim=st.integers(2, 6),
        log10_h=st.floats(-3.0, 1.0),
        log10_cond=st.one_of(st.none(), st.floats(0.0, 8.0)),
        alpha=st.sampled_from([0.05, 0.3, 1e-9]),
        draws=st.sampled_from([1000, 1024, 1061, 2003]),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_unscreened(self, dim, log10_h, log10_cond, alpha, draws, seed):
        # log10_cond None is the identity norm, where the reference is
        # _unchunked_mc; under explicit norms it is _streamed_mc.  h runs from
        # 1e-3 to 10 times the covariance scale, so some draws have
        # sqrt(base) < h; alpha = 1e-9 selects the B-th order statistic; the
        # draw counts are and are not multiples of the screen's row groups.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim))
        sigma = m @ m.T + 0.05 * np.eye(dim)
        h = 10.0**log10_h * float(np.sqrt(np.abs(sigma).max()))
        if log10_cond is None:
            norm, norm_matrix, reference = np.eye(dim), "identity", _unchunked_mc
        else:
            norm = norm_matrix = _spd_with_condition(rng, dim, log10_cond)
            reference = _streamed_mc
        kwargs = dict(mc_draws=draws, seed=seed, norm_matrix=norm_matrix, method="mc")
        crit_ref, _ = reference(h, sigma, norm, draws, seed, alpha, 0.0)
        assert critical_value(h, sigma, alpha, **kwargs) == crit_ref
        # Order statistics of the computed squared norms are exact ties for
        # some draw and direction: the largest of all (alpha = 1e-9) and a
        # median.
        ties = [reference(h, sigma, norm, draws, seed, a, 0.0)[0] for a in (1e-9, 0.5)]
        for s2 in (crit_ref, *ties, 0.0):
            _, p_ref = reference(h, sigma, norm, draws, seed, alpha, s2)
            assert _formal_p_value(s2, h, sigma, **kwargs) == p_ref
        diff = rng.normal(size=dim)
        diff *= np.sqrt(crit_ref * rng.uniform(0.5, 1.5)) / mahalanobis(diff, norm)
        spec = TestSpec(h=h, alpha=alpha, norm_matrix=norm_matrix, mc_draws=draws, seed=seed, method="mc")
        report = robustness_test(diff, np.zeros(dim), sigma, spec, baseline_cov=2.0 * sigma)
        stat_sq = report.statistic * report.statistic
        formal = reference(h, floor_spd(sigma), norm, draws, seed, alpha, stat_sq)
        heuristic = reference(h, floor_spd(2.0 * sigma), norm, draws, seed, alpha, stat_sq)
        assert (report.critical_value, report.p_value_formal) == formal
        assert report.p_value_heuristic == heuristic[1]

    @pytest.mark.usefixtures("mc_rows")
    @pytest.mark.parametrize("dim,log10_cond", [(2, 0.0), (2, 4.0), (3, 4.0), (4, 4.0), (3, 8.0)])
    def test_draws_on_a_grid_direction_reach_the_bounds(self, dim, log10_cond):
        # Every draw lies on the line of the first axis direction in the
        # norm's whitened coordinates, so the +e1 and -e1 directions reach
        # the annulus bounds of exact arithmetic.  The statistics are draws'
        # largest values over the grid that reach the upper bound as rounded
        # without slack: only the screen's rounding slack keeps such a draw
        # inside the screen's computed interval.
        rng = np.random.default_rng(5)
        norm = _spd_with_condition(rng, dim, log10_cond)
        line = cholesky(norm, lower=True)[:, 0]
        sigma = np.outer(line, line)
        h, draws, seed = 0.3, 4000, 8
        kwargs = dict(mc_draws=draws, seed=seed, norm_matrix=norm, method="mc")
        quad, base = _streamed_quad(h, sigma, norm, draws, seed)
        top = quad.max(axis=0)
        bound = np.sqrt(base) * (2.0 * h)
        bound += h * h
        bound += base
        reached = np.concatenate([top[top > bound], top[top == bound][:20]])
        assert len(reached) > 0
        for s2 in reached:
            p_ref = np.count_nonzero(quad >= s2, axis=1).max() / draws
            assert _formal_p_value(s2, h, sigma, **kwargs) == p_ref
        for alpha in (0.05, 0.5, 1e-9):
            crit_ref = float(_empirical_upper_quantile(quad, alpha).max())
            assert critical_value(h, sigma, alpha, **kwargs) == crit_ref

    @pytest.mark.usefixtures("mc_rows")
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_draws_on_an_oblique_grid_direction_reach_the_bounds(self, dim):
        # In whitened coordinates an axis direction's cross term is exact, so
        # draws on an axis never pass the bound rounded without slack.  On
        # the line of an oblique grid direction u the computed u'eta exceeds
        # the computed sqrt(base) for many draws, and only the slack keeps
        # such a draw inside the screen's computed interval.
        directions = unit_directions(dim).T
        eta = np.outer(np.random.default_rng(dim).normal(size=4000), directions[:, 1])
        base = np.einsum("bi,bi->b", eta, eta)
        h = 0.3
        quad = np.vstack(
            [
                robustness._squared_norm_rows(h, directions[:, lo : lo + MC_CHUNK], eta, base)
                for lo in range(0, directions.shape[1], MC_CHUNK)
            ]
        )
        top = quad.max(axis=0)
        bound = np.sqrt(base) * (2.0 * h)
        bound += h * h
        bound += base
        reached = top[top > bound]
        assert len(reached) > 0

        def screened(alpha, s2):
            blocks = (eta[r0:r1] for r0, r1 in robustness._row_blocks(len(eta)))
            return robustness._screened_grid(h, directions, blocks, len(eta), alpha, s2)

        for s2 in reached[:20]:
            assert screened(None, s2)[1] == np.count_nonzero(quad >= s2, axis=1).max()
        for alpha in (0.05, 0.5, 1e-9):
            crit = screened(alpha, None)[0]
            assert crit == float(_empirical_upper_quantile(quad, alpha).max())

    @staticmethod
    def _walked_draws(monkeypatch, run) -> list[int]:
        """The number of draws each _squared_norm_rows call receives during run()."""
        seen = []
        inner = robustness._squared_norm_rows

        def counting(h, a_inv_v, xi, base):
            seen.append(len(xi))
            return inner(h, a_inv_v, xi, base)

        monkeypatch.setattr(robustness, "_squared_norm_rows", counting)
        run()
        monkeypatch.undo()
        return seen

    def test_panel_fe_covariance_walks_few_draws(self, monkeypatch):
        sigma, draws = floor_spd(PANEL_FE_DIFF_COV), 100_000
        kwargs = dict(mc_draws=draws, seed=3, norm_matrix="identity")
        crit = critical_value(0.02, sigma, **kwargs)
        walked = self._walked_draws(monkeypatch, lambda: critical_value(0.02, sigma, **kwargs))
        assert len(walked) == len(unit_directions(4)) // MC_CHUNK + 1
        assert 0 < max(walked) < 0.2 * draws
        # A statistic far in the tail, as the workload's, straddles almost no
        # interval.
        walked = self._walked_draws(
            monkeypatch, lambda: _formal_p_value(4.0 * crit, 0.02, sigma, **kwargs)
        )
        assert max(walked) < 0.01 * draws
        # h far beyond the covariance scale: every interval straddles the
        # quantile and every draw is walked.
        walked = self._walked_draws(monkeypatch, lambda: critical_value(10.0, sigma, **kwargs))
        assert set(walked) == {draws}

    @pytest.mark.parametrize("dim,log10_cond", [(2, 11.0), (3, 12.0), (4, 13.0)])
    def test_ill_conditioned_norm_is_screened(self, monkeypatch, dim, log10_cond):
        # In whitened coordinates the annulus slack does not grow with the
        # norm's condition number, so the screen still drops draws where a
        # slack proportional to it would exceed 1e-3 and walk every draw.
        rng = np.random.default_rng(30 + dim)
        m = rng.normal(size=(dim, dim))
        sigma = m @ m.T + 0.05 * np.eye(dim)
        norm = _spd_with_condition(rng, dim, log10_cond)
        h, alpha, draws, seed = 0.1 * float(np.sqrt(np.abs(sigma).max())), 0.05, 20_000, 6
        kwargs = dict(mc_draws=draws, seed=seed, norm_matrix=norm, method="mc")
        crit_ref, _ = _streamed_mc(h, sigma, norm, draws, seed, alpha, 0.0)
        for s2 in (crit_ref, 0.5 * crit_ref, 2.0 * crit_ref):
            _, p_ref = _streamed_mc(h, sigma, norm, draws, seed, alpha, s2)
            assert _formal_p_value(s2, h, sigma, **kwargs) == p_ref
        assert critical_value(h, sigma, alpha, **kwargs) == crit_ref
        walked = self._walked_draws(monkeypatch, lambda: critical_value(h, sigma, alpha, **kwargs))
        assert 0 < max(walked) < draws


class TestRowBlocks:
    """The Monte Carlo path draws, screens and drops its normals one block of
    rows at a time, so it never holds the B x d draw matrix."""

    SPEC = TestSpec(h=0.02, norm_matrix="identity", mc_draws=100_000, seed=3)
    # The panel_fe benchmark's difference at the seed of PANEL_FE_DIFF_COV,
    # rounded: far in the tail.
    DIFF = np.array([-0.039, -0.156, -0.125, -0.042])
    # A difference in the body (p = 0.34), where the grid walks a third of the draws.
    BODY = np.array([0.05, -0.02, 0.08, 0.01])

    @pytest.mark.parametrize(
        "b, blocks",
        [
            (1000, [(0, 1000)]),
            (8192, [(0, 8192)]),
            (8255, [(0, 8255)]),
            (8256, [(0, 8192), (8192, 8256)]),
            (100_000, [(r, r + 8192) for r in range(0, 98_304, 8192)] + [(98_304, 100_000)]),
        ],
    )
    def test_blocks_start_on_row_groups_and_none_is_short(self, b, blocks):
        assert robustness.MC_ROWS == 8192 and robustness.MC_ROWS % robustness._SCREEN_ALIGN == 0
        assert list(robustness._row_blocks(b)) == blocks

    # Peak tracemalloc bytes of one formal test and of one p-value alone.
    # Holding the 100 000 x 4 draw matrix (3.2 MB) and two chunks of the grid
    # at once, they peaked at 7.42 and 6.84 MB (tail) and 10.32 and 6.99 MB
    # (body); in blocks, one chunk at a time, at 2.42, 1.13, 5.89 and 4.08 MB.
    # tracemalloc sees numpy's arrays, not BLAS's own buffers, so the peaks do
    # not depend on the BLAS thread count; they were measured with one.
    @pytest.mark.parametrize("diff, bound", [(DIFF, 5.5e6), (BODY, 8e6)], ids=["tail", "body"])
    def test_formal_test_memory(self, diff, bound):
        sigma = floor_spd(PANEL_FE_DIFF_COV)
        test = []
        peak = _tracemalloc_peak(lambda: test.append(robustness._quadratic(diff, sigma, self.SPEC, 0.05)))
        assert test[0][1] == "mc"
        assert peak < bound

    @pytest.mark.parametrize("diff, bound", [(DIFF, 3e6), (BODY, 5.5e6)], ids=["tail", "body"])
    def test_p_value_memory(self, diff, bound):
        sigma = floor_spd(PANEL_FE_DIFF_COV)
        assert _tracemalloc_peak(lambda: robustness.formal_p_value(diff, sigma, self.SPEC)) < bound

    def test_walking_every_draw_partitions_in_place(self):
        # h far beyond the covariance scale: all 100 000 draws are walked, and
        # one chunk's 16 x 100 000 values are 12.8 MB.  With a partitioned
        # copy beside them the test peaked at 29.6 MB (31.3 MB with the draws
        # held whole); partitioned in place, at 18.5 MB.
        sigma = floor_spd(PANEL_FE_DIFF_COV)
        spec = TestSpec(h=10.0, norm_matrix="identity", mc_draws=100_000, seed=3)
        assert _tracemalloc_peak(lambda: robustness._quadratic(self.DIFF, sigma, spec, 0.05)) < 24e6

    def test_blas_thread_count_does_not_move_the_test(self):
        # The formal test and the heuristic p-value of the panel_fe shape,
        # in fresh processes under one and two BLAS threads.
        script = (
            "import numpy as np\n"
            "from trimtest.robustness import TestSpec, _quadratic, floor_spd, formal_p_value\n"
            f"sigma = floor_spd(np.array({PANEL_FE_DIFF_COV.tolist()!r}))\n"
            f"diff = np.array({self.DIFF.tolist()!r})\n"
            f"spec = {self.SPEC!r}\n"
            "print(repr(_quadratic(diff, sigma, spec, spec.alpha)))\n"
            "print(repr(formal_p_value(diff, 3.0 * sigma, spec)))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "'mc'" in outputs[0]


class TestPrunedDirections:
    """Once a chunk has set the critical value, only the directions that can
    still raise it are partitioned; the critical value is unchanged, bit for bit."""

    @staticmethod
    def _partitioned_rows(monkeypatch, run) -> list[int]:
        """The number of directions each _kth_smallest_rows call receives during run()."""
        seen, partition = [], robustness._kth_smallest_rows

        def counting(values, kth):
            seen.append(len(values))
            return partition(values, kth)

        monkeypatch.setattr(robustness, "_kth_smallest_rows", counting)
        run()
        monkeypatch.undo()
        return seen

    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.05])
    @pytest.mark.parametrize("h_scale, log10_cond", [(0.02, None), (0.3, None), (1.5, 2.0)])
    def test_bit_identical_to_unscreened(self, monkeypatch, dim, alpha, h_scale, log10_cond):
        # At alpha = 0.3 and 0.5 the quantiles of neighbouring directions
        # are close, so most directions are pruned after the first chunk.
        rng = np.random.default_rng(60 + dim)
        m = rng.normal(size=(dim, dim))
        sigma = m @ m.T + 0.05 * np.eye(dim)
        h = h_scale * float(np.sqrt(np.abs(sigma).max()))
        if log10_cond is None:
            norm, norm_matrix, reference = np.eye(dim), "identity", _unchunked_mc
        else:
            norm = norm_matrix = _spd_with_condition(rng, dim, log10_cond)
            reference = _streamed_mc
        draws, seed = 3001, 9
        kwargs = dict(mc_draws=draws, seed=seed, norm_matrix=norm_matrix, method="mc")
        crit_ref, _ = reference(h, sigma, norm, draws, seed, alpha, 0.0)
        crit = []
        rows = self._partitioned_rows(monkeypatch, lambda: crit.append(critical_value(h, sigma, alpha, **kwargs)))
        assert crit == [crit_ref]
        assert rows[0] == MC_CHUNK and sum(rows) < len(unit_directions(dim))
        if alpha >= 0.3:
            assert sum(rows) < len(unit_directions(dim)) // 2

    def test_panel_fe_covariance_partitions_few_directions(self, monkeypatch):
        # The benchmark's joint test: 264 directions walked in 17 chunks.
        sigma = floor_spd(PANEL_FE_DIFF_COV)
        kwargs = dict(mc_draws=100_000, seed=3, norm_matrix="identity")
        rows = self._partitioned_rows(monkeypatch, lambda: critical_value(0.02, sigma, **kwargs))
        assert 0 < sum(rows) < len(unit_directions(4)) // 4


class TestTestsSideBySide:
    """The formal test and the heuristic p-value of a large Monte Carlo test
    run as two items of fork_map; every other test runs them in turn."""

    SPEC = TestSpec(h=0.02, norm_matrix="identity", mc_draws=100_000, seed=3)

    @staticmethod
    def _inputs():
        diff = np.array([0.05, -0.02, 0.08, 0.01])
        return diff, np.zeros(4), floor_spd(PANEL_FE_DIFF_COV), 3.0 * floor_spd(PANEL_FE_DIFF_COV)

    def test_a_large_joint_test_forks_once(self, monkeypatch):
        diff, zero, diff_cov, baseline_cov = self._inputs()
        assert robustness.MC_FORK_DRAWS <= self.SPEC.mc_draws
        forks = _count_forks(monkeypatch)
        reports = []
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            forks.clear()
            reports.append(robustness_test(diff, zero, diff_cov, self.SPEC, baseline_cov=baseline_cov))
            assert len(forks) == min(cpus, 2) - 1
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].path == "mc" and reports[0].p_value_heuristic is not None
        formal = robustness._quadratic(diff, diff_cov, self.SPEC, self.SPEC.alpha)
        assert (reports[0].statistic, reports[0].path, reports[0].critical_value, reports[0].p_value_formal) == formal
        assert reports[0].p_value_heuristic == robustness.formal_p_value(diff, baseline_cov, self.SPEC)

    @pytest.mark.parametrize("case", ["scalar", "below-gate", "exact-path", "no-heuristic", "inside-a-map-item"])
    def test_other_tests_do_not_fork(self, monkeypatch, case):
        diff, zero, diff_cov, baseline_cov = self._inputs()
        spec = self.SPEC
        if case == "scalar":
            # On the Monte Carlo path, but with a grid of two directions.
            diff, zero, diff_cov, baseline_cov = diff[:1], zero[:1], diff_cov[:1, :1], baseline_cov[:1, :1]
            spec = TestSpec(h=0.02, mc_draws=100_000, seed=3, method="mc")
        elif case == "below-gate":
            spec = TestSpec(h=0.02, norm_matrix="identity", mc_draws=robustness.MC_FORK_DRAWS - 1, seed=3)
        elif case == "exact-path":
            spec = TestSpec(h=0.02, mc_draws=100_000, seed=3)
        elif case == "no-heuristic":
            baseline_cov = None
        _pin_cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)

        def run(_):
            return robustness_test(diff, zero, diff_cov, spec, baseline_cov=baseline_cov)

        report = bootstrap.fork_map(run, 1)[0] if case == "inside-a-map-item" else run(0)
        assert forks == []
        assert report.path == ("ncx2" if case == "exact-path" else "mc")
        assert report == robustness_test(diff, zero, diff_cov, spec, baseline_cov=baseline_cov)

    def test_a_failing_heuristic_raises_the_serial_error(self, monkeypatch):
        # Under the default norm a singular baseline covariance is no norm:
        # the heuristic fails in the forked worker after the formal test passed.
        diff, zero, diff_cov, _ = self._inputs()
        singular = np.diag([1e-3, 1e-3, 1e-3, 0.0])
        spec = TestSpec(h=0.0, mc_draws=100_000, seed=3, method="mc")
        assert robustness._quadratic(diff, diff_cov, spec, spec.alpha)[1] == "mc"
        forks = _count_forks(monkeypatch)
        raised = []
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            forks.clear()
            with pytest.raises(NumericalError) as info:
                robustness_test(diff, zero, diff_cov, spec, baseline_cov=singular)
            raised.append((type(info.value), str(info.value)))
            assert len(forks) == min(cpus, 2) - 1
        assert len(set(raised)) == 1 and raised[0][0] is NumericalError
        assert raised[0][1].startswith("norm matrix is not positive definite")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFormalPValue:
    def test_scalar_two_sided_normal(self):
        # At h = 0 the formal p-value is the two-sided normal tail.
        s2 = 1.44
        p = _formal_p_value(s2, 0.0, np.array([[1.0]]))
        assert p == pytest.approx(2.0 * stats.norm.sf(1.2), rel=1e-12)

    def test_zero_statistic_gives_one(self):
        assert _formal_p_value(0.0, 0.0, np.array([[1.0]])) == pytest.approx(1.0)

    def test_chi2_survival(self):
        p = _formal_p_value(5.0, 0.0, np.eye(3))
        assert p == pytest.approx(stats.chi2.sf(5.0, df=3), rel=1e-12)

    def test_increasing_in_h(self):
        ps = [_formal_p_value(4.0, h, np.array([[1.0]])) for h in (0.0, 0.5, 1.0, 2.0)]
        assert np.all(np.diff(ps) > 0)

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_reject_iff_p_below_alpha(self, method):
        # The p-value must invert the critical value exactly, including on
        # the Monte Carlo path (common draws).
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        alpha = 0.05
        kwargs = dict(mc_draws=20_000, seed=17, method=method)
        c = critical_value(0.6, sigma, alpha=alpha, **kwargs)
        for s2 in np.linspace(0.1, 3.0 * c, 23):
            p = _formal_p_value(s2, 0.6, sigma, **kwargs)
            assert (s2 > c) == (p < alpha), f"s2={s2}, c={c}, p={p}"


class TestRobustnessTest:
    def test_asymmetric_explicit_norm_is_refused(self):
        # The statistic would read the upper triangle and the Monte Carlo
        # draws the lower one: two different norms in one test.
        norm = [[1.0, 0.5], [0.0, 1.0]]
        with pytest.raises(ValueError, match="symmetric"):
            robustness_test(np.ones(2), np.zeros(2), np.eye(2), TestSpec(h=0.1, norm_matrix=norm))
        with pytest.raises(ValueError, match="symmetric"):
            critical_value(0.1, np.eye(2), norm_matrix=norm)

    def test_identical_estimates_accept_with_p_one(self):
        est = np.array([1.0, 2.0])
        report = robustness_test(est, est.copy(), np.eye(2))
        assert report.statistic == 0.0
        assert report.p_value_formal == pytest.approx(1.0)
        assert not report.reject

    def test_large_difference_rejects(self):
        report = robustness_test(
            np.array([0.0]), np.array([1.0]), np.array([[0.01]])
        )
        assert report.statistic == pytest.approx(10.0)
        assert report.reject
        assert report.p_value_formal < 1e-6

    def test_scalar_report_values(self):
        # diff = 0.5, sd = 0.5: z = 1, p = 2 * (1 - Phi(1)).
        report = robustness_test(np.array([1.0]), np.array([0.5]), np.array([[0.25]]))
        assert report.statistic == pytest.approx(1.0)
        assert report.p_value_formal == pytest.approx(2.0 * stats.norm.sf(1.0), rel=1e-12)
        assert report.critical_value == pytest.approx(stats.chi2.ppf(0.95, df=1), rel=1e-10)

    def test_heuristic_uses_marginal_covariance(self):
        # Marginal variance bigger than difference variance: heuristic p is
        # larger, i.e. the naive comparison understates the evidence.
        report = robustness_test(
            np.array([1.0]),
            np.array([0.4]),
            np.array([[0.09]]),
            baseline_cov=np.array([[0.36]]),
        )
        z_formal = 0.6 / 0.3
        z_heur = 0.6 / 0.6
        assert report.p_value_formal == pytest.approx(2.0 * stats.norm.sf(z_formal), rel=1e-10)
        assert report.p_value_heuristic == pytest.approx(2.0 * stats.norm.sf(z_heur), rel=1e-10)
        assert report.p_value_formal < report.p_value_heuristic

    @pytest.mark.parametrize(
        "h,norm_matrix,path", [(0.0, "diff_cov", "chi2"), (0.3, "diff_cov", "ncx2"), (0.3, "identity", "mc")]
    )
    def test_heuristic_is_formal_test_against_baseline_cov(self, h, norm_matrix, path):
        # The heuristic p-value is the formal p-value with the baseline
        # covariance in place of the difference covariance, bit for bit.
        rng = np.random.default_rng(31)
        spec = TestSpec(h=h, alpha=0.1, norm_matrix=norm_matrix, mc_draws=5_000, seed=7)
        for _ in range(6):
            m, v = rng.normal(size=(2, 3, 3))
            diff_cov, baseline_cov = m @ m.T + 0.1 * np.eye(3), v @ v.T + 0.1 * np.eye(3)
            b1, b2 = rng.normal(size=(2, 3))
            heuristic = robustness_test(b1, b2, diff_cov, spec, baseline_cov=baseline_cov)
            formal = robustness_test(b1, b2, baseline_cov, spec)
            assert formal.path == path
            assert heuristic.p_value_heuristic == formal.p_value_formal

    def test_heuristic_with_zero_marginal_covariance(self):
        # A baseline that never moves across draws: the heuristic has no
        # spread to compare against, so only equality of the estimates counts.
        zero = np.zeros((2, 2))
        est = np.array([1.0, 2.0])
        agree = robustness_test(est, est.copy(), np.eye(2), baseline_cov=zero)
        differ = robustness_test(est, est + 0.1, np.eye(2), baseline_cov=zero)
        assert agree.p_value_heuristic == 1.0
        assert differ.p_value_heuristic == 0.0

    def test_tolerance_h_shrinks_rejection_region(self):
        base = robustness_test(
            np.array([1.0]), np.array([0.0]), np.array([[0.16]]), TestSpec(h=0.0)
        )
        tolerant = robustness_test(
            np.array([1.0]), np.array([0.0]), np.array([[0.16]]), TestSpec(h=2.0)
        )
        assert base.reject
        assert not tolerant.reject
        assert tolerant.p_value_formal > base.p_value_formal

    def test_reject_agrees_with_p_value(self):
        rng = np.random.default_rng(21)
        spec = TestSpec(h=0.3, alpha=0.1, mc_draws=20_000, seed=2)
        for _ in range(10):
            b1 = rng.normal(size=2)
            b2 = rng.normal(size=2)
            m = rng.normal(size=(2, 2))
            cov = m @ m.T + 0.1 * np.eye(2)
            report = robustness_test(b1, b2, cov, spec)
            assert report.reject == (report.p_value_formal < spec.alpha)

    def test_zero_covariance_identical_draws(self):
        # Same scheme on both sides: zero difference, exactly zero spread.
        report = robustness_test(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros((2, 2))
        )
        assert report.p_value_formal == 1.0
        assert not report.reject

    def test_zero_covariance_with_real_difference_is_an_error(self):
        with pytest.raises(NumericalError, match="exactly zero"):
            robustness_test(np.array([1.0]), np.array([2.0]), np.zeros((1, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            robustness_test(np.array([1.0]), np.array([1.0, 2.0]), np.eye(2))

    def test_indefinite_cov_floors_to_singular_and_errors(self):
        # Flooring clips the negative eigenvalue to zero, which leaves the
        # Mahalanobis norm singular: the caller must choose a repair.
        cov = np.array([[1.0, 1.1], [1.1, 1.0]])
        with pytest.raises(NumericalError, match="floor_spd"):
            robustness_test(np.array([0.1, 0.0]), np.array([0.0, 0.0]), cov)
        # A positive eigenvalue floor or a different norm both resolve it.
        vals, vecs = np.linalg.eigh(cov)
        repaired = (vecs * np.maximum(vals, 1e-6)) @ vecs.T
        report = robustness_test(np.array([0.1, 0.0]), np.array([0.0, 0.0]), repaired)
        assert np.isfinite(report.p_value_formal)
        ident = robustness_test(
            np.array([0.1, 0.0]),
            np.array([0.0, 0.0]),
            cov,
            TestSpec(norm_matrix="identity", method="mc", mc_draws=5_000),
        )
        assert np.isfinite(ident.p_value_formal)

    def test_decision_invariant_under_joint_rescaling(self):
        b1 = np.array([0.8, -0.2])
        b2 = np.array([0.1, 0.3])
        cov = np.array([[0.2, 0.05], [0.05, 0.4]])
        base = robustness_test(b1, b2, cov)
        for c in (0.01, 3.0, 250.0):
            scaled = robustness_test(c * b1, c * b2, c * c * cov)
            assert scaled.reject == base.reject
            assert scaled.p_value_formal == pytest.approx(base.p_value_formal, rel=1e-9)
            assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)

    def test_report_carries_inputs(self):
        spec = TestSpec(h=0.2, alpha=0.07, seed=5)
        report = robustness_test(np.array([1.0]), np.array([0.9]), np.array([[0.04]]), spec)
        assert report.h == 0.2
        assert report.alpha == 0.07
        assert report.seed == 5
