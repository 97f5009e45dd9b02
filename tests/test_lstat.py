"""Tests for weighted L-statistics and their covariance estimators."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimtest import PanelDataset
from trimtest.config import _TRANSFORM
from trimtest.errors import DataError, NumericalError
from trimtest.lstat import (
    LStatSpec,
    Transform,
    analytic_cov,
    analytic_cov_is_degenerate,
    lstat_eval,
    lstat_eval_via_integral,
    quantile_process_cov_kernel,
)
from trimtest.weights import WeightScheme, compute_weights

from reference import table_transform


def single_cluster(columns: dict) -> PanelDataset:
    n = len(next(iter(columns.values())))
    return PanelDataset(
        {k: np.asarray(v, dtype=float) for k, v in columns.items()}, np.zeros(n, dtype=int)
    )


def brute_force_analytic_cov(specs, data, weights):
    """Quadruple-loop transcription of the covariance double sum.

    Every empirical quantity (CDFs, joint CDF, conditional mean weights) is
    computed from scratch with boolean masks, so this shares no code with
    the vectorized implementation.  Each grid node's mask, F and K are
    computed once and reused by every pair of nodes that includes it.
    """
    n = data.n_rows
    d = len(specs)
    cols = [data.column(s.column) for s in specs]
    nodes = []  # per spec: (dm, mask, F, K) of each grid node with a nonzero increment
    for j in range(d):
        x = np.sort(cols[j])
        m = specs[j].transform(x)
        w = np.asarray(weights[j], dtype=float)
        nodes.append([])
        for a in range(n - 1):
            dm = m[a + 1] - m[a]
            if dm == 0.0:
                continue
            mask = cols[j] <= x[a]
            nodes[j].append((dm, mask, mask.mean(), w[mask].mean() if mask.any() else 0.0))
    out = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            wjk = np.asarray(weights[j], dtype=float) * np.asarray(weights[k], dtype=float)
            acc = 0.0
            for dm_j, in_j, f_j, k_j in nodes[j]:
                for dm_k, in_k, f_k, k_k in nodes[k]:
                    both = in_j & in_k
                    f_jk = both.mean()
                    k_jk = wjk[both].mean() if both.any() else 0.0
                    term = (1.0 - k_j - k_k) * (f_jk - f_j * f_k) + (
                        k_jk * f_jk - k_j * k_k * f_j * f_k
                    )
                    acc += dm_j * dm_k * term
            out[j, k] = acc
    return 0.5 * (out + out.T)


class TestTransform:
    def test_identity(self):
        t = Transform.identity()
        np.testing.assert_array_equal(t([1.0, -2.0]), [1.0, -2.0])

    def test_power(self):
        t = Transform.power(2.0)
        np.testing.assert_array_equal(t([3.0]), [9.0])

    def test_power_undefined_point(self):
        t = Transform.power(0.5)
        with pytest.raises(ValueError, match="undefined at observation index 1"):
            t([4.0, -1.0])

    def test_table_interpolation_and_range(self):
        t = table_transform([0.0, 1.0, 2.0], [0.0, 10.0, 20.0])
        assert t(0.5) == 5.0
        with pytest.raises(ValueError, match="outside table"):
            t([0.5, 3.0])

    def test_table_requires_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            table_transform([0.0, 0.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "raw, t",
        [
            ({"kind": "identity"}, Transform.identity()),
            ({"kind": "power", "exponent": 3.0}, Transform.power(3.0)),
            (
                {"kind": "table", "x": [0.0, 1.0], "y": [0.0, 2.0]},
                table_transform([0.0, 1.0], [0.0, 2.0]),
            ),
        ],
        ids=["identity", "power", "table"],
    )
    def test_from_dict(self, raw, t):
        # A config transform object, read by the config schema.
        assert _TRANSFORM(raw, "transform") == t

    def test_from_dict_defaults_to_identity(self):
        assert _TRANSFORM({}, "transform") == Transform.identity()

    def test_from_dict_unknown_kind(self):
        with pytest.raises(DataError, match="unknown transform kind 'log'"):
            _TRANSFORM({"kind": "log"}, "transform")
        # The table transform takes no derivative values.
        with pytest.raises(DataError, match="unknown key.* in transform: dy"):
            _TRANSFORM({"kind": "table", "x": [0.0], "y": [1.0], "dy": [0.0]}, "transform")

    def test_identity_returns_a_copy(self):
        x = np.array([1.0, 2.0])
        out = Transform.identity()(x)
        out[0] = 99.0
        assert x[0] == 1.0


class TestLStatSpec:
    def test_label_defaults_to_column_and_scheme(self):
        spec = LStatSpec("x", scheme=WeightScheme.quantile_trim("x", 0.1, 0.9))
        assert spec.label() == "x:quantile_trim"
        assert LStatSpec("x").label() == "x:all_ones"

    def test_name_overrides_label(self):
        assert LStatSpec("x", name="trimmed mean").label() == "trimmed mean"


class TestLStatEval:
    def test_weighted_mean(self):
        data = single_cluster({"v": [1.0, 2.0, 100.0]})
        spec = LStatSpec("v", scheme=WeightScheme.winsorize("v", 0.0, 2.0 / 3.0))
        assert lstat_eval(spec, data) == pytest.approx(5.0 / 3.0)

    def test_row_weights_multiply(self):
        data = single_cluster({"v": [1.0, 2.0, 3.0]})
        spec = LStatSpec("v")
        rho = np.array([2.0, 0.0, 1.0])
        assert lstat_eval(spec, data, row_weights=rho) == pytest.approx((2.0 + 3.0) / 3.0)

    def test_integral_identity_small(self):
        data = single_cluster({"v": [3.0, 1.0, 4.0, 1.5, 9.0]})
        spec = LStatSpec("v", scheme=WeightScheme.quantile_trim("v", 0.2, 0.8))
        direct = lstat_eval(spec, data)
        via_integral = lstat_eval_via_integral(spec, data)
        assert abs(direct - via_integral) <= 1e-14

    def test_integral_identity_random(self, rng):
        # Random values, random signed weights, nonlinear transformation.
        for _ in range(25):
            n = int(rng.integers(2, 40))
            v = rng.normal(size=n)
            w = rng.uniform(-0.5, 2.0, size=n)
            data = single_cluster({"v": v})
            spec = LStatSpec("v", Transform.power(3.0), WeightScheme.custom(w))
            direct = lstat_eval(spec, data)
            via_integral = lstat_eval_via_integral(spec, data)
            assert abs(direct - via_integral) <= 1e-12 * max(1.0, abs(direct))

    def test_integral_identity_with_ties(self):
        data = single_cluster({"v": [2.0, 2.0, 1.0, 2.0, 5.0]})
        spec = LStatSpec("v", scheme=WeightScheme.custom([0.3, 1.2, 0.0, 2.0, 1.0]))
        assert lstat_eval(spec, data) == pytest.approx(lstat_eval_via_integral(spec, data), abs=1e-14)


    def test_all_ones_is_mean_of_transform(self, rng):
        v = rng.uniform(0.5, 2.0, size=30)
        data = single_cluster({"v": v})
        spec = LStatSpec("v", Transform.power(2.0))
        assert lstat_eval(spec, data) == pytest.approx(np.mean(v**2), rel=1e-14)

    def test_undefined_transform_is_an_error(self):
        data = single_cluster({"v": [4.0, -1.0, 9.0]})
        spec = LStatSpec("v", Transform.power(0.5))
        with pytest.raises(ValueError, match="undefined at observation index 1"):
            lstat_eval(spec, data)


class TestAnalyticCov:
    def test_matches_brute_force_trimmed(self, rng):
        n = 25
        data = single_cluster({"a": rng.normal(size=n), "b": rng.normal(size=n)})
        specs = [
            LStatSpec("a", scheme=WeightScheme.quantile_trim("a", 0.1, 0.9)),
            LStatSpec("b", scheme=WeightScheme.quantile_trim("b", 0.0, 0.8)),
        ]
        weights = [compute_weights(s.scheme, data) for s in specs]
        fast = analytic_cov(specs, data, weights)
        slow = brute_force_analytic_cov(specs, data, weights)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_matches_brute_force_with_ties_and_transform(self, rng):
        v = np.round(rng.normal(size=20), 1)  # rounding forces ties
        u = rng.uniform(1.0, 2.0, size=20)
        data = single_cluster({"a": v, "b": u})
        specs = [
            LStatSpec("a", scheme=WeightScheme.custom(rng.uniform(0.0, 1.5, size=20))),
            LStatSpec("b", Transform.power(2.0), WeightScheme.winsorize("b", 0.1, 0.9)),
        ]
        weights = [compute_weights(s.scheme, data) for s in specs]
        fast = analytic_cov(specs, data, weights)
        slow = brute_force_analytic_cov(specs, data, weights)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_all_ones_exactly_zero(self, rng):
        data = single_cluster({"a": rng.normal(size=40)})
        specs = [LStatSpec("a"), LStatSpec("a", Transform.power(2.0))]
        weights = [compute_weights(s.scheme, data) for s in specs]
        # Positive sampling variance, yet the estimator is identically zero.
        sigma = analytic_cov(specs, data, weights)
        assert np.all(sigma == 0.0)
        assert analytic_cov_is_degenerate(weights)

    def test_degeneracy_flag_requires_every_vector(self):
        assert analytic_cov_is_degenerate([np.ones(3), np.ones(5)])
        assert not analytic_cov_is_degenerate([np.ones(3), np.array([1.0, 0.0, 1.0])])

    def test_single_row_returns_zeros(self):
        data = single_cluster({"a": [1.0]})
        sigma = analytic_cov([LStatSpec("a")], data)
        np.testing.assert_array_equal(sigma, np.zeros((1, 1)))

    def test_non_finite_names_specs_and_observation(self):
        # Finite transform values whose increment overflows.
        huge = table_transform([0.0, 1.0], [-1.5e308, 1.5e308])
        data = single_cluster({"a": [0.5, 0.0, 1.0, 0.25]})
        specs = [LStatSpec("a", huge, WeightScheme.custom([1.0, 0.5, 2.0, 1.0]), name="wide")]
        with pytest.raises(NumericalError, match=r"specs 'wide' and 'wide' at observation \d"):
            analytic_cov(specs, data)

    def test_weights_default_to_the_specs_schemes(self, rng):
        data = single_cluster({"a": rng.normal(size=20), "b": rng.normal(size=20)})
        specs = [
            LStatSpec("a", scheme=WeightScheme.quantile_trim("a", 0.1, 0.9)),
            LStatSpec("b", Transform.power(3.0), WeightScheme.winsorize("b", 0.05, 0.95)),
        ]
        weights = [compute_weights(s.scheme, data) for s in specs]
        np.testing.assert_array_equal(analytic_cov(specs, data), analytic_cov(specs, data, weights))

    def test_invariant_under_row_permutation(self, rng):
        a = np.round(rng.normal(size=30), 1)
        b = rng.normal(size=30)
        w = rng.uniform(0.0, 2.0, size=30)
        perm = rng.permutation(30)
        specs = [LStatSpec("a", scheme=WeightScheme.custom(w)), LStatSpec("b")]
        moved = [LStatSpec("a", scheme=WeightScheme.custom(w[perm])), LStatSpec("b")]
        sigma = analytic_cov(specs, single_cluster({"a": a, "b": b}))
        sigma_perm = analytic_cov(moved, single_cluster({"a": a[perm], "b": b[perm]}))
        np.testing.assert_allclose(sigma_perm, sigma, rtol=1e-12, atol=1e-14)

    def test_symmetric_output(self, rng):
        data = single_cluster({"a": rng.normal(size=15), "b": rng.normal(size=15)})
        specs = [
            LStatSpec("a", scheme=WeightScheme.quantile_trim("a", 0.2, 1.0)),
            LStatSpec("b", scheme=WeightScheme.quantile_trim("b", 0.0, 0.9)),
        ]
        sigma = analytic_cov(specs, data)
        np.testing.assert_array_equal(sigma, sigma.T)


_TRANSFORMS = (
    Transform.identity(),
    Transform.power(2.0),
    Transform.power(3.0),
    table_transform([-10.0, 0.0, 10.0], [-3.0, 1.0, 2.0]),
)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    decimals=st.sampled_from([0, 1, 8]),
    transforms=st.lists(st.integers(0, len(_TRANSFORMS) - 1), min_size=3, max_size=3),
    schemes=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_analytic_cov_matches_brute_force(n, seed, decimals, transforms, schemes):
    """Suffix-sum covariance vs the quadruple loop: ties, transforms, weights.

    Specs 0 and 1 share column a, so cross entries of one column are
    covered.  The tolerance is relative to the size of the summands the
    double sum cancels, TV(m_j) TV(m_k) (1 + max|w_j|)(1 + max|w_k|), which
    bounds every partial sum of either route.
    """
    rng = np.random.default_rng(seed)
    a = np.round(rng.normal(size=n), decimals)  # decimals 0 or 1 force ties
    b = np.round(rng.uniform(0.5, 2.0, size=n), decimals)
    data = single_cluster({"a": a, "b": b})
    custom = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(0.0, 2.0, size=n))
    options = (
        WeightScheme.custom(custom),
        WeightScheme.quantile_trim("a", 0.1, 0.9),
        WeightScheme.winsorize("b", 0.1, 0.9),
        WeightScheme.all_ones(),
    )
    specs = [
        LStatSpec(col, _TRANSFORMS[t], options[w])
        for col, t, w in zip(("a", "a", "b"), transforms, schemes)
    ]
    weights = [compute_weights(sp.scheme, data) for sp in specs]
    fast = analytic_cov(specs, data, weights)
    slow = brute_force_analytic_cov(specs, data, weights)
    tv = np.array([np.abs(np.diff(sp.transform(np.sort(data.column(sp.column))))).sum() for sp in specs])
    wmax = np.array([1.0 + np.abs(w).max() for w in weights])
    scale = np.outer(tv * wmax, tv * wmax)
    assert np.all(np.abs(fast - slow) <= 1e-12 * scale)
    if all(k == 3 for k in schemes):
        np.testing.assert_array_equal(fast, 0.0)


def test_analytic_cov_memory_is_linear():
    n = 20_000
    x = np.random.default_rng(3).standard_t(3.0, size=n)
    data = single_cluster({"x": x})
    specs = [LStatSpec("x"), LStatSpec("x", scheme=WeightScheme.quantile_trim("x", 0.02, 0.98))]
    weights = [compute_weights(sp.scheme, data) for sp in specs]
    tracemalloc.start()
    try:
        sigma = analytic_cov(specs, data, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(sigma))
    # An n x n float grid alone would be 3.2 GB.
    assert peak < 20 * 2**20


class TestQuantileDomainKernels:
    def test_process_kernel_point_values(self):
        one = lambda s: 1.0
        assert quantile_process_cov_kernel(0.3, 0.7, one) == pytest.approx(0.3 - 0.21)
        assert quantile_process_cov_kernel(0.5, 0.5, one) == pytest.approx(0.25)

    def test_process_kernel_is_symmetric(self):
        dmq = lambda s: 1.0 + s**2
        for s_, t in ((0.1, 0.8), (0.45, 0.5), (0.9, 0.2)):
            assert quantile_process_cov_kernel(s_, t, dmq) == quantile_process_cov_kernel(t, s_, dmq)

    def test_uniform_identity_kernel_integrates_to_variance(self):
        # Midpoint rule over the unit square: Var(U) = 1/12 for U uniform.
        m = 200
        grid = (np.arange(m) + 0.5) / m
        one = lambda s: 1.0
        total = sum(quantile_process_cov_kernel(s_, t, one) for s_ in grid for t in grid) / m**2
        assert total == pytest.approx(1.0 / 12.0, abs=1e-5)

    def test_process_kernel_rejects_boundary(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            quantile_process_cov_kernel(0.0, 0.5, lambda s: 1.0)
