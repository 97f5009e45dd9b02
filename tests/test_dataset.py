"""Tests for the clustered data container."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from trimtest import PanelDataset, add_within_cluster_lags


@pytest.fixture
def tiny():
    return PanelDataset(
        {"v": np.array([1.0, 2.0, 3.0, 4.0, 5.0])},
        np.array(["b", "b", "a", "b", "a"]),
    )


class TestPanelDataset:
    def test_cluster_order_follows_first_appearance(self, tiny):
        assert tiny.cluster_labels == ("b", "a")
        assert tiny.n_clusters == 2
        np.testing.assert_array_equal(tiny.cluster_sizes, [3, 2])
        np.testing.assert_array_equal(tiny.row_cluster_index, [0, 0, 1, 0, 1])

    def test_row_cluster_sizes(self, tiny):
        np.testing.assert_array_equal(tiny.row_cluster_sizes, [3, 3, 2, 3, 2])

    def test_columns_read_only(self, tiny):
        with pytest.raises(ValueError):
            tiny.column("v")[0] = 9.0

    def test_column_lookup(self, tiny):
        with pytest.raises(KeyError, match="no column named"):
            tiny.column("missing")
        assert tuple(tiny.columns) == ("v",)

    def test_sort_order_is_stable_argsort_under_ties(self):
        v = np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0])
        data = PanelDataset({"v": v}, np.arange(6))
        order = data.sort_order("v")
        np.testing.assert_array_equal(order, [1, 4, 3, 0, 2, 5])
        np.testing.assert_array_equal(order, np.argsort(v, kind="stable"))

    def test_sort_order_is_read_only_and_memoized(self, tiny):
        order = tiny.sort_order("v")
        with pytest.raises(ValueError):
            order[0] = 4
        assert tiny.sort_order("v") is order
        with pytest.raises(KeyError, match="no column named"):
            tiny.sort_order("missing")

    def test_factor_codes_are_read_only_and_memoized(self, tiny):
        g = tiny.with_columns({"g": np.array([7.0, 3.0, 7.0, 3.0, 9.0])})
        labels, codes = g.factor_codes("g")
        assert labels == (7.0, 3.0, 9.0)
        np.testing.assert_array_equal(codes, [0, 1, 0, 1, 2])
        with pytest.raises(ValueError):
            codes[0] = 1
        assert g.factor_codes("g")[1] is codes
        # "cluster" is the cluster structure unless a column has that name.
        assert g.factor_codes("cluster") == (g.cluster_labels, g.row_cluster_index)
        named = g.with_columns({"cluster": np.array([1.0, 1.0, 1.0, 2.0, 2.0])})
        assert named.factor_codes("cluster")[0] == (1.0, 2.0)
        with pytest.raises(KeyError, match="no column named 'missing' for fixed effect"):
            g.factor_codes("missing")

    def test_derived_datasets_sort_afresh(self, tiny):
        order = tiny.sort_order("v")
        flipped = tiny.with_columns({"v": -tiny.column("v")})
        np.testing.assert_array_equal(flipped.sort_order("v"), [4, 3, 2, 1, 0])
        kept = tiny.subset_rows(np.array([True, False, True, True, False]))
        np.testing.assert_array_equal(kept.sort_order("v"), [0, 1, 2])
        assert flipped.sort_order("v") is not order
        assert kept.sort_order("v") is not order
        np.testing.assert_array_equal(tiny.sort_order("v"), [0, 1, 2, 3, 4])

    def test_threads_share_one_sort_order_per_column(self):
        # PanelDataset is public, so a caller may share one across threads
        # that hit a fresh memo together; every thread must come away with
        # the same stored array for each column.
        rng = np.random.default_rng(3)
        names = [f"c{j}" for j in range(6)]
        data = PanelDataset({c: rng.normal(size=500) for c in names}, np.arange(500))
        barrier = threading.Barrier(8)

        def grab(_):
            barrier.wait(timeout=10)
            return [data.sort_order(c) for c in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(grab, range(8)))
        finally:
            sys.setswitchinterval(interval)
        for j, c in enumerate(names):
            assert all(orders[j] is data.sort_order(c) for orders in seen)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            PanelDataset({"v": np.arange(3.0)}, np.zeros(4))

    def test_take_rows_makes_singleton_clusters(self, tiny):
        out = tiny.take_rows(np.array([4, 0, 0]))
        np.testing.assert_array_equal(out.column("v"), [5.0, 1.0, 1.0])
        assert out.n_clusters == 3
        np.testing.assert_array_equal(out.cluster_sizes, [1, 1, 1])

    def test_take_clusters_repeats_get_fresh_ids(self, tiny):
        out = tiny.take_clusters(np.array([1, 1, 0]))
        # Cluster "a" drawn twice: copies must count as separate clusters.
        assert out.n_clusters == 3
        np.testing.assert_array_equal(out.cluster_sizes, [2, 2, 3])
        np.testing.assert_array_equal(out.column("v"), [3.0, 5.0, 3.0, 5.0, 1.0, 2.0, 4.0])

    def test_take_clusters_range_check(self, tiny):
        with pytest.raises(IndexError):
            tiny.take_clusters(np.array([2]))

    def test_subset_rows_preserves_labels(self, tiny):
        out = tiny.subset_rows(np.array([True, False, True, False, True]))
        assert out.n_clusters == 2
        np.testing.assert_array_equal(out.column("v"), [1.0, 3.0, 5.0])

    def test_with_columns(self, tiny):
        out = tiny.with_columns({"w": np.arange(5.0)})
        assert set(out.columns) == {"v", "w"}
        assert out.n_clusters == tiny.n_clusters

    def test_with_columns_replaces_a_column_of_the_same_name(self, tiny):
        out = tiny.with_columns({"v": np.zeros(5)})
        assert tuple(out.columns) == ("v",)
        np.testing.assert_array_equal(out.column("v"), np.zeros(5))
        np.testing.assert_array_equal(tiny.column("v"), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_integer_and_string_labels_factorize_alike(self):
        ints = PanelDataset({"v": np.arange(6.0)}, np.array([7, 3, 7, 9, 3, 7]))
        strs = PanelDataset({"v": np.arange(6.0)}, np.array(["7", "3", "7", "9", "3", "7"]))
        assert ints.cluster_labels == (7, 3, 9)
        assert strs.cluster_labels == ("7", "3", "9")
        np.testing.assert_array_equal(ints.row_cluster_index, strs.row_cluster_index)
        np.testing.assert_array_equal(ints.cluster_sizes, [3, 2, 1])

    def test_cluster_rows_partition_the_rows_in_order(self, tiny):
        assert [list(rows) for rows in tiny.cluster_rows] == [[0, 1, 3], [2, 4]]
        with pytest.raises(ValueError):
            tiny.cluster_rows[0][0] = 4

    def test_take_clusters_of_nothing_is_empty(self, tiny):
        out = tiny.take_clusters(np.array([], dtype=int))
        assert out.n_rows == 0
        assert out.n_clusters == 0
        assert out.cluster_rows == ()


class TestWithinClusterLags:
    def test_single_lag_values(self):
        data = PanelDataset(
            {"y": np.array([1.0, 2.0, 3.0, 10.0, 20.0])},
            np.array([0, 0, 0, 1, 1]),
        )
        out = add_within_cluster_lags(data, "y", 1)
        # First row of each cluster is dropped.
        np.testing.assert_array_equal(out.column("y"), [2.0, 3.0, 20.0])
        np.testing.assert_array_equal(out.column("y_lag1"), [1.0, 2.0, 10.0])

    def test_two_lags_drop_short_clusters(self):
        data = PanelDataset(
            {"y": np.array([1.0, 2.0, 3.0, 10.0, 20.0])},
            np.array([0, 0, 0, 1, 1]),
        )
        out = add_within_cluster_lags(data, "y", 2)
        # Cluster 1 has only two rows, so nothing there survives lag 2.
        np.testing.assert_array_equal(out.column("y"), [3.0])
        np.testing.assert_array_equal(out.column("y_lag1"), [2.0])
        np.testing.assert_array_equal(out.column("y_lag2"), [1.0])

    def test_lag_never_crosses_cluster_boundary(self):
        data = PanelDataset(
            {"y": np.array([100.0, 1.0, 2.0])},
            np.array([0, 1, 1]),
        )
        out = add_within_cluster_lags(data, "y", 1)
        np.testing.assert_array_equal(out.column("y_lag1"), [1.0])

    def test_rejects_nonpositive_lags(self):
        data = PanelDataset({"y": np.array([1.0])}, np.array([0]))
        with pytest.raises(ValueError, match=">= 1"):
            add_within_cluster_lags(data, "y", 0)

    def test_incomplete_rows_are_always_dropped(self):
        ids = np.array([0, 0, 0, 0, 1, 2, 2, 2])
        data = PanelDataset({"y": np.arange(8.0)}, ids)
        out = add_within_cluster_lags(data, "y", 2)
        # Two rows per cluster have no lag-2 value; cluster 1 loses its only row.
        assert out.n_rows == 3
        for k in (1, 2):
            assert np.all(np.isfinite(out.column(f"y_lag{k}")))
        np.testing.assert_array_equal(out.column("y"), [2.0, 3.0, 7.0])
        np.testing.assert_array_equal(out.column("y_lag2"), [0.0, 1.0, 5.0])

    def test_surviving_rows_keep_their_clusters(self):
        data = PanelDataset(
            {"y": np.arange(6.0), "x": np.arange(6.0) * 10.0},
            np.array(["b", "a", "b", "a", "b", "a"]),
        )
        out = add_within_cluster_lags(data, "y", 1)
        assert list(out.cluster_ids) == ["b", "a", "b", "a"]
        np.testing.assert_array_equal(out.column("x"), [20.0, 30.0, 40.0, 50.0])
        np.testing.assert_array_equal(out.column("y_lag1"), [0.0, 1.0, 2.0, 3.0])

    def test_unknown_column(self):
        data = PanelDataset({"y": np.array([1.0, 2.0])}, np.array([0, 0]))
        with pytest.raises(KeyError, match="no column named 'z'"):
            add_within_cluster_lags(data, "z", 1)
