"""Tests for the clustered data container."""

from __future__ import annotations

import gc
import signal
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimtest import DataError, PanelDataset, add_within_cluster_lags
from trimtest.csvio import load_csv
from trimtest.dataset import factorize_first_appearance


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

    def test_block_memo_holds_the_last_read_only_block(self, tiny):
        calls = []

        def compute():
            calls.append(None)
            return len(calls)

        block = np.ones((2, 5))
        assert [tiny.block_memo(block, "k", compute) for _ in range(2)] == [1, 2]  # writable: never kept
        block.setflags(write=False)
        assert [tiny.block_memo(block, "k", compute) for _ in range(2)] == [3, 3]
        assert tiny.block_memo(block, "other", compute) == 4
        other = np.ones((2, 5))
        other.setflags(write=False)
        assert tiny.block_memo(other, "k", compute) == 5  # a new block empties the memo
        assert tiny.block_memo(block, "k", compute) == 6
        held = weakref.ref(block)
        del block
        gc.collect()
        assert held() is None

    def test_threads_each_get_their_own_blocks_values(self):
        # One memo slot shared by threads that each evaluate their own
        # blocks: a thread must never read what another block computed.
        data = PanelDataset({"v": np.arange(8.0)}, np.arange(8))
        barrier = threading.Barrier(8)

        def evaluate(t):
            barrier.wait(timeout=10)
            wrong = 0
            for i in range(300):
                block = np.full((2, 8), float(1000 * t + i))
                block.setflags(write=False)
                for key in ("a", "b", "a"):
                    wrong += data.block_memo(block, key, lambda: (key, block[0, 0])) != (key, block[0, 0])
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert list(pool.map(evaluate, range(8), timeout=60)) == [0] * 8
        finally:
            sys.setswitchinterval(interval)

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

    def test_integer_and_string_labels_factorize_alike(self, tmp_path):
        ints = PanelDataset({"v": np.arange(6.0)}, np.array([7, 3, 7, 9, 3, 7]))
        strs = PanelDataset({"v": np.arange(6.0)}, np.array(["7", "3", "7", "9", "3", "7"]))
        assert ints.cluster_labels == (7, 3, 9)
        assert strs.cluster_labels == ("7", "3", "9")
        np.testing.assert_array_equal(ints.row_cluster_index, strs.row_cluster_index)
        np.testing.assert_array_equal(ints.cluster_sizes, [3, 2, 1])

        def dictionary_scan(ids):
            order: dict = {}
            codes = [order.setdefault(label, len(order)) for label in ids.tolist()]
            return tuple(order), np.array(codes, dtype=np.intp)

        raw = np.random.default_rng(5).integers(0, 300, size=2000)
        labelled, numeric = tmp_path / "labelled.csv", tmp_path / "numeric.csv"
        labelled.write_text("v,g\n" + "".join(f"{g}.0,u{g}\n" for g in raw), encoding="utf-8")
        numeric.write_text("v\n" + "".join(f"{g}.0\n" for g in raw), encoding="utf-8")
        by_column, _ = load_csv(str(labelled), "g")
        by_line, _ = load_csv(str(numeric))
        # The loader hands over typed arrays: strings, or line ordinals without a cluster column.
        assert by_column.cluster_ids.dtype.kind == "U" and by_line.cluster_ids.dtype.kind == "i"
        for ids in (
            raw,
            raw.astype(object),
            raw.astype(str),
            raw.astype(float),
            np.array([f"u{g}" for g in raw], dtype=object),
            by_column.cluster_ids,
            by_line.cluster_ids,
        ):
            labels, codes = factorize_first_appearance(ids)
            want_labels, want_codes = dictionary_scan(ids)
            assert labels == want_labels
            assert [type(label) for label in labels] == [type(label) for label in want_labels]
            np.testing.assert_array_equal(codes, want_codes)
        # Labels must be ordered against each other, and NaN values form one category.
        with pytest.raises(TypeError):
            factorize_first_appearance(np.array([1, "a"], dtype=object))
        labels, codes = factorize_first_appearance(np.array([np.nan, 2.0, np.nan, 1.0]))
        assert np.isnan(labels[0]) and labels[1:] == (2.0, 1.0)
        np.testing.assert_array_equal(codes, [0, 1, 0, 2])

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

    def test_a_count_longer_than_every_cluster_fails_before_building_columns(self):
        # No row has a full window, so no lag column is built: building 10**9
        # empty ones would take about an hour and a half.
        data = PanelDataset({"y": np.arange(60.0)}, np.repeat(np.arange(12), 5))

        def too_slow(signum, frame):
            raise TimeoutError("add_within_cluster_lags ran for 2 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(2)
        try:
            with pytest.raises(DataError, match=r"^1000000000 lag\(s\) of 'y' leave no rows: a cluster needs more than 1000000000 rows$"):
                add_within_cluster_lags(data, "y", 10**9)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

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

    @staticmethod
    def _lags_by_cluster_loop(data, column, lags):
        """The lags one cluster at a time, through with_columns and subset_rows: the reference."""
        base = data.column(column)
        lag_cols, valid = {}, np.ones(data.n_rows, dtype=bool)
        for k in range(1, lags + 1):
            out = np.full(data.n_rows, np.nan)
            for rows in data.cluster_rows:
                if len(rows) > k:
                    out[rows[k:]] = base[rows[:-k]]
            lag_cols[f"{column}_lag{k}"] = out
            valid &= np.isfinite(out)
        return data.with_columns(lag_cols).subset_rows(valid)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.one_of(st.floats(-100, 100), st.sampled_from([np.nan, np.inf, -np.inf])),
            ),
            min_size=1,
            max_size=60,
        ),
        string_ids=st.booleans(),
        lags=st.integers(1, 3),
    )
    def test_lags_match_a_per_cluster_loop(self, rows, string_ids, lags):
        ids = np.array([f"c{c}" if string_ids else c for c, _ in rows])
        y = np.array([v for _, v in rows])
        data = PanelDataset({"y": y, "x": np.arange(len(rows), dtype=float)}, ids)
        want = self._lags_by_cluster_loop(data, "y", lags)
        if want.n_rows == 0:
            with pytest.raises(DataError, match=rf"^{lags} lag\(s\) of 'y' leave no rows"):
                add_within_cluster_lags(data, "y", lags)
            return
        got = add_within_cluster_lags(data, "y", lags)
        assert tuple(got.columns) == tuple(want.columns)
        for name in want.columns:
            np.testing.assert_array_equal(got.column(name), want.column(name))
        assert got.cluster_ids.dtype == want.cluster_ids.dtype
        np.testing.assert_array_equal(got.cluster_ids, want.cluster_ids)
        assert got.cluster_labels == want.cluster_labels
        np.testing.assert_array_equal(got.row_cluster_index, want.row_cluster_index)

    def test_unknown_column(self):
        data = PanelDataset({"y": np.array([1.0, 2.0])}, np.array([0, 0]))
        with pytest.raises(KeyError, match="no column named 'z'"):
            add_within_cluster_lags(data, "z", 1)
