"""Clustered rectangular data container used by every pipeline stage.

A PanelDataset is a set of named numeric columns plus a cluster label per
row.  A cluster's rows may be interleaved with other clusters' rows; they
keep their input order, and clusters are ordered by first appearance.
Resampling a cluster twice yields two distinct clusters in the resampled
dataset, so per-cluster statistics (sizes, normalizations) treat the copies
independently.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def factorize_first_appearance(ids: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Labels in first-appearance order and the per-row cluster ordinal.

    Each label is the first element of ids that holds it.  The labels
    must be ordered against each other: an object array mixing 1 and "a"
    raises TypeError.  NaN values of a float array form one category.
    """
    uniq, first, inv = np.unique(ids, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[by_appearance] = np.arange(len(uniq))
    return tuple(ids[first[by_appearance]].tolist()), rank[inv.ravel()]


@dataclass(frozen=True)
class PanelDataset:
    """Immutable table of float columns with a cluster structure.

    Work that depends on the data alone is memoized on the dataset (column
    sort orders, factor codes), and work that depends on the data and one
    read-only block of bootstrap row weights is memoized for the last such
    block (`block_memo`), so every estimator that evaluates the block shares it.

    Parameters
    ----------
    columns : dict of str -> ndarray
        Aligned float arrays, one per column name.
    cluster_ids : ndarray
        Per-row cluster label (any hashable dtype).  Clusters are ordered by
        first appearance; rows within a cluster keep their input order.
    """

    columns: dict[str, np.ndarray]
    cluster_ids: np.ndarray
    cluster_labels: tuple = field(init=False, repr=False)
    row_cluster_index: np.ndarray = field(init=False, repr=False)
    _sizes: np.ndarray = field(init=False, repr=False)
    # Column name -> sort order, computed once per dataset.
    _sort_orders: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # Factor name -> (labels, codes), computed once per dataset.
    _factor_codes: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # (weakref to the last block of row weights seen, {key: value computed for it}).
    _block_memo: tuple = field(init=False, repr=False, compare=False, default=(None, None))

    def __post_init__(self):
        ids = np.asarray(self.cluster_ids)
        n = len(ids)
        cols = {k: _readonly(np.asarray(v, dtype=float)) for k, v in self.columns.items()}
        for name, v in cols.items():
            if v.ndim != 1 or len(v) != n:
                raise ValueError(f"column {name!r} is not a 1-d array of length {n}")
        labels, row_ci = factorize_first_appearance(ids)
        sizes = np.bincount(row_ci, minlength=len(labels)).astype(np.intp)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "cluster_ids", _readonly(ids))
        object.__setattr__(self, "cluster_labels", labels)
        object.__setattr__(self, "row_cluster_index", _readonly(row_ci))
        object.__setattr__(self, "_sizes", _readonly(sizes))

    @property
    def n_rows(self) -> int:
        return len(self.cluster_ids)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_labels)

    @cached_property
    def _rows_by_cluster(self) -> np.ndarray:
        """Row indices grouped by cluster: block c is cluster c's rows in order."""
        return _readonly(np.argsort(self.row_cluster_index, kind="stable"))

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Start of each cluster's block inside _rows_by_cluster."""
        return _readonly(np.cumsum(self._sizes) - self._sizes)

    @cached_property
    def cluster_rows(self) -> tuple:
        """Each cluster's row indices, in order.

        For library use and as the tests' reference, as take_rows is.
        """
        if self.n_clusters == 0:
            return ()
        bounds = np.cumsum(self._sizes[:-1])
        return tuple(
            _readonly(part) for part in np.split(self._rows_by_cluster, bounds)
        )

    @property
    def cluster_sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def row_cluster_sizes(self) -> np.ndarray:
        """Size of the cluster each row belongs to, per row."""
        return self._sizes[self.row_cluster_index]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column named {name!r}")
        return self.columns[name]

    def sort_order(self, name: str) -> np.ndarray:
        """Read-only stable ascending argsort of a column, computed once.

        Columns never change and every derived dataset starts with an empty
        memo, so the order cannot go stale.  Reweighting the rows (as every
        bootstrap draw does) leaves it valid, which is what lets threshold
        and suffix-sum computations share one sort across draws.
        """
        order = self._sort_orders.get(name)
        if order is None:
            order = self._sort_orders.setdefault(
                name, _readonly(np.argsort(self.column(name), kind="stable"))
            )
        return order

    def block_memo(self, block: np.ndarray, key, compute):
        """compute() for this block of row weights and key, computed once per block.

        The memo holds one block, the last one seen: a different block object
        empties it.  The block is held through a weakref, so the memo never
        keeps it alive and a new array at a freed one's address is a new block.
        Only a read-only block is memoized, and it must not be changed (through
        a writable base) while it is evaluated.  The bootstrap engine hands
        every estimator the same read-only block, so what depends on the data
        and the block alone (a column's quantile thresholds) is computed once
        for all of them.
        """
        if block.flags.writeable:
            return compute()
        ref, table = self._block_memo
        if ref is None or ref() is not block:
            table = {}
            object.__setattr__(self, "_block_memo", (weakref.ref(block), table))
        if key not in table:
            table[key] = compute()
        return table[key]

    def factor_codes(self, name: str) -> tuple[tuple, np.ndarray]:
        """Categories of a fixed-effect factor, computed once: (labels, codes).

        A column is factorized in order of first appearance; the name
        "cluster", when no column has it, is the cluster structure itself.
        Codes are read-only row ordinals into labels.
        """
        factor = self._factor_codes.get(name)
        if factor is None:
            if name in self.columns:
                labels, codes = factorize_first_appearance(self.columns[name])
                factor = (labels, _readonly(codes))
            elif name == "cluster":
                factor = (self.cluster_labels, self.row_cluster_index)
            else:
                raise KeyError(f"no column named {name!r} for fixed effect")
            factor = self._factor_codes.setdefault(name, factor)
        return factor

    def take_rows(self, indices: np.ndarray) -> "PanelDataset":
        """Materialized resample of row indices, each its own cluster (the tests' reference)."""
        indices = np.asarray(indices, dtype=np.intp)
        cols = {k: v[indices] for k, v in self.columns.items()}
        return PanelDataset(cols, np.arange(len(indices)))

    def take_clusters(self, ordinals: np.ndarray) -> "PanelDataset":
        """New dataset from cluster ordinals, repeats allowed.

        Each drawn cluster (including repeated draws of the same source
        cluster) gets a fresh id, so the resample has len(ordinals) clusters.
        Row blocks are exact copies of the source cluster rows.  The bootstrap
        never materializes a resample; this and take_rows are the tests' reference.
        """
        ordinals = np.asarray(ordinals, dtype=np.intp)
        if len(ordinals) and (ordinals.min() < 0 or ordinals.max() >= self.n_clusters):
            raise IndexError("cluster ordinal out of range")
        sizes = self._sizes[ordinals]
        new_ids = np.repeat(np.arange(len(ordinals)), sizes)
        # position of each output row inside its drawn cluster's block
        out_starts = np.cumsum(sizes) - sizes
        within = np.arange(int(sizes.sum())) - np.repeat(out_starts, sizes)
        rows = self._rows_by_cluster[np.repeat(self._offsets[ordinals], sizes) + within]
        cols = {k: v[rows] for k, v in self.columns.items()}
        return PanelDataset(cols, new_ids)

    def subset_rows(self, mask: np.ndarray) -> "PanelDataset":
        """Keep rows where mask is True; cluster labels are preserved.

        For library use and as the tests' reference, as take_rows is.
        """
        mask = np.asarray(mask, dtype=bool)
        cols = {k: v[mask] for k, v in self.columns.items()}
        return PanelDataset(cols, np.asarray(self.cluster_ids)[mask])

    def with_columns(self, extra: dict[str, np.ndarray]) -> "PanelDataset":
        """Add columns, replacing any of the same name.

        For library use and as the tests' reference, as take_rows is.
        """
        cols = dict(self.columns)
        cols.update(extra)
        return PanelDataset(cols, self.cluster_ids)


def add_within_cluster_lags(data: PanelDataset, column: str, lags: int) -> PanelDataset:
    """Append lagged copies of a column, shifting within each cluster.

    Lag k of row t inside a cluster is the value at row t-k of the same
    cluster; the first k rows of each cluster have no lag-k value, so the
    rows missing any requested lag, or holding a non-finite one, are
    removed.  New columns are named `{column}_lag{k}`.  A DataError refuses
    one that is already a column, rather than replacing it, and refuses
    lags that leave no row; when no row has a full window, that is before
    any column is built.
    """
    if lags < 1:
        raise ValueError("lags must be >= 1")
    base = data.column(column)
    grouped = data._rows_by_cluster
    place = np.empty(data.n_rows, dtype=np.intp)
    place[grouped] = np.arange(data.n_rows)
    # place minus the cluster's offset is the row's position inside its cluster
    rows = np.flatnonzero(place - data._offsets[data.row_cluster_index] >= lags)
    no_rows = DataError(f"{lags} lag(s) of {column!r} leave no rows: a cluster needs more than {lags} rows")
    if not rows.size:
        raise no_rows
    lagged = {f"{column}_lag{k}": base[grouped[place[rows] - k]] for k in range(1, lags + 1)}
    if clash := sorted(lagged.keys() & data.columns.keys()):
        raise DataError(f"{lags} lag(s) of {column!r} would replace the column {clash[0]!r}")
    finite = np.isfinite(list(lagged.values())).all(axis=0)
    rows = rows[finite]
    if not rows.size:
        raise no_rows
    columns = {name: v[rows] for name, v in data.columns.items()}
    columns.update((name, v[finite]) for name, v in lagged.items())
    return PanelDataset(columns, data.cluster_ids[rows])
