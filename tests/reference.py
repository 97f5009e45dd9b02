"""Reference constructions that the tests check the package against.

The package never needs these: a dataset keeping some of its rows, one
with columns added or replaced, each cluster's rows and sizes, a table
transform built from any sequences, and a density grid's integral.  Each
is built here from public fields alone.
"""

from __future__ import annotations

import numpy as np

from trimtest import PanelDataset
from trimtest.lstat import Transform
from trimtest.plotgrid import PlotGrid


def subset_rows(data: PanelDataset, mask) -> PanelDataset:
    """The rows where mask is True, each keeping its cluster label."""
    mask = np.asarray(mask, dtype=bool)
    return PanelDataset({k: v[mask] for k, v in data.columns.items()}, data.cluster_ids[mask])


def with_columns(data: PanelDataset, extra: dict) -> PanelDataset:
    """The dataset with columns added, each replacing any column of its name in place."""
    return PanelDataset({**data.columns, **extra}, data.cluster_ids)


def cluster_rows(data: PanelDataset) -> tuple:
    """Each cluster's row indices in row order, clusters in order of first appearance."""
    return tuple(np.flatnonzero(data.row_cluster_index == c) for c in range(data.n_clusters))


def cluster_sizes(data: PanelDataset) -> np.ndarray:
    """Rows per cluster, clusters in order of first appearance."""
    return np.bincount(data.row_cluster_index, minlength=data.n_clusters)


def table_transform(x, y) -> Transform:
    """The piecewise-linear transform through the points (x[i], y[i])."""
    return Transform("table", table_x=tuple(map(float, x)), table_y=tuple(map(float, y)))


def grid_integral(grid: PlotGrid) -> float:
    """Trapezoid integral of the density over the grid."""
    return float(np.trapezoid(np.trapezoid(grid.density, grid.y, axis=1), grid.x))
