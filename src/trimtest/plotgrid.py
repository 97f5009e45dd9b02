"""Kernel-density grids for joint draw scatter plots.

The density is a product-Gaussian kernel estimate on a 101 x 101 grid with
per-axis Silverman bandwidths (0.9 * min(sd, IQR/1.34) * B^(-1/5)).  The grid
extends three bandwidths beyond the data range on each side, so the density
integrates to 1 up to kernel tail mass.  The payload also carries the
45-degree reference segment and the point estimate so plotting needs no
further computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

GRID_POINTS = 101


@dataclass(frozen=True)
class PlotGrid:
    """Evaluated density grid plus reference geometry."""

    x: np.ndarray
    y: np.ndarray
    density: np.ndarray
    bandwidth_x: float
    bandwidth_y: float
    diagonal_start: tuple[float, float]
    diagonal_end: tuple[float, float]
    point: tuple[float, float]

    def integral(self) -> float:
        """Trapezoid integral of the density over the grid."""
        return float(np.trapezoid(np.trapezoid(self.density, self.y, axis=1), self.x))


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * B^(-1/5); errors on degenerate input."""
    v = np.asarray(values, dtype=float)
    b = len(v)
    if b < 2:
        raise NumericalError("kernel density needs at least two draws")
    sd = float(np.std(v, ddof=1))
    q75, q25 = np.percentile(v, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0 or not np.isfinite(scale):
        raise NumericalError("kernel density is degenerate: draws have zero spread")
    return 0.9 * scale * b ** (-0.2)


def _kernel(grid: np.ndarray, draws: np.ndarray, h: float) -> np.ndarray:
    """Gaussian kernel of bandwidth h, grid point by draw, built in place.

    The same operations in the same order as exp(-0.5 * u * u) / (h * sqrt(2 pi))
    with u = (grid - draw) / h, so the same bits, but only u and the kernel
    are ever held, not their temporaries.
    """
    u = np.subtract.outer(grid, draws)
    u /= h
    k = np.multiply(-0.5, u)
    k *= u
    del u
    np.exp(k, out=k)
    k /= h * np.sqrt(2.0 * np.pi)
    return k


def emit_plot_grid(draws_x: np.ndarray, draws_y: np.ndarray, point: tuple[float, float] | None = None) -> PlotGrid:
    """Joint density grid of two draw columns.

    NaN rows (failed draws) are removed pairwise first.  The 45-degree
    segment spans the union of both axis ranges, clipped to the grid.
    """
    dx = np.asarray(draws_x, dtype=float)
    dy = np.asarray(draws_y, dtype=float)
    if dx.shape != dy.shape or dx.ndim != 1:
        raise ValueError("need two equal-length draw columns")
    ok = np.isfinite(dx) & np.isfinite(dy)
    dx, dy = dx[ok], dy[ok]
    hx = silverman_bandwidth(dx)
    hy = silverman_bandwidth(dy)
    gx = np.linspace(dx.min() - 3.0 * hx, dx.max() + 3.0 * hx, GRID_POINTS)
    gy = np.linspace(dy.min() - 3.0 * hy, dy.max() + 3.0 * hy, GRID_POINTS)
    # product kernel factorizes: density = (Kx @ Ky') / B
    kx = _kernel(gx, dx, hx)
    ky = _kernel(gy, dy, hy)
    density = kx @ ky.T / len(dx)
    lo = max(gx[0], gy[0])
    hi = min(gx[-1], gy[-1])
    if point is None:
        point = (float(np.mean(dx)), float(np.mean(dy)))
    return PlotGrid(
        x=gx,
        y=gy,
        density=density,
        bandwidth_x=hx,
        bandwidth_y=hy,
        diagonal_start=(lo, lo),
        diagonal_end=(hi, hi),
        point=(float(point[0]), float(point[1])),
    )
