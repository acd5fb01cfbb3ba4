"""Polar range-image geometry: binning, rasterization, and its inverse.

The grid covers azimuth (theta) with one fixed step and elevation (phi) with
a list of contiguous regions, each with its own step, so the horizon band
can be sampled much more finely than the rest of the sphere.  Cells are
half-open [lo, lo + step); rows ascend in phi, columns in theta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "PolarRaster",
    "rasterize_with_stats",
    "derasterize_arrays",
]

log = logging.getLogger(__name__)

_REL_TOL = 1e-9


def _exact_count(span: float, step: float) -> int:
    n = span / step
    rounded = round(n)
    if rounded < 1 or abs(n - rounded) > _REL_TOL * max(1.0, abs(n)):
        raise ValueError(f"span {span} is not an integer multiple of step {step}")
    return int(rounded)


@dataclass(frozen=True)
class GridSpec:
    """Angular grid: one theta step, piecewise phi regions, max range in meters."""

    theta_lo: float = -180.0
    theta_hi: float = 180.0
    theta_step: float = 0.25
    phi_regions: tuple[tuple[float, float, float], ...] = (
        (-60.0, -5.0, 0.25),
        (-5.0, 5.0, 0.015625),
        (5.0, 62.0, 0.25),
    )
    max_range: float = 100.0

    def __post_init__(self):
        if not self.theta_hi > self.theta_lo:
            raise ValueError("theta_hi must exceed theta_lo")
        # rasterize_with_stats folds azimuth into [-180, 180): a column outside it never fills
        if self.theta_lo < -180.0 or self.theta_hi > 180.0:
            raise ValueError(f"theta span [{self.theta_lo}, {self.theta_hi}) reaches outside [-180, 180]")
        if self.theta_step <= 0:
            raise ValueError("theta_step must be positive")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")
        n_cols = _exact_count(self.theta_hi - self.theta_lo, self.theta_step)
        if not self.phi_regions:
            raise ValueError("at least one phi region required")
        rows = []
        prev_hi = None
        for lo, hi, step in self.phi_regions:
            if hi <= lo or step <= 0:
                raise ValueError(f"bad phi region ({lo}, {hi}, {step})")
            if lo < -90.0 or hi > 90.0:
                raise ValueError(f"phi region ({lo}, {hi}, {step}) reaches outside [-90, 90]")
            if prev_hi is not None and abs(prev_hi - lo) > _REL_TOL * max(1.0, abs(lo)):
                raise ValueError(f"phi regions not contiguous at {prev_hi} vs {lo}")
            rows.append(_exact_count(hi - lo, step))
            prev_hi = hi
        offsets = np.concatenate([[0], np.cumsum(rows)])
        object.__setattr__(self, "_n_cols", n_cols)
        object.__setattr__(self, "_region_rows", tuple(rows))
        object.__setattr__(self, "_row_offsets", offsets)
        centers = np.concatenate(
            [lo + (np.arange(n) + 0.5) * step for (lo, hi, step), n in zip(self.phi_regions, rows)]
        )
        centers.flags.writeable = False  # shared by every caller and by the cached LiDAR rays
        object.__setattr__(self, "_row_centers", centers)

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def n_rows(self) -> int:
        return int(self._row_offsets[-1])

    @property
    def phi_lo(self) -> float:
        return self.phi_regions[0][0]

    @property
    def phi_hi(self) -> float:
        return self.phi_regions[-1][1]

    def row_centers(self) -> np.ndarray:
        """Center elevation of every row, ascending, in degrees (float64)."""
        return self._row_centers

    def col_centers(self) -> np.ndarray:
        return self.theta_lo + (np.arange(self.n_cols) + 0.5) * self.theta_step

    def phi_to_row(self, phi: np.ndarray) -> np.ndarray:
        """Vectorized row lookup; -1 where phi is outside every region."""
        phi = np.asarray(phi, dtype=np.float64)
        row = np.full(phi.shape, -1, dtype=np.int64)
        for (lo, hi, step), n, off in zip(self.phi_regions, self._region_rows, self._row_offsets):
            sel = (phi >= lo) & (phi < hi)
            idx = np.floor((phi[sel] - lo) / step).astype(np.int64)
            np.clip(idx, 0, n - 1, out=idx)
            row[sel] = off + idx
        return row

    def theta_to_col(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized column lookup; -1 where theta is outside [lo, hi)."""
        theta = np.asarray(theta, dtype=np.float64)
        col = np.full(theta.shape, -1, dtype=np.int64)
        sel = (theta >= self.theta_lo) & (theta < self.theta_hi)
        idx = np.floor((theta[sel] - self.theta_lo) / self.theta_step).astype(np.int64)
        np.clip(idx, 0, self.n_cols - 1, out=idx)
        col[sel] = idx
        return col


@dataclass
class PolarRaster:
    """A range image on a grid; cell value is range in meters, 0 = no return."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        expected = (self.grid.n_rows, self.grid.n_cols)
        if self.data.shape != expected:
            raise ValueError(f"raster shape {self.data.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("raster contains non-finite values")
        if self.data.min() < 0 or self.data.max() > self.grid.max_range:
            raise ValueError("raster values must lie in [0, max_range]")


def rasterize_with_stats(cloud: np.ndarray, grid: GridSpec) -> tuple[PolarRaster, int]:
    """Rasterize an [N, 3] point array; returns the raster and the number of dropped points.

    Non-finite points, points outside the grid, beyond max_range, or at the
    origin are dropped.  Cells hit by several points keep the minimum range
    (first return).
    """
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point array must be [N, 3], got {pts.shape}")
    n_total = pts.shape[0]
    data = np.full((grid.n_rows, grid.n_cols), np.inf, dtype=np.float64)
    r = np.sqrt((pts * pts).sum(axis=1))
    ok = (r > 0.0) & (r <= grid.max_range)  # false for NaN and inf ranges
    pts, r = pts[ok], r[ok]
    theta = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
    theta = np.where(theta >= 180.0, theta - 360.0, theta)
    phi = np.degrees(np.arcsin(np.clip(pts[:, 2] / r, -1.0, 1.0)))
    row = grid.phi_to_row(phi)
    col = grid.theta_to_col(theta)
    in_grid = (row >= 0) & (col >= 0)
    flat = row[in_grid] * grid.n_cols + col[in_grid]
    np.minimum.at(data.reshape(-1), flat, r[in_grid])
    n_kept = int(in_grid.sum())
    data[~np.isfinite(data)] = 0.0
    dropped = n_total - n_kept
    if dropped:
        log.debug("rasterize dropped %d of %d points", dropped, n_total)
    return PolarRaster(grid, data.astype(np.float32)), dropped


def derasterize_arrays(raster: PolarRaster) -> np.ndarray:
    """Nonzero bins as an [N, 3] float64 point array at bin-center directions."""
    rows, cols = np.divmod(np.flatnonzero(raster.data != 0), raster.grid.n_cols)  # row-major, as np.nonzero
    r = raster.data[rows, cols].astype(np.float64)
    theta = np.radians(raster.grid.col_centers()[cols])
    phi = np.radians(raster.grid.row_centers()[rows])
    cos_phi = np.cos(phi)
    return np.stack(
        [r * cos_phi * np.cos(theta), r * cos_phi * np.sin(theta), r * np.sin(phi)], axis=1
    )

