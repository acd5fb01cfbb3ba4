"""Polar grid geometry: binning, rasterization, and the sparse round trip."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import legacy_grid
from lidarsynth import geometry as G


# -- grid construction ----------------------------------------------------------


def _region_rows(grid):
    """Rows per elevation region, counted from the row centers that fall inside it."""
    centers = grid.row_centers()
    return tuple(int(((centers >= lo) & (centers < hi)).sum()) for lo, hi, _ in grid.phi_regions)


def test_default_grid_dimensions():
    grid = G.GridSpec()
    assert grid.n_cols == 1440
    assert grid.n_rows == 1088
    assert _region_rows(grid) == (220, 640, 228)


def test_legacy_grid_dimensions():
    grid = legacy_grid()
    assert grid.n_rows == 960
    assert grid.n_cols == 1440
    assert _region_rows(grid) == (220, 640, 100)


def test_row_centers_are_region_midpoints():
    grid = G.GridSpec()
    centers = grid.row_centers()
    assert centers.shape == (1088,)
    assert centers[0] == pytest.approx(-59.875)
    assert centers[220] == pytest.approx(-5.0 + 0.015625 / 2)
    assert centers[-1] == pytest.approx(62.0 - 0.125)
    assert (np.diff(centers) > 0).all()


def test_row_centers_are_read_only():
    # the table is the grid's own, and the cached LiDAR rays of every equal grid are cast from it
    centers = G.GridSpec().row_centers()
    with pytest.raises(ValueError):
        centers += 1.0


def test_col_centers_span_azimuth():
    grid = G.GridSpec()
    centers = grid.col_centers()
    assert centers[0] == pytest.approx(-179.875)
    assert centers[-1] == pytest.approx(179.875)


def test_grid_rejects_non_integer_step_count():
    with pytest.raises(ValueError):
        G.GridSpec(theta_step=0.7)  # 360 / 0.7 is not an integer
    with pytest.raises(ValueError):
        G.GridSpec(phi_regions=((-60.0, -5.0, 0.26),))


def test_grid_rejects_non_contiguous_regions():
    with pytest.raises(ValueError):
        G.GridSpec(phi_regions=((-60.0, -5.0, 0.25), (-4.0, 5.0, 0.25)))


def test_grid_rejects_empty_and_reversed_regions():
    with pytest.raises(ValueError):
        G.GridSpec(phi_regions=())
    with pytest.raises(ValueError):
        G.GridSpec(phi_regions=((5.0, -5.0, 0.25),))


@pytest.mark.parametrize(
    "fields",
    [
        {"theta_lo": 0.0, "theta_hi": 360.0},
        {"theta_lo": -180.25},
        {"theta_hi": 180.25},
        {"phi_regions": ((-90.25, 0.0, 0.25),)},
        {"phi_regions": ((-5.0, 5.0, 0.25), (5.0, 90.25, 0.25))},
    ],
    ids=["theta-0-360", "theta-lo", "theta-hi", "phi-lo", "phi-hi"],
)
def test_grid_rejects_angles_off_the_sphere(fields):
    # rasterization folds azimuth into [-180, 180) and elevation into [-90, 90]
    with pytest.raises(ValueError, match=r"outside \[-(180, 180|90, 90)\]"):
        G.GridSpec(**fields)


def test_grid_accepts_the_whole_sphere():
    grid = G.GridSpec(theta_step=2.25, phi_regions=((-90.0, 90.0, 2.25),))
    assert (grid.n_rows, grid.n_cols) == (80, 160)


# -- binning ---------------------------------------------------------------------


def test_phi_rows_are_half_open():
    grid = G.GridSpec()
    rows = grid.phi_to_row(np.array([-60.0, -5.0 - 1e-9, -5.0, 5.0 - 1e-9, 5.0, 62.0 - 1e-9]))
    np.testing.assert_array_equal(rows, [0, 219, 220, 859, 860, 1087])


def test_phi_outside_grid_is_negative_one():
    grid = G.GridSpec()
    rows = grid.phi_to_row(np.array([-60.0 - 1e-6, 62.0, 90.0]))
    np.testing.assert_array_equal(rows, [-1, -1, -1])


def test_theta_cols_are_half_open():
    grid = G.GridSpec()
    cols = grid.theta_to_col(np.array([-180.0, 0.0, 179.75, 180.0, -180.1]))
    np.testing.assert_array_equal(cols, [0, 720, 1439, -1, -1])


def test_bin_index_center_of_fine_band():
    grid = G.GridSpec()
    np.testing.assert_array_equal(grid.phi_to_row(np.array([-1.71875, 90.0])), [430, -1])
    np.testing.assert_array_equal(grid.theta_to_col(np.array([0.0])), [720])


# -- rasterization -----------------------------------------------------------------


def _point_at(grid, row, col, r):
    theta = math.radians(grid.col_centers()[col])
    phi = math.radians(grid.row_centers()[row])
    return (r * math.cos(phi) * math.cos(theta), r * math.cos(phi) * math.sin(theta),
            r * math.sin(phi))


def test_rasterize_places_point_in_its_bin():
    grid = G.GridSpec()
    raster, dropped = G.rasterize_with_stats(np.array([_point_at(grid, 500, 100, 42.0)]), grid)
    assert dropped == 0
    assert raster.data[500, 100] == pytest.approx(42.0, rel=1e-6)
    assert np.count_nonzero(raster.data) == 1


def test_rasterize_keeps_nearest_return_per_cell():
    grid = G.GridSpec()
    pts = np.array([_point_at(grid, 300, 700, 80.0), _point_at(grid, 300, 700, 12.5)])
    raster, dropped = G.rasterize_with_stats(pts, grid)
    assert dropped == 0
    assert raster.data[300, 700] == pytest.approx(12.5, rel=1e-6)


def test_rasterize_drops_out_of_range_and_origin():
    grid = G.GridSpec()
    inf = float("inf")
    pts = np.array([
        [150.0, 0.0, 0.0],   # beyond max_range
        [0.0, 0.0, 0.0],     # origin
        [0.0, 0.0, 50.0],    # phi 90, above the grid
        [float("nan"), 1.0, 0.0],
        [inf, 0.0, 0.0],
        [1.0, -inf, 0.0],
        [0.0, 1.0, inf],
        _point_at(grid, 10, 10, 30.0),
    ])
    raster, dropped = G.rasterize_with_stats(pts, grid)
    assert dropped == 7
    assert np.count_nonzero(raster.data) == 1
    assert raster.data[10, 10] == pytest.approx(30.0, rel=1e-6)


def test_rasterize_accepts_point3_lists_and_empty_clouds():
    grid = G.GridSpec()
    raster, dropped = G.rasterize_with_stats([_point_at(grid, 400, 720, 10.0)], grid)
    assert dropped == 0
    assert raster.data[400, 720] == pytest.approx(10.0, rel=1e-6)
    empty, dropped = G.rasterize_with_stats(np.zeros((0, 3)), grid)
    assert dropped == 0
    assert not empty.data.any()


@pytest.mark.parametrize("cloud", [[], np.zeros(3), np.zeros((4, 2)), np.zeros((1, 2, 3))],
                         ids=["empty-list", "shape-3", "shape-4x2", "shape-1x2x3"])
def test_rasterize_rejects_non_n_by_3_input(cloud):
    with pytest.raises(ValueError):
        G.rasterize_with_stats(cloud, G.GridSpec())


def test_polar_raster_validates_shape_and_range():
    grid = G.GridSpec()
    with pytest.raises(ValueError):
        G.PolarRaster(grid, np.zeros((3, 3), dtype=np.float32))
    bad = np.zeros((grid.n_rows, grid.n_cols), dtype=np.float32)
    bad[0, 0] = -1.0
    with pytest.raises(ValueError):
        G.PolarRaster(grid, bad)
    bad[0, 0] = float("inf")
    with pytest.raises(ValueError):
        G.PolarRaster(grid, bad)


def _sparse_raster(grid, rng, n_points):
    data = np.zeros((grid.n_rows, grid.n_cols), dtype=np.float32)
    rows = rng.integers(0, grid.n_rows, n_points)
    cols = rng.integers(0, grid.n_cols, n_points)
    data[rows, cols] = rng.uniform(1.0, 99.0, n_points).astype(np.float32)
    return G.PolarRaster(grid, data)


@given(st.integers(0, 2**31 - 1), st.integers(1, 60))
def test_rasterize_derasterize_round_trip_is_bit_exact(seed, n_points):
    grid = G.GridSpec()
    raster = _sparse_raster(grid, np.random.default_rng(seed), n_points)
    again, dropped = G.rasterize_with_stats(G.derasterize_arrays(raster), grid)
    assert dropped == 0
    np.testing.assert_array_equal(again.data, raster.data)


def test_derasterize_empty_raster():
    grid = G.GridSpec()
    raster = G.PolarRaster(grid, np.zeros((grid.n_rows, grid.n_cols)))
    assert G.derasterize_arrays(raster).shape == (0, 3)


def test_derasterize_returns_points_at_bin_centers():
    grid = G.GridSpec()
    data = np.zeros((grid.n_rows, grid.n_cols), dtype=np.float32)
    data[430, 720] = 50.0
    pts = G.derasterize_arrays(G.PolarRaster(grid, data))
    assert pts.shape == (1, 3) and pts.dtype == np.float64
    x, y, z = pts[0]
    r = math.sqrt(x * x + y * y + z * z)
    assert r == pytest.approx(50.0, rel=1e-9)
    assert math.degrees(math.atan2(y, x)) == pytest.approx(grid.col_centers()[720], abs=1e-9)
    assert math.degrees(math.asin(z / r)) == pytest.approx(grid.row_centers()[430], abs=1e-9)
