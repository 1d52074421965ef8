"""Correctness tests for SLAM_SORT, SLAM_BUCKET, and RAO.

The central claim of the paper is that the sweep-line algorithms are *exact*:
they must agree with direct kernel evaluation for every pixel, kernel, and
engine.  These tests pin that down, including adversarial tie cases where
interval endpoints coincide with pixel centers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Raster, Region
from repro.core.engines import slam_bucket_grid, slam_sort_grid
from repro.core.kernels import get_kernel
from repro.core.rao import rao_orientation, with_rao
from repro.core.slam_bucket import bucket_indices

from .conftest import reference_grid

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")
ENGINES = ("python", "numpy")


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
@pytest.mark.parametrize("engine", ENGINES)
class TestSlamExactness:
    def test_sort_matches_reference(self, kernel_name, engine, small_xy, raster):
        kernel = get_kernel(kernel_name)
        expected = reference_grid(small_xy, raster, kernel_name, 9.0)
        got = slam_sort_grid[engine](small_xy, raster, kernel, 9.0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)

    def test_bucket_matches_reference(self, kernel_name, engine, small_xy, raster):
        kernel = get_kernel(kernel_name)
        expected = reference_grid(small_xy, raster, kernel_name, 9.0)
        got = slam_bucket_grid[engine](small_xy, raster, kernel, 9.0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)


class TestSlamEdgeCases:
    @pytest.mark.parametrize("variant", ["sort", "bucket"])
    def test_empty_dataset(self, variant, raster):
        grid_fn = (slam_sort_grid if variant == "sort" else slam_bucket_grid)["numpy"]
        grid = grid_fn(np.empty((0, 2)), raster, get_kernel("epanechnikov"), 5.0)
        assert grid.shape == raster.shape
        assert np.all(grid == 0.0)

    @pytest.mark.parametrize("variant", ["sort", "bucket"])
    def test_single_point(self, variant, raster):
        grid_fn = (slam_sort_grid if variant == "sort" else slam_bucket_grid)["numpy"]
        xy = np.array([[50.0, 40.0]])
        grid = grid_fn(xy, raster, get_kernel("epanechnikov"), 8.0)
        expected = reference_grid(xy, raster, "epanechnikov", 8.0)
        np.testing.assert_allclose(grid, expected, atol=1e-12)

    @pytest.mark.parametrize("variant", ["sort", "bucket"])
    def test_all_points_coincident(self, variant, raster):
        grid_fn = (slam_sort_grid if variant == "sort" else slam_bucket_grid)["numpy"]
        xy = np.full((57, 2), 33.0)
        grid = grid_fn(xy, raster, get_kernel("quartic"), 12.0)
        expected = reference_grid(xy, raster, "quartic", 12.0)
        np.testing.assert_allclose(grid, expected, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("variant", ["sort", "bucket"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_integer_tie_coordinates(self, variant, engine):
        """Points and pixel centers on the same integer lattice: interval
        endpoints land exactly on pixel centers, exercising tie handling."""
        region = Region(0.0, 0.0, 8.0, 8.0)
        raster = Raster(region, 8, 8)  # pixel centers at 0.5, 1.5, ...
        xy = np.array(
            [[x + 0.5, y + 0.5] for x in range(8) for y in range(8)], dtype=float
        )
        grid_fn = (slam_sort_grid if variant == "sort" else slam_bucket_grid)[engine]
        for b in (1.0, 2.0, 3.0):  # integer bandwidths force LB/UB on centers
            expected = reference_grid(xy, raster, "epanechnikov", b)
            got = grid_fn(xy, raster, get_kernel("epanechnikov"), b)
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)

    def test_bandwidth_larger_than_region(self, small_xy, raster):
        expected = reference_grid(small_xy, raster, "epanechnikov", 500.0)
        got = slam_bucket_grid["numpy"](
            small_xy, raster, get_kernel("epanechnikov"), 500.0
        )
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_tiny_bandwidth(self, small_xy, raster):
        expected = reference_grid(small_xy, raster, "epanechnikov", 0.05)
        got = slam_bucket_grid["numpy"](
            small_xy, raster, get_kernel("epanechnikov"), 0.05
        )
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_points_outside_region(self, raster):
        """Points outside the rendered region still contribute within b."""
        xy = np.array([[-3.0, 40.0], [103.0, 40.0], [50.0, -3.0], [50.0, 83.0]])
        expected = reference_grid(xy, raster, "epanechnikov", 10.0)
        got = slam_bucket_grid["numpy"](xy, raster, get_kernel("epanechnikov"), 10.0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)
        assert expected.max() > 0  # the case is non-trivial

    @pytest.mark.parametrize("variant", ["sort", "bucket"])
    def test_invalid_bandwidth_raises(self, variant, small_xy, raster):
        grid_fn = (slam_sort_grid if variant == "sort" else slam_bucket_grid)["numpy"]
        with pytest.raises(ValueError, match="bandwidth"):
            grid_fn(small_xy, raster, get_kernel("epanechnikov"), 0.0)

    def test_gaussian_rejected(self, small_xy, raster):
        with pytest.raises(ValueError, match="aggregate decomposition"):
            slam_bucket_grid["numpy"](small_xy, raster, get_kernel("gaussian"), 5.0)

    def test_one_pixel_raster(self, small_xy, region):
        raster = Raster(region, 1, 1)
        expected = reference_grid(small_xy, raster, "epanechnikov", 20.0)
        got = slam_bucket_grid["numpy"](
            small_xy, raster, get_kernel("epanechnikov"), 20.0
        )
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_single_row_raster(self, small_xy, region):
        raster = Raster(region, 64, 1)
        expected = reference_grid(small_xy, raster, "quartic", 15.0)
        got = slam_sort_grid["numpy"](small_xy, raster, get_kernel("quartic"), 15.0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)

    def test_single_column_raster(self, small_xy, region):
        raster = Raster(region, 1, 64)
        expected = reference_grid(small_xy, raster, "quartic", 15.0)
        got = slam_bucket_grid["numpy"](small_xy, raster, get_kernel("quartic"), 15.0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)


class TestBucketIndices:
    """The O(1) bucket assignment (Equations 19-20) against searchsorted."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_pixels=st.integers(1, 40),
        integer_grid=st.booleans(),
    )
    def test_matches_searchsorted(self, seed, num_pixels, integer_grid):
        r = np.random.default_rng(seed)
        x0 = r.uniform(-5, 5)
        gx = r.uniform(0.1, 3.0)
        if integer_grid:
            x0, gx = float(round(x0)), 1.0
        xs = x0 + np.arange(num_pixels) * gx
        lb = r.uniform(xs[0] - 3 * gx, xs[-1] + 3 * gx, 60)
        if integer_grid:
            lb = np.round(lb)  # force exact ties with pixel centers
        ub = lb + r.uniform(0, 5, 60)
        if integer_grid:
            ub = np.round(ub)
        enter, leave = bucket_indices(xs, lb, ub)
        np.testing.assert_array_equal(enter, np.searchsorted(xs, lb, side="left"))
        np.testing.assert_array_equal(leave, np.searchsorted(xs, ub, side="right"))

    def test_enter_before_leave(self, rng):
        xs = np.linspace(0, 10, 11)
        lb = rng.uniform(-2, 12, 50)
        ub = lb + rng.uniform(0, 4, 50)
        enter, leave = bucket_indices(xs, lb, ub)
        assert np.all(enter <= leave)

    def test_single_pixel_row(self):
        xs = np.array([5.0])
        enter, leave = bucket_indices(xs, np.array([4.0, 5.0, 6.0]), np.array([4.5, 5.0, 7.0]))
        np.testing.assert_array_equal(enter, [0, 0, 1])
        np.testing.assert_array_equal(leave, [0, 1, 1])

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_pixels=st.integers(1, 30),
        x0=st.floats(-1e6, 1e6, allow_nan=False),
        gx=st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_endpoints_exactly_on_pixel_centers(self, seed, num_pixels, x0, gx):
        """Endpoints that *are* pixel centers (no rounding slack at all) must
        still land on the searchsorted bucket."""
        r = np.random.default_rng(seed)
        xs = x0 + np.arange(num_pixels) * gx
        picks = r.integers(0, num_pixels, 40)
        lb = xs[picks]
        ub = xs[np.maximum(picks, r.integers(0, num_pixels, 40))]
        enter, leave = bucket_indices(xs, lb, ub)
        np.testing.assert_array_equal(enter, np.searchsorted(xs, lb, side="left"))
        np.testing.assert_array_equal(leave, np.searchsorted(xs, ub, side="right"))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_pixels=st.integers(1, 30),
        direction=st.sampled_from([-1.0, 1.0]),
    )
    def test_sub_ulp_offsets(self, seed, num_pixels, direction):
        """Endpoints one ulp away from a pixel center: the arithmetic bucket
        can round either way, but the one-step correction must restore exact
        searchsorted semantics."""
        r = np.random.default_rng(seed)
        xs = r.uniform(-100, 100) + np.arange(num_pixels) * r.uniform(0.25, 7.0)
        centers = xs[r.integers(0, num_pixels, 50)]
        lb = np.nextafter(centers, direction * np.inf)
        ub = np.nextafter(centers + r.uniform(0, 3, 50), -direction * np.inf)
        lb, ub = np.minimum(lb, ub), np.maximum(lb, ub)
        enter, leave = bucket_indices(xs, lb, ub)
        np.testing.assert_array_equal(enter, np.searchsorted(xs, lb, side="left"))
        np.testing.assert_array_equal(leave, np.searchsorted(xs, ub, side="right"))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        center=st.floats(-1e4, 1e4, allow_nan=False),
    )
    def test_one_pixel_row_property(self, seed, center):
        """Degenerate 1-pixel rows use the gx=1 fallback; semantics must not
        change."""
        r = np.random.default_rng(seed)
        xs = np.array([center])
        lb = center + r.uniform(-2, 2, 25)
        lb[0] = center  # force the exact-tie case every run
        ub = lb + r.uniform(0, 2, 25)
        enter, leave = bucket_indices(xs, lb, ub)
        np.testing.assert_array_equal(enter, np.searchsorted(xs, lb, side="left"))
        np.testing.assert_array_equal(leave, np.searchsorted(xs, ub, side="right"))


class TestEnginesAgree:
    @pytest.mark.parametrize("variant", ["sort", "bucket"])
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_python_equals_numpy(self, variant, kernel_name, small_xy, raster):
        table = slam_sort_grid if variant == "sort" else slam_bucket_grid
        kernel = get_kernel(kernel_name)
        a = table["python"](small_xy, raster, kernel, 11.0)
        b = table["numpy"](small_xy, raster, kernel, 11.0)
        # engines sum in different orders; only float round-off may differ
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)

    def test_sort_equals_bucket(self, small_xy, raster):
        kernel = get_kernel("epanechnikov")
        a = slam_sort_grid["numpy"](small_xy, raster, kernel, 11.0)
        b = slam_bucket_grid["numpy"](small_xy, raster, kernel, 11.0)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


class TestRAO:
    def test_orientation_choice(self, region):
        assert rao_orientation(Raster(region, 40, 20)) == "rows"
        assert rao_orientation(Raster(region, 20, 40)) == "columns"
        assert rao_orientation(Raster(region, 30, 30)) == "rows"  # X >= Y default

    @pytest.mark.parametrize("size", [(30, 12), (12, 30), (20, 20)])
    def test_rao_equals_base(self, size, small_xy, region):
        base = slam_bucket_grid["numpy"]
        rao = with_rao(base)
        raster = Raster(region, *size)
        kernel = get_kernel("epanechnikov")
        np.testing.assert_allclose(
            rao(small_xy, raster, kernel, 9.0),
            base(small_xy, raster, kernel, 9.0),
            rtol=1e-9,
            atol=1e-11,
        )

    def test_rao_matches_reference_tall_raster(self, small_xy, region):
        raster = Raster(region, 9, 41)
        expected = reference_grid(small_xy, raster, "quartic", 13.0)
        got = with_rao(slam_sort_grid["numpy"])(
            small_xy, raster, get_kernel("quartic"), 13.0
        )
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)

    def test_rao_result_contiguous(self, small_xy, region):
        raster = Raster(region, 5, 17)
        out = with_rao(slam_bucket_grid["numpy"])(
            small_xy, raster, get_kernel("epanechnikov"), 9.0
        )
        assert out.flags["C_CONTIGUOUS"]
        assert out.shape == raster.shape


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 60),
    b=st.floats(0.2, 40.0),
    width=st.integers(1, 16),
    height=st.integers(1, 16),
    kernel_name=st.sampled_from(KERNEL_NAMES),
)
def test_slam_exactness_property(seed, n, b, width, height, kernel_name):
    """Randomized cross-check: both SLAM variants equal direct evaluation for
    arbitrary datasets, bandwidths, kernels, and raster shapes."""
    r = np.random.default_rng(seed)
    xy = r.uniform((-5.0, -5.0), (25.0, 20.0), (n, 2))
    region = Region(0.0, 0.0, 20.0, 15.0)
    raster = Raster(region, width, height)
    kernel = get_kernel(kernel_name)
    expected = reference_grid(xy, raster, kernel_name, b)
    scale = max(expected.max(), 1.0)
    for table in (slam_sort_grid, slam_bucket_grid):
        got = table["numpy"](xy, raster, kernel, b)
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-9)
