"""Tests for the shared sweep driver internals (core.sweep)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Raster, Region
from repro.core.engines import ENGINES
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import RowSweep, make_grid_function, sweep_kdv

from .conftest import reference_grid

SORT_NUMPY = ENGINES["slam_sort.numpy"]
#: The per-row Algorithm 2 oracle the compiled engine is pinned to.
BUCKET_ROWS = RowSweep("slam_bucket_row_numpy", slam_bucket_row_numpy)


@pytest.fixture
def raster():
    return Raster(Region(0, 0, 100, 80), 21, 13)


class TestSweepKDV:
    def test_validation(self, small_xy, raster):
        kernel = get_kernel("epanechnikov")
        with pytest.raises(ValueError, match="bandwidth"):
            sweep_kdv(small_xy, raster, kernel, -1.0, SORT_NUMPY)
        with pytest.raises(ValueError, match="aggregate decomposition"):
            sweep_kdv(small_xy, raster, get_kernel("gaussian"), 5.0, SORT_NUMPY)
        with pytest.raises(ValueError, match="weights must have shape"):
            sweep_kdv(
                small_xy, raster, kernel, 5.0, SORT_NUMPY,
                weights=np.ones(3),
            )

    def test_prebuilt_ysorted_reused(self, small_xy, raster):
        """Passing a pre-built index gives identical results (the
        exploratory-session fast path)."""
        kernel = get_kernel("epanechnikov")
        index = YSortedIndex(small_xy)
        with_index = sweep_kdv(
            small_xy, raster, kernel, 9.0, BUCKET_ROWS, ysorted=index
        )
        without = sweep_kdv(small_xy, raster, kernel, 9.0, BUCKET_ROWS)
        np.testing.assert_allclose(with_index, without, rtol=1e-12)

    def test_row_engines_interchangeable(self, small_xy, raster):
        kernel = get_kernel("quartic")
        a = sweep_kdv(small_xy, raster, kernel, 9.0, SORT_NUMPY)
        b = sweep_kdv(small_xy, raster, kernel, 9.0, BUCKET_ROWS)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_make_grid_function_binds_engine(self, small_xy, raster):
        fn = make_grid_function(SORT_NUMPY)
        kernel = get_kernel("epanechnikov")
        got = fn(small_xy, raster, kernel, 9.0)
        expected = reference_grid(small_xy, raster, "epanechnikov", 9.0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)

    def test_grid_always_full_shape(self, raster):
        """Rows with empty envelopes still produce zero rows, not a ragged
        result."""
        xy = np.array([[50.0, 1.0]])  # only the bottom rows are touched
        kernel = get_kernel("epanechnikov")
        grid = sweep_kdv(xy, raster, kernel, 3.0, BUCKET_ROWS)
        assert grid.shape == raster.shape
        assert np.all(grid[-1] == 0.0)
        assert grid[0].max() > 0.0

    def test_extreme_coordinates_conditioning(self):
        """Raw UTM-scale coordinates (1e6 m) with the quartic kernel: the
        local-frame conditioning must keep the sweep accurate."""
        rng = np.random.default_rng(8)
        base = np.array([500_000.0, 4_000_000.0])
        xy = base + rng.uniform(0, 1000, (200, 2))
        region = Region(base[0], base[1], base[0] + 1000, base[1] + 1000)
        raster = Raster(region, 15, 11)
        kernel = get_kernel("quartic")
        got = sweep_kdv(xy, raster, kernel, 120.0, BUCKET_ROWS)
        expected = reference_grid(xy, raster, "quartic", 120.0)
        scale = max(expected.max(), 1.0)
        np.testing.assert_allclose(got / scale, expected / scale, atol=1e-9)


class TestEngineParity:
    """The python/numpy engine tables expose matching keys everywhere."""

    def test_slam_tables(self):
        from repro.core.engines import slam_bucket_grid, slam_sort_grid
        from repro.core.native import NATIVE_AVAILABLE

        # ``numpy_batch`` is an undocumented alias of the bucket ``numpy``
        # engine, the per-row oracle, and ``auto`` is the compiled engine
        # where it loaded, else ``numpy``.
        expected = {"auto", "python", "numpy", "numpy_batch"}
        if NATIVE_AVAILABLE:
            # The compiled engine registers conditionally (docs/native.md).
            expected.add("native")
        assert set(slam_sort_grid) == {"auto", "python", "numpy"}
        assert set(slam_bucket_grid) == expected
        assert slam_bucket_grid["numpy"] is slam_bucket_grid["numpy_batch"]
        assert ENGINES["slam_bucket.numpy"].row_fn is slam_bucket_row_numpy
        assert slam_sort_grid["auto"] is slam_sort_grid["numpy"]
        auto = "native" if NATIVE_AVAILABLE else "numpy"
        assert slam_bucket_grid["auto"] is slam_bucket_grid[auto]

    def test_unknown_engine_raises_valueerror_via_api(self, small_xy):
        from repro import compute_kdv

        with pytest.raises(ValueError, match="unknown engine 'cython'.*slam_sort"):
            compute_kdv(small_xy, size=(8, 8), bandwidth=5.0,
                        method="slam_sort", engine="cython")

    @pytest.mark.parametrize("method", ("slam_sort", "slam_sort_rao"))
    @pytest.mark.parametrize("engine", ("numpy_batch", "native"))
    def test_bucket_engines_rejected_under_slam_sort(
        self, method, engine, small_xy
    ):
        """The compiled engine and the alias bucket (Algorithm 2); asking
        for them under a sorting method is the standard unknown-engine
        error, not a silent switch of algorithm."""
        from repro import compute_kdv

        with pytest.raises(
            ValueError, match=f"unknown engine '{engine}' for method '{method}'"
        ):
            compute_kdv(small_xy, size=(8, 8), bandwidth=5.0,
                        method=method, engine=engine)
