"""Tests for the parallel row-block executor (core.parallel + sweep_kdv).

The contract under test: any ``workers``/``backend`` combination returns a
grid *bit-identical* (``np.array_equal``, not allclose) to the serial sweep,
because each row is computed by the same code in the same floating-point
order regardless of blocking.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PARALLEL_METHODS, Raster, Region, compute_kdv
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.parallel import (
    BACKENDS,
    BLOCKS_PER_WORKER,
    partition_rows,
    resolve_workers,
    validate_backend,
)
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import RowSweep, sweep_kdv

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")
ENGINES = ("python", "numpy")
BUCKET_ROWS = RowSweep("slam_bucket_row_numpy", slam_bucket_row_numpy)


@pytest.fixture(scope="module")
def xy() -> np.ndarray:
    rng = np.random.default_rng(77)
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (200, 2))


class TestResolveWorkers:
    def test_serial_values(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_auto_is_positive(self):
        assert resolve_workers("auto") >= 1

    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert resolve_workers("auto") == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers("auto") == 8

    def test_int_passthrough(self):
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3

    @pytest.mark.parametrize("bad", [0, -2, "many", 1.5, object()])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad)


class TestValidateBackend:
    def test_known_backends(self):
        for backend in BACKENDS:
            validate_backend(backend)

    def test_unknown_rejected(self):
        # "thread" is a deleted backend: it lost to the process pool at the
        # paper cells and to serial at small rasters.
        for backend in ("mpi", "thread"):
            with pytest.raises(ValueError, match="available: dist, process"):
                validate_backend(backend)


class TestPartitionRows:
    def test_empty(self):
        assert partition_rows(0, 4) == []

    def test_single_block(self):
        assert partition_rows(10, 1) == [(0, 10)]

    def test_more_blocks_than_rows(self):
        blocks = partition_rows(3, 8)
        assert blocks == [(0, 1), (1, 2), (2, 3)]

    def test_invalid(self):
        with pytest.raises(ValueError, match="num_rows"):
            partition_rows(-1, 4)
        with pytest.raises(ValueError, match="num_blocks"):
            partition_rows(10, 0)

    @settings(max_examples=200, deadline=None)
    @given(num_rows=st.integers(0, 5000), num_blocks=st.integers(1, 64))
    def test_exact_contiguous_cover(self, num_rows, num_blocks):
        blocks = partition_rows(num_rows, num_blocks)
        # contiguous, in order, covering [0, num_rows) exactly once
        cursor = 0
        for start, stop in blocks:
            assert start == cursor
            assert stop > start
            cursor = stop
        assert cursor == num_rows
        if num_rows:
            assert len(blocks) == min(num_blocks, num_rows)
            sizes = [stop - start for start, stop in blocks]
            assert max(sizes) - min(sizes) <= 1  # near-equal split


class TestSweepRowsBlocks:
    def test_blocks_reassemble_full_sweep(self, xy):
        """sweep_block over any partition concatenates to the full grid."""
        raster = Raster(Region(0, 0, 100, 80), 21, 17)
        kernel = get_kernel("epanechnikov")
        ysorted = YSortedIndex(xy)
        cx = (raster.region.xmin + raster.region.xmax) / 2.0
        xs_scaled = (raster.x_centers() - cx) / 9.0
        args = (raster.y_centers(), xs_scaled, ysorted, cx, 9.0, kernel)
        full = BUCKET_ROWS.sweep_block(0, raster.height, *args)
        for num_blocks in (2, 3, 17):
            parts = [
                BUCKET_ROWS.sweep_block(start, stop, *args)
                for start, stop in partition_rows(raster.height, num_blocks)
            ]
            assert np.array_equal(np.concatenate(parts), full)


class TestParallelEquality:
    """workers > 1 must be bit-for-bit identical to the serial path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    def test_bit_identical(self, method, kernel_name, engine, backend, xy):
        kwargs = dict(
            size=(16, 12), kernel=kernel_name, bandwidth=9.0,
            method=method, engine=engine,
        )
        serial = compute_kdv(xy, **kwargs)
        parallel = compute_kdv(xy, workers=2, backend=backend, **kwargs)
        assert np.array_equal(serial.grid, parallel.grid)
        assert parallel.stats is not None
        assert parallel.stats.workers == 2

    def test_tall_raster_rao_columns(self, xy):
        """RAO picks the column sweep; parallel blocks must survive the
        transpose round-trip bit-for-bit."""
        kwargs = dict(size=(12, 20), bandwidth=9.0, method="slam_bucket_rao")
        serial = compute_kdv(xy, **kwargs)
        parallel = compute_kdv(xy, workers=3, **kwargs)
        assert np.array_equal(serial.grid, parallel.grid)
        assert parallel.stats.orientation == "columns"
        assert parallel.stats.rows == 12  # RAO sweeps the shorter axis

    def test_weighted_sweep_parallel(self, xy):
        weights = np.linspace(0.5, 2.0, len(xy))
        kwargs = dict(size=(16, 12), bandwidth=9.0, method="slam_bucket",
                      weights=weights)
        serial = compute_kdv(xy, **kwargs)
        parallel = compute_kdv(xy, workers=2, backend="process", **kwargs)
        assert np.array_equal(serial.grid, parallel.grid)

    def test_workers_auto(self, xy):
        result = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket", workers="auto")
        serial = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket")
        assert np.array_equal(result.grid, serial.grid)
        assert result.stats.workers >= 1

    def test_sweep_kdv_direct_parallel(self, xy):
        raster = Raster(Region(0, 0, 100, 80), 19, 13)
        kernel = get_kernel("quartic")
        serial = sweep_kdv(xy, raster, kernel, 9.0, BUCKET_ROWS)
        pooled = sweep_kdv(xy, raster, kernel, 9.0, BUCKET_ROWS,
                           workers=2, backend="process")
        assert np.array_equal(serial, pooled)

    def test_bad_workers_via_api(self, xy):
        with pytest.raises(ValueError, match="workers"):
            compute_kdv(xy, size=(8, 8), bandwidth=5.0, workers=0)
        with pytest.raises(ValueError, match="workers"):
            compute_kdv(xy, size=(8, 8), bandwidth=5.0, workers="fast")

    def test_bad_backend_via_api(self, xy):
        with pytest.raises(ValueError, match="backend"):
            compute_kdv(xy, size=(8, 8), bandwidth=5.0,
                        method="slam_bucket", workers=2, backend="mpi")

    def test_baselines_ignore_workers(self, xy):
        """Non-SLAM methods accept the workers parameter (validated, then
        ignored) so callers can sweep methods uniformly."""
        result = compute_kdv(xy, size=(8, 8), bandwidth=9.0,
                             method="scan", workers=4)
        assert result.stats is None


class TestStats:
    def test_serial_stats(self, xy):
        result = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket")
        s = result.stats
        assert s is not None
        assert s.backend == "serial"
        assert s.workers == 1
        assert s.blocks == 1
        assert s.rows == 12
        assert s.orientation == "rows"
        assert s.elapsed_seconds > 0
        assert s.rows_per_sec > 0

    def test_row_engine_default_starts_no_pool(self, xy, monkeypatch):
        """Unset ``workers`` sizes a team only for the native engine; the
        row engines sweep serially in this process."""
        import repro.core.parallel as parallel_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", refuse)
        result = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket_rao", engine="numpy")
        assert (result.stats.backend, result.stats.workers) == ("serial", 1)

    def test_parallel_block_count(self, xy):
        # engine="numpy": the default engine runs OpenMP threads instead of
        # the process pool where the native extension loaded
        result = compute_kdv(xy, size=(16, 12), bandwidth=9.0,
                             method="slam_bucket", engine="numpy", workers=2,
                             backend="process")
        s = result.stats
        assert s.backend == "process"
        assert 1 < s.blocks <= 2 * BLOCKS_PER_WORKER
        assert s.blocks <= s.rows

    def test_non_rao_orientation_is_rows(self, xy):
        # even on a tall raster, the non-RAO methods sweep rows
        result = compute_kdv(xy, size=(12, 20), bandwidth=9.0,
                             method="slam_sort", workers=2)
        assert result.stats.orientation == "rows"
        assert result.stats.rows == 20


class TestPicklability:
    """The sweep context must cross a process boundary: regions, rasters,
    the y-sorted index, and kernel singletons all pickle round-trip."""

    def test_region_raster_roundtrip(self):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 37, 23)
        clone = pickle.loads(pickle.dumps(raster))
        assert clone == raster
        assert np.array_equal(clone.x_centers(), raster.x_centers())

    def test_ysorted_index_roundtrip(self, xy):
        index = YSortedIndex(xy)
        clone = pickle.loads(pickle.dumps(index))
        assert np.array_equal(clone.sorted_xy, index.sorted_xy)
        assert np.array_equal(clone.order, index.order)

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_kernel_roundtrip(self, kernel_name):
        kernel = get_kernel(kernel_name)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.name == kernel.name
        assert clone.num_channels == kernel.num_channels
