"""Exactness of the distributed path: sharded render == serial render, bit
for bit (satellite of the repro.dist PR).

These tests use a worker-less :class:`~repro.dist.Coordinator` so every
shard runs the graceful-degradation local path — the *same* shard planning,
task building, per-shard sweep, and merge code the socket path executes,
minus the (separately tested) transport.  That keeps the hypothesis sweep
over shard counts, kernels, weights, and RAO orientations fast enough to be
a tier-1 test while still proving the decomposition itself loses nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compute_kdv
from repro.core.engines import ENGINES
from repro.dist import Coordinator

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")


@pytest.fixture(scope="module")
def xy() -> np.ndarray:
    rng = np.random.default_rng(77)
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (200, 2))


def _dist_equals_serial(xy, *, shards, weights=None, **kwargs):
    serial = compute_kdv(xy, weights=weights, **kwargs)
    coord = Coordinator(shards=shards)
    try:
        dist = compute_kdv(
            xy, weights=weights, backend="dist", coordinator=coord, **kwargs
        )
    finally:
        coord.close()
    assert np.array_equal(serial.grid, dist.grid)
    return dist


class TestDistEqualsSerial:
    @pytest.mark.parametrize("shards", (1, 2, 3, 7))
    @pytest.mark.parametrize("engine", ("python", "numpy", "auto"))
    def test_engines_and_shard_counts(self, xy, engine, shards):
        _dist_equals_serial(
            xy, shards=shards, size=(16, 12), bandwidth=9.0,
            method="slam_bucket", engine=engine,
        )

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_kernels(self, xy, kernel_name):
        _dist_equals_serial(
            xy, shards=3, size=(16, 12), kernel=kernel_name, bandwidth=9.0,
            method="slam_sort",
        )

    def test_weighted(self, xy):
        weights = np.linspace(0.5, 2.0, len(xy))
        _dist_equals_serial(
            xy, shards=4, weights=weights, size=(16, 12), bandwidth=9.0,
            method="slam_bucket",
        )

    def test_rao_column_sweep(self, xy):
        """RAO resolves orientation *before* the sweep, so the dist hook
        shards whichever axis RAO picked; a tall raster forces columns."""
        dist = _dist_equals_serial(
            xy, shards=3, size=(12, 20), bandwidth=9.0,
            method="slam_bucket_rao",
        )
        assert dist.stats.orientation == "columns"

    def test_stats_report_dist_backend(self, xy):
        dist = _dist_equals_serial(
            xy, shards=3, size=(16, 12), bandwidth=9.0, method="slam_bucket",
        )
        assert dist.stats.backend == "dist"
        assert dist.stats.blocks == 3

    def test_more_shards_than_rows_clamps(self, xy):
        _dist_equals_serial(
            xy, shards=64, size=(10, 5), bandwidth=9.0, method="slam_bucket",
        )

    @settings(max_examples=40, deadline=None)
    @given(
        shards=st.integers(1, 8),
        kernel_name=st.sampled_from(KERNEL_NAMES),
        weighted=st.booleans(),
        method=st.sampled_from(
            ("slam_sort", "slam_bucket", "slam_sort_rao", "slam_bucket_rao")
        ),
        tall=st.booleans(),
        n=st.integers(1, 150),
        seed=st.integers(0, 2**16),
    )
    def test_property_bit_identical(
        self, shards, kernel_name, weighted, method, tall, n, seed
    ):
        rng = np.random.default_rng(seed)
        xy = rng.uniform((0.0, 0.0), (100.0, 80.0), (n, 2))
        weights = rng.uniform(0.25, 4.0, n) if weighted else None
        size = (9, 14) if tall else (14, 9)  # tall flips RAO's orientation
        _dist_equals_serial(
            xy, shards=shards, weights=weights, size=size,
            kernel=kernel_name, bandwidth=11.0, method=method,
        )


@pytest.mark.parametrize(
    "engine_name",
    [n for n in ("slam_bucket.numpy", "slam_bucket.native") if n in ENGINES],
)
def test_shard_takes_its_halo_as_sorted(xy, engine_name, monkeypatch):
    """The halo a shard receives is a slice of the y-sorted points, so the
    worker builds its index without sorting: no ``_stable_argsort`` call,
    and the band equals the one a freshly sorted index of the halo gives."""
    from repro.core import envelope
    from repro.core.kernels import get_kernel
    from repro.dist import engine_spec
    from repro.dist.worker import compute_shard

    ysorted = envelope.YSortedIndex(xy)
    halo = ysorted.sorted_xy[20:170]
    y_centers = np.linspace(halo[0, 1], halo[-1, 1], 24)
    xs_scaled = np.linspace(-9.0, 9.0, 30)
    engine = ENGINES[engine_name]
    task = {
        "shard_id": 0, "row_start": 0, "row_stop": len(y_centers),
        "halo_xy": halo, "halo_weights": None, "y_centers": y_centers,
        "xs_scaled": xs_scaled, "cx": 50.0, "bandwidth": 9.0,
        "kernel": "quartic", "engine": engine_spec(engine), "collect": False,
    }
    sorts = []
    real = envelope._stable_argsort
    monkeypatch.setattr(
        envelope, "_stable_argsort", lambda v: sorts.append(len(v)) or real(v)
    )
    block, _ = compute_shard(task)
    assert sorts == []
    monkeypatch.undo()
    expected = engine.sweep_block(
        0, len(y_centers), y_centers, xs_scaled, envelope.YSortedIndex(halo),
        50.0, 9.0, get_kernel("quartic"),
    )
    assert block.tobytes() == expected.tobytes()
