"""Tests for progressive rendering and multi-bandwidth batches."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Region, compute_kdv, load_dataset, scott_bandwidth
from repro.extensions.multiband import compute_multiband
from repro.extensions.progressive import progressive_kdv, upsample_preview


@pytest.fixture(scope="module")
def city():
    return load_dataset("seattle", scale=0.001)


class TestProgressive:
    def test_level_sizes_double(self, city):
        levels = list(progressive_kdv(city, size=(64, 48), levels=4, bandwidth=800.0))
        assert [lvl.shape for lvl in levels] == [
            (6, 8),
            (12, 16),
            (24, 32),
            (48, 64),
        ]

    def test_levels_share_one_sort(self, city, sorts):
        from repro import PointSet

        ps = PointSet(city.xy)
        list(progressive_kdv(ps, size=(64, 48), levels=4, bandwidth=800.0))
        list(progressive_kdv(ps, size=(64, 48), levels=2, bandwidth=400.0))
        assert sorts == [len(ps)]

    def test_final_level_is_exact_full_resolution(self, city):
        levels = list(progressive_kdv(city, size=(32, 24), levels=3, bandwidth=800.0))
        direct = compute_kdv(city, size=(32, 24), bandwidth=800.0)
        np.testing.assert_allclose(levels[-1].grid, direct.grid, rtol=1e-12)

    def test_every_level_exact_at_its_resolution(self, city):
        for lvl in progressive_kdv(city, size=(32, 24), levels=3, bandwidth=800.0):
            direct = compute_kdv(
                city,
                region=lvl.raster.region,
                size=(lvl.raster.width, lvl.raster.height),
                bandwidth=800.0,
            )
            np.testing.assert_allclose(lvl.grid, direct.grid, rtol=1e-12)

    def test_scott_resolved_once(self, city):
        levels = list(progressive_kdv(city, size=(16, 12), levels=2))
        assert levels[0].bandwidth == levels[1].bandwidth
        assert levels[0].bandwidth == pytest.approx(scott_bandwidth(city.xy))

    def test_single_level(self, city):
        levels = list(progressive_kdv(city, size=(16, 12), levels=1, bandwidth=800.0))
        assert len(levels) == 1
        assert levels[0].shape == (12, 16)

    def test_tiny_size_clamped(self, city):
        levels = list(progressive_kdv(city, size=(2, 2), levels=4, bandwidth=800.0))
        assert all(lvl.raster.width >= 1 and lvl.raster.height >= 1 for lvl in levels)

    def test_validation(self, city):
        with pytest.raises(ValueError):
            list(progressive_kdv(city, size=(8, 8), levels=0))
        with pytest.raises(ValueError):
            list(progressive_kdv(city, size=(0, 8), levels=1))

    def test_upsample_preview(self, city):
        lvl = next(iter(progressive_kdv(city, size=(32, 24), levels=3, bandwidth=800.0)))
        up = upsample_preview(lvl, (32, 24))
        assert up.shape == (24, 32)
        # nearest-neighbor: every upsampled value exists in the source grid
        assert set(np.unique(up)) <= set(np.unique(lvl.grid))

    def test_upsample_validation(self, city):
        lvl = next(iter(progressive_kdv(city, size=(8, 8), levels=1, bandwidth=800.0)))
        with pytest.raises(ValueError):
            upsample_preview(lvl, (0, 4))


class TestMultiband:
    BANDS = [300.0, 900.0, 2700.0]

    def test_matches_individual_computes(self, city):
        results = compute_multiband(city, self.BANDS, size=(24, 18))
        for res in results:
            direct = compute_kdv(city, size=(24, 18), bandwidth=res.bandwidth)
            np.testing.assert_allclose(res.grid, direct.grid, rtol=1e-10)

    def test_order_preserved(self, city):
        results = compute_multiband(city, self.BANDS, size=(16, 12))
        assert [r.bandwidth for r in results] == self.BANDS

    def test_portrait_raster_uses_rao(self, city):
        """A tall raster exercises the transposed shared-index path."""
        results = compute_multiband(city, self.BANDS, size=(12, 40))
        for res in results:
            direct = compute_kdv(city, size=(12, 40), bandwidth=res.bandwidth)
            np.testing.assert_allclose(res.grid, direct.grid, rtol=1e-9, atol=1e-12)
            assert res.grid.shape == (40, 12)

    def test_repeat_batch_on_a_pointset_sorts_nothing(self, city, sorts):
        """The batch shares the PointSet's index with compute_kdv: after the
        first batch sorts (the column key, for this tall raster), neither a
        second batch nor a compute_kdv call sorts again."""
        from repro import PointSet

        ps = PointSet(city.xy)
        first = compute_multiband(ps, self.BANDS, size=(12, 40))
        assert sorts == [len(ps)]
        second = compute_multiband(ps, self.BANDS, size=(12, 40))
        direct = compute_kdv(ps, size=(12, 40), bandwidth=self.BANDS[0])
        assert sorts == [len(ps)]
        for a, b in zip(first, second):
            assert np.array_equal(a.grid, b.grid)
        raw = compute_multiband(city.xy, self.BANDS[:1], size=(12, 40))
        assert np.array_equal(raw[0].grid, first[0].grid)
        np.testing.assert_allclose(first[0].grid, direct.grid, rtol=1e-9, atol=1e-12)

    def test_rao_disabled(self, city):
        results = compute_multiband(city, [900.0], size=(12, 40), rao=False)
        direct = compute_kdv(
            city, size=(12, 40), bandwidth=900.0, method="slam_bucket"
        )
        np.testing.assert_allclose(results[0].grid, direct.grid, rtol=1e-10)

    def test_sort_variant(self, city):
        results = compute_multiband(city, [900.0], size=(16, 12), variant="slam_sort")
        direct = compute_kdv(city, size=(16, 12), bandwidth=900.0, method="slam_sort")
        np.testing.assert_allclose(results[0].grid, direct.grid, rtol=1e-10)

    def test_weighted_pointset(self, rng):
        from repro import PointSet

        xy = rng.uniform((0, 0), (100, 80), (200, 2))
        w = rng.uniform(0, 2, 200)
        ps = PointSet(xy, w=w)
        results = compute_multiband(ps, [10.0, 20.0], size=(16, 12))
        for res in results:
            direct = compute_kdv(
                xy, region=Region.from_points(xy), size=(16, 12),
                bandwidth=res.bandwidth, weights=w,
            )
            np.testing.assert_allclose(res.grid, direct.grid, rtol=1e-10)

    def test_normalization_none(self, city):
        raw = compute_multiband(city, [900.0], size=(8, 6), normalization="none")[0]
        counted = compute_multiband(city, [900.0], size=(8, 6))[0]
        np.testing.assert_allclose(counted.grid * len(city), raw.grid, rtol=1e-12)

    def test_validation(self, city):
        with pytest.raises(ValueError, match="unknown variant"):
            compute_multiband(city, [900.0], variant="fft")
        with pytest.raises(ValueError, match="at least one"):
            compute_multiband(city, [])
        with pytest.raises(ValueError, match="positive"):
            compute_multiband(city, [0.0])
        with pytest.raises(ValueError, match="normalization"):
            compute_multiband(city, [900.0], normalization="density")

    def test_shared_index_faster_than_separate(self, rng):
        """The point of multiband: shared preprocessing beats re-sorting.
        Compared loosely (2x margin) to stay robust on noisy CI timers."""
        import time

        xy = rng.uniform((0, 0), (1000, 800), (200_000, 2))
        bands = [5.0, 10.0, 20.0, 40.0]
        t0 = time.perf_counter()
        compute_multiband(xy, bands, size=(64, 48))
        shared = time.perf_counter() - t0
        t0 = time.perf_counter()
        for b in bands:
            compute_kdv(xy, size=(64, 48), bandwidth=b, method="slam_bucket")
        separate = time.perf_counter() - t0
        assert shared < separate * 1.5
