"""Tests for the incremental streaming KDV engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Region, compute_kdv
from repro.extensions.streaming import StreamingKDV

REGION = Region(0.0, 0.0, 1000.0, 800.0)


@pytest.fixture
def engine() -> StreamingKDV:
    return StreamingKDV(REGION, size=(24, 18), bandwidth=80.0)


def fresh_grid(xy):
    return compute_kdv(
        xy, region=REGION, size=(24, 18), bandwidth=80.0, normalization="none"
    ).grid


class TestInsert:
    def test_empty_engine(self, engine):
        assert len(engine) == 0
        assert np.all(engine.grid == 0)

    def test_insert_matches_batch_compute(self, engine, rng):
        xy = rng.uniform((0, 0), (1000, 800), (300, 2))
        engine.insert(xy)
        np.testing.assert_allclose(engine.grid, fresh_grid(xy), rtol=1e-12)
        assert len(engine) == 300

    def test_incremental_equals_batch(self, engine, rng):
        batches = [rng.uniform((0, 0), (1000, 800), (100, 2)) for _ in range(5)]
        for batch in batches:
            engine.insert(batch)
        np.testing.assert_allclose(
            engine.grid, fresh_grid(np.vstack(batches)), rtol=1e-10, atol=1e-12
        )

    def test_empty_batch_noop(self, engine):
        engine.insert(np.empty((0, 2)))
        assert len(engine) == 0

    def test_bad_shapes(self, engine):
        with pytest.raises(ValueError):
            engine.insert(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            engine.insert(np.zeros((3, 2)), t=np.zeros(2))

    def test_points_roundtrip(self, engine, rng):
        a = rng.uniform((0, 0), (1000, 800), (40, 2))
        b = rng.uniform((0, 0), (1000, 800), (60, 2))
        engine.insert(a)
        engine.insert(b)
        np.testing.assert_array_equal(engine.points(), np.vstack([a, b]))


class TestDelete:
    def test_delete_oldest(self, engine, rng):
        a = rng.uniform((0, 0), (1000, 800), (100, 2))
        b = rng.uniform((0, 0), (1000, 800), (100, 2))
        engine.insert(a)
        engine.insert(b)
        removed = engine.delete_oldest()
        assert removed == 100
        assert len(engine) == 100
        np.testing.assert_allclose(engine.grid, fresh_grid(b), rtol=1e-9, atol=1e-10)

    def test_delete_everything(self, engine, rng):
        engine.insert(rng.uniform((0, 0), (1000, 800), (50, 2)))
        engine.delete_oldest(batches=10)
        assert len(engine) == 0
        assert np.abs(engine.grid).max() < 1e-9

    def test_expire_before(self, engine, rng):
        for hour in range(5):
            xy = rng.uniform((0, 0), (1000, 800), (50, 2))
            engine.insert(xy, t=np.full(50, float(hour)))
        removed = engine.expire_before(2.5)
        assert removed == 150  # hours 0, 1, 2 expired (max t < 2.5)
        assert len(engine) == 100

    def test_expire_without_timestamps_stops(self, engine, rng):
        engine.insert(rng.uniform((0, 0), (1000, 800), (50, 2)))  # no t
        assert engine.expire_before(1e9) == 0

    def test_expire_splits_straddling_batch(self, engine, rng):
        """Expiry is per event: a batch straddling the cutoff loses exactly
        its old events, and the grid matches a fresh compute of what stays."""
        xy = rng.uniform((0, 0), (1000, 800), (10, 2))
        engine.insert(xy, t=np.arange(10.0))
        assert engine.expire_before(6.0) == 6
        assert len(engine) == 4
        np.testing.assert_array_equal(engine.points(), xy[6:])
        np.testing.assert_allclose(
            engine.grid, fresh_grid(xy[6:]), rtol=1e-9, atol=1e-10
        )

    def test_expire_scans_past_untimestamped_batches(self, engine, rng):
        """An untimestamped batch mid-feed must not shield older timestamped
        batches behind it, and the returned count stays honest."""
        old = rng.uniform((0, 0), (1000, 800), (30, 2))
        untimed = rng.uniform((0, 0), (1000, 800), (20, 2))
        older = rng.uniform((0, 0), (1000, 800), (40, 2))
        engine.insert(old, t=np.full(30, 1.0))
        engine.insert(untimed)  # no timestamps: never expires
        engine.insert(older, t=np.full(40, 2.0))
        assert engine.expire_before(10.0) == 70
        assert len(engine) == 20
        np.testing.assert_array_equal(engine.points(), untimed)

    def test_expire_collect_returns_expired_batches(self, engine, rng):
        a = rng.uniform((0, 0), (1000, 800), (5, 2))
        b = rng.uniform((0, 0), (1000, 800), (7, 2))
        engine.insert(a, t=np.full(5, 0.0))
        engine.insert(b, t=np.full(7, 1.0))
        removed, batches = engine.expire_before(0.5, collect=True)
        assert removed == 5
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], a)

    def test_require_timestamps_rejects_bare_inserts(self, rng):
        engine = StreamingKDV(REGION, size=(8, 6), bandwidth=80.0,
                              require_timestamps=True)
        with pytest.raises(ValueError, match="timestamps"):
            engine.insert(rng.uniform((0, 0), (1000, 800), (5, 2)))
        xy = rng.uniform((0, 0), (1000, 800), (5, 2))
        engine.insert(xy, t=np.arange(5.0))  # timestamped inserts still work
        assert len(engine) == 5

    def test_batches_and_latest_time(self, engine, rng):
        assert engine.latest_time is None
        a = rng.uniform((0, 0), (1000, 800), (4, 2))
        engine.insert(a, t=np.array([3.0, 9.0, 1.0, 2.0]))
        engine.insert(rng.uniform((0, 0), (1000, 800), (2, 2)), t=np.full(2, 5.0))
        assert engine.latest_time == 9.0  # the watermark never regresses
        batches = engine.batches()
        assert len(batches) == 2
        np.testing.assert_array_equal(batches[0][0], a)

    def test_sliding_window_matches_batch(self, engine, rng):
        """After a window slide the grid equals computing the window fresh."""
        kept = []
        for hour in range(8):
            xy = rng.uniform((0, 0), (1000, 800), (40, 2))
            engine.insert(xy, t=np.full(40, float(hour)))
            if hour >= 4:
                kept.append(xy)
        engine.expire_before(4.0)
        np.testing.assert_allclose(
            engine.grid, fresh_grid(np.vstack(kept)), rtol=1e-9, atol=1e-10
        )


class TestDriftAndRebuild:
    def test_drift_small_after_churn(self, rng):
        engine = StreamingKDV(REGION, size=(16, 12), bandwidth=80.0,
                              rebuild_every=None)
        for _ in range(30):
            engine.insert(rng.uniform((0, 0), (1000, 800), (30, 2)))
            engine.delete_oldest()
        # float cancellation exists but stays at epsilon scale
        assert engine.drift() < 1e-8

    def test_rebuild_resets_drift(self, rng):
        engine = StreamingKDV(REGION, size=(16, 12), bandwidth=80.0,
                              rebuild_every=None)
        engine.insert(rng.uniform((0, 0), (1000, 800), (100, 2)))
        engine.delete_oldest()
        engine.insert(rng.uniform((0, 0), (1000, 800), (100, 2)))
        engine.rebuild()
        assert engine.drift() == 0.0

    def test_rebuild_reports_the_drift_it_erased(self, rng):
        engine = StreamingKDV(REGION, size=(16, 12), bandwidth=80.0,
                              rebuild_every=None)
        for _ in range(10):
            engine.insert(rng.uniform((0, 0), (1000, 800), (20, 2)))
            engine.delete_oldest()
        engine.insert(rng.uniform((0, 0), (1000, 800), (20, 2)))
        carried = engine.drift()
        erased = engine.rebuild()
        assert erased == carried  # same deterministic recomputation
        assert engine.rebuilds == 1
        assert engine.last_rebuild_drift == erased
        assert engine.drift() == 0.0

    def test_auto_rebuild_counter(self, rng):
        engine = StreamingKDV(REGION, size=(8, 6), bandwidth=80.0, rebuild_every=3)
        for _ in range(4):
            engine.insert(rng.uniform((0, 0), (1000, 800), (10, 2)))
        for _ in range(3):
            engine.delete_oldest()
        assert engine._deletes_since_rebuild == 0  # rebuild fired


class TestAPI:
    def test_density_normalizations(self, engine, rng):
        xy = rng.uniform((0, 0), (1000, 800), (200, 2))
        engine.insert(xy)
        np.testing.assert_allclose(
            engine.density("count") * 200, engine.density("none"), rtol=1e-12
        )
        with pytest.raises(ValueError):
            engine.density("softmax")

    def test_requires_exact_method(self):
        with pytest.raises(ValueError, match="exact method"):
            StreamingKDV(REGION, method="zorder")

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingKDV(REGION, bandwidth=0.0)
        with pytest.raises(ValueError):
            StreamingKDV(REGION, rebuild_every=0)

    def test_insert_cost_independent_of_history(self, rng):
        """The real-time claim: tick cost ~ batch size, not history size.

        Compared against rebuilding the same engine from its full history
        (the same raster and method), with a loose factor for timer noise.
        Each side is the best of three runs (three fresh 100-point batches,
        three rebuilds), so one scheduler stall cannot decide the result.
        """
        import time

        engine = StreamingKDV(REGION, size=(160, 120), bandwidth=30.0)
        engine.insert(rng.uniform((0, 0), (1000, 800), (200_000, 2)))

        def timed(fn, *args) -> float:
            start = time.perf_counter()
            fn(*args)
            return time.perf_counter() - start

        tick_time = min(
            timed(engine.insert, rng.uniform((0, 0), (1000, 800), (100, 2)))
            for _ in range(3)
        )
        full_time = min(timed(engine.rebuild) for _ in range(3))
        assert tick_time < full_time / 3


class TestAffectedTiles:
    def test_delegates_to_serve_invalidate(self, engine, rng):
        from repro.serve import affected_tiles
        from repro.viz.tiles import TileScheme

        engine.insert(rng.uniform((0, 0), (1000, 800), (50, 2)))
        scheme = TileScheme.for_points(engine.points())
        batch = np.array([[120.0, 340.0], [150.0, 360.0]])
        keys = engine.affected_tiles(scheme, 2, batch)
        assert keys == affected_tiles(scheme, 2, batch, engine.bandwidth)
        assert keys  # an in-world batch touches at least one tile
        for key in keys:
            assert key[0] == 2

    def test_empty_batch_affects_nothing(self, engine):
        from repro.viz.tiles import TileScheme

        engine.insert(np.array([[1.0, 1.0], [999.0, 799.0]]))
        scheme = TileScheme.for_points(engine.points())
        assert engine.affected_tiles(scheme, 1, np.empty((0, 2))) == set()
