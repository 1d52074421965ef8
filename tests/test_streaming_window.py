"""Soundness of sliding-window serving: O(Δ) ticks must be invisible.

The windowed path earns its speedup by *never* recomputing: ticks apply
signed grid updates and drop only provably-affected tiles.  These tests pin
the three claims that make that safe:

* after **any** interleaving of inserts and expiries, the maintained grid
  matches a fresh recompute of the live points to <= 1e-9 (hypothesis
  drives the interleavings);
* a rebuild reports and resets the accumulated drift;
* a tick leaves every tile outside the expired batches' inflated MBRs
  byte-identical and cached, while windowed tiles always equal a
  from-scratch render of exactly the live window.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Region
from repro.data.points import PointSet
from repro.extensions.streaming import StreamingKDV
from repro.obs import Recorder
from repro.serve import TileService, WindowError
from repro.viz.tiles import TileScheme, render_tile

REGION = Region(0.0, 0.0, 1000.0, 1000.0)
TILE = 8
BANDWIDTH = 60.0


def make_engine(**kwargs) -> StreamingKDV:
    kwargs.setdefault("size", (16, 12))
    kwargs.setdefault("bandwidth", 80.0)
    kwargs.setdefault("rebuild_every", None)
    kwargs.setdefault("require_timestamps", True)
    return StreamingKDV(Region(0.0, 0.0, 1000.0, 800.0), **kwargs)


def make_service(points, **kwargs):
    kwargs.setdefault("tile_size", TILE)
    kwargs.setdefault("bandwidth", BANDWIDTH)
    kwargs.setdefault("max_zoom", 3)
    kwargs.setdefault("recorder", Recorder())
    kwargs.setdefault("scheme", TileScheme(REGION))
    return TileService(points, **kwargs)


def timestamped_seed(n=200, seed=7, t0=0.0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform((0.0, 0.0), (1000.0, 1000.0), (n, 2))
    return PointSet(xy, t=t0 + np.arange(n, dtype=np.float64))


def fresh_render(points, scheme, zoom, tx, ty):
    return render_tile(
        points, scheme, zoom, tx, ty, tile_size=TILE, bandwidth=BANDWIDTH
    )


# -- engine soundness under arbitrary op sequences -------------------------

op = st.one_of(
    st.tuples(st.just("insert"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("expire"), st.floats(min_value=0.0, max_value=1.2)),
)


class TestOpSequenceSoundness:
    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(op, min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
    def test_grid_matches_fresh_recompute(self, ops, seed):
        """Whatever the insert/expire interleaving, the maintained grid stays
        within 1e-9 of recomputing the live points from scratch, and the
        point count stays honest against a plain-python mirror."""
        rng = np.random.default_rng(seed)
        engine = make_engine()
        mirror: list[tuple[np.ndarray, np.ndarray]] = []
        next_t = 0.0
        for kind, arg in ops:
            if kind == "insert":
                xy = rng.uniform((0.0, 0.0), (1000.0, 800.0), (arg, 2))
                t = next_t + np.arange(arg, dtype=np.float64)
                next_t += arg
                engine.insert(xy, t)
                if arg:
                    mirror.append((xy, t))
            else:
                cutoff = arg * next_t
                removed = engine.expire_before(cutoff)
                kept = []
                dropped = 0
                for xy, t in mirror:
                    keep = t >= cutoff
                    dropped += int((~keep).sum())
                    if keep.any():
                        kept.append((xy[keep], t[keep]))
                mirror = kept
                assert removed == dropped
            assert len(engine) == sum(len(xy) for xy, _t in mirror)
        live = (
            np.concatenate([xy for xy, _t in mirror])
            if mirror
            else np.empty((0, 2))
        )
        np.testing.assert_array_equal(engine.points(), live)
        assert engine.drift() <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(rounds=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**16))
    def test_rebuild_always_resets_drift(self, rounds, seed):
        rng = np.random.default_rng(seed)
        engine = make_engine()
        next_t = 0.0
        for _ in range(rounds):
            xy = rng.uniform((0.0, 0.0), (1000.0, 800.0), (25, 2))
            engine.insert(xy, next_t + np.arange(25.0))
            next_t += 25.0
            engine.expire_before(next_t - 25.0)
        carried = engine.drift()
        erased = engine.rebuild()
        assert erased == carried
        assert engine.drift() == 0.0


# -- windowed tiles vs from-scratch renders --------------------------------

class TestWindowedTiles:
    def test_windowed_tile_bit_identical_to_fresh_window_render(self):
        """A windowed tile equals a from-scratch render of exactly the live
        window, bit for bit — before and after an ingest + tick slide."""
        seed = timestamped_seed(300)
        service = make_service(seed, window_s=100.0)
        with service:
            cutoff = float(seed.t.max()) - 100.0
            live = seed.xy[seed.t >= cutoff]
            for zoom, tx, ty in [(0, 0, 0), (1, 1, 0), (2, 2, 3)]:
                got = service.get_tile(zoom, tx, ty, window=100.0)
                want = fresh_render(live, service.scheme, zoom, tx, ty)
                assert got.tobytes() == want.tobytes()

            rng = np.random.default_rng(11)
            xy = rng.uniform((0.0, 0.0), (1000.0, 1000.0), (50, 2))
            t = 400.0 + np.arange(50.0)
            service.ingest(xy, t)
            summary = service.tick()
            assert summary["expired"] > 0
            now = float(t.max())
            feed_xy = np.vstack([seed.xy, xy])
            feed_t = np.concatenate([seed.t, t])
            live = feed_xy[feed_t >= now - 100.0]
            for zoom, tx, ty in [(0, 0, 0), (2, 2, 3)]:
                got = service.get_tile(zoom, tx, ty, window=100.0)
                want = fresh_render(live, service.scheme, zoom, tx, ty)
                assert got.tobytes() == want.tobytes()

    def test_lazy_window_equals_eager_window(self):
        seed = timestamped_seed(250)
        eager = make_service(seed, window_s=80.0)
        lazy = make_service(seed)
        with eager, lazy:
            assert lazy.windows == []
            for zoom, tx, ty in [(0, 0, 0), (1, 0, 1)]:
                a = eager.get_tile(zoom, tx, ty, window=80.0)
                b = lazy.get_tile(zoom, tx, ty, window="80")
                assert a.tobytes() == b.tobytes()
            assert lazy.windows == [80.0]

    def test_tick_keeps_unaffected_tiles_cached_byte_identical(self):
        """Expiring a spatially-clustered batch invalidates only the tiles
        its inflated MBR touches; every other windowed tile survives in
        cache, byte-identical."""
        rng = np.random.default_rng(3)
        # old events clustered in the bottom-left corner, young ones far away
        old = rng.uniform((10.0, 10.0), (60.0, 60.0), (80, 2))
        young = rng.uniform((600.0, 600.0), (990.0, 990.0), (120, 2))
        xy = np.vstack([old, young])
        t = np.concatenate([np.full(80, 0.0), np.full(120, 500.0)])
        service = make_service(PointSet(xy, t=t), window_s=500.0, max_zoom=2)
        with service:
            zoom = 2
            before = {
                (tx, ty): service.get_tile(zoom, tx, ty, window=500.0)
                for tx in range(4)
                for ty in range(4)
            }
            hits0 = service._cache.hits
            summary = service.tick(now=600.0)  # cutoff 100: expires the corner
            assert summary["expired"] == 80
            assert 0 < summary["invalidated"] < 16
            live = young  # the corner is gone
            for (tx, ty), cached in before.items():
                got = service.get_tile(zoom, tx, ty, window=500.0)
                want = fresh_render(live, service.scheme, zoom, tx, ty)
                assert got.tobytes() == want.tobytes()
                if (tx, ty) not in self._corner_tiles():
                    # untouched by the expiry: served from cache, unchanged
                    assert got.tobytes() == cached.tobytes()
            assert service._cache.hits > hits0  # some tiles never re-rendered

    def test_snapshots_are_built_on_read(self, monkeypatch):
        """An ingest or tick copies no view's history.  A view's snapshot is
        concatenated on the first read of a generation, once for all the
        changes since the last read, and a view nobody reads never builds
        one."""
        rng = np.random.default_rng(17)
        window = 25_000_000.0  # a fifth of the seed's four years
        span = 5 * window
        n = 2_000
        seed = PointSet(
            rng.uniform((0.0, 0.0), (1000.0, 1000.0), (n, 2)),
            t=np.sort(rng.uniform(0.0, span, n)),
        )
        service = make_service(seed, window_s=window)
        calls = []
        real = StreamingKDV.points

        def spy(stream):
            calls.append(stream)
            return real(stream)

        monkeypatch.setattr(StreamingKDV, "points", spy)
        feed_xy, feed_t = [seed.xy], [seed.t]
        with service:
            step = window / 400  # the watermark's advance per batch
            for i in range(20):
                xy = rng.uniform((0.0, 0.0), (1000.0, 1000.0), (50, 2))
                t = span + i * step + np.linspace(0.0, step, 50)
                service.ingest(xy, t)
                feed_xy.append(xy)
                feed_t.append(t)
                if i % 4 == 3:
                    assert service.tick()["expired"] > 0
            assert calls == []

            service.tile_image(1, 0, 1, window=window)
            assert calls == [service._views[window].stream]
            service.tile_image(1, 1, 0, window=window)
            assert len(calls) == 1

            xy, t = np.vstack(feed_xy), np.concatenate(feed_t)
            live = xy[t >= t.max() - window]
            got = service.get_tile(1, 0, 1, window=window)  # the cached grid
            want = fresh_render(live, service.scheme, 1, 0, 1)
            assert np.array_equal(got, want)
        assert len(calls) == 1

    def test_concurrent_reads_see_their_generation(self):
        """Window reads race ingests and ticks on a short switch interval.
        Each read builds or reuses the snapshot under the service lock, so
        none fails, and once the writers stop the snapshot is the live
        window's: a snapshot built from a generation an ingest has already
        ended, and kept, would show in the last render."""
        import sys
        import threading

        window = 100.0
        seed = timestamped_seed(300)
        service = make_service(seed, window_s=window)
        rng = np.random.default_rng(23)
        batches = [
            (rng.uniform((0.0, 0.0), (1000.0, 1000.0), (20, 2)),
             300.0 + 5.0 * i + np.arange(20) / 4)
            for i in range(60)
        ]
        errors = []

        def run(job):
            try:
                job()
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def ingest():
            for xy, t in batches:
                service.ingest(xy, t)

        def tick():
            for _ in range(60):
                service.tick()

        def read(tx):
            for i in range(30):
                service.get_tile(1, tx, i % 2, window=window)

        jobs = [ingest, tick, *(lambda tx=tx: read(tx) for tx in (0, 1, 0, 1))]
        threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with service:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                service.tick()
                xy = np.vstack([seed.xy, *(b[0] for b in batches)])
                t = np.concatenate([seed.t, *(b[1] for b in batches)])
                live = xy[t >= t.max() - window]
                got = service.get_tile(2, 3, 3, window=window)  # never read
                want = fresh_render(live, service.scheme, 2, 3, 3)
                assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _corner_tiles():
        # the expired corner cluster (10..60 m) inflated by one bandwidth
        # (60 m) reaches at most 120 m; zoom-2 tiles are 250 m, so only
        # tile (0, 0) can change
        return {(0, 0)}


# -- window lifecycle, counters, and rejection paths -----------------------

class TestWindowLifecycle:
    def test_window_counters_and_rebuild_gauge(self):
        seed = timestamped_seed(200)
        service = make_service(seed, window_s=50.0, window_rebuild_every=1)
        with service:
            service.ingest(
                np.array([[500.0, 500.0]]), t=np.array([300.0])
            )
            summary = service.tick()
            assert summary["ticks"] == 1
            assert summary["expired"] > 0
            stats = service.stats()
            counters = stats["recorder"]["counters"]
            assert counters["window.ticks"] == 1
            assert counters["window.expired_points"] == summary["expired"]
            assert counters["window.rebuilds"] >= 1  # rebuild_every=1 fired
            assert "window.drift" in stats["recorder"]["gauges"]
            assert stats["window"]["ticks"] == 1
            (view,) = stats["window"]["views"]
            assert view["seconds"] == 50.0
            assert view["rebuilds"] >= 1

    def test_tick_without_windows_is_a_noop(self):
        service = make_service(timestamped_seed(50))
        with service:
            summary = service.tick()
            assert summary["windows"] == [] and summary["expired"] == 0
            assert service.stats()["recorder"]["counters"].get("window.ticks", 0) == 0

    def test_auto_tick_on_request_traffic(self):
        now = [0.0]
        seed = timestamped_seed(150)
        service = make_service(
            seed, window_s=60.0, tick_s=5.0, clock=lambda: now[0]
        )
        with service:
            service.get_tile(0, 0, 0, window=60.0)
            assert service.stats()["window"]["ticks"] == 0
            now[0] = 5.0
            service.get_tile(0, 0, 0, window=60.0)  # schedule elapsed: ticks
            assert service.stats()["window"]["ticks"] == 1
            service.get_tile(0, 0, 0, window=60.0)  # within the next period
            assert service.stats()["window"]["ticks"] == 1

    def test_untimestamped_ingest_rejected_while_windows_live(self):
        service = make_service(timestamped_seed(100), window_s=40.0)
        with service:
            n0 = service.points_count
            with pytest.raises(ValueError, match="timestamps"):
                service.ingest(np.array([[1.0, 2.0]]))
            assert service.points_count == n0  # rejected before any mutation

    def test_window_on_untimestamped_history_is_a_window_error(self):
        rng = np.random.default_rng(5)
        service = make_service(rng.uniform(0, 1000, (100, 2)))
        with service:
            with pytest.raises(WindowError, match="timestamp"):
                service.get_tile(0, 0, 0, window=10.0)

    def test_eager_window_needs_timestamped_seed(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="timestamped seed"):
            make_service(rng.uniform(0, 1000, (100, 2)), window_s=10.0)

    @pytest.mark.parametrize("bad", ["soon", "", -5.0, 0.0, float("nan"), float("inf")])
    def test_malformed_window_values(self, bad):
        service = make_service(timestamped_seed(60))
        with service:
            with pytest.raises(WindowError, match="positive number"):
                service.get_tile(0, 0, 0, window=bad)

    def test_max_windows_cap(self):
        service = make_service(timestamped_seed(60), max_windows=2)
        with service:
            service.get_tile(0, 0, 0, window=10.0)
            service.get_tile(0, 0, 0, window=20.0)
            with pytest.raises(WindowError, match="max_windows"):
                service.get_tile(0, 0, 0, window=30.0)
            # existing windows keep serving
            service.get_tile(0, 0, 0, window=10.0)
            assert service.windows == [10.0, 20.0]
