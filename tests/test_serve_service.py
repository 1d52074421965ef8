"""Tests for the concurrent tile service (`repro.serve`).

The two proofs the serving subsystem stands on are pinned here:

* **coalescing** — N concurrent requests for the same cold tile trigger
  exactly one render, and every waiter gets a grid bit-identical to a
  direct :func:`~repro.viz.tiles.render_tile`;
* **backpressure** — with a saturated one-worker pool, excess distinct
  tiles are refused with :class:`~repro.serve.ServiceOverloaded`
  immediately (no hang), and a graceful shutdown leaves no non-daemon
  thread behind.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Region
from repro.obs import Recorder
from repro.serve import (
    ServiceClosed,
    ServiceOverloaded,
    ServiceTimeout,
    TileService,
    TTLCache,
)
from repro.viz.tiles import TileScheme, render_tile

TILE = 8
BANDWIDTH = 60.0


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(23)
    return rng.uniform((0.0, 0.0), (1000.0, 1000.0), (300, 2))


@pytest.fixture(scope="module")
def scheme():
    return TileScheme(Region(0.0, 0.0, 1000.0, 1000.0))


def make_service(points, scheme, **kwargs):
    kwargs.setdefault("tile_size", TILE)
    kwargs.setdefault("bandwidth", BANDWIDTH)
    kwargs.setdefault("max_zoom", 3)
    kwargs.setdefault("recorder", Recorder())
    return TileService(points, scheme, **kwargs)


class GatedPool(ThreadPoolExecutor):
    """A render pool whose jobs block until released; counts invocations."""

    def __init__(self, workers=1):
        super().__init__(max_workers=workers)
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._calls_lock = threading.Lock()

    def submit(self, fn, /, *args):
        def gated():
            with self._calls_lock:
                self.calls += 1
            self.started.set()
            assert self.release.wait(timeout=30.0), "render gate never released"
            return fn(*args)

        return super().submit(gated)


class TestTTLCache:
    def test_lru_eviction_order(self):
        cache = TTLCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        assert cache.put("c", 3) == 1  # evicts the stale "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = TTLCache(8, ttl_s=10.0, clock=lambda: now[0])
        cache.put("k", "v")
        assert cache.get("k") == "v"
        now[0] = 9.999
        assert cache.get("k") == "v"
        now[0] = 10.0
        assert cache.get("k") is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_len_and_keys_purge_expired(self):
        """Expired-but-unread entries must not inflate the reported size
        (the ``serve.cache_size`` gauge and ``/metricz`` ``tiles_cached``)."""
        now = [0.0]
        cache = TTLCache(8, ttl_s=10.0, clock=lambda: now[0])
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 2 and set(cache.keys()) == {"a", "b"}
        now[0] = 10.0
        assert len(cache) == 0
        assert cache.keys() == []
        assert cache.expirations == 2
        assert cache.evictions == 0  # expiry is not cache pressure

    def test_capacity_pop_of_expired_entry_counts_as_expiration(self):
        """Evicting an already-dead entry at capacity is an expiration, not
        an eviction — the eviction counter stays an honest pressure gauge."""
        now = [0.0]
        cache = TTLCache(2, ttl_s=10.0, clock=lambda: now[0])
        cache.put("a", 1)
        now[0] = 5.0
        cache.put("b", 2)
        now[0] = 11.0  # "a" is now past its TTL, "b" is still live
        assert cache.put("c", 3) == 0  # popping dead "a" is not an eviction
        assert cache.expirations == 1
        assert cache.evictions == 0
        assert cache.get("b", count=False) == 2  # live entry survived
        now[0] = 12.0
        assert cache.put("d", 4) == 1  # now a live entry ("b") must go
        assert cache.evictions == 1

    def test_invalidate_reports_presence(self):
        cache = TTLCache(8)
        cache.put((1, 0, 0), "a")
        cache.put((1, 1, 0), "b")
        assert cache.invalidate([(1, 0, 0), (1, 9, 9)]) == 1
        assert cache.keys() == [(1, 1, 0)]

    def test_counters(self):
        cache = TTLCache(4)
        cache.get("nope")
        cache.put("x", 1)
        cache.get("x")
        assert (cache.hits, cache.misses) == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TTLCache(0)
        with pytest.raises(ValueError):
            TTLCache(1, ttl_s=0.0)

    def test_thread_safety_under_churn(self):
        cache = TTLCache(16)

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                key = int(rng.integers(0, 32))
                if rng.random() < 0.5:
                    cache.put(key, key)
                else:
                    value = cache.get(key)
                    assert value is None or value == key

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))
        assert len(cache) <= 16


class TestCoalescing:
    def test_concurrent_requests_render_once(self, points, scheme):
        """≥16 concurrent requests for one cold tile → exactly one render,
        all responses bit-identical to a direct render_tile."""
        n_clients = 16
        gate = GatedPool(workers=2)
        service = make_service(points, scheme, workers=2, executor=gate)
        barrier = threading.Barrier(n_clients)
        results = [None] * n_clients
        errors = []

        def client(i):
            try:
                barrier.wait(timeout=10.0)
                results[i] = service.get_tile(1, 0, 0)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        assert gate.started.wait(timeout=10.0)
        # hold the gate until every request has either joined the in-flight
        # future or is queued behind the barrier-released leader
        rec = service.recorder
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            joined = rec.counter_value("serve.coalesce.joined")
            if joined + rec.counter_value("serve.coalesce.leaders") == n_clients:
                break
            time.sleep(0.01)
        gate.release.set()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert gate.calls == 1
        spans = [s for s in rec.snapshot()["spans"] if s["name"] == "tiles.render"]
        assert len(spans) == 1
        assert rec.counter_value("serve.coalesce.leaders") == 1
        assert rec.counter_value("serve.coalesce.joined") == n_clients - 1
        direct = render_tile(
            points, scheme, 1, 0, 0, tile_size=TILE, bandwidth=BANDWIDTH
        )
        for grid in results:
            assert grid is not None
            np.testing.assert_array_equal(grid, direct)
        service.close()

    def test_cached_tile_skips_the_pool(self, points, scheme):
        service = make_service(points, scheme, workers=1)
        first = service.get_tile(1, 1, 1)
        before = service.recorder.timer("tiles.render").calls
        second = service.get_tile(1, 1, 1)
        assert service.recorder.timer("tiles.render").calls == before
        assert second is first  # the cached (read-only) array itself
        assert not second.flags.writeable
        service.close()


class TestBackpressure:
    def test_queue_full_rejects_distinct_tile(self, points, scheme):
        gate = GatedPool()
        service = make_service(
            points, scheme, workers=1, queue_limit=1, executor=gate
        )
        leader_done = threading.Thread(target=service.get_tile, args=(1, 0, 0))
        leader_done.start()
        assert gate.started.wait(timeout=10.0)
        start = time.monotonic()
        with pytest.raises(ServiceOverloaded) as excinfo:
            service.get_tile(1, 1, 0)
        assert time.monotonic() - start < 5.0  # refused, never hangs
        assert excinfo.value.retry_after_s > 0.0
        assert service.recorder.counter_value("serve.rejected.overload") == 1
        gate.release.set()
        leader_done.join(timeout=30.0)
        service.close()

    def test_joining_is_allowed_when_saturated(self, points, scheme):
        """A request for the tile already in flight adds no work and must
        coalesce rather than 503."""
        gate = GatedPool()
        service = make_service(
            points, scheme, workers=1, queue_limit=1, executor=gate
        )
        holder = {}
        leader = threading.Thread(
            target=lambda: holder.setdefault("grid", service.get_tile(1, 0, 0))
        )
        leader.start()
        assert gate.started.wait(timeout=10.0)
        joiner = threading.Thread(
            target=lambda: holder.setdefault("joined", service.get_tile(1, 0, 0))
        )
        joiner.start()
        rec = service.recorder
        deadline = time.monotonic() + 10.0
        while rec.counter_value("serve.coalesce.joined") < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        gate.release.set()
        leader.join(timeout=30.0)
        joiner.join(timeout=30.0)
        np.testing.assert_array_equal(holder["grid"], holder["joined"])
        service.close()

    def test_deadline_turns_into_timeout(self, points, scheme):
        gate = GatedPool()
        service = make_service(points, scheme, workers=1, executor=gate)
        with pytest.raises(ServiceTimeout):
            service.get_tile(1, 0, 0, deadline_s=0.05)
        assert service.recorder.counter_value("serve.rejected.deadline") == 1
        # the render itself completes and warms the cache for later requests
        gate.release.set()
        deadline = time.monotonic() + 10.0
        while service.queue_depth and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.get_tile(1, 0, 0).shape == (TILE, TILE)
        service.close()

    def test_service_deadline_default(self, points, scheme):
        gate = GatedPool()
        service = make_service(
            points, scheme, workers=1, deadline_s=0.05, executor=gate
        )
        with pytest.raises(ServiceTimeout):
            service.get_tile(1, 0, 0)
        gate.release.set()
        service.close()


class TestCacheSemantics:
    def test_ttl_expiry_forces_rerender(self, points, scheme):
        now = [0.0]
        service = make_service(
            points, scheme, cache_ttl_s=30.0, clock=lambda: now[0]
        )
        service.get_tile(1, 0, 0)
        service.get_tile(1, 0, 0)
        assert service.recorder.timer("tiles.render").calls == 1
        now[0] = 31.0
        service.get_tile(1, 0, 0)
        assert service.recorder.timer("tiles.render").calls == 2
        service.close()

    def test_reported_cache_size_excludes_expired_entries(self, points, scheme):
        """``/metricz`` ``cache.size``, the ``serve.cache_size`` gauge, and
        ``/healthz`` ``tiles_cached`` must all agree and never count tiles a
        reader could no longer hit."""
        now = [0.0]
        service = make_service(
            points, scheme, cache_ttl_s=30.0, clock=lambda: now[0]
        )
        service.get_tile(1, 0, 0)
        service.get_tile(1, 1, 0)
        assert service.stats()["cache"]["size"] == 2
        now[0] = 31.0  # both tiles are past their TTL, unread
        stats = service.stats()
        assert stats["cache"]["size"] == 0
        assert stats["recorder"]["gauges"]["serve.cache_size"] == 0
        assert service.health()["tiles_cached"] == 0
        assert stats["cache"]["expirations"] == 2
        assert stats["cache"]["evictions"] == 0
        service.close()

    def test_ingest_invalidates_only_affected_tiles(self, points, scheme):
        service = make_service(points, scheme, max_zoom=2)
        # tiles at zoom 2 are 250 world units; bandwidth 60 inflates less
        # than one tile side, so opposite corners cannot both be affected
        near = service.get_tile(2, 0, 0)
        far = service.get_tile(2, 3, 3)
        del near
        outcome = service.ingest([[10.0, 10.0]])
        assert outcome["inserted"] == 1
        assert outcome["invalidated"] >= 1
        cached = set(service._cache.keys())
        assert (2, 0, 0) not in cached
        assert (2, 3, 3) in cached
        # the surviving tile is served from cache, not re-rendered
        renders = service.recorder.timer("tiles.render").calls
        np.testing.assert_array_equal(service.get_tile(2, 3, 3), far)
        assert service.recorder.timer("tiles.render").calls == renders
        service.close()

    def test_ingest_mid_render_keeps_stale_grid_out_of_cache(self, points, scheme):
        gate = GatedPool()
        service = make_service(points, scheme, workers=1, executor=gate)
        holder = {}
        waiter = threading.Thread(
            target=lambda: holder.setdefault("grid", service.get_tile(1, 0, 0))
        )
        waiter.start()
        assert gate.started.wait(timeout=10.0)
        service.ingest([[500.0, 500.0]])  # version bump while rendering
        gate.release.set()
        waiter.join(timeout=30.0)
        # the waiter got an answer (to the question it asked)...
        assert holder["grid"].shape == (TILE, TILE)
        # ...but the now-stale grid was not cached
        assert service._cache.get((1, 0, 0)) is None
        assert service.recorder.counter_value("serve.render.stale") == 1
        service.close()

    def test_ingest_validation_precedes_mutation(self, points, scheme):
        service = make_service(points, scheme)
        n = service.points_count
        with pytest.raises(ValueError):
            service.ingest([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            service.ingest([[np.nan, 0.0]])
        assert service.points_count == n
        service.close()

    def test_empty_ingest_is_a_noop(self, points, scheme):
        service = make_service(points, scheme)
        service.get_tile(1, 0, 0)
        outcome = service.ingest(np.empty((0, 2)))
        assert outcome == {
            "inserted": 0,
            "invalidated": 0,
            "points": service.points_count,
        }
        assert service._cache.get((1, 0, 0)) is not None
        service.close()


class TestLifecycle:
    def test_graceful_shutdown_leaves_no_nondaemon_threads(self, points, scheme):
        before = {t for t in threading.enumerate() if not t.daemon}
        service = make_service(points, scheme, workers=3)
        service.get_tile(0, 0, 0)
        assert any(
            t.name.startswith("kdv-render")
            for t in threading.enumerate()
            if not t.daemon
        )
        service.close(drain=True)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            after = {t for t in threading.enumerate() if not t.daemon}
            if after <= before:
                break
            time.sleep(0.05)
        assert {t for t in threading.enumerate() if not t.daemon} <= before

    def test_closed_service_refuses_work(self, points, scheme):
        service = make_service(points, scheme)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.get_tile(0, 0, 0)
        with pytest.raises(ServiceClosed):
            service.ingest([[1.0, 1.0]])
        service.close()  # idempotent

    def test_context_manager(self, points, scheme):
        with make_service(points, scheme) as service:
            service.get_tile(0, 0, 0)
        assert service.closed

    def test_drain_answers_inflight_waiters(self, points, scheme):
        gate = GatedPool()
        service = make_service(points, scheme, workers=1, executor=gate)
        holder = {}
        waiter = threading.Thread(
            target=lambda: holder.setdefault("grid", service.get_tile(1, 0, 0))
        )
        waiter.start()
        assert gate.started.wait(timeout=10.0)
        gate.release.set()
        service.close(drain=True)
        waiter.join(timeout=30.0)
        assert holder["grid"].shape == (TILE, TILE)


class TestValidationAndIntrospection:
    def test_out_of_pyramid_keys(self, points, scheme):
        service = make_service(points, scheme, max_zoom=2)
        for bad in [(3, 0, 0), (1, 2, 0), (1, 0, -1), (-1, 0, 0)]:
            with pytest.raises(ValueError):
                service.get_tile(*bad)
        service.close()

    def test_constructor_validation(self, points, scheme):
        with pytest.raises(ValueError):
            TileService(np.empty((0, 2)), scheme)
        with pytest.raises(ValueError):
            TileService(points[:, :1], scheme)
        for kwargs in [
            {"tile_size": 0},
            {"workers": 0},
            {"max_zoom": -1},
            {"queue_limit": 0},
            {"deadline_s": 0.0},
        ]:
            with pytest.raises(ValueError):
                TileService(points, scheme, **kwargs)

    def test_default_scheme_covers_points(self, points):
        service = make_service(points, None)
        assert service.scheme.world.contains(points[:, 0], points[:, 1]).all()
        service.close()

    def test_pointset_input(self, points, scheme):
        from repro import PointSet

        service = make_service(PointSet(points), scheme)
        assert service.points_count == len(points)
        service.close()

    def test_health_and_stats_payloads(self, points, scheme):
        service = make_service(points, scheme)
        service.get_tile(0, 0, 0)
        service.get_tile(0, 0, 0)
        health = service.health()
        assert health["status"] == "ok"
        assert health["points"] == len(points)
        assert health["tiles_cached"] == 1
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["queue"] == {"depth": 0, "limit": service.queue_limit}
        rec = stats["recorder"]
        assert rec["counters"]["serve.tile_requests"] == 2
        assert rec["gauges"]["serve.cache_size"] == 1
        service.close()
        assert service.health()["status"] == "closing"

    def test_metrics_reconcile_with_observed_requests(self, points, scheme):
        service = make_service(points, scheme, max_zoom=2)
        keys = [(1, 0, 0), (1, 0, 0), (1, 1, 1), (2, 0, 0), (1, 0, 0)]
        for key in keys:
            service.get_tile(*key)
        rec = service.recorder
        assert rec.counter_value("serve.tile_requests") == len(keys)
        hits = rec.counter_value("tiles.cache.hits")
        misses = rec.counter_value("tiles.cache.misses")
        assert hits + misses == len(keys)
        assert misses == len(set(keys))
        assert rec.timer("tiles.render").calls == len(set(keys))
        service.close()

    def test_tile_image_stable_scale(self, points, scheme):
        service = make_service(points, scheme)
        img = service.tile_image(1, 0, 0)
        assert img.shape == (TILE, TILE, 3)
        assert img.dtype == np.uint8
        with pytest.raises(ValueError):
            service.tile_image(1, 0, 0, colormap="jet")
        service.close()
