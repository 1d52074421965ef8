"""Virtual-clock serving: the simulator driving the real TileService.

These tests never sleep.  TTL expiry, window aging, pool saturation, and
quality degradation all happen in *virtual* seconds — either through a
:class:`~repro.simload.SimClock` injected straight into a
:class:`~repro.serve.TileService`, or through full
:class:`~repro.simload.SimulationRunner` runs whose virtual render pool
keeps the service's renders in flight across virtual time, on one thread.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.data.points import PointSet
from repro.serve import PendingTile, TileService
from repro.simload import SimClock, get_scenario, run_scenario
from repro.simload.metrics import ERROR, OK, OVERLOAD


def _points(n=300, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, size=(n, 2))


def _service(clock, **kwargs):
    kwargs.setdefault("tile_size", 16)
    kwargs.setdefault("bandwidth", 30.0)
    kwargs.setdefault("max_zoom", 2)
    kwargs.setdefault("workers", 1)
    return TileService(_points(), clock=clock, **kwargs)


def _short(name: str, **overrides):
    return dataclasses.replace(
        get_scenario(name), duration_s=10.0, n_points=800, **overrides
    )


class TestVirtualClockDirect:
    def test_cache_ttl_expires_in_virtual_seconds(self):
        clock = SimClock()
        service = _service(clock, cache_ttl_s=5.0)
        try:
            service.get_tile(0, 0, 0)
            service.get_tile(0, 0, 0)
            assert service.stats()["cache"]["hits"] == 1
            clock.advance_to(6.0)  # past the TTL without any real sleeping
            service.get_tile(0, 0, 0)
            stats = service.stats()
            assert stats["cache"]["expirations"] >= 1
            assert stats["cache"]["misses"] == 2  # cold + expired
        finally:
            service.close()

    def test_wait_false_returns_pending_tile_and_hooks_submission(self):
        clock = SimClock()
        submitted = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args):
                future = super().submit(fn, *args)
                submitted.append(future)
                return future

        service = _service(clock, executor=RecordingPool(max_workers=1))
        try:
            answer = service.request_tile(1, 0, 1, wait=False)
            assert isinstance(answer, PendingTile)
            # the pending answer carries the injected pool's own future
            assert submitted == [answer.future]
            response = answer.resolve(timeout=30.0)
            assert response.tier == "exact"
            assert answer.done()
            # second request is a cache hit: immediate TileResponse
            again = service.request_tile(1, 0, 1, wait=False)
            assert not isinstance(again, PendingTile)
        finally:
            service.close()

    def test_window_ages_on_the_virtual_clock(self):
        clock = SimClock()
        rng = np.random.default_rng(1)
        xy = rng.uniform(0.0, 100.0, size=(200, 2))
        service = TileService(
            # seed events timestamped at virtual t=0
            PointSet(xy=xy, t=np.zeros(len(xy))),
            tile_size=16,
            bandwidth=30.0,
            max_zoom=2,
            workers=1,
            window_s=10.0,
            clock=clock,
        )
        try:
            before = service.request_tile(0, 0, 0, window=10.0)
            clock.advance_to(4.0)
            service.ingest(rng.uniform(0.0, 100.0, size=(50, 2)),
                           t=np.full(50, 4.0))
            clock.advance_to(12.0)
            summary = service.tick(now=12.0)
            # the t=0 seed events are outside the trailing 10 s now
            assert summary["expired"] == 200
            assert summary["ticks"] == 1
            after = service.request_tile(0, 0, 0, window=10.0)
            assert not np.array_equal(before.grid, after.grid)
        finally:
            service.close()


class TestSimulatedServing:
    def test_saturation_sheds_without_real_sleeping(self):
        # 8x the default scenario's base rate: far past the knee
        result = run_scenario(_short("default").at_rate(160.0), seed=3)
        m = result.metrics
        assert m["shed_503"] > 0
        assert m["shed_fraction"] > 0.01
        assert m["errors"] == 0
        assert m["offered_rps"] > 100.0  # virtual rps no wall clock reaches
        outcomes = {r.outcome for r in result.records}
        assert OVERLOAD in outcomes and ERROR not in outcomes

    def test_flash_crowd_degrades_instead_of_shedding(self):
        result = run_scenario(_short("flashcrowd"), seed=7)
        m = result.metrics
        degraded = {t: c for t, c in m["tiers"].items() if t != "exact"}
        assert degraded, "the spike should force degraded tiers"
        assert m["shed_503"] == 0  # the ladder absorbs what 503s would shed
        assert m["errors"] == 0
        assert m["cache_hit_rate"] > 0.0

    def test_ingest_scenario_ticks_windows_virtually(self):
        # shrink the window below the shortened duration so ticks have
        # something to expire
        result = run_scenario(_short("ingest", window_s=4.0), seed=5)
        m = result.metrics
        assert m["window_ticks"] == 3  # duration 10 s / tick_s 3 s
        assert m["window_expired_points"] > 0
        windowed = [r for r in result.records if r.window is not None]
        assert windowed and all(r.window == 4.0 for r in windowed)
        assert m["errors"] == 0

    def test_latencies_are_virtual_queueing_delays(self):
        sc = _short("default")
        result = run_scenario(sc, seed=9)
        ok = [r for r in result.records if r.outcome == OK]
        waited = [r for r in ok if r.latency_s >= sc.cost.render_s]
        assert waited, "cold renders must cost at least one virtual render"
        deadline = sc.deadline_s
        assert all(r.latency_s <= deadline for r in waited)
        hits = [r for r in ok if r.latency_s == sc.cost.hit_s]
        assert hits, "warm tiles must answer at the cache-hit cost"

    def test_simulated_runs_start_no_thread(self, monkeypatch):
        """Renders run on the simulator thread at their virtual completion
        times: a saturated run and a flash crowd with background
        refinements start no render thread (or any other)."""
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        saturated = run_scenario(_short("default").at_rate(160.0), seed=3)
        flash = run_scenario(_short("flashcrowd"), seed=7)
        assert saturated.metrics["shed_503"] > 0
        assert flash.metrics["refined"] > 0
        assert started == []

    def test_degraded_cache_reuse_counts_served_tiers(self):
        result = run_scenario(_short("flashcrowd").at_rate(60.0), seed=2)
        counters = result.stats["recorder"]["counters"]
        served_degraded = sum(
            v for k, v in counters.items()
            if k.startswith("quality.served.") and not k.endswith(".exact")
        )
        trace_degraded = sum(
            c for t, c in result.metrics["tiers"].items() if t != "exact"
        )
        assert served_degraded >= trace_degraded > 0
