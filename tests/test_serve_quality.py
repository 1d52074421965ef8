"""Tests for the quality degradation ladder (`repro.serve.quality`).

The three proofs the quality subsystem stands on are pinned here:

* **bounded error** — every served coreset tile's measured L-infinity
  error (relative to the global density peak) stays within the bound the
  response advertises (hypothesis drives the data);
* **degradation order** — under a saturated pool, requests step down the
  ladder exact -> pyramid -> coreset, tier by tier, before any
  :class:`~repro.serve.ServiceOverloaded`;
* **refinement** — a degraded serve is replaced by an exact render as
  soon as the pool drains, and the degraded cache entry is dropped.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Region
from repro.baselines.zorder import epsilon_for, zorder_grid
from repro.extensions.progressive import progressive_kdv, upsample_preview
from repro.obs import Recorder
from repro.serve import (
    QualityError,
    QualityPolicy,
    ServiceOverloaded,
    Tier,
    TileService,
    TTLCache,
)
from repro.serve.quality import (
    EXACT,
    calibrate,
    coreset_grid,
    measured_error,
    parse_tier,
    pyramid_grid,
)
from repro.serve.window import WindowView
from repro.viz.tiles import TileScheme, render_tile

TILE = 8
BANDWIDTH = 60.0
WORLD = Region(0.0, 0.0, 1000.0, 1000.0)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(23)
    return rng.uniform((0.0, 0.0), (1000.0, 1000.0), (300, 2))


@pytest.fixture(scope="module")
def scheme():
    return TileScheme(WORLD)


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


# -- zorder baseline hardening (epsilon_for / sample_size validation) -----


class TestZOrderEpsilon:
    def test_epsilon_inverse_of_sample_size(self):
        # m = ceil(1/eps^2)  <=>  eps(m) = 1/sqrt(m)
        assert epsilon_for(400, 10_000) == pytest.approx(0.05)
        assert epsilon_for(10_000, 1_000_000) == pytest.approx(0.01)

    def test_full_sample_is_exact(self):
        assert epsilon_for(1000, 1000) == 0.0
        assert epsilon_for(1000, 500) == 0.0
        assert epsilon_for(5, 0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="m must be"):
            epsilon_for(0, 100)
        with pytest.raises(ValueError, match="n must be"):
            epsilon_for(10, -1)

    def test_zorder_grid_rejects_oversized_sample(self):
        from repro import Raster
        from repro.core.kernels import get_kernel

        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 10.0, (50, 2))
        raster = Raster(Region(0.0, 0.0, 10.0, 10.0), 8, 8)
        kernel = get_kernel("epanechnikov")
        with pytest.raises(ValueError, match="exceeds the dataset size"):
            zorder_grid(pts, raster, kernel, 3.0, sample_size=51)
        # exactly n is still allowed (degenerates to exact)
        zorder_grid(pts, raster, kernel, 3.0, sample_size=50)


# -- tier parsing and policy validation ----------------------------------


class TestTierParsing:
    def test_parse_named_tiers(self):
        assert parse_tier("exact") == EXACT
        assert parse_tier("pyramid:2") == Tier("pyramid", 2)
        assert parse_tier("coreset:4096") == Tier("coreset", 4096)
        # passthrough and round-trip through .name
        assert parse_tier(Tier("pyramid", 1)) == Tier("pyramid", 1)
        assert parse_tier(Tier("coreset", 512).name) == Tier("coreset", 512)

    @pytest.mark.parametrize(
        "bad",
        ["", "bogus", "pyramid", "pyramid:0", "pyramid:x", "coreset:-1",
         "exact:1", "pyramid:1:2"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(QualityError):
            parse_tier(bad)

    def test_ladder_order_best_first(self):
        policy = QualityPolicy(pyramid_levels=(1, 3), coreset_sizes=(2048, 64))
        assert [t.name for t in policy.ladder()] == [
            "exact", "pyramid:1", "pyramid:3", "coreset:2048", "coreset:64"
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QualityPolicy(pyramid_levels=(2, 1))  # not increasing
        with pytest.raises(ValueError):
            QualityPolicy(coreset_sizes=(64, 64))  # not decreasing
        with pytest.raises(ValueError):
            QualityPolicy(pyramid_levels=(), coreset_sizes=())  # no rungs
        with pytest.raises(ValueError):
            QualityPolicy(tier_headroom=0)
        with pytest.raises(ValueError):
            QualityPolicy(error_headroom=0.5)
        with pytest.raises(ValueError):
            QualityPolicy(default_max_error=-1.0)

    def test_theoretical_bounds(self):
        policy = QualityPolicy()
        assert policy.theoretical_bound(EXACT, 10_000) == 0.0
        assert policy.theoretical_bound(Tier("pyramid", 2), 10_000) == 0.0
        assert policy.theoretical_bound(
            Tier("coreset", 1024), 10_000
        ) == pytest.approx(1.0 / math.sqrt(1024))
        # sample >= n degenerates to exact
        assert policy.theoretical_bound(Tier("coreset", 1024), 1000) == 0.0


# -- degraded grid helpers -----------------------------------------------


class TestDegradedGrids:
    def test_pyramid_matches_progressive_rungs(self, points):
        """pyramid:<k> is bit-identical to the progressive renderer's rung
        at 1/2^k resolution, upsampled — one preview code path."""
        size = (TILE * 4, TILE * 4)
        for level in (1, 2):
            rungs = progressive_kdv(
                points, WORLD, size, levels=level + 1,
                bandwidth=BANDWIDTH, normalization="none",
            )
            coarsest = next(iter(rungs))
            expected = upsample_preview(coarsest, size)
            got = pyramid_grid(
                points, WORLD, size, level=level, bandwidth=BANDWIDTH
            )
            assert np.array_equal(got, expected)

    def test_coreset_full_sample_is_exact(self, points, scheme):
        exact = render_tile(
            points, scheme, 0, 0, 0, tile_size=TILE, bandwidth=BANDWIDTH
        )
        got = coreset_grid(
            points, WORLD, (TILE, TILE),
            sample_size=len(points), bandwidth=BANDWIDTH,
        )
        assert np.allclose(got, exact)

    def test_coreset_empty_dataset_is_zero(self):
        empty = np.empty((0, 2), dtype=np.float64)
        got = coreset_grid(
            empty, WORLD, (TILE, TILE), sample_size=16, bandwidth=BANDWIDTH
        )
        assert got.shape == (TILE, TILE)
        assert not got.any()

    def test_measured_error_normalizes_by_peak(self):
        exact = np.array([[0.0, 2.0], [1.0, 0.5]])
        approx = exact.copy()
        approx[0, 1] = 1.5
        assert measured_error(approx, exact) == pytest.approx(0.25)
        assert measured_error(exact, exact) == 0.0
        zeros = np.zeros_like(exact)
        assert measured_error(zeros, zeros) == 0.0
        assert math.isinf(measured_error(exact, zeros))

    def test_index_callers_pass_the_indexed_array(self, points, scheme, monkeypatch):
        """Every caller that hands compute_kdv a y-sorted index passes the
        very array the index was built over, so the index check never falls
        back to comparing coordinates: the service's exact, pinned-pyramid
        and calibration renders, and render_tile."""
        from repro.core.envelope import YSortedIndex

        compared = []
        real = np.array_equal
        monkeypatch.setattr(
            np, "array_equal", lambda *a, **k: compared.append(1) or real(*a, **k)
        )
        render_tile(points, scheme, 1, 1, 0, tile_size=TILE, bandwidth=BANDWIDTH,
                    ysorted=YSortedIndex(points))
        service = make_service(points, scheme, quality=QualityPolicy())
        try:
            assert service.request_tile(0, 0, 0).tier == "exact"
            assert service.request_tile(1, 0, 0, quality="pyramid:1").tier == "pyramid:1"
        finally:
            service.close()
        assert compared == []

    def test_calibrate_covers_every_tier(self, points, scheme):
        policy = QualityPolicy(coreset_sizes=(64,))
        bounds = calibrate(policy, points, scheme, bandwidth=BANDWIDTH)
        assert bounds["exact"] == 0.0
        for tier in policy.ladder():
            assert tier.name in bounds
            assert bounds[tier.name] >= 0.0
        # a real subsample of 300 points cannot be measurably perfect at
        # the calibration resolution, so the bound reflects measurement
        assert bounds["coreset:64"] >= policy.error_floor


# -- the bounded-error property (hypothesis) -----------------------------


class TestCoresetBound:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 120),
        zoom=st.integers(0, 1),
        sample=st.sampled_from([16, 32, 64]),
    )
    def test_served_error_within_advertised_bound(self, seed, n, zoom, sample):
        """Every served coreset tile's measured L-inf error (vs the exact
        tile, relative to the global density peak) is within the bound the
        response advertises."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform((0.0, 0.0), (1000.0, 1000.0), (n, 2))
        scheme = TileScheme(WORLD)
        # bandwidth >= world side keeps every tile dense, so the global
        # peak (the error's denominator) is stably positive
        service = make_service(
            pts, scheme, bandwidth=1000.0,
            quality=QualityPolicy(coreset_sizes=(sample,)),
        )
        try:
            for tx in range(2**zoom):
                for ty in range(2**zoom):
                    resp = service.request_tile(
                        zoom, tx, ty, quality=f"coreset:{sample}"
                    )
                    exact = render_tile(
                        pts, scheme, zoom, tx, ty,
                        tile_size=TILE, bandwidth=1000.0,
                    )
                    peak = float(
                        render_tile(
                            pts, scheme, 0, 0, 0,
                            tile_size=TILE, bandwidth=1000.0,
                        ).max()
                    )
                    assume(peak > 0)
                    err = float(np.abs(resp.grid - exact).max()) / peak
                    assert resp.tier == f"coreset:{sample}"
                    assert err <= resp.error_bound + 1e-12
        finally:
            service.close()


# -- serving integration -------------------------------------------------


class TestQualityServing:
    def test_policy_off_rejects_degraded_pins(self, points, scheme):
        service = make_service(points, scheme)
        try:
            resp = service.request_tile(0, 0, 0)
            assert resp.tier == "exact"
            assert resp.error_bound == 0.0
            # an exact pin is always honoured, even without a policy
            assert service.request_tile(0, 0, 0, quality="exact").tier == "exact"
            with pytest.raises(QualityError, match="disabled"):
                service.request_tile(0, 0, 0, quality="pyramid:1")
            # exact (bound 0) trivially satisfies any error cap, so a
            # policy-free service still honours max_error requests
            assert service.request_tile(0, 0, 0, max_error="0.5").tier == "exact"
            with pytest.raises(QualityError, match="max_error"):
                service.request_tile(0, 0, 0, max_error="nope")
        finally:
            service.close()

    def test_pin_outside_ladder_rejected(self, points, scheme):
        service = make_service(points, scheme, quality=QualityPolicy())
        try:
            with pytest.raises(QualityError, match="unknown quality tier"):
                service.request_tile(0, 0, 0, quality="pyramid:9")
        finally:
            service.close()

    def test_bad_max_error_rejected(self, points, scheme):
        service = make_service(points, scheme, quality=QualityPolicy())
        try:
            for bad in ("nope", "-0.5", "inf"):
                with pytest.raises(QualityError):
                    service.request_tile(0, 0, 0, max_error=bad)
        finally:
            service.close()

    def test_pinned_tier_serves_and_caches(self, points, scheme):
        rec = Recorder()
        service = make_service(
            points, scheme, recorder=rec, quality=QualityPolicy()
        )
        try:
            first = service.request_tile(0, 0, 0, quality="coreset:1024")
            assert first.tier == "coreset:1024"
            assert first.degraded
            assert first.error_bound > 0.0
            # The pinned serve queued a background exact refinement, which
            # drops the tile's degraded variants when it lands.  Until then
            # the live degraded entry would answer an unpinned request, so
            # wait for it (exact entry cached, refinement counted) first.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if (
                    service._cache.get((0, 0, 0), count=False) is not None
                    and rec.snapshot()["counters"].get("quality.refined")
                ):
                    break
                time.sleep(0.01)
            # the refinement dropped the pinned entry: this re-renders it,
            # with the same bits, and caches it again
            again = service.request_tile(0, 0, 0, quality="coreset:1024")
            assert again.tier == "coreset:1024"
            assert np.array_equal(again.grid, first.grid)
            hits = rec.snapshot()["counters"].get("tiles.cache.hits", 0)
            cached = service.request_tile(0, 0, 0, quality="coreset:1024")
            assert np.array_equal(cached.grid, first.grid)
            assert rec.snapshot()["counters"]["tiles.cache.hits"] == hits + 1
            # pinned cheap tiers never consume the exact cache namespace
            assert service.request_tile(0, 0, 0).tier == "exact"
            snap = rec.snapshot()["counters"]
            assert snap["quality.refined"] == 1
            assert snap["quality.served.coreset"] >= 2
            assert snap["quality.calibrations"] == 1
        finally:
            service.close()

    def test_max_error_serves_exact_when_idle(self, points, scheme):
        service = make_service(points, scheme, quality=QualityPolicy())
        try:
            resp = service.request_tile(0, 0, 0, max_error="0.5")
            # an idle pool always admits the best admissible tier
            assert resp.tier == "exact"
        finally:
            service.close()

    def test_degradation_order_under_saturation(self, points, scheme):
        """The load ladder, proven rung by rung: a saturated one-worker
        pool degrades exact -> pyramid -> coreset, and only past the
        cheapest rung rejects with 503/ServiceOverloaded."""
        gate = GatedPool()
        rec = Recorder()
        policy = QualityPolicy(
            pyramid_levels=(1,), coreset_sizes=(64,), tier_headroom=1
        )
        service = make_service(
            points, scheme, workers=1, queue_limit=1,
            executor=gate, recorder=rec, quality=policy,
        )
        # gate the degraded path too, so held degraded renders keep
        # contributing to the load the admission rule sees
        degraded_gate = threading.Event()
        degraded_started = threading.Event()
        inner_degraded = service._render_degraded

        def gated_degraded(view, version, tile, tier):
            degraded_started.set()
            assert degraded_gate.wait(timeout=30.0)
            return inner_degraded(view, version, tile, tier)

        try:
            pool = []
            # rung 0: the exact leader occupies the one-slot pool
            t1 = threading.Thread(
                target=lambda: pool.append(service.request_tile(0, 0, 0))
            )
            t1.start()
            assert gate.started.wait(timeout=5.0)

            # rung 1: load 1 >= queue_limit, so the next distinct tile
            # steps down to the pyramid tier (and holds it, gated)
            service._render_degraded = gated_degraded
            t2 = threading.Thread(
                target=lambda: pool.append(service.request_tile(1, 0, 0))
            )
            t2.start()
            assert degraded_started.wait(timeout=5.0)
            service._render_degraded = inner_degraded

            # rung 2: load 2 admits only the coreset rung (< 1 + 2*1)
            resp = service.request_tile(1, 1, 0)
            assert resp.tier == "coreset:64"

            # past the cheapest rung: hold a third degraded render so
            # load 3 exhausts the ladder
            degraded_started.clear()
            service._render_degraded = gated_degraded
            t3 = threading.Thread(
                target=lambda: pool.append(service.request_tile(1, 0, 1))
            )
            t3.start()
            assert degraded_started.wait(timeout=5.0)
            service._render_degraded = inner_degraded
            with pytest.raises(ServiceOverloaded):
                service.request_tile(1, 1, 1)
            assert rec.snapshot()["counters"]["serve.rejected.overload"] == 1

            degraded_gate.set()
            gate.release.set()
            for t in (t1, t2, t3):
                t.join(timeout=10.0)
            assert len(pool) == 3
            tiers = sorted(r.tier for r in pool)
            assert tiers == ["coreset:64", "exact", "pyramid:1"]
        finally:
            degraded_gate.set()
            gate.release.set()
            service.close()

    def test_refinement_replaces_degraded_entry(self, points, scheme):
        """Once the pool drains, a degraded serve is re-rendered exactly;
        the exact entry lands in the cache and the degraded one is
        dropped."""
        gate = GatedPool()
        rec = Recorder()
        service = make_service(
            points, scheme, workers=1, queue_limit=1,
            executor=gate, recorder=rec,
            quality=QualityPolicy(pyramid_levels=(1,), coreset_sizes=(64,)),
        )
        try:
            hold = threading.Thread(target=lambda: service.request_tile(0, 0, 0))
            hold.start()
            assert gate.started.wait(timeout=5.0)
            degraded = service.request_tile(1, 0, 0)
            assert degraded.degraded
            degraded_key = (1, 0, 0, degraded.tier)
            assert service._cache.get(degraded_key, count=False) is not None
            assert service.stats()["quality"]["pending_refinements"] == 1

            gate.release.set()
            hold.join(timeout=10.0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if (
                    service._cache.get((1, 0, 0), count=False) is not None
                    and service._cache.get(degraded_key, count=False) is None
                ):
                    break
                time.sleep(0.01)
            exact_entry = service._cache.get((1, 0, 0), count=False)
            assert exact_entry is not None
            assert service._cache.get(degraded_key, count=False) is None
            assert rec.snapshot()["counters"]["quality.refined"] == 1
            resp = service.request_tile(1, 0, 0)
            assert resp.tier == "exact"
            expected = render_tile(
                points, scheme, 1, 0, 0, tile_size=TILE, bandwidth=BANDWIDTH
            )
            assert np.array_equal(resp.grid, expected)
        finally:
            gate.release.set()
            service.close()

    def test_ingest_invalidates_degraded_tiles_and_recalibrates(
        self, points, scheme
    ):
        gate = GatedPool()
        service = make_service(
            points, scheme, workers=1, queue_limit=1, executor=gate,
            quality=QualityPolicy(coreset_sizes=(64,)),
        )
        try:
            # hold the pool so background refinement cannot replace the
            # degraded entry before the assertions see it
            hold = threading.Thread(target=lambda: service.request_tile(1, 0, 0))
            hold.start()
            assert gate.started.wait(timeout=5.0)
            before = service.request_tile(0, 0, 0, quality="coreset:64")
            assert service._cache.get((0, 0, 0, "coreset:64"), count=False) is not None
            service.ingest(np.array([[500.0, 500.0]]))
            # the new generation dropped the degraded entry with the batch
            assert service._cache.get((0, 0, 0, "coreset:64"), count=False) is None
            gate.release.set()
            hold.join(timeout=10.0)
            after = service.request_tile(0, 0, 0, quality="coreset:64")
            assert not np.array_equal(before.grid, after.grid)
        finally:
            gate.release.set()
            service.close()

    def test_windowed_views_calibrate_independently(self, scheme):
        from repro.data.points import PointSet

        rng = np.random.default_rng(7)
        pts = rng.uniform((0.0, 0.0), (1000.0, 1000.0), (200, 2))
        t = np.linspace(0.0, 100.0, 200)
        service = make_service(
            PointSet(pts, t=t), scheme,
            quality=QualityPolicy(coreset_sizes=(32,)),
        )
        try:
            all_time = service.request_tile(0, 0, 0, quality="coreset:32")
            windowed = service.request_tile(
                0, 0, 0, quality="coreset:32", window=50.0
            )
            assert all_time.degraded and windowed.degraded
            bounds = service.stats()["quality"]["bounds"]
            assert "all" in bounds and "50" in bounds
        finally:
            service.close()


# -- cache plumbing the ladder rests on ----------------------------------


class TestQualityCachePlumbing:
    def test_per_entry_ttl_expires_before_default(self):
        now = [0.0]
        cache = TTLCache(8, ttl_s=100.0, clock=lambda: now[0])
        cache.put("slow", 1)
        cache.put("fast", 2, ttl_s=5.0)
        now[0] = 6.0
        assert cache.get("fast") is None
        assert cache.get("slow") == 1

    def test_per_entry_ttl_without_default(self):
        now = [0.0]
        cache = TTLCache(8, clock=lambda: now[0])
        cache.put("forever", 1)
        cache.put("brief", 2, ttl_s=1.0)
        now[0] = 2.0
        assert cache.get("brief") is None
        assert cache.get("forever") == 1
        with pytest.raises(ValueError):
            cache.put("bad", 3, ttl_s=0.0)

    def test_cache_key_tier_namespaces(self):
        class _Stream:
            def points(self):
                return np.empty((0, 2))

        view = WindowView(None, _Stream())
        assert view.cache_key(1, 2, 3) == (1, 2, 3)
        assert view.cache_key(1, 2, 3, "exact") == (1, 2, 3)
        assert view.cache_key(1, 2, 3, "pyramid:1") == (1, 2, 3, "pyramid:1")
        assert view.owns_key((1, 2, 3))
        assert view.owns_key((1, 2, 3, "coreset:64"))
        windowed = WindowView(30.0, _Stream())
        assert windowed.cache_key(1, 2, 3, "coreset:64") == (
            1, 2, 3, 30.0, "coreset:64"
        )
        assert windowed.owns_key((1, 2, 3, 30.0, "coreset:64"))
        assert not windowed.owns_key((1, 2, 3, "coreset:64"))
        assert not view.owns_key((1, 2, 3, 30.0))
