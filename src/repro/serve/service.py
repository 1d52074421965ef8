"""`TileService`: the concurrent heart of the KDV tile server.

The paper positions SLAM as the engine behind interactive web KDV tools
(KDV-Explorer); serving that workload means many clients hammering the same
small set of visible tiles while a live feed appends events.  The service
composes five mechanisms, each individually simple:

**Single-flight coalescing.**
    N concurrent requests for the same cold ``(zoom, tx, ty)`` trigger
    exactly one SLAM render; the leader submits a future and the other N-1
    join it.  With a pan/zoom crowd the render rate is bounded by the number
    of *distinct* visible tiles, not the request rate.

**Bounded render pool with backpressure.**
    Renders run on one pool, a fixed
    :class:`~concurrent.futures.ThreadPoolExecutor` unless the caller
    injects another ``executor``.
    When the number of in-flight renders reaches ``queue_limit`` the service
    refuses new *distinct* tiles with :class:`ServiceOverloaded` (HTTP 503 +
    ``Retry-After``) instead of queueing unboundedly — joining an existing
    render is always allowed, since it adds no work.  A per-request deadline
    turns slow renders into :class:`ServiceTimeout` (HTTP 504) for the
    waiter; the render itself completes and warms the cache.

**TTL + LRU tile cache with targeted invalidation.**
    Rendered tiles live in a :class:`~repro.serve.cache.TTLCache`.  Ingest
    and window expiry drop exactly the tiles whose region intersects the
    changed batches' MBRs inflated by one bandwidth
    (:func:`~repro.serve.invalidate.affected_tiles`) — everything else is
    provably unchanged, because finite-support kernels reach at most one
    bandwidth.

**Live ingest through the streaming engine.**
    Inserts route through :class:`~repro.extensions.streaming.StreamingKDV`,
    which maintains an always-fresh overview grid incrementally (the
    additive decomposition the paper's real-time plans rest on); the
    overview's peak anchors a stable color scale for ``.png`` tiles.
    A version counter keeps renders that started before an ingest from
    polluting the cache afterwards, and the generation's shared y-sorted
    index (one O(n log n) sort serving every tile render of that
    generation) is dropped and lazily rebuilt.

**Quality degradation ladder.**
    With a :class:`~repro.serve.quality.QualityPolicy` attached, a
    saturated pool no longer means an immediate 503: requests step down a
    ladder of degraded tiers — exact, then ``pyramid:<k>`` (exact KDV at
    ``1/2^k`` resolution, upsampled), then ``coreset:<m>`` (Z-order sample
    of size m, with a calibrated epsilon error bound) — before load is
    shed only past the cheapest tier.  Degraded renders run synchronously
    on the request thread (they are cheap by construction, and the pool is
    by definition busy), cache in per-tier namespaces with short TTLs, and
    are refined to exact renders in the background once the pool drains.
    See :mod:`repro.serve.quality` and ``docs/quality.md``.

**Sliding-window views.**
    ``window=<seconds>`` requests serve tiles over only the trailing window
    of the timestamped feed.  Each distinct window is a
    :class:`~repro.serve.window.WindowView` — its own maintained
    :class:`~repro.extensions.streaming.StreamingKDV`, version counter,
    y-sorted index, and cache namespace (keys carry the window length) —
    advanced by :meth:`tick`: expiry is one signed O(Δ) grid update, and
    only tiles in the union of the expired batches' inflated MBRs are
    invalidated, never the whole pyramid.  Ticks run on the ``tick_s``
    schedule (piggybacked on request traffic — no background thread) or via
    an explicit :meth:`tick` / ``POST /tick``.

Everything is observable: the wired-in :class:`~repro.obs.Recorder` carries
request/coalescing/backpressure counters, render/ingest/tick phases, window
counters (``window.ticks``, ``window.expired_points``, ``window.rebuilds``,
``window.drift``), and queue-depth gauges (see ``docs/serving.md`` for the
metric name table).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from time import monotonic
from typing import Callable

import numpy as np

from ..core.api import PARALLEL_METHODS
from ..extensions.streaming import StreamingKDV
from ..obs import Recorder
from ..viz.tiles import TileScheme, render_tile
from .cache import TTLCache
from .invalidate import affected_tiles
from .quality import (
    EXACT,
    QualityError,
    QualityPolicy,
    Tier,
    TileResponse,
    calibrate,
    coreset_grid,
    parse_tier,
    pyramid_grid,
)
from .window import WindowError, WindowView, window_seconds

__all__ = [
    "TileService",
    "PendingTile",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceTimeout",
]


class ServiceClosed(RuntimeError):
    """The service is shutting down and accepts no new work."""


class ServiceOverloaded(RuntimeError):
    """The render queue is full; retry after :attr:`retry_after_s` seconds."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceTimeout(TimeoutError):
    """The per-request deadline elapsed before the render finished."""


class PendingTile:
    """A tile answer that is still rendering on the pool.

    Returned by :meth:`TileService.request_tile` with ``wait=False`` instead
    of blocking on the render future, so the caller owns the wait: the
    :mod:`repro.simload` simulator finds the render's job in its virtual
    pool by ``future`` and resolves the answer once that job has run.
    ``key`` is the render's cache/in-flight key (view-namespaced); joiners
    of one in-flight render share one underlying future.
    """

    __slots__ = ("key", "future", "_service", "_view", "_tier")

    def __init__(self, service, view, tier, key, future):
        self._service = service
        self._view = view
        self._tier = tier
        self.key = key
        self.future = future

    def done(self) -> bool:
        """Whether the underlying render has finished."""
        return self.future.done()

    def resolve(self, timeout: "float | None" = None) -> TileResponse:
        """Block (up to ``timeout``) for the render and build the response.

        Raises exactly what the blocking :meth:`TileService.request_tile`
        path would: :class:`ServiceTimeout` past the timeout,
        :class:`ServiceClosed` if shutdown cancelled the render.
        """
        return self._service._await_render(
            self._view, self._tier, self.key, self.future, timeout
        )


class TileService:
    """Concurrent, cache-coherent KDV tile serving over a live dataset.

    Parameters
    ----------
    points:
        Initial dataset: an ``(n, 2)`` array or :class:`~repro.data.points.PointSet`.
        A :class:`~repro.data.points.PointSet` with timestamps seeds the
        time axis (its ``t`` feeds the sliding-window machinery).
    scheme:
        Tile addressing; defaults to the initial dataset's squared MBR.
        Live ingest outside the level-0 world still works (tiles are exact
        for whatever falls inside their region), the pyramid just does not
        grow to cover it.
    tile_size, bandwidth, kernel, method:
        Render parameters, shared by every tile (fixed per service, as in a
        deployed map layer).
    max_zoom:
        Deepest zoom level served (``zoom > max_zoom`` raises ``ValueError``,
        the HTTP layer's 404).
    workers:
        Size of the default render pool, and the base of the default
        ``queue_limit``.
    queue_limit:
        Maximum in-flight renders (running + queued) before new distinct
        tiles are refused with :class:`ServiceOverloaded`.  Defaults to
        ``4 * workers``.
    deadline_s:
        Default per-request wait bound (``None`` = wait indefinitely).
    cache_tiles, cache_ttl_s:
        Tile cache capacity and optional expiry (shared across all views).
    window_s:
        Sliding-window length in seconds, created eagerly at construction
        (requires a timestamped seed).  Further windows are created lazily
        by ``window=`` tile requests; ``window_s`` is the one the CLI's
        ``--window`` pre-warms.
    tick_s:
        Window advance cadence.  Ticks piggyback on request traffic (the
        first :meth:`get_tile`/:meth:`ingest` at least ``tick_s`` after the
        previous tick runs one) — no background thread, so an idle service
        does no work.  ``None`` leaves ticking fully explicit.
    max_windows:
        Maximum number of distinct live window views; further ``window=``
        values are refused with :class:`~repro.serve.window.WindowError`
        (HTTP 400) instead of letting clients mint unbounded maintained
        state.
    window_rebuild_every:
        Forwarded to each window view's
        :class:`~repro.extensions.streaming.StreamingKDV` — full rebuild
        (drift reset) after this many expiry batches.
    quality:
        Optional :class:`~repro.serve.quality.QualityPolicy`.  ``None``
        (the default) keeps the historical behavior: exact tiles only, a
        full queue is an immediate :class:`ServiceOverloaded`.  With a
        policy, overloaded requests degrade tier-by-tier down the policy's
        ladder before any 503, honoring ``quality=``/``max_error`` request
        hints; degraded tiles carry calibrated error bounds and are
        refined to exact in the background when the pool drains.
    recorder:
        The metrics sink; a fresh :class:`~repro.obs.Recorder` by default.
    clock:
        Monotonic time source (injectable for TTL/tick-schedule tests).
        The tick *schedule* runs on this clock; window *cutoffs* use event
        time (the ingested-timestamp watermark), so replayed feeds age
        correctly regardless of wall time.
    executor:
        The render pool for cold-tile leaders and background refinements:
        any object with ``submit(fn, *args) -> Future`` and
        ``shutdown(wait, cancel_futures)``.  ``submit`` is called under the
        service lock, so it must only queue the job.  ``None`` builds a
        ``workers``-thread :class:`~concurrent.futures.ThreadPoolExecutor`;
        :meth:`close` shuts the pool down either way.
    coordinator:
        Optional :class:`repro.dist.Coordinator`: cold-tile renders then run
        with ``backend="dist"``, fanning each render's row shards out to the
        coordinator's worker pool (with its in-process fallback when no
        workers are reachable).  The coordinator is caller-owned — the
        service does not close it — and its distributed counters are folded
        into the :meth:`stats` dump so ``/metricz`` reports the distributed
        path.  Requires a SLAM ``method``.
    """

    def __init__(
        self,
        points,
        scheme: "TileScheme | None" = None,
        *,
        tile_size: int = 256,
        bandwidth: float = 500.0,
        kernel: str = "epanechnikov",
        method: str = "slam_bucket_rao",
        max_zoom: int = 8,
        workers: int = 2,
        queue_limit: "int | None" = None,
        deadline_s: "float | None" = None,
        cache_tiles: int = 256,
        cache_ttl_s: "float | None" = None,
        window_s: "float | None" = None,
        tick_s: "float | None" = None,
        max_windows: int = 4,
        window_rebuild_every: "int | None" = 1000,
        quality: "QualityPolicy | None" = None,
        recorder: "Recorder | None" = None,
        clock: Callable[[], float] = monotonic,
        executor=None,
        coordinator=None,
    ):
        from ..data.points import PointSet

        if isinstance(points, PointSet):
            xy, seed_t = points.xy, points.t
        else:
            xy, seed_t = np.asarray(points, float), None
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coordinates, got shape {xy.shape}")
        if len(xy) == 0:
            raise ValueError("cannot serve tiles for an empty dataset")
        if tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_zoom < 0:
            raise ValueError("max_zoom must be >= 0")
        if queue_limit is None:
            queue_limit = 4 * workers
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive or None")
        if tick_s is not None and tick_s <= 0:
            raise ValueError("tick_s must be positive or None")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")

        self.scheme = scheme or TileScheme.for_points(xy)
        self.tile_size = int(tile_size)
        self.bandwidth = float(bandwidth)
        self.kernel = kernel
        self.method = method
        self.max_zoom = int(max_zoom)
        self.workers = int(workers)
        self.queue_limit = int(queue_limit)
        self.deadline_s = deadline_s
        self.tick_s = tick_s
        self.max_windows = int(max_windows)
        self.window_rebuild_every = window_rebuild_every
        self.quality = quality
        self.recorder: Recorder = recorder if recorder is not None else Recorder()
        self._clock = clock
        self.coordinator = coordinator
        if coordinator is not None and method not in PARALLEL_METHODS:
            raise ValueError(
                f"coordinator requires a SLAM method "
                f"{PARALLEL_METHODS}, got {method!r}"
            )

        # Served views, keyed by window length (None = the all-time view).
        # Each view owns a streaming engine (incrementally-maintained overview
        # grid + live batches), a point snapshot, a cache-guarding version
        # counter, and the generation's shared y-sorted index.
        base_stream = self._new_stream(require_timestamps=False)
        base_stream.insert(xy, seed_t)
        self._views: "dict[float | None, WindowView]" = {
            None: WindowView(None, base_stream)
        }
        if window_s is not None:
            seconds = window_seconds(window_s)
            if seed_t is None:
                raise ValueError(
                    "window_s requires a timestamped seed (a PointSet with "
                    "t set); untimestamped events can never expire"
                )
            self._views[seconds] = self._make_window_view(seconds)

        self._cache = TTLCache(cache_tiles, ttl_s=cache_ttl_s, clock=clock)
        self._lock = threading.Lock()
        self._inflight: dict[tuple, object] = {}
        # quality degradation state: synchronous degraded renders in
        # progress (they bypass the pool but still count as load), and the
        # queue of degraded serves awaiting background refinement to exact
        self._degraded_active = 0
        self._refine: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._closed = False
        self._pool = executor if executor is not None else ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="kdv-render"
        )
        self._started = clock()
        self._last_tick = clock()
        self._window_ticks = 0
        self._window_expired = 0

    def _new_stream(self, require_timestamps: bool) -> StreamingKDV:
        return StreamingKDV(
            region=self.scheme.world,
            size=(min(self.tile_size, 256), min(self.tile_size, 256)),
            kernel=self.kernel,
            bandwidth=self.bandwidth,
            method=self.method,
            rebuild_every=self.window_rebuild_every,
            require_timestamps=require_timestamps,
        )

    # -- request path ------------------------------------------------------

    def check_key(self, zoom: int, tx: int, ty: int) -> None:
        """Raise ``ValueError`` unless ``(zoom, tx, ty)`` is a servable tile."""
        if zoom > self.max_zoom:
            raise ValueError(
                f"zoom {zoom} beyond the served pyramid (max_zoom={self.max_zoom})"
            )
        # delegates range checks (including zoom >= 0) to the scheme
        self.scheme.tile_region(zoom, tx, ty)

    def get_tile(
        self,
        zoom: int,
        tx: int,
        ty: int,
        deadline_s: "float | None | type[Ellipsis]" = ...,
        window: "float | str | None" = None,
        quality=None,
        max_error=None,
    ) -> np.ndarray:
        """The density grid of one tile (see :meth:`request_tile`, which
        this delegates to and whose :class:`~repro.serve.quality.TileResponse`
        carries the tier and error-bound metadata this form drops)."""
        return self.request_tile(
            zoom, tx, ty, deadline_s=deadline_s, window=window,
            quality=quality, max_error=max_error,
        ).grid

    def request_tile(
        self,
        zoom: int,
        tx: int,
        ty: int,
        deadline_s: "float | None | type[Ellipsis]" = ...,
        window: "float | str | None" = None,
        quality=None,
        max_error=None,
        wait: bool = True,
    ) -> "TileResponse | PendingTile":
        """One tile plus its quality metadata, rendered at most once
        concurrently per tier.

        ``window=<seconds>`` serves the tile over only the trailing window
        of the timestamped feed (creating the window view on first use);
        windowed tiles cache and invalidate independently of the all-time
        pyramid.  With a quality policy attached, ``quality=<tier>`` pins
        an explicit tier and ``max_error=<eps>`` restricts the ladder to
        tiers whose advertised bound fits; under load, requests degrade
        tier-by-tier down the ladder before any overload rejection.

        Raises ``ValueError`` for out-of-pyramid keys,
        :class:`~repro.serve.window.WindowError` for malformed or
        unservable windows, :class:`~repro.serve.quality.QualityError` for
        malformed or unservable quality hints, :class:`ServiceOverloaded`
        when even the cheapest admissible tier is saturated,
        :class:`ServiceTimeout` when the deadline elapses first, and
        :class:`ServiceClosed` during shutdown.  ``deadline_s`` overrides
        the service default for this request (``...`` keeps the default).

        ``wait=False`` never blocks on the render pool: when the answer
        requires waiting for an in-flight exact render, a
        :class:`PendingTile` is returned instead (its :meth:`~PendingTile.
        resolve` performs the wait) and ``deadline_s`` is ignored — the
        caller owns the deadline.  Everything answerable immediately (cache
        hits, synchronous degraded renders, rejections) behaves exactly as
        with ``wait=True``.
        """
        rec = self.recorder
        self.check_key(zoom, tx, ty)
        pinned = self._parse_quality(quality)
        max_error = self._parse_max_error(max_error)
        self._maybe_auto_tick()
        view = self._view_for(window)
        rec.count("serve.tile_requests")
        ladder = self._ladder_for(view, pinned, max_error)
        exact_key = view.cache_key(zoom, tx, ty)

        # cache probe, best admissible tier first; the first probe keeps
        # the historical one-tally-per-request hit/miss accounting
        grid = self._cache.get(self._tier_key(view, zoom, tx, ty, ladder[0]))
        if grid is not None:
            rec.count("tiles.cache.hits")
            return self._respond(view, ladder[0], grid)
        rec.count("tiles.cache.misses")
        for tier in ladder[1:]:
            grid = self._cache.get(
                self._tier_key(view, zoom, tx, ty, tier), count=False
            )
            if grid is not None:
                # a live degraded entry answers instantly; queue its
                # refinement so idle pool time upgrades it to exact
                with self._lock:
                    self._enqueue_refinement(view, (zoom, tx, ty))
                self._maybe_refine()
                rec.count(f"quality.served.{tier.kind}")
                return self._respond(view, tier, grid)

        chosen: "Tier | None" = None
        future = None
        version = 0
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            load = len(self._inflight) + self._degraded_active
            for i, tier in enumerate(ladder):
                if tier.kind == "exact":
                    future = self._inflight.get(exact_key)
                    if future is not None:
                        if len(ladder) == 1 or load < self.queue_limit:
                            rec.count("serve.coalesce.joined")
                            chosen = tier
                            break
                        # an exact render is already warming this tile, but
                        # the service is saturated: degrade instead of a
                        # potentially long join
                        future = None
                        continue
                    # the render may have landed between the cache probe and
                    # here (count=False: this request's miss is already
                    # tallied)
                    grid = self._cache.get(exact_key, count=False)
                    if grid is not None:
                        rec.count("tiles.cache.hits")
                        return self._respond(view, tier, grid)
                    if load < self.queue_limit:
                        rec.count("serve.coalesce.leaders")
                        future = self._pool.submit(
                            self._render_into_cache,
                            exact_key,
                            (zoom, tx, ty),
                            view,
                            view.version,
                            view.points,
                        )
                        self._inflight[exact_key] = future
                        rec.set_gauge("serve.queue_depth", len(self._inflight))
                        chosen = tier
                        break
                    continue
                # degraded rung i admits while load < queue_limit +
                # i * tier_headroom: rising saturation steps requests down
                # the ladder; a pinned tier is always admitted (the client
                # asked for exactly this cheap render)
                if pinned is not None or load < (
                    self.queue_limit + i * self.quality.tier_headroom
                ):
                    chosen = tier
                    version = view.version
                    self._degraded_active += 1
                    break
            if chosen is None:
                rec.count("serve.rejected.overload")
                raise ServiceOverloaded(
                    f"render queue full ({self.queue_limit} in flight)",
                    retry_after_s=self._retry_after(),
                )

        if chosen.kind == "exact":
            if not wait:
                return PendingTile(self, view, chosen, exact_key, future)
            timeout = self.deadline_s if deadline_s is ... else deadline_s
            return self._await_render(view, chosen, exact_key, future, timeout)

        # degraded tiers render synchronously on the request thread: they
        # are cheap by construction and the pool is by definition busy
        try:
            with rec.span("quality.render"):
                grid = self._render_degraded(view, version, (zoom, tx, ty), chosen)
        finally:
            with self._lock:
                self._degraded_active -= 1
        grid = np.asarray(grid)
        grid.setflags(write=False)
        with self._lock:
            if version == view.version and not self._closed:
                evicted = self._cache.put(
                    self._tier_key(view, zoom, tx, ty, chosen),
                    grid,
                    ttl_s=self.quality.degraded_ttl_s,
                )
                if evicted:
                    rec.count("tiles.cache.evictions", evicted)
                self._enqueue_refinement(view, (zoom, tx, ty))
            else:
                rec.count("serve.render.stale")
        rec.count(f"quality.served.{chosen.kind}")
        self._maybe_refine()
        return self._respond(view, chosen, grid)

    def _await_render(
        self, view: WindowView, tier: Tier, key: tuple, future, timeout
    ) -> TileResponse:
        """Wait for a pool render and package its response (shared by the
        blocking :meth:`request_tile` path and :meth:`PendingTile.resolve`,
        so both count deadline rejections identically)."""
        try:
            grid = future.result(timeout=timeout)
        except FutureTimeoutError:
            self.recorder.count("serve.rejected.deadline")
            raise ServiceTimeout(
                f"tile {key} not rendered within {timeout:.3f}s"
            ) from None
        except CancelledError:
            # a queued render cancelled by shutdown before it started
            raise ServiceClosed(
                "service shut down before the render ran"
            ) from None
        return self._respond(view, tier, grid)

    def tile_image(
        self, zoom: int, tx: int, ty: int, colormap: str = "heat", **kwargs
    ) -> np.ndarray:
        """RGB tile (north-up) on the serving view's stable color scale."""
        grid = self.get_tile(zoom, tx, ty, **kwargs)
        return self.colorize_tile(grid, colormap=colormap,
                                  window=kwargs.get("window"))

    def colorize_tile(
        self, grid: np.ndarray, colormap: str = "heat", window=None
    ) -> np.ndarray:
        """Color one served grid on its view's stable scale (shared by
        :meth:`tile_image` and the HTTP ``.png`` path, which colors the
        grid of a :meth:`request_tile` response to keep its headers)."""
        from ..viz.colormap import colorize

        peak = self._view_for(window).color_peak()
        return colorize((grid / peak)[::-1], colormap)

    def _view_for(self, window: "float | str | None") -> WindowView:
        """Resolve a ``window=`` value to its view, creating it on first use.

        Lazy creation replays the all-time engine's batch history into a
        fresh windowed engine (skipping batches already entirely older than
        the window), so a cold ``window=`` request costs one sweep of the
        *live-window* points, not of all history.
        """
        if window is None:
            return self._views[None]
        seconds = window_seconds(window)
        with self._lock:
            view = self._views.get(seconds)
            if view is not None:
                return view
            if self._closed:
                raise ServiceClosed("service is shutting down")
            if len(self._views) - 1 >= self.max_windows:
                live = sorted(s for s in self._views if s is not None)
                raise WindowError(
                    f"too many distinct windows (max_windows="
                    f"{self.max_windows}); live windows: {live}"
                )
            view = self._make_window_view(seconds)
            self._views[seconds] = view
            return view

    def _make_window_view(self, seconds: float) -> WindowView:
        """Build the maintained view of the trailing ``seconds`` window
        (caller holds ``self._lock``, or is the constructor)."""
        base = self._views[None].stream
        batches = base.batches()
        if any(t is None for _xy, t in batches):
            raise WindowError(
                "window= requires a fully timestamped feed, but part of the "
                "history was ingested without timestamps"
            )
        watermark = base.latest_time
        cutoff = None if watermark is None else watermark - seconds
        stream = self._new_stream(require_timestamps=True)
        for xy, t in batches:
            # batches entirely older than the window would be inserted and
            # immediately expired — two wasted sweeps
            if cutoff is not None and float(t.max()) < cutoff:
                continue
            stream.insert(xy, t)
        if cutoff is not None:
            stream.expire_before(cutoff)
        return WindowView(seconds, stream)

    # -- quality tiers ------------------------------------------------------

    def _parse_quality(self, quality) -> "Tier | None":
        """Validate a ``quality=`` hint against the policy's ladder."""
        if quality is None:
            return None
        tier = parse_tier(quality)
        if tier.kind == "exact":
            return tier
        if self.quality is None:
            raise QualityError(
                "quality tiers are disabled (service has no quality "
                "policy); only quality=exact is served"
            )
        if tier not in self.quality.ladder():
            names = [t.name for t in self.quality.ladder()]
            raise QualityError(
                f"unknown quality tier {tier.name!r}; available: {names}"
            )
        return tier

    def _parse_max_error(self, max_error) -> "float | None":
        """Validate a ``max_error=`` hint; the policy's server-side default
        applies when the request carries none."""
        if max_error is None:
            return (
                self.quality.default_max_error
                if self.quality is not None
                else None
            )
        try:
            value = float(max_error)
        except (TypeError, ValueError):
            raise QualityError(
                f"max_error must be a number, got {max_error!r}"
            ) from None
        if not math.isfinite(value) or value < 0:
            raise QualityError(
                f"max_error must be finite and >= 0, got {max_error!r}"
            )
        return value

    def _ladder_for(
        self, view: WindowView, pinned: "Tier | None", max_error: "float | None"
    ) -> "tuple[Tier, ...]":
        """The admissible tiers for one request, best first.

        A pinned tier is the whole ladder (no fallback — the client asked
        for exactly that quality); a ``max_error`` cap filters the policy's
        ladder to tiers whose advertised bound fits (exact, bound 0,
        always qualifies, so the ladder is never empty).
        """
        if pinned is not None:
            return (pinned,)
        if self.quality is None:
            return (EXACT,)
        ladder = self.quality.ladder()
        if max_error is not None:
            bounds = self._quality_bounds(view)
            ladder = tuple(
                tier for tier in ladder
                if tier.kind == "exact"
                or bounds.get(tier.name, math.inf) <= max_error
            )
        return ladder

    def _tier_key(
        self, view: WindowView, zoom: int, tx: int, ty: int, tier: Tier
    ) -> tuple:
        return view.cache_key(zoom, tx, ty, tier.name)

    def _respond(self, view: WindowView, tier: Tier, grid) -> TileResponse:
        if tier.kind == "exact":
            return TileResponse(grid=grid, tier=EXACT.name, error_bound=0.0)
        bounds = self._quality_bounds(view)
        bound = bounds.get(tier.name)
        if bound is None:
            # a tier outside the calibrated set (policy changed mid-flight):
            # fall back to the analysis-backed bound
            bound = max(
                self.quality.theoretical_bound(tier, len(view.points)),
                self.quality.error_floor,
            )
        return TileResponse(grid=grid, tier=tier.name, error_bound=bound)

    def _render_degraded(
        self, view: WindowView, version: int, tile: tuple, tier: Tier
    ) -> np.ndarray:
        """One synchronous degraded render (pyramid or coreset tier)."""
        region = self.scheme.tile_region(*tile)
        size = (self.tile_size, self.tile_size)
        with self._lock:
            points = view.points
        if tier.kind == "pyramid":
            return pyramid_grid(
                points, region, size,
                level=tier.param,
                bandwidth=self.bandwidth,
                kernel=self.kernel,
                method=self.method,
                ysorted=self._ysorted_for(view, version),
            )
        return coreset_grid(
            points, region, size,
            sample_size=tier.param,
            bandwidth=self.bandwidth,
            kernel=self.kernel,
            method=self.method,
            order=self._zorder_for(view, version),
        )

    def _zorder_for(self, view: WindowView, version: int):
        """The view's current-generation shared Z-order permutation, built
        at most once per generation (``None`` for stale renders — same
        discipline as :meth:`_ysorted_for`)."""
        with self._lock:
            if version != view.version:
                return None
            order, built = view.build_zorder()
            if built:
                self.recorder.count("quality.zorder_builds")
            return order

    def _quality_bounds(self, view: WindowView) -> "dict[str, float]":
        """The view's calibrated quality bounds, measured at most once per
        ingest generation (lazily, on the first degraded serve or
        ``max_error``-filtered request of the generation)."""
        policy = self.quality
        if policy is None:
            return {EXACT.name: 0.0}
        with self._lock:
            if view.quality_bounds is not None:
                return view.quality_bounds
            version = view.version
            points = view.points
        order = self._zorder_for(view, version)
        with self.recorder.span("quality.calibrate"):
            bounds = calibrate(
                policy, points, self.scheme,
                bandwidth=self.bandwidth,
                kernel=self.kernel,
                method=self.method,
                order=order,
            )
        with self._lock:
            if view.version == version and view.quality_bounds is None:
                view.quality_bounds = bounds
                self.recorder.count("quality.calibrations")
            elif view.quality_bounds is not None:
                bounds = view.quality_bounds
        return bounds

    def _enqueue_refinement(self, view: WindowView, tile: tuple) -> None:
        """Remember a degraded serve so idle pool time upgrades it to an
        exact render (caller holds ``self._lock``)."""
        if self.quality is None or self._closed:
            return
        self._refine[(view.seconds, tile)] = (view, view.version, tile)

    def _maybe_refine(self) -> None:
        """Spend idle pool capacity refining degraded serves to exact.

        Runs only once the pool has fully drained (``_inflight`` empty) —
        refinement must never compete with live exact renders — and then
        submits queued refinements up to ``queue_limit``.  Called after
        every pool render completes and after every synchronous degraded
        render, so the queue drains as soon as load allows.
        """
        if self.quality is None:
            return
        rec = self.recorder
        with self._lock:
            if self._closed or self._inflight or not self._refine:
                return
            while self._refine and len(self._inflight) < self.queue_limit:
                _, (view, version, tile) = self._refine.popitem(last=False)
                if version != view.version:
                    continue  # a newer generation owns this tile now
                exact_key = view.cache_key(*tile)
                if exact_key in self._inflight:
                    continue
                if self._cache.get(exact_key, count=False) is not None:
                    continue  # already exact
                future = self._pool.submit(
                    self._refine_into_cache,
                    exact_key, tile, view, version, view.points,
                )
                self._inflight[exact_key] = future
                rec.set_gauge("serve.queue_depth", len(self._inflight))

    def _refine_into_cache(
        self, key: tuple, tile: tuple, view: WindowView, version: int,
        points: np.ndarray,
    ) -> np.ndarray:
        """A background exact render replacing a degraded serve: renders
        through the normal caching path, then drops the tile's degraded
        variants so the next request steps straight up to exact."""
        grid = self._render_into_cache(key, tile, view, version, points)
        with self._lock:
            if version == view.version:
                stale = [
                    k for k in self._cache.keys()
                    if len(k) == len(key) + 1
                    and k[: len(key)] == key
                    and isinstance(k[-1], str)
                ]
                self._cache.invalidate(stale)
                self.recorder.count("quality.refined")
        return grid

    def _render_into_cache(
        self,
        key: tuple,
        tile: tuple[int, int, int],
        view: WindowView,
        version: int,
        points: np.ndarray,
    ) -> np.ndarray:
        rec = self.recorder
        try:
            ysorted = self._ysorted_for(view, version)
            with rec.span("tiles.render"):
                # the module global, read per call, so a wrapper installed
                # after construction (span tracing) sees every render
                grid = render_tile(
                    points,
                    self.scheme,
                    *tile,
                    tile_size=self.tile_size,
                    bandwidth=self.bandwidth,
                    kernel=self.kernel,
                    method=self.method,
                    ysorted=ysorted,
                    # a coordinator fans the sweep out to its worker pool
                    backend=None if self.coordinator is None else "dist",
                    coordinator=self.coordinator,
                )
            grid = np.asarray(grid)
            grid.setflags(write=False)  # shared across waiters and the cache
            with self._lock:
                if version == view.version:
                    evicted = self._cache.put(key, grid)
                    if evicted:
                        rec.count("tiles.cache.evictions", evicted)
                else:
                    # an ingest/tick landed mid-render: hand the grid to the
                    # waiters (it answers the request they made) but do not
                    # cache the now-stale tile
                    rec.count("serve.render.stale")
            return grid
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                rec.set_gauge("serve.queue_depth", len(self._inflight))
            # a completed render may have drained the pool: spend the idle
            # capacity refining degraded serves to exact
            self._maybe_refine()

    def _ysorted_for(self, view: WindowView, version: int):
        """The view's current-generation shared y-sorted index, built at most
        once per generation.

        ``None`` for non-SLAM methods (which cannot consume an index) and for
        stale renders (``version`` behind the view's): building an index for
        a dead generation would waste the sort *and* break the
        one-build-per-generation accounting, so a stale render just lets
        ``compute_kdv`` sort its own snapshot.  The build runs under
        :attr:`_lock`, so concurrent cold renders of one generation still
        produce exactly one build (one ``tiles.ysorted_builds`` count).
        """
        if self.method not in PARALLEL_METHODS:
            return None
        with self._lock:
            if version != view.version:
                return None
            index, built = view.build_ysorted()
            if built:
                self.recorder.count("tiles.ysorted_builds")
            return index

    def _retry_after(self) -> float:
        """503 Retry-After estimate: one average render, floored at 100 ms."""
        timer = self.recorder.timer("tiles.render")
        if timer.calls:
            return max(timer.total_seconds / timer.calls, 0.1)
        return 1.0

    # -- live ingest and window ticks --------------------------------------

    def ingest(self, xy, t=None) -> dict:
        """Insert a batch of events and invalidate exactly the tiles it touches.

        ``t`` carries per-event timestamps (seconds; any monotone epoch) —
        required once any window view is live, because an untimestamped
        batch could never expire out of a window.  The batch lands in
        *every* view (all-time and each window), each of which invalidates
        only its own affected tiles.

        Returns ``{"inserted", "invalidated", "points"}``.  Raises
        ``ValueError`` for malformed batches (before any state changes) and
        :class:`ServiceClosed` during shutdown.
        """
        rec = self.recorder
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coordinates, got shape {xy.shape}")
        if not np.all(np.isfinite(xy)):
            raise ValueError("batch coordinates must be finite")
        if t is not None:
            t = np.asarray(t, dtype=np.float64)
            if t.shape != (len(xy),):
                raise ValueError("t must match the batch length")
            if not np.all(np.isfinite(t)):
                raise ValueError("batch timestamps must be finite")
        rec.count("serve.ingest_requests")
        invalidated = 0
        with rec.span("serve.ingest"):
            with self._lock:
                if self._closed:
                    raise ServiceClosed("service is shutting down")
                if t is None and len(self._views) > 1:
                    raise ValueError(
                        "window views are live; every ingest batch needs "
                        "per-event timestamps (t), or it could never expire"
                    )
                if len(xy):
                    for view in self._views.values():
                        view.stream.insert(xy, t)
                        view.bump()
                        invalidated += self._invalidate_affected([xy], view)
        rec.count("serve.ingested_points", len(xy))
        rec.count("serve.invalidated_tiles", invalidated)
        self._maybe_auto_tick()
        return {
            "inserted": int(len(xy)),
            "invalidated": int(invalidated),
            "points": self.points_count,
        }

    def tick(self, now: "float | None" = None) -> dict:
        """Advance every window view: expire events older than the window.

        ``now`` is the event-time reference; it defaults to the ingest
        watermark (the largest timestamp ever seen), so a replayed feed ages
        in its own clock.  Each view's expiry is one signed O(Δ) grid update
        (one sweep of the expired points), and only the tiles in the union
        of the expired batches' inflated MBRs are invalidated — tiles
        outside that set are provably byte-identical and stay cached.

        Returns a summary dict; with no window views live it is a cheap
        no-op.  Raises :class:`ServiceClosed` during shutdown.
        """
        rec = self.recorder
        results: list[dict] = []
        total_expired = 0
        total_invalidated = 0
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            self._last_tick = self._clock()
            windows = [v for v in self._views.values() if v.seconds is not None]
            if now is None:
                now = self._views[None].stream.latest_time
            if windows and now is not None:
                with rec.span("window.tick"):
                    for view in windows:
                        cutoff = now - view.seconds
                        rebuilds_before = view.stream.rebuilds
                        removed, expired = view.stream.expire_before(
                            cutoff, collect=True
                        )
                        invalidated = 0
                        if removed:
                            view.bump()
                            invalidated = self._invalidate_affected(expired, view)
                        rebuilt = view.stream.rebuilds - rebuilds_before
                        if rebuilt:
                            rec.count("window.rebuilds", rebuilt)
                            rec.set_gauge(
                                "window.drift", view.stream.last_rebuild_drift
                            )
                        total_expired += removed
                        total_invalidated += invalidated
                        results.append(
                            {
                                "window": view.seconds,
                                "expired": removed,
                                "invalidated": invalidated,
                                "points": len(view.stream),
                            }
                        )
                self._window_ticks += 1
                self._window_expired += total_expired
                rec.count("window.ticks")
                rec.count("window.expired_points", total_expired)
        return {
            "now": None if now is None else float(now),
            "windows": results,
            "expired": int(total_expired),
            "invalidated": int(total_invalidated),
            "ticks": self._window_ticks,
        }

    def _maybe_auto_tick(self) -> None:
        """Run a scheduled tick if ``tick_s`` has elapsed since the last one.

        Piggybacks on request traffic (called from :meth:`get_tile` and
        :meth:`ingest`), so there is no background thread and an idle
        service does no work; the first request after a quiet stretch pays
        one tick.
        """
        if self.tick_s is None or len(self._views) <= 1:
            return
        if self._clock() - self._last_tick >= self.tick_s:
            self.tick()

    def _invalidate_affected(self, batches, view: WindowView) -> int:
        """Drop the view's cached tiles intersecting any batch MBR + one
        bandwidth — the union of the batches' affected sets, mapped into the
        view's cache namespace (every quality tier of an affected tile is
        dropped: degraded keys carry the tile address plus a tier suffix).
        Caller holds ``self._lock``; in-flight renders are version-guarded."""
        mine = [key for key in self._cache.keys() if view.owns_key(key)]
        if not mine:
            return 0
        zooms = {key[0] for key in mine}
        affected: set = set()
        for zoom in zooms:
            for batch in batches:
                affected |= affected_tiles(self.scheme, zoom, batch, self.bandwidth)
        doomed = []
        for key in mine:
            base = key[:-1] if isinstance(key[-1], str) else key
            if base[:3] in affected:
                doomed.append(key)
        return self._cache.invalidate(doomed)

    # -- introspection -----------------------------------------------------

    @property
    def points_count(self) -> int:
        """Number of live events in the all-time view."""
        return len(self._views[None].stream)

    @property
    def _points(self) -> np.ndarray:
        """The all-time view's point snapshot (kept for tests/tools that
        re-render tiles outside the service)."""
        return self._views[None].points

    @property
    def queue_depth(self) -> int:
        """In-flight renders (running + queued)."""
        return len(self._inflight)

    @property
    def windows(self) -> list[float]:
        """The live window lengths, ascending."""
        return sorted(s for s in self._views if s is not None)

    def health(self) -> dict:
        """The ``/healthz`` payload."""
        with self._lock:
            status = "closing" if self._closed else "ok"
            inflight = len(self._inflight)
            windows = len(self._views) - 1
        return {
            "status": status,
            "points": self.points_count,
            "tiles_cached": len(self._cache),
            "inflight": inflight,
            "windows": windows,
            "uptime_s": self._clock() - self._started,
        }

    def stats(self) -> dict:
        """The ``/metricz`` payload: recorder dump + live cache/queue/window
        state.

        With a coordinator attached, its accumulated distributed counters
        (``dist.shards``, ``dist.retries``, ``dist.worker_deaths``, byte
        counts, per-shard phases) are folded into the dump — through a
        scratch recorder, so repeated calls never double-count.
        """
        self.recorder.set_gauge("serve.queue_depth", self.queue_depth)
        self.recorder.set_gauge("serve.cache_size", len(self._cache))
        if self.coordinator is not None:
            merged = Recorder()
            merged.merge(self.recorder.snapshot())
            merged.merge(self.coordinator.recorder.snapshot())
            recorder_snapshot = merged.snapshot()
        else:
            recorder_snapshot = self.recorder.snapshot()
        with self._lock:
            views = [
                view.describe()
                for _seconds, view in sorted(
                    ((s, v) for s, v in self._views.items() if s is not None),
                    key=lambda item: item[0],
                )
            ]
            quality = None
            if self.quality is not None:
                quality = {
                    "policy": self.quality.describe(),
                    "bounds": {
                        "all" if s is None else f"{s:g}": dict(
                            v.quality_bounds or {}
                        )
                        for s, v in self._views.items()
                    },
                    "pending_refinements": len(self._refine),
                    "degraded_active": self._degraded_active,
                }
        return {
            "quality": quality,
            "recorder": recorder_snapshot,
            "cache": {
                "size": len(self._cache),
                "capacity": self._cache.capacity,
                "ttl_s": self._cache.ttl_s,
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
                "expirations": self._cache.expirations,
            },
            "queue": {"depth": self.queue_depth, "limit": self.queue_limit},
            "window": {
                "ticks": self._window_ticks,
                "tick_s": self.tick_s,
                "expired_points": self._window_expired,
                "max_windows": self.max_windows,
                "views": views,
            },
            "points": self.points_count,
            "uptime_s": self._clock() - self._started,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop accepting work and shut the render pool down.

        With ``drain=True`` (the default, and what SIGINT does) in-flight
        renders finish and their waiters get answers; queued-but-unstarted
        renders are cancelled either way.  Afterwards no pool thread is left
        alive.  Idempotent.
        """
        with self._lock:
            self._closed = True
            self._refine.clear()
        self._pool.shutdown(wait=drain, cancel_futures=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "TileService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
