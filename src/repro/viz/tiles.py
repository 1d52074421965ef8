"""Slippy-map tile rendering of KDV heat maps.

Web maps (the deployment target of tools like KDV-Explorer, which the paper
builds on) draw raster layers as a pyramid of fixed-size tiles addressed by
``(zoom, tx, ty)``.  This module renders exact KDV tiles on demand:

* :class:`TileScheme` maps tile addresses to world-coordinate regions over a
  configurable square world bounds (use :class:`~repro.data.projection.WebMercator`
  bounds for real maps, or a dataset MBR for local data);
* :func:`render_tile` computes the *exact* density for one tile — crucially,
  points **outside** the tile still contribute within one bandwidth of its
  border, so adjacent tiles are seamless (asserted by the tests);
* :class:`TileRenderer` adds an LRU cache and density normalization shared
  across tiles so colors are consistent over the whole pyramid level.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from ..core.api import PARALLEL_METHODS, compute_kdv
from ..core.envelope import YSortedIndex
from ..obs import NULL_RECORDER, Recorder, active
from ..viz.region import Region

__all__ = ["TileScheme", "render_tile", "TileRenderer"]


class TileScheme:
    """Square tile pyramid over a square world region.

    Zoom level ``z`` splits the world into ``2^z x 2^z`` tiles; tile
    ``(tx, ty)`` covers column ``tx`` (west to east) and row ``ty`` (here
    *south to north*, consistent with the library's grid orientation).
    """

    def __init__(self, world: Region):
        _check_world(world)
        self.world = world

    @classmethod
    def for_points(cls, xy: np.ndarray, pad_fraction: float = 0.05) -> "TileScheme":
        """A scheme whose level-0 tile is the (padded, squared) data MBR."""
        region = Region.from_points(np.asarray(xy, float), pad_fraction=pad_fraction)
        side = max(region.width, region.height)
        cx, cy = region.center
        return cls(Region(cx - side / 2, cy - side / 2, cx + side / 2, cy + side / 2))

    def tiles_per_axis(self, zoom: int) -> int:
        if zoom < 0:
            raise ValueError("zoom must be >= 0")
        return 1 << zoom

    def tile_region(self, zoom: int, tx: int, ty: int) -> Region:
        """World rectangle of one tile."""
        per_axis = self.tiles_per_axis(zoom)
        if not (0 <= tx < per_axis and 0 <= ty < per_axis):
            raise ValueError(f"tile ({tx}, {ty}) out of range at zoom {zoom}")
        side_x = self.world.width / per_axis
        side_y = self.world.height / per_axis
        x0 = self.world.xmin + tx * side_x
        y0 = self.world.ymin + ty * side_y
        return Region(x0, y0, x0 + side_x, y0 + side_y)

    def tile_of_point(self, zoom: int, x: float, y: float) -> tuple[int, int]:
        """The tile containing a world point (clamped to the pyramid)."""
        _check_world(self.world)
        per_axis = self.tiles_per_axis(zoom)
        tx = int((x - self.world.xmin) / self.world.width * per_axis)
        ty = int((y - self.world.ymin) / self.world.height * per_axis)
        return (
            min(max(tx, 0), per_axis - 1),
            min(max(ty, 0), per_axis - 1),
        )


def _check_world(world: Region) -> None:
    """Reject zero-extent / non-finite world bounds with a clear error
    instead of the downstream ``ZeroDivisionError`` or silent NaN tiles."""
    width = float(world.width)
    height = float(world.height)
    if not (
        math.isfinite(width) and math.isfinite(height) and width > 0 and height > 0
    ):
        raise ValueError(
            f"degenerate world region: width={width!r}, height={height!r} "
            "(both must be finite and positive)"
        )


def render_tile(
    points,
    scheme: TileScheme,
    zoom: int,
    tx: int,
    ty: int,
    tile_size: int = 256,
    bandwidth: float = 500.0,
    kernel: str = "epanechnikov",
    method: str = "slam_bucket_rao",
    weights: np.ndarray | None = None,
    ysorted: "YSortedIndex | None" = None,
    backend: "str | None" = None,
    coordinator=None,
) -> np.ndarray:
    """Exact KDV density grid for one tile, shape ``(tile_size, tile_size)``.

    The computation uses the full dataset (SLAM's per-row envelope already
    skips everything farther than ``b`` from each row), so tile edges carry
    the correct contribution from neighbors and the pyramid is seamless.
    Every tile of a pyramid shares one dataset, so one y-sorted index
    serves them all.  A :class:`~repro.data.points.PointSet` brings its own
    (:meth:`~repro.data.points.PointSet.ysorted_index`, sorted on its
    first render); for a raw array, pass a pre-built ``ysorted`` index over
    that same array to skip the per-tile O(n log n) sort
    (:class:`TileRenderer` does this automatically).

    ``backend``/``coordinator`` select the sweep's execution backend for the
    SLAM methods (``backend="dist"`` with a :class:`repro.dist.Coordinator`
    fans the render out to a worker pool); both are only forwarded for
    methods that honor them, so baseline methods stay callable.
    """
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    region = scheme.tile_region(zoom, tx, ty)
    kwargs = {}
    if ysorted is not None:
        kwargs["ysorted"] = ysorted
    if backend is not None and method in PARALLEL_METHODS:
        kwargs["backend"] = backend
        if coordinator is not None:
            kwargs["coordinator"] = coordinator
    result = compute_kdv(
        points,
        region=region,
        size=(tile_size, tile_size),
        kernel=kernel,
        bandwidth=bandwidth,
        method=method,
        weights=weights,
        normalization="none",
        **kwargs,
    )
    return result.grid


class TileRenderer:
    """Cached tile rendering with pyramid-consistent coloring.

    Parameters
    ----------
    points:
        The dataset every tile is rendered from.
    scheme:
        Tile addressing; defaults to the dataset's squared MBR.
    cache_tiles:
        LRU capacity (tiles), since pan/zoom UIs re-request aggressively.
    recorder:
        Optional :class:`~repro.obs.Recorder`; when set, every lookup bumps
        the ``tiles.cache.hits`` / ``tiles.cache.misses`` /
        ``tiles.cache.evictions`` counters and each render is timed under a
        ``tiles.render`` phase.  The plain :attr:`cache_hits` /
        :attr:`cache_misses` / :attr:`cache_evictions` integers are always
        maintained regardless.
    """

    def __init__(
        self,
        points,
        scheme: TileScheme | None = None,
        tile_size: int = 256,
        bandwidth: float = 500.0,
        kernel: str = "epanechnikov",
        method: str = "slam_bucket_rao",
        cache_tiles: int = 64,
        recorder: "Recorder | None" = None,
    ):
        from ..data.points import PointSet

        self.points = points
        xy = points.xy if isinstance(points, PointSet) else np.asarray(points, float)
        if len(xy) == 0:
            raise ValueError("cannot render tiles for an empty dataset")
        self._xy = xy
        #: y-sorted index shared by every tile render (the dataset is fixed
        #: for the renderer's lifetime); built lazily on the first SLAM render
        self._ysorted: "YSortedIndex | None" = None
        self.scheme = scheme or TileScheme.for_points(xy)
        self.tile_size = tile_size
        self.bandwidth = float(bandwidth)
        self.kernel = kernel
        self.method = method
        if cache_tiles < 1:
            raise ValueError("cache_tiles must be >= 1")
        self._cache: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
        self._cache_capacity = cache_tiles
        #: Guards the LRU and serializes renders so concurrent ``tile()``
        #: calls neither corrupt the OrderedDict nor double-render a key.
        #: :class:`repro.serve.TileService` shares this lock when it drives
        #: a renderer directly.
        self.lock = threading.RLock()
        self.recorder = active(recorder)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        # per-level color scale: max density of the level-0 overview
        overview = self.tile(0, 0, 0)
        self._color_peak = float(overview.max()) or 1.0

    def tile(self, zoom: int, tx: int, ty: int) -> np.ndarray:
        """Density grid of a tile (cached; thread-safe).

        The whole lookup-render-store path holds :attr:`lock`, so concurrent
        callers can never observe the LRU mid-mutation or render the same key
        twice — the second caller blocks and then hits the cache.
        """
        rec = self.recorder
        key = (zoom, tx, ty)
        with self.lock:
            if key in self._cache:
                self.cache_hits += 1
                if rec is not None:
                    rec.count("tiles.cache.hits")
                self._cache.move_to_end(key)
                return self._cache[key]
            self.cache_misses += 1
            if rec is not None:
                rec.count("tiles.cache.misses")
            with (rec or NULL_RECORDER).span("tiles.render"):
                grid = render_tile(
                    self.points,
                    self.scheme,
                    zoom,
                    tx,
                    ty,
                    tile_size=self.tile_size,
                    bandwidth=self.bandwidth,
                    kernel=self.kernel,
                    method=self.method,
                    ysorted=self._ysorted_index(),
                )
            self._cache[key] = grid
            if len(self._cache) > self._cache_capacity:
                self._cache.popitem(last=False)
                self.cache_evictions += 1
                if rec is not None:
                    rec.count("tiles.cache.evictions")
            return grid

    def _ysorted_index(self) -> "YSortedIndex | None":
        """The shared y-sorted index, built at most once (caller holds
        :attr:`lock`).  ``None`` for non-SLAM methods, which cannot consume
        it.  Each build bumps the ``tiles.ysorted_builds`` counter — the
        tests pin this to exactly one per dataset."""
        if self.method not in PARALLEL_METHODS:
            return None
        if self._ysorted is None:
            self._ysorted = YSortedIndex(self._xy)
            if self.recorder is not None:
                self.recorder.count("tiles.ysorted_builds")
        return self._ysorted

    def invalidate(self, keys) -> int:
        """Drop the given ``(zoom, tx, ty)`` keys from the cache; returns how
        many were actually cached.  Used after the underlying dataset changes
        (see :mod:`repro.serve.invalidate` for computing the affected set)."""
        dropped = 0
        with self.lock:
            for key in keys:
                if self._cache.pop(tuple(key), None) is not None:
                    dropped += 1
        return dropped

    def clear(self) -> None:
        """Empty the tile cache."""
        with self.lock:
            self._cache.clear()

    def tile_image(self, zoom: int, tx: int, ty: int, colormap: str = "heat"):
        """RGB tile (north-up) colored on the pyramid-wide scale."""
        from ..viz.colormap import colorize

        grid = self.tile(zoom, tx, ty)
        return colorize((grid / self._color_peak)[::-1], colormap)
