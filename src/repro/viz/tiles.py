"""Slippy-map tile rendering of KDV heat maps.

Web maps (the deployment target of tools like KDV-Explorer, which the paper
builds on) draw raster layers as a pyramid of fixed-size tiles addressed by
``(zoom, tx, ty)``.  This module renders exact KDV tiles on demand:

* :class:`TileScheme` maps tile addresses to world-coordinate regions over a
  configurable square world bounds (use :class:`~repro.data.projection.WebMercator`
  bounds for real maps, or a dataset MBR for local data);
* :func:`render_tile` computes the *exact* density for one tile — crucially,
  points **outside** the tile still contribute within one bandwidth of its
  border, so adjacent tiles are seamless (asserted by the tests).

:class:`repro.serve.TileService` serves them: tile cache, request
coalescing, ingest, and a pyramid-wide color scale.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.api import PARALLEL_METHODS, compute_kdv
from ..core.envelope import YSortedIndex
from ..viz.region import Region

__all__ = ["TileScheme", "render_tile"]


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
    (:class:`~repro.serve.TileService` does this for every tile of an
    ingest generation).

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
