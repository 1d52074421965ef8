"""Multi-bandwidth KDV batches (bandwidth exploration).

Bandwidth selection is one of the paper's exploratory operations (Figure 2):
analysts render the same data at several smoothing scales to separate micro
from macro hotspots.  The paper cites the SAFE framework [17] for sharing
work across bandwidths; with SLAM the dominant sharable cost is the y-sort
of the dataset, which is identical for every bandwidth.  This module batches
the computation so that sort happens once, in the orientation the sweep
reads (RAO may transpose, which needs the other coordinate's sort).  A
:class:`~repro.data.points.PointSet` keeps that sort across calls, so a
repeat batch over the same set sorts nothing.
"""

from __future__ import annotations

import numpy as np

from ..core.engines import slam_bucket_grid, slam_sort_grid
from ..core.envelope import YSortedIndex
from ..core.kernels import get_kernel
from ..core.rao import rao_orientation
from ..core.result import KDVResult
from ..data.points import PointSet
from ..viz.region import Raster, Region

__all__ = ["compute_multiband"]

_VARIANTS = {
    "slam_sort": slam_sort_grid,
    "slam_bucket": slam_bucket_grid,
}


def compute_multiband(
    points: "PointSet | np.ndarray",
    bandwidths: "list[float] | np.ndarray",
    region: Region | None = None,
    size: tuple[int, int] = (1280, 960),
    kernel: str = "epanechnikov",
    variant: str = "slam_bucket",
    engine: str = "auto",
    rao: bool = True,
    normalization: str = "count",
) -> list[KDVResult]:
    """Compute one exact KDV per bandwidth, sharing dataset preprocessing.

    Parameters
    ----------
    bandwidths:
        Positive bandwidth values (any order; results match input order).
    variant:
        ``"slam_bucket"`` (default) or ``"slam_sort"``.
    rao:
        Apply the resolution-aware orientation (shared across bandwidths —
        the raster does not change).

    Returns
    -------
    One :class:`KDVResult` per bandwidth.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; available: {sorted(_VARIANTS)}")
    bandwidths = [float(b) for b in np.asarray(bandwidths, dtype=np.float64).ravel()]
    if not bandwidths:
        raise ValueError("need at least one bandwidth")
    if any(b <= 0 for b in bandwidths):
        raise ValueError("bandwidths must be positive")
    if normalization not in ("none", "count"):
        raise ValueError("normalization must be 'none' or 'count'")

    weights = None
    if isinstance(points, PointSet):
        xy = points.xy
        weights = points.w
        ysorted = points.ysorted_index()
        if region is None:
            region = Region.from_extents(*points.bounds())
    else:
        xy = np.asarray(points, dtype=np.float64)
        ysorted = YSortedIndex.deferred(xy)
        if region is None:
            region = Region.from_points(xy)
    raster = Raster(region, *size)
    kernel_obj = get_kernel(kernel)
    grid_fn = _VARIANTS[variant][engine]

    transpose = rao and rao_orientation(raster) == "columns"
    if transpose:
        sweep_xy = xy[:, ::-1]
        sweep_raster = raster.transposed()
        ysorted = ysorted.transposed()
    else:
        sweep_xy = xy
        sweep_raster = raster

    total_mass = float(weights.sum()) if weights is not None else float(len(xy))
    results = []
    for b in bandwidths:
        grid = grid_fn(
            sweep_xy, sweep_raster, kernel_obj, b, ysorted=ysorted, weights=weights
        )
        if transpose:
            grid = np.ascontiguousarray(grid.T)
        if normalization == "count" and total_mass > 0:
            grid = grid / total_mass
        results.append(
            KDVResult(
                grid=grid,
                raster=raster,
                kernel=kernel_obj.name,
                bandwidth=b,
                method=f"{variant}{'_rao' if rao else ''}",
                normalization=normalization,
                n_points=len(xy),
                exact=True,
            )
        )
    return results
