"""Resolution-aware optimization (RAO, paper Section 3.6).

The per-row cost of a SLAM sweep multiplies the *number of rows* by the
per-row envelope work, so when the raster is taller than it is wide
(``Y > X``) it is cheaper to sweep along columns instead: evaluate all pixels
sharing an *x*-coordinate in one sweep.  RAO simply picks the orientation with
fewer sweeps, giving ``O(min(X, Y) * (max(X, Y) + n))`` for
SLAM_BUCKET^(RAO) (Theorem 3) with no extra space (Theorem 4).

Implementation: the kernels of Table 2 depend only on Euclidean distance, so
swapping the x/y coordinates of both the points and the raster leaves every
density value unchanged.  A column sweep is therefore a row sweep on the
transposed problem, and the result grid transposes back.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import Recorder, active
from ..viz.region import Raster
from .kernels import Kernel

__all__ = ["with_rao", "rao_orientation"]


def rao_orientation(raster: Raster) -> str:
    """Which sweep orientation RAO picks: ``"rows"`` when ``X >= Y`` (the
    default of Section 3.4/3.5), else ``"columns"``."""
    return "rows" if raster.width >= raster.height else "columns"


def with_rao(grid_fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Wrap a row-sweeping grid function with the RAO orientation choice.

    The wrapped function has the same signature as the base grid functions
    (``xy, raster, kernel, bandwidth``); extra keyword arguments (e.g. the
    dist backend's ``coordinator``) pass through untouched.  A
    caller-supplied ``ysorted`` index is honored in *both* orientations: a
    column sweep runs on the transposed problem, which sorts by the other
    coordinate, so the wrapper forwards the index's cached coordinate-swapped
    twin (:meth:`repro.core.envelope.YSortedIndex.transposed`) instead of
    silently dropping the index and re-sorting.
    """

    def rao_grid(
        xy: np.ndarray,
        raster: Raster,
        kernel: Kernel,
        bandwidth: float,
        ysorted=None,
        weights: np.ndarray | None = None,
        workers: "int | str | None" = 1,
        backend: str = "process",
        stats: dict | None = None,
        recorder: "Recorder | None" = None,
        **kwargs,
    ) -> np.ndarray:
        orientation = rao_orientation(raster)
        if stats is not None:
            stats["orientation"] = orientation
        rec = active(recorder)
        if rec is not None:
            rec.count(f"rao.{orientation}_sweeps")
        if orientation == "rows":
            return grid_fn(
                xy,
                raster,
                kernel,
                bandwidth,
                ysorted=ysorted,
                weights=weights,
                workers=workers,
                backend=backend,
                stats=stats,
                recorder=recorder,
                **kwargs,
            )
        xy_swapped = np.asarray(xy, dtype=np.float64)[:, ::-1]
        transposed = grid_fn(
            xy_swapped,
            raster.transposed(),
            kernel,
            bandwidth,
            ysorted=None if ysorted is None else ysorted.transposed(),
            weights=weights,
            workers=workers,
            backend=backend,
            stats=stats,
            recorder=recorder,
            **kwargs,
        )
        return np.ascontiguousarray(transposed.T)

    return rao_grid
