"""Exploratory KDV sessions: zooming, panning, filtering (paper Figure 2).

Domain experts generate *many* KDVs per dataset via exploratory operations —
zoom, pan, bandwidth selection, attribute-based filtering, time-based
filtering — which is why per-frame latency matters so much (paper Section 1,
and the Figure 16 experiments).  :class:`ExplorationSession` models that
loop: it holds the dataset and a current viewport and renders a fresh KDV
after every operation, recording per-frame latency so sessions double as the
measurement harness for the Figure 16 benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from ..data.points import PointSet

if TYPE_CHECKING:  # imported lazily at call time to avoid a package cycle
    from ..core.result import KDVResult
from .bandwidth import scott_bandwidth
from .region import Region

__all__ = ["ExplorationSession", "FrameRecord", "random_pan_regions"]


@dataclass
class FrameRecord:
    """One rendered frame of an exploratory session."""

    operation: str
    region: Region
    n_points: int
    seconds: float
    result: "KDVResult"


def random_pan_regions(
    base: Region,
    count: int = 5,
    size_ratio: float = 0.5,
    seed: int = 0,
    rng: "np.random.Generator | None" = None,
) -> list[Region]:
    """Random same-size sub-rectangles of ``base`` — the paper's panning
    workload (five random ``0.5H x 0.5W`` rectangles inside the city MBR).

    Pass ``rng`` to draw from an existing :class:`numpy.random.Generator`
    (``seed`` is then ignored) — simulator session replays share one seeded
    stream across all their draws this way."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < size_ratio <= 1.0:
        raise ValueError("size_ratio must be in (0, 1]")
    if rng is None:
        rng = np.random.default_rng(seed)
    w = base.width * size_ratio
    h = base.height * size_ratio
    regions = []
    for _ in range(count):
        x0 = base.xmin + rng.uniform(0.0, base.width - w) if size_ratio < 1 else base.xmin
        y0 = base.ymin + rng.uniform(0.0, base.height - h) if size_ratio < 1 else base.ymin
        regions.append(Region(x0, y0, x0 + w, y0 + h))
    return regions


class ExplorationSession:
    """A stateful zoom/pan/filter loop over one dataset.

    Parameters
    ----------
    points:
        The full dataset.  Filters derive working subsets from it; clearing a
        filter restores the full dataset.
    size:
        Fixed raster resolution per frame, as in the paper's Figure 16
        (``1280 x 960`` there).
    method, kernel, engine:
        Forwarded to :func:`repro.core.api.compute_kdv` for every frame.
    bandwidth:
        ``"scott"`` recomputes Scott's rule on the *full* dataset once and
        keeps it fixed across frames (so zooming changes the region, not the
        smoothing scale); pass a float to control it directly, or call
        :meth:`set_bandwidth` mid-session (the paper's bandwidth-selection
        operation).
    """

    def __init__(
        self,
        points: PointSet,
        size: tuple[int, int] = (1280, 960),
        method: str = "slam_bucket_rao",
        kernel: str = "epanechnikov",
        bandwidth: "float | str" = "scott",
        engine: str = "auto",
    ):
        if len(points) == 0:
            raise ValueError("cannot explore an empty dataset")
        self.full_points = points
        self.active_points = points
        self.size = size
        self.method = method
        self.kernel = kernel
        self.engine = engine
        self.bandwidth = (
            scott_bandwidth(points.xy) if bandwidth == "scott" else float(bandwidth)
        )
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.base_region = Region.from_points(points.xy)
        self.region = self.base_region
        self.frames: list[FrameRecord] = []

    # -- operations ---------------------------------------------------------

    def render(self, operation: str = "render") -> "KDVResult":
        """Render the current viewport and record the frame."""
        from ..core.api import compute_kdv

        start = time.perf_counter()
        result = compute_kdv(
            self.active_points,
            region=self.region,
            size=self.size,
            kernel=self.kernel,
            bandwidth=self.bandwidth,
            method=self.method,
            engine=self.engine,
        )
        elapsed = time.perf_counter() - start
        self.frames.append(
            FrameRecord(operation, self.region, len(self.active_points), elapsed, result)
        )
        return result

    def zoom(self, ratio: float) -> "KDVResult":
        """Zoom so the viewport is ``ratio`` of the *base* region's extent
        (the paper's zooming experiment uses ratios 0.25/0.5/0.75/1)."""
        self.region = self.base_region.scaled(ratio)
        return self.render(f"zoom:{ratio}")

    def pan_to(self, region: Region) -> "KDVResult":
        """Jump the viewport to an explicit region."""
        self.region = region
        return self.render("pan")

    def pan(self, dx_fraction: float, dy_fraction: float) -> "KDVResult":
        """Shift the viewport by fractions of its own width/height."""
        self.region = self.region.translated(
            dx_fraction * self.region.width, dy_fraction * self.region.height
        )
        return self.render(f"pan:{dx_fraction},{dy_fraction}")

    def reset_view(self) -> "KDVResult":
        """Back to the full-dataset viewport."""
        self.region = self.base_region
        return self.render("reset")

    def set_bandwidth(self, bandwidth: float) -> "KDVResult":
        """Bandwidth-selection operation: re-render with a new ``b``."""
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = float(bandwidth)
        return self.render(f"bandwidth:{bandwidth}")

    def filter_time(self, t_start: float, t_end: float) -> "KDVResult":
        """Time-based filtering (e.g. "events during 2019")."""
        self.active_points = self.full_points.filter_time(t_start, t_end)
        if len(self.active_points) == 0:
            raise ValueError("time filter matched no events")
        return self.render(f"filter_time:{t_start}..{t_end}")

    def filter_category(self, *categories: int) -> "KDVResult":
        """Attribute-based filtering (e.g. "robbery events only")."""
        self.active_points = self.full_points.filter_category(*categories)
        if len(self.active_points) == 0:
            raise ValueError("category filter matched no events")
        return self.render(f"filter_category:{categories}")

    def clear_filters(self) -> "KDVResult":
        """Restore the full dataset."""
        self.active_points = self.full_points
        return self.render("clear_filters")

    # -- reporting ----------------------------------------------------------

    def total_seconds(self) -> float:
        return sum(f.seconds for f in self.frames)

    def latency_summary(self) -> dict[str, float]:
        """Min/mean/median-and-tail/max per-frame latency over the session."""
        if not self.frames:
            return {
                "frames": 0,
                "min": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        times = np.asarray([f.seconds for f in self.frames], dtype=np.float64)
        p50, p95, p99 = np.percentile(times, [50.0, 95.0, 99.0])
        return {
            "frames": len(times),
            "min": float(times.min()),
            "mean": float(times.mean()),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "max": float(times.max()),
        }
