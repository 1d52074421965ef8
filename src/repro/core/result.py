"""KDV result container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import Recorder
from ..viz.region import Raster

__all__ = ["KDVResult", "SweepStats"]


@dataclass(frozen=True)
class SweepStats:
    """Lightweight per-call instrumentation of a SLAM sweep.

    Attached to :attr:`KDVResult.stats` by the sweep methods so benchmarks
    and observability hooks can read throughput without re-timing.  When the
    computation ran with a :class:`~repro.obs.Recorder` attached
    (``compute_kdv(..., collect_stats=True)``), :attr:`phases` and
    :attr:`counters` carry the recorder's per-phase breakdown; otherwise
    they are empty dicts.

    Attributes
    ----------
    rows:
        Number of sweep lines actually processed (after RAO the shorter
        raster axis).
    blocks:
        How many contiguous row blocks the sweep was partitioned into
        (1 for the serial path).
    workers:
        Resolved worker count (``"auto"`` already expanded).
    backend:
        ``"serial"``, ``"process"``, ``"dist"``, or ``"openmp"`` (the
        ``native`` engine with more than one thread).
    orientation:
        Sweep orientation chosen: ``"rows"`` (default) or ``"columns"``
        (RAO transposed the problem).
    elapsed_seconds:
        Wall-clock time of the sweep proper (excludes normalization and
        index construction in the caller).
    rows_per_sec:
        ``rows / elapsed_seconds`` — the scaling metric the parallel
        benchmark reports.
    phases:
        Phase name -> total seconds (e.g. ``"sweep.envelope_update"``,
        ``"sweep.endpoint_bucket"``, ``"sweep.prefix_sweep"``,
        ``"index_build"``); empty unless a recorder was attached.
    counters:
        Counter name -> value (e.g. ``"sweep.rows"``,
        ``"sweep.envelope_points"``); empty unless a recorder was attached.
    """

    rows: int
    blocks: int
    workers: int
    backend: str
    orientation: str
    elapsed_seconds: float
    rows_per_sec: float
    phases: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class KDVResult:
    """The outcome of one KDV computation.

    Attributes
    ----------
    grid:
        ``(Y, X)`` float64 density values; row 0 is the *southernmost* pixel
        row (ascending y).  Use :meth:`grid_image` for the screen-oriented
        (north-up) view.
    raster:
        The pixel raster the grid was evaluated on.
    kernel:
        Kernel name.
    bandwidth:
        The bandwidth ``b`` used, in world units.
    method:
        Method registry name (e.g. ``"slam_bucket_rao"``).
    normalization:
        The normalization mode applied to the raw kernel sums.
    n_points:
        Dataset size the grid was computed from.
    exact:
        Whether the method guarantees exact density values.
    stats:
        Optional :class:`SweepStats` instrumentation; populated by the SLAM
        sweep methods, ``None`` for baselines and empty-dataset short
        circuits.
    recorder:
        The :class:`~repro.obs.Recorder` the computation ran under, when one
        was attached (``collect_stats=True`` or an explicit ``recorder=``);
        ``None`` otherwise.  ``recorder.snapshot()`` is the machine-readable
        dump embedded in benchmark reports; ``recorder.summary()`` is the
        human-readable view the CLI's ``--stats`` flag prints.
    """

    grid: np.ndarray
    raster: Raster
    kernel: str
    bandwidth: float
    method: str
    normalization: str
    n_points: int
    exact: bool
    stats: SweepStats | None = None
    recorder: Recorder | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def grid_image(self) -> np.ndarray:
        """The grid flipped to screen orientation (row 0 = northernmost)."""
        return self.grid[::-1]

    def max_density(self) -> float:
        return float(self.grid.max()) if self.grid.size else 0.0

    def hotspot_pixels(self, quantile: float = 0.99) -> np.ndarray:
        """Boolean mask of pixels at or above the given density quantile.

        A simple hotspot-detection helper: the paper's Figure 1 colors the
        top densities red; this returns that mask for downstream analysis.
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        positive = self.grid[self.grid > 0]
        if positive.size == 0:
            return np.zeros_like(self.grid, dtype=bool)
        threshold = np.quantile(positive, quantile)
        return self.grid >= threshold

    def to_image(self, colormap: str = "heat"):
        """Render through a colormap; see :mod:`repro.viz.colormap`."""
        from ..viz.colormap import apply_colormap

        return apply_colormap(self.grid_image(), colormap)

    def save_ppm(self, path: str, colormap: str = "heat") -> None:
        """Write the rendered heat map as a binary PPM file."""
        from ..viz.image import write_ppm

        write_ppm(path, self.to_image(colormap))
