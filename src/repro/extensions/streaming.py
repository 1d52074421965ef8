"""Incremental (real-time) KDV maintenance.

The paper's conclusion plans "the real-time KDV system, based on SLAM, to
support ... large-scale location datasets".  The enabling observation is that
kernel density is *additive over the dataset*:

    F_{P ∪ D}(q) = F_P(q) + F_D(q)        F_{P \\ D}(q) = F_P(q) - F_D(q)

so a live engine never recomputes the full grid: inserting (deleting) a batch
``D`` adds (subtracts) the KDV *of the batch alone*, computed exactly by SLAM
in O(min(X,Y) (max(X,Y) + |D|)) — for a 100-event tick against a million-point
history, that is ~10,000x less work than recomputation.

:class:`StreamingKDV` maintains the raw-sum grid under inserts and deletes,
with optional sliding-window expiry for time-stamped feeds.  Floating-point
cancellation from long delete histories is bounded by periodic *rebuilds*
(full recomputation) every ``rebuild_every`` delete operations; tests verify
the drift stays at float-epsilon scale regardless.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.api import METHODS
from ..core.kernels import get_kernel
from ..viz.region import Raster, Region

__all__ = ["StreamingKDV"]


class StreamingKDV:
    """Exact KDV maintained under point insertions and deletions.

    Parameters
    ----------
    region, size:
        The fixed viewport of the live display.
    kernel, bandwidth:
        Spatial smoothing parameters (fixed; changing them requires a new
        engine, as in real dashboards where the view is pre-configured).
    method:
        Any *exact* registered method; SLAM_BUCKET^(RAO) by default.
    engine:
        Sweep engine forwarded to the method.  The default ``"auto"`` is the
        compiled ``native`` sweep under the ``slam_bucket`` methods where it
        loaded, else the bit-identical per-row ``numpy`` sweep; each delta
        sweeps only the changed points.
    rebuild_every:
        Full recomputation after this many delete batches, bounding float
        cancellation drift (set ``None`` to disable).
    require_timestamps:
        When ``True``, :meth:`insert` rejects batches without timestamps —
        the right setting whenever :meth:`expire_before` drives a sliding
        window, because untimestamped batches can never expire and would
        otherwise leak points forever.
    """

    def __init__(
        self,
        region: Region,
        size: tuple[int, int] = (640, 480),
        kernel: str = "epanechnikov",
        bandwidth: float = 500.0,
        method: str = "slam_bucket_rao",
        engine: str = "auto",
        rebuild_every: "int | None" = 1000,
        require_timestamps: bool = False,
    ):
        from ..core.api import EXACT_METHODS

        if method not in EXACT_METHODS:
            raise ValueError(
                f"streaming maintenance requires an exact method, got {method!r}"
            )
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if rebuild_every is not None and rebuild_every < 1:
            raise ValueError("rebuild_every must be >= 1 or None")
        self.raster = Raster(region, *size)
        self.kernel = get_kernel(kernel)
        self.bandwidth = float(bandwidth)
        self.method = method
        self.engine = engine
        self.rebuild_every = rebuild_every
        self.require_timestamps = bool(require_timestamps)
        self._grid_fn = METHODS[method][0]
        self._grid = np.zeros(self.raster.shape, dtype=np.float64)
        # live points kept as a deque of (xy array, t array | None) batches
        self._batches: deque[tuple[np.ndarray, np.ndarray | None]] = deque()
        self._n = 0
        self._deletes_since_rebuild = 0
        self._rebuilds = 0
        self._last_rebuild_drift = 0.0
        self._t_max: "float | None" = None

    # -- state ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def grid(self) -> np.ndarray:
        """The current raw-sum density grid (do not mutate)."""
        return self._grid

    def density(self, normalization: str = "count") -> np.ndarray:
        """The grid under the requested normalization."""
        if normalization == "none" or self._n == 0:
            return self._grid.copy()
        if normalization == "count":
            return self._grid / self._n
        raise ValueError(f"unknown normalization {normalization!r}")

    def points(self) -> np.ndarray:
        """All live points, shape (n, 2)."""
        if not self._batches:
            return np.empty((0, 2))
        return np.concatenate([b[0] for b in self._batches])

    def batches(self) -> list[tuple[np.ndarray, "np.ndarray | None"]]:
        """The live ``(xy, t)`` batches, oldest first (do not mutate).

        This is the replay hook a second maintained view (e.g. a sliding
        window over the same feed) uses to bootstrap from an existing
        engine's history.
        """
        return list(self._batches)

    @property
    def latest_time(self) -> "float | None":
        """The largest timestamp ever ingested (the event-time watermark),
        or ``None`` when no timestamped batch has been inserted."""
        return self._t_max

    @property
    def rebuilds(self) -> int:
        """How many full rebuilds (drift resets) have run."""
        return self._rebuilds

    @property
    def last_rebuild_drift(self) -> float:
        """The float-cancellation drift measured (and reset) by the most
        recent :meth:`rebuild`; ``0.0`` before the first rebuild."""
        return self._last_rebuild_drift

    def affected_tiles(self, scheme, zoom: int, batch: np.ndarray) -> set:
        """Tile keys at ``zoom`` that inserting/deleting ``batch`` can change.

        A finite-support kernel reaches at most one bandwidth from each
        event, so only tiles intersecting the batch MBR inflated by
        ``self.bandwidth`` are affected — the targeted-invalidation set a
        tile cache must drop (everything else is provably byte-identical).
        Delegates to :func:`repro.serve.invalidate.affected_tiles`.
        """
        from ..serve.invalidate import affected_tiles

        return affected_tiles(scheme, zoom, batch, self.bandwidth)

    # -- updates ----------------------------------------------------------------

    def _delta(self, xy: np.ndarray) -> np.ndarray:
        return self._grid_fn(
            xy, self.raster, self.kernel, self.bandwidth, engine=self.engine
        )

    def insert(self, xy: np.ndarray, t: np.ndarray | None = None) -> None:
        """Add a batch of events; O(sweep of the batch), not of the history."""
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coordinates, got {xy.shape}")
        if len(xy) == 0:
            return
        if t is not None:
            t = np.asarray(t, dtype=np.float64)
            if t.shape != (len(xy),):
                raise ValueError("t must match the batch length")
        elif self.require_timestamps:
            raise ValueError(
                "this engine enforces sliding-window expiry "
                "(require_timestamps=True); every insert needs per-event "
                "timestamps, or the batch could never expire"
            )
        self._grid += self._delta(xy)
        self._batches.append((xy, t))
        self._n += len(xy)
        if t is not None and len(t):
            t_max = float(t.max())
            if self._t_max is None or t_max > self._t_max:
                self._t_max = t_max

    def expire_before(
        self, cutoff: float, collect: bool = False
    ) -> "int | tuple[int, list[np.ndarray]]":
        """Delete every timestamped event older than ``cutoff`` (sliding window).

        Expiry is per *event*, not per batch: every live batch is examined,
        fully-expired batches are dropped, and a batch straddling the cutoff
        is split — its old events leave, its young events stay — so the
        retained set is exactly ``{p : p.t >= cutoff}`` however the feed was
        batched.  Untimestamped batches never expire (they carry no evidence
        of age; construct with ``require_timestamps=True`` to keep them out
        entirely).  All expired events are removed by **one** signed grid
        update, so a tick costs one sweep of the expired points, not one
        per batch.

        Returns the number of points removed — an honest count over the
        whole history.  With ``collect=True`` returns ``(removed, batches)``
        where ``batches`` is the list of expired coordinate arrays (what a
        tile cache needs to invalidate exactly the affected tiles).
        """
        expired: list[np.ndarray] = []
        kept: deque[tuple[np.ndarray, np.ndarray | None]] = deque()
        for xy, t in self._batches:
            if t is None or not len(t):
                kept.append((xy, t))
                continue
            old = t < cutoff
            if not old.any():
                kept.append((xy, t))
            elif old.all():
                expired.append(xy)
            else:
                expired.append(xy[old])
                keep = ~old
                kept.append((xy[keep], t[keep]))
        removed = 0
        if expired:
            drop = expired[0] if len(expired) == 1 else np.concatenate(expired)
            self._grid -= self._delta(drop)
            self._batches = kept
            removed = len(drop)
            self._n -= removed
            self._deletes_since_rebuild += 1
            self._maybe_rebuild()
        if collect:
            return removed, expired
        return removed

    def delete_oldest(self, batches: int = 1) -> int:
        """Delete the oldest ``batches`` insert batches; returns points removed."""
        removed = 0
        for _ in range(min(batches, len(self._batches))):
            xy, _t = self._batches.popleft()
            self._grid -= self._delta(xy)
            removed += len(xy)
            self._n -= len(xy)
            self._deletes_since_rebuild += 1
        self._maybe_rebuild()
        return removed

    def _maybe_rebuild(self) -> None:
        if (
            self.rebuild_every is not None
            and self._deletes_since_rebuild >= self.rebuild_every
        ):
            self.rebuild()

    def rebuild(self) -> float:
        """Recompute the grid from the live points (drift reset).

        Returns the drift that was just erased — the max absolute difference
        between the maintained grid and the fresh recomputation (also kept
        on :attr:`last_rebuild_drift`), so callers get the cancellation
        measurement for free from the recomputation they are paying for
        anyway.
        """
        pts = self.points()
        fresh = (
            self._delta(pts) if len(pts) else np.zeros(self.raster.shape, dtype=np.float64)
        )
        drift = float(np.abs(self._grid - fresh).max())
        self._grid = fresh
        self._deletes_since_rebuild = 0
        self._rebuilds += 1
        self._last_rebuild_drift = drift
        return drift

    def drift(self) -> float:
        """Max absolute difference between the maintained grid and a fresh
        recomputation — the float-cancellation error currently carried."""
        pts = self.points()
        fresh = (
            self._delta(pts) if len(pts) else np.zeros(self.raster.shape, dtype=np.float64)
        )
        return float(np.abs(self._grid - fresh).max())
