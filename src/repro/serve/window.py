"""Sliding-window views for the tile service.

The paper's real-time plans rest on density being *additive over the
dataset*: a sliding time window never recomputes the full grid — each tick
subtracts the KDV of the expired batch and adds the KDV of the new one
(:class:`~repro.extensions.streaming.StreamingKDV` does the signed
updates), so a tick costs O(changed points), not O(full sweep).  This is
the "fast sum updating" trick of Langrené & Warin, whose
numerical-stability warning is what the engine's periodic rebuilds answer.

:class:`WindowView` packages everything :class:`~repro.serve.TileService`
keeps per served view of the live dataset: the maintained
:class:`~repro.extensions.streaming.StreamingKDV` state, the point
snapshot tiles render from, the generation version that guards the tile
cache, and the lazily-built y-sorted index shared by every render of one
generation.  Everything per generation is built on its first read, so an
ingest or tick copies no history and a view nobody renders never
concatenates its batches.  The all-time view (``seconds is None``) and
every ``window=<seconds>`` view are the same type, so the serving code has
one path for both.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.envelope import YSortedIndex

__all__ = ["WindowError", "WindowView", "window_seconds"]


class WindowError(ValueError):
    """A malformed or unservable ``window=`` request (the HTTP layer's 400)."""


def window_seconds(window) -> float:
    """Validate a ``window=`` value into positive, finite seconds."""
    try:
        seconds = float(window)
    except (TypeError, ValueError):
        raise WindowError(
            f"window must be a positive number of seconds, got {window!r}"
        ) from None
    if not math.isfinite(seconds) or seconds <= 0:
        raise WindowError(
            f"window must be a positive number of seconds, got {window!r}"
        )
    return seconds


class WindowView:
    """One served view of the live dataset.

    ``seconds is None`` is the all-time view (every event ever ingested);
    otherwise the view holds exactly the events of the trailing
    ``seconds``-long window, maintained by signed grid updates and expired
    on ticks.

    Attributes
    ----------
    stream:
        The maintained :class:`~repro.extensions.streaming.StreamingKDV`
        (overview grid + live batches).
    points:
        Snapshot array of the generation's live points, what tile renders
        consume.  Concatenated from the stream's batches on the first read
        of each generation (the caller holds the service lock), so several
        ingests and ticks between two reads share one copy.
    version:
        Ingest/expiry generation counter; a render started under an older
        version is answered but never cached.
    ysorted:
        The generation's shared y-sorted index (one O(n log n) sort serving
        every tile render of the generation), built lazily and dropped on
        every generation bump.
    zorder:
        The generation's cached Z-order permutation (``zorder_argsort`` of
        the snapshot), shared by every coreset-tier render of the
        generation — "the coreset is resampled per generation".  Built
        lazily, dropped on every bump, like :attr:`ysorted`.
    quality_bounds:
        The generation's calibrated quality bounds
        (``{tier name: advertised epsilon}``, see
        :func:`repro.serve.quality.calibrate`), computed lazily on the
        first degraded serve of the generation and dropped on every bump.
    """

    __slots__ = (
        "seconds", "stream", "_points", "version", "ysorted", "zorder",
        "quality_bounds",
    )

    def __init__(self, seconds: "float | None", stream):
        self.seconds = seconds
        self.stream = stream
        self._points: "np.ndarray | None" = None
        self.version = 0
        self.ysorted: "YSortedIndex | None" = None
        self.zorder = None
        self.quality_bounds: "dict[str, float] | None" = None

    @property
    def points(self) -> np.ndarray:
        points = self._points
        if points is None:
            points = self._points = self.stream.points()
        return points

    def bump(self) -> None:
        """Start a new generation after the stream changed: the point
        snapshot, y-sorted index, Z-order permutation, and calibrated
        quality bounds are dropped for lazy rebuilds."""
        self._points = None
        self.version += 1
        self.ysorted = None
        self.zorder = None
        self.quality_bounds = None

    def cache_key(
        self, zoom: int, tx: int, ty: int, tier: "str | None" = None
    ) -> tuple:
        """The tile-cache (and in-flight) key for one tile of this view.

        The all-time view keeps the historical 3-tuple form; windowed views
        append their window length, so each window's tiles cache and
        invalidate independently.  Degraded quality tiers append their tier
        name as a final string element (``tier=None`` or ``"exact"`` is the
        exact namespace) — the same suffix-namespace pattern as windows, so
        invalidation covers every tier of an affected tile.
        """
        if self.seconds is None:
            key = (zoom, tx, ty)
        else:
            key = (zoom, tx, ty, self.seconds)
        if tier is None or tier == "exact":
            return key
        return (*key, tier)

    def owns_key(self, key: tuple) -> bool:
        """Whether a cache key addresses a tile of this view (any tier)."""
        if key and isinstance(key[-1], str):
            key = key[:-1]  # strip a degraded-tier suffix
        if self.seconds is None:
            return len(key) == 3
        return len(key) == 4 and key[3] == self.seconds

    def build_ysorted(self) -> "tuple[YSortedIndex | None, bool]":
        """``(index, built_now)`` — the generation's shared index, built at
        most once per generation (caller holds the service lock and uses
        ``built_now`` for the one-build-per-generation accounting).
        ``(None, False)`` while the view is empty."""
        if self.ysorted is not None:
            return self.ysorted, False
        if not len(self.stream):
            return None, False
        self.ysorted = YSortedIndex(self.points)
        return self.ysorted, True

    def build_zorder(self):
        """``(order, built_now)`` — the generation's shared Z-order
        permutation for coreset sampling, built at most once per
        generation (same discipline as :meth:`build_ysorted`).
        ``(None, False)`` while the view is empty."""
        if self.zorder is not None:
            return self.zorder, False
        if not len(self.stream):
            return None, False
        from ..index.zorder_curve import zorder_argsort

        self.zorder = zorder_argsort(self.points)
        return self.zorder, True

    def color_peak(self) -> float:
        """Peak of the maintained overview grid — the stable color scale
        for this view's ``.png`` tiles."""
        grid = self.stream.grid
        peak = float(grid.max()) if grid.size else 0.0
        return peak or 1.0

    def describe(self) -> dict:
        """The ``/metricz`` summary of this view."""
        return {
            "seconds": self.seconds,
            "points": len(self.stream),
            "version": self.version,
            "rebuilds": self.stream.rebuilds,
            "last_rebuild_drift": self.stream.last_rebuild_drift,
        }
