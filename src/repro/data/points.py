"""Point dataset container used throughout the library.

A :class:`PointSet` wraps an ``(n, 2)`` float64 coordinate array in projected
world units (meters), with optional per-point event timestamps and categorical
attribute codes.  Timestamps and categories exist to support the exploratory
operations of the paper's Section 4.2 (time-based and attribute-based
filtering); the density algorithms themselves only look at coordinates.

A set keeps what the SLAM methods derive from its coordinates across
renders: its y-sorted envelope index and its extents, each computed at most
once.  That is sound because the coordinates are the set's own read-only
copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported at call time: repro.core imports this module
    from ..core.envelope import YSortedIndex

__all__ = ["PointSet"]


def _as_xy(xy: np.ndarray) -> np.ndarray:
    arr = np.asarray(xy, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class PointSet:
    """An immutable set of 2-D location data points.

    Parameters
    ----------
    xy:
        ``(n, 2)`` array of (x, y) coordinates in projected meters.  The set
        keeps a private copy (an input it would otherwise alias is copied)
        and marks it read-only, so the y-sorted index
        (:meth:`ysorted_index`), the extents (:meth:`bounds`) and the
        selector bandwidths (:meth:`selector_bandwidth`) it caches can never
        go stale.
    t:
        Optional ``(n,)`` array of event times (seconds since an arbitrary
        epoch).  Required for time-based filtering.
    category:
        Optional ``(n,)`` integer array of attribute codes (e.g. crime type).
        Required for attribute-based filtering.
    """

    xy: np.ndarray
    t: np.ndarray | None = None
    category: np.ndarray | None = None
    w: np.ndarray | None = None
    name: str = field(default="points")

    def __post_init__(self) -> None:
        xy = _as_xy(self.xy)
        # a conversion that allocated is the set's alone; the caller's own
        # array, or a view of any array, is copied
        if xy is self.xy or not xy.flags.owndata:
            xy = xy.copy()
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        self._drop_caches()
        n = len(self.xy)
        if self.t is not None:
            t = np.asarray(self.t, dtype=np.float64)
            if t.shape != (n,):
                raise ValueError(f"t must have shape ({n},), got {t.shape}")
            object.__setattr__(self, "t", t)
        if self.category is not None:
            cat = np.asarray(self.category, dtype=np.int64)
            if cat.shape != (n,):
                raise ValueError(f"category must have shape ({n},), got {cat.shape}")
            object.__setattr__(self, "category", cat)
        if self.w is not None:
            w = np.asarray(self.w, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError(f"w must have shape ({n},), got {w.shape}")
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("weights must be finite and non-negative")
            object.__setattr__(self, "w", w)

    def _drop_caches(self) -> None:
        object.__setattr__(self, "_ysorted", None)
        object.__setattr__(self, "_extents", None)
        object.__setattr__(self, "_bandwidths", {})

    def __getstate__(self) -> dict:
        # the caches are rebuilt on demand on the far side
        state = dict(self.__dict__)
        del state["_ysorted"], state["_extents"], state["_bandwidths"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.xy.flags.writeable = False  # unpickled arrays come back writable
        self._drop_caches()

    def __len__(self) -> int:
        return len(self.xy)

    @property
    def x(self) -> np.ndarray:
        """The x coordinates, shape ``(n,)``."""
        return self.xy[:, 0]

    @property
    def y(self) -> np.ndarray:
        """The y coordinates, shape ``(n,)``."""
        return self.xy[:, 1]

    def bounds(self) -> tuple[float, float, float, float]:
        """The minimum bounding rectangle ``(xmin, ymin, xmax, ymax)``,
        computed once and kept.

        These are the raw extents: unlike
        :meth:`~repro.viz.region.Region.from_points`, a degenerate axis is
        not widened (:meth:`~repro.viz.region.Region.from_extents` does
        that, from these same floats).
        """
        if len(self) == 0:
            raise ValueError("cannot compute bounds of an empty PointSet")
        if self._extents is None:
            from ..viz.region import column_extents

            object.__setattr__(self, "_extents", column_extents(self.xy))
        return self._extents

    def selector_bandwidth(self, selector: str) -> float:
        """The bandwidth the named selector (``"scott"``, ``"silverman"``,
        ``"lcv"``) picks for these points, computed once per selector and
        kept: it depends on the coordinates alone.

        :func:`~repro.core.api.compute_kdv` resolves a selector string
        through it.  An unknown name raises the same ``ValueError`` as
        :func:`~repro.viz.bandwidth.resolve_bandwidth`.
        """
        value = self._bandwidths.get(selector)
        if value is None:
            from ..viz.bandwidth import resolve_bandwidth

            value = self._bandwidths[selector] = resolve_bandwidth(
                selector, self.xy
            )
        return value

    def ysorted_index(self) -> "YSortedIndex":
        """The set's y-sorted envelope index, kept for the set's lifetime.

        :func:`~repro.core.api.compute_kdv` hands it to the SLAM methods.
        It is created without sorting: the sort runs on first use, in the
        orientation the sweep reads (this index for a row sweep, its
        :meth:`~repro.core.envelope.YSortedIndex.transposed` twin for an
        RAO column sweep), and later renders reuse it.
        """
        if self._ysorted is None:
            from ..core.envelope import YSortedIndex

            object.__setattr__(self, "_ysorted", YSortedIndex.deferred(self.xy))
        return self._ysorted

    def select(self, mask: np.ndarray) -> "PointSet":
        """Return a new :class:`PointSet` restricted to ``mask`` (bool or index array)."""
        return PointSet(
            self.xy[mask],
            t=None if self.t is None else self.t[mask],
            category=None if self.category is None else self.category[mask],
            w=None if self.w is None else self.w[mask],
            name=self.name,
        )

    def total_weight(self) -> float:
        """Sum of point weights (the count when the set is unweighted)."""
        return float(self.w.sum()) if self.w is not None else float(len(self))

    def filter_time(self, t_start: float, t_end: float) -> "PointSet":
        """Keep points with ``t_start <= t < t_end`` (time-based filtering)."""
        if self.t is None:
            raise ValueError("PointSet has no timestamps; cannot time-filter")
        return self.select((self.t >= t_start) & (self.t < t_end))

    def filter_category(self, *categories: int) -> "PointSet":
        """Keep points whose category code is one of ``categories``."""
        if self.category is None:
            raise ValueError("PointSet has no categories; cannot attribute-filter")
        return self.select(np.isin(self.category, categories))

    def sample(self, fraction: float, seed: int | None = None) -> "PointSet":
        """Random sample without replacement, as in the paper's size sweeps."""
        from ..data.sampling import sample_without_replacement

        return sample_without_replacement(self, fraction, seed=seed)
