"""Point dataset container used throughout the library.

A :class:`PointSet` wraps an ``(n, 2)`` float64 coordinate array in projected
world units (meters), with optional per-point event timestamps and categorical
attribute codes.  Timestamps and categories exist to support the exploratory
operations of the paper's Section 4.2 (time-based and attribute-based
filtering); the density algorithms themselves only look at coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        ``(n, 2)`` array of (x, y) coordinates in projected meters.
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
        object.__setattr__(self, "xy", _as_xy(self.xy))
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
        """Return the minimum bounding rectangle ``(xmin, ymin, xmax, ymax)``."""
        if len(self) == 0:
            raise ValueError("cannot compute bounds of an empty PointSet")
        xmin, ymin = self.xy.min(axis=0)
        xmax, ymax = self.xy.max(axis=0)
        return float(xmin), float(ymin), float(xmax), float(ymax)

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
