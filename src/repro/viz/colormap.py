"""Density-to-color mapping.

KDV tools color each pixel by its density value (paper Figure 1: red = high
density = hotspot).  We provide small piecewise-linear colormaps sufficient
for heat-map rendering without external plotting dependencies, applied after
robust normalization (clipping at the 99.5th percentile so a single extreme
pixel does not wash the map out).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["COLORMAPS", "apply_colormap", "colorize", "normalize_grid"]

# Control points as (position in [0, 1], (r, g, b)) with 0..255 channels.
_HEAT = [
    (0.00, (255, 255, 255)),
    (0.25, (254, 224, 144)),
    (0.50, (253, 141, 60)),
    (0.75, (227, 26, 28)),
    (1.00, (128, 0, 38)),
]
_VIRIDIS_LIKE = [
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
]
_GRAY = [(0.0, (0, 0, 0)), (1.0, (255, 255, 255))]

COLORMAPS: dict[str, list[tuple[float, tuple[int, int, int]]]] = {
    "heat": _HEAT,
    "viridis": _VIRIDIS_LIKE,
    "gray": _GRAY,
}


def normalize_grid(grid: np.ndarray, clip_quantile: float = 0.995) -> np.ndarray:
    """Normalize density values to [0, 1] with high-quantile clipping."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        return grid.copy()
    positive = grid[grid > 0]
    top = float(np.quantile(positive, clip_quantile)) if positive.size else 0.0
    if top <= 0.0:
        return np.zeros_like(grid)
    return np.clip(grid / top, 0.0, 1.0)


def _interp_colorize(norm: np.ndarray, stops) -> np.ndarray:
    """The colormap's definition: clip to ``[0, 1]``, interpolate each
    channel between the stops, round to ``uint8``.  :func:`colorize`
    answers from a table built against this, and the tests check the two
    agree."""
    norm = np.clip(np.asarray(norm, dtype=np.float64), 0.0, 1.0)
    positions = np.array([s[0] for s in stops])
    colors = np.array([s[1] for s in stops], dtype=np.float64)
    rgb = np.empty(norm.shape + (3,), dtype=np.float64)
    for c in range(3):
        rgb[..., c] = np.interp(norm, positions, colors[:, c])
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


#: Buckets of the index over ``[0, 1]`` that finds a value's breakpoints;
#: a power of two, so ``x * _BUCKETS`` is exact and ``floor`` of it is the
#: bucket.  ``x == 1.0`` lands in one extra bucket of its own.
_BUCKETS = 4096


class _StepTable(NamedTuple):
    """A colormap as the step function it is: after rounding to ``uint8``,
    the colour of a clipped value changes only at finitely many
    ``breakpoints``.  ``colors[j]`` holds from ``breakpoints[j - 1]``
    (inclusive; ``0.0`` for ``j == 0``) to ``breakpoints[j]``."""

    breakpoints: np.ndarray
    colors: np.ndarray
    #: per bucket, how many breakpoints lie in the buckets below it
    base: np.ndarray
    #: ``(m, _BUCKETS + 1)``: each bucket's breakpoints, padded with 2.0
    #: (above every clipped value); ``m`` is the most any bucket holds
    thresholds: np.ndarray

    @classmethod
    def from_breakpoints(cls, candidates: np.ndarray, stops) -> "_StepTable":
        """Index the candidate ``x`` values where the colour may change,
        keeping those where it does."""
        bps = np.sort(np.asarray(candidates, dtype=np.float64))
        colors = _interp_colorize(np.concatenate(([0.0], bps)), stops)
        changed = np.any(colors[1:] != colors[:-1], axis=1)
        bps = bps[changed]
        colors = np.concatenate((colors[:1], colors[1:][changed]))
        bucket = (bps * _BUCKETS).astype(np.intp)
        base = np.searchsorted(bucket, np.arange(_BUCKETS + 1))
        within = np.arange(len(bps)) - base[bucket]
        rows = int(within.max()) + 1 if len(bps) else 0
        thresholds = np.full((rows, _BUCKETS + 1), 2.0)
        thresholds[within, bucket] = bps
        table = cls(bps, colors, base, thresholds)
        for array in table:  # shared by every caller of the cached table
            array.setflags(write=False)
        return table

    def lookup(self, norm) -> np.ndarray:
        # fmax/fmin clip like np.clip, and send NaN to 0.0
        x = np.fmin(np.fmax(np.asarray(norm, dtype=np.float64), 0.0), 1.0)
        k = (x * _BUCKETS).astype(np.intp)
        j = self.base.take(k)
        for row in self.thresholds:
            j += x >= row.take(k)
        return self.colors.take(j, axis=0)


def _breakpoints(stops) -> np.ndarray:
    """Every ``x`` in ``[0, 1]`` where one channel of
    :func:`_interp_colorize` steps, found by bisecting float64 bit
    patterns (which order non-negative floats) against it.

    Between consecutive stops each channel is a monotone step function of
    ``x``, so each level it passes through starts at one smallest ``x``;
    all of them, over every channel and segment, bisect together.  The
    interior stops join the candidates too, in case a colour steps there.
    """
    ends = np.sort(np.clip([0.0, 1.0, *(p for p, _ in stops)], 0.0, 1.0))
    ends = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]
    lo_x, hi_x = ends[:-1], np.nextafter(ends[1:], 0.0)
    lo_rgb = _interp_colorize(lo_x, stops).astype(np.int64)
    hi_rgb = _interp_colorize(hi_x, stops).astype(np.int64)
    # one search per level a channel passes through in a segment: the
    # smallest x at which the channel has reached it
    seg, chan = np.nonzero(hi_rgb != lo_rgb)
    delta = (hi_rgb - lo_rgb)[seg, chan]
    steps = np.abs(delta)
    # the k-th search of a (segment, channel) pair is for lo_rgb + k * sign
    k = np.arange(steps.sum()) - np.repeat(np.cumsum(steps) - steps, steps) + 1
    seg, chan, sign = (np.repeat(a, steps) for a in (seg, chan, np.sign(delta)))
    level = sign * lo_rgb[seg, chan] + k  # signed, so "reached" is ">="
    lo = lo_x[seg].view(np.int64)  # not yet at the level
    hi = hi_x[seg].view(np.int64)  # at it
    searches = np.arange(len(level))
    while len(level) and int((hi - lo).max()) > 1:
        mid = lo + (hi - lo) // 2
        got = _interp_colorize(mid.view(np.float64), stops)[searches, chan]
        reached = sign * got.astype(np.int64) >= level
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    return np.concatenate((hi.view(np.float64), ends[1:-1]))


@functools.lru_cache(maxsize=None)
def _step_table(stops: tuple) -> _StepTable:
    """The colormap's table, built on first use and checked against
    :func:`_interp_colorize` at every breakpoint, the value 1 ulp below
    it, and both sides of every stop."""
    table = _StepTable.from_breakpoints(_breakpoints(stops), stops)
    ends = np.clip([p for p, _ in stops], 0.0, 1.0)
    probes = np.concatenate((
        [0.0, 1.0], table.breakpoints, np.nextafter(table.breakpoints, 0.0),
        ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0),
    ))
    if not np.array_equal(table.lookup(probes), _interp_colorize(probes, stops)):
        raise RuntimeError("colormap step table disagrees with its definition")
    return table


def colorize(norm: np.ndarray, colormap: str = "heat") -> np.ndarray:
    """Map already-normalized ``[0, 1]`` values to ``(H, W, 3)`` uint8 RGB.

    Values are clipped to ``[0, 1]`` (``-inf`` and NaN colour as 0,
    ``+inf`` as 1), the stops interpolated per channel and rounded
    (:func:`_interp_colorize`, the definition).  The result is answered
    from an exact table of the colours that rounding produces: one per
    breakpoint, found once per colormap on first use (a few ms).  A value
    finds its breakpoint through a 4096-bucket index, so a 256x256 tile
    costs a few gathers instead of three interpolations.

    Callers that normalize across a *set* of grids (the tile pyramid's shared
    color scale, the server's live peak) use this directly;
    :func:`apply_colormap` wraps it with per-grid normalization.
    """
    try:
        stops = COLORMAPS[colormap]
    except KeyError:
        raise ValueError(
            f"unknown colormap {colormap!r}; available: {sorted(COLORMAPS)}"
        ) from None
    return _step_table(tuple(stops)).lookup(norm)


def apply_colormap(grid: np.ndarray, colormap: str = "heat") -> np.ndarray:
    """Map a density grid to an ``(H, W, 3)`` uint8 RGB image."""
    return colorize(normalize_grid(grid), colormap)
