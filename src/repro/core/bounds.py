"""Per-row lower/upper bound intervals (paper Section 3.3).

For each envelope point ``p`` of a row at y-coordinate ``k``, the pixels of the
row that ``p`` contributes to are exactly those with

    LB_k(p) <= q.x <= UB_k(p)

where (paper Equations 8-9)

    LB_k(p) = p.x - sqrt(b^2 - (k - p.y)^2)
    UB_k(p) = p.x + sqrt(b^2 - (k - p.y)^2)

Every envelope point satisfies ``|k - p.y| <= b``, so the radicand is
non-negative by construction.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_bounds", "bucket_indices"]


def row_bounds(
    envelope_xy: np.ndarray, k: float, bandwidth: float
) -> tuple[np.ndarray, np.ndarray]:
    """Compute ``(LB_k, UB_k)`` arrays for the envelope points of one row.

    Parameters
    ----------
    envelope_xy:
        ``(m, 2)`` coordinates of the points in ``E(k)``.
    k:
        The row's y coordinate.
    bandwidth:
        The kernel bandwidth ``b``.

    Returns
    -------
    Two ``(m,)`` float64 arrays, the lower and upper bound x values.

    Raises
    ------
    ValueError
        If some point is not actually inside the envelope (negative radicand),
        which indicates a caller bug.
    """
    envelope_xy = np.asarray(envelope_xy, dtype=np.float64)
    dy = k - envelope_xy[:, 1]
    radicand = bandwidth * bandwidth - dy * dy
    if len(radicand) and radicand.min() < 0.0:
        raise ValueError("point outside envelope passed to row_bounds (|k - p.y| > b)")
    half_width = np.sqrt(radicand)
    px = envelope_xy[:, 0]
    return px - half_width, px + half_width


def bucket_indices(
    xs: np.ndarray, lb: np.ndarray, ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized O(1)-per-point bucket assignment (paper Equations 19-20).

    Returns ``(enter, leave)`` int64 arrays: the point contributes to pixel
    ``i`` exactly when ``enter[p] <= i < leave[p]``.  Index ``X`` means
    "past the end of the row".  Semantics match ``searchsorted`` exactly:
    ``enter`` is the smallest ``i`` with ``xs[i] >= lb``, ``leave`` the
    smallest ``i`` with ``xs[i] > ub`` (strict, so a pixel exactly on the
    upper bound still counts the point — Lemma 2's closed interval).

    The arithmetic index ``ceil((lb - xs[0]) / gx)`` can be off by one when
    an endpoint coincides with a pixel center (or within one ulp of it), so
    each index gets a one-step correction against the actual pixel
    coordinates; rounding error is far below one pixel gap, so a single
    step suffices.  Each correction is one gather into the pixel centers
    padded with ``-inf``/``+inf``: an index at either end of the row reads
    a sentinel whose comparison is always false (``+inf < lb``,
    ``-inf >= lb`` and their ``ub`` twins), so no bounds mask or clamped
    index is needed.  The boolean results are added directly (False adds
    0).
    """
    num_pixels = len(xs)
    x0 = xs[0]
    gx = xs[1] - xs[0] if num_pixels > 1 else 1.0
    padded = np.concatenate(([-np.inf], xs, [np.inf]))
    at = padded[1:]  # at[i] = xs[i], at[X] = +inf
    before = padded[:-1]  # before[i] = xs[i - 1], before[0] = -inf

    enter = np.ceil((lb - x0) / gx).astype(np.int64)
    np.clip(enter, 0, num_pixels, out=enter)
    leave = np.floor((ub - x0) / gx).astype(np.int64)
    leave += 1
    np.clip(leave, 0, num_pixels, out=leave)

    enter += at[enter] < lb
    enter -= before[enter] >= lb

    leave += at[leave] <= ub
    leave -= before[leave] > ub
    return enter, leave
