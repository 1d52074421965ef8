"""Envelope point sets (paper Definition 1).

For a pixel row at y-coordinate ``k``, the envelope point set

    E(k) = { p in P : |k - p.y| <= b }

contains every point that can contribute to *any* pixel of that row, because a
point farther than ``b`` from the row in y alone is farther than ``b`` from
every pixel of the row.

Two extraction strategies are provided:

* :func:`envelope_scan` — the paper's Lemma 1 strategy: a full O(n) scan.
  This is what the complexity analysis assumes.
* :class:`YSortedIndex` — points pre-sorted by y once (O(n log n) overall);
  each row's envelope is then a contiguous slice found by binary search in
  O(log n + |E(k)|).  Strictly faster in practice, identical output up to
  point order.  DESIGN.md lists this as an ablation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["envelope_scan", "YSortedIndex"]


def envelope_scan(xy: np.ndarray, k: float, bandwidth: float) -> np.ndarray:
    """Return E(k) row indices by a full scan of the dataset (Lemma 1).

    Parameters
    ----------
    xy:
        ``(n, 2)`` point coordinates.
    k:
        The row's y coordinate.
    bandwidth:
        The kernel bandwidth ``b``.

    Returns
    -------
    Integer index array into ``xy`` selecting the envelope points, in
    dataset order.
    """
    xy = np.asarray(xy, dtype=np.float64)
    mask = np.abs(k - xy[:, 1]) <= bandwidth
    return np.nonzero(mask)[0]


#: the largest n whose composite keys ``run * n + index`` (< n**2) fit int64
_MAX_KEYED_N = 3_037_000_499


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, computed with numpy's faster
    default sort.

    The default argsort (SIMD where the CPU has it) orders equal values
    arbitrarily.  When any two adjacent sorted values are equal, their runs
    are numbered with a ``cumsum`` and the unique composite keys
    ``run * n + index`` are sorted, which orders every run by original
    index: the stable permutation, whatever sort ran.  NaNs (which compare
    unequal to each other, so no run holds them) and an ``n`` whose ``n**2``
    overflows int64 take the stable sort itself.
    """
    n = len(values)
    order = np.argsort(values)
    if n < 2:
        return order
    ranked = np.take(values, order)
    if np.isnan(ranked[-1]) or n > _MAX_KEYED_N:  # NaN sorts last
        return np.argsort(values, kind="stable")
    ties = ranked[1:] == ranked[:-1]
    if not ties.any():
        return order
    keys = np.empty(n, dtype=np.int64)
    keys[0] = 0
    np.cumsum(~ties, out=keys[1:])
    keys *= n
    keys += order
    keys.sort()
    keys %= n
    return keys


class YSortedIndex:
    """Points sorted by y coordinate for fast envelope slicing.

    Build once per dataset (per KDV invocation); reuse across all ``Y`` rows.
    """

    def __init__(self, xy: np.ndarray):
        xy = np.asarray(xy, dtype=np.float64)
        #: the original-order coordinates the index was built over
        self.xy = xy
        order = _stable_argsort(xy[:, 1])
        #: points re-ordered by ascending y, shape (n, 2)
        self.sorted_xy = np.take(xy, order, axis=0)
        #: the ascending y view used for the binary searches
        self.sorted_y = self.sorted_xy[:, 1]
        #: original dataset index of each sorted position
        self.order = order
        self._transposed: "YSortedIndex | None" = None

    def __len__(self) -> int:
        return len(self.sorted_xy)

    def transposed(self) -> "YSortedIndex":
        """The index over the coordinate-swapped points, built lazily and
        cached.

        RAO column sweeps run the row sweep on the transposed problem
        (:func:`repro.core.rao.with_rao`), which sorts by the *other*
        coordinate; caching the twin here means a caller-supplied index
        still saves the O(n log n) re-sort in that orientation.  The twin is
        built from the original-order coordinates (not the sorted ones) so
        its stable argsort breaks ties exactly as a fresh
        ``YSortedIndex(xy[:, ::-1])`` would, and it back-links to this index
        so ``idx.transposed().transposed() is idx``.
        """
        if self._transposed is None:
            self._transposed = YSortedIndex(self.xy[:, ::-1])
            self._transposed._transposed = self
        return self._transposed

    def envelope_slice(self, k: float, bandwidth: float) -> slice:
        """The contiguous slice of :attr:`sorted_xy` that forms ``E(k)``."""
        lo = int(np.searchsorted(self.sorted_y, k - bandwidth, side="left"))
        hi = int(np.searchsorted(self.sorted_y, k + bandwidth, side="right"))
        return slice(lo, hi)

    def envelope_points(self, k: float, bandwidth: float) -> np.ndarray:
        """``E(k)`` as an ``(m, 2)`` coordinate array (a view, not a copy)."""
        return self.sorted_xy[self.envelope_slice(k, bandwidth)]

    def envelope_indices(self, k: float, bandwidth: float) -> np.ndarray:
        """``E(k)`` as original-dataset indices (for parity with
        :func:`envelope_scan` in tests)."""
        return self.order[self.envelope_slice(k, bandwidth)]
