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

    Build once per dataset and reuse across all ``Y`` rows and across calls;
    a :class:`~repro.data.points.PointSet` keeps one for its lifetime
    (:meth:`~repro.data.points.PointSet.ysorted_index`).

    ``YSortedIndex(xy)`` sorts at once.  :meth:`deferred` and
    :meth:`transposed` create an index that sorts on the first read of
    :attr:`order`, :attr:`sorted_xy` or :attr:`sorted_y` (or on
    :meth:`sort`), so creating one costs nothing and only the orientation a
    sweep reads is ever sorted.  Concurrent first reads may both sort; they
    compute the same permutation, so either result serves.
    """

    def __init__(self, xy: np.ndarray):
        self._setup(xy)
        self.sort()

    @classmethod
    def deferred(cls, xy: np.ndarray) -> "YSortedIndex":
        """An index over ``xy`` whose sort waits for its first use."""
        index = cls.__new__(cls)
        index._setup(xy)
        return index

    @classmethod
    def presorted(cls, xy: np.ndarray) -> "YSortedIndex":
        """An index over points already in ascending-y order, without the
        argsort: the identity permutation and ``xy`` itself as
        :attr:`sorted_xy` (a stable argsort of a sorted column is the
        identity, so the bits match a fresh sort).  One O(n) check guards
        the claim; input that is not non-decreasing in y (a NaN included)
        is sorted as usual.
        """
        index = cls.deferred(xy)
        y = index.xy[:, 1]
        if bool(np.all(y[:-1] <= y[1:])):
            index._sorted = (np.arange(len(y)), index.xy)
        return index

    def _setup(self, xy: np.ndarray) -> None:
        #: the original-order coordinates the index was built over
        self.xy = np.asarray(xy, dtype=np.float64)
        #: ``(order, sorted_xy)`` once sorted
        self._sorted: "tuple[np.ndarray, np.ndarray] | None" = None
        self._transposed: "YSortedIndex | None" = None

    @property
    def is_sorted(self) -> bool:
        """Whether the sort has run (a deferred index starts unsorted)."""
        return self._sorted is not None

    def sort(self) -> None:
        """Sort now, unless already sorted."""
        self._arrays()

    def _arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        arrays = self._sorted
        if arrays is None:
            order = _stable_argsort(self.xy[:, 1])
            arrays = self._sorted = (order, np.take(self.xy, order, axis=0))
        return arrays

    @property
    def order(self) -> np.ndarray:
        """Original dataset index of each sorted position."""
        return self._arrays()[0]

    @property
    def sorted_xy(self) -> np.ndarray:
        """Points re-ordered by ascending y, shape ``(n, 2)``."""
        return self._arrays()[1]

    @property
    def sorted_y(self) -> np.ndarray:
        """The ascending y view used for the binary searches."""
        return self._arrays()[1][:, 1]

    def __len__(self) -> int:
        return len(self.xy)

    def __getstate__(self) -> dict:
        # the transposed twin stays behind; the far side rebuilds it on demand
        return {"xy": self.xy, "sorted": self._sorted}

    def __setstate__(self, state: dict) -> None:
        self._setup(state["xy"])
        self._sorted = state["sorted"]

    def transposed(self) -> "YSortedIndex":
        """The index over the coordinate-swapped points, created lazily,
        cached, and sorted on first use.

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
            twin = YSortedIndex.deferred(self.xy[:, ::-1])
            twin._transposed = self
            self._transposed = twin
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
