"""SLAM_SORT — the sorting-based sweep line algorithm (paper Algorithm 1).

Per pixel row: sort the interval endpoints ``LB_k(p)``/``UB_k(p)`` of the
envelope points together with the (already sorted) pixel x-centers into one
event list, then sweep left to right.  Crossing a lower bound moves the point
into the set ``L`` (it *may* now contribute); crossing an upper bound moves it
into ``U`` (it no longer contributes); reaching a pixel evaluates the density
from the aggregate difference ``L - U`` in O(1) (Lemma 3).

Row cost: O(m log m + X) for m = |E(k)| envelope points, giving
O(Y (n log n + X)) overall (Theorem 1).

Two per-row functions, registered as the ``slam_sort.python`` and
``slam_sort.numpy`` engines by :mod:`repro.core.engines`:

* :func:`slam_sort_row_python` — a literal transcription of Algorithm 1's
  event sweep, kept simple for auditability; used as algorithmic ground truth
  in the tests.
* :func:`slam_sort_row_numpy` — the same sweep expressed as sorted-endpoint
  prefix sums: the aggregate of ``L`` at pixel x is the prefix sum of channel
  values in LB-sorted order up to ``searchsorted(lb, x, side="right")``
  (and analogously, strictly, for ``U``).  Identical output, vectorized.

Tie convention: a pixel exactly on an interval endpoint *counts* the point
(``LB <= q.x <= UB``, matching Lemma 2's closed interval and the ``dist <= b``
test of the direct evaluation), so both engines agree bit-for-bit with SCAN
on the set ``R(q)`` even for crafted integer inputs.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..obs import Recorder
from .kernels import Kernel
from .sweep import PHASE_ENDPOINT_SORT, PHASE_PREFIX_SWEEP

__all__ = [
    "slam_sort_row_python",
    "slam_sort_row_numpy",
    "PHASE_ENDPOINT_SORT",
    "PHASE_PREFIX_SWEEP",
]

# Event type codes; the sort key is (x, type) so that at equal x the order is
# "enter L" -> "evaluate pixel" -> "enter U", implementing the closed interval.
_EVENT_LB = 0
_EVENT_PIXEL = 1
_EVENT_UB = 2


def slam_sort_row_python(
    xs: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    chans: np.ndarray,
    kernel: Kernel,
    recorder: "Recorder | None" = None,
) -> np.ndarray:
    """Literal event-list sweep of Algorithm 1 for one pixel row."""
    num_channels = chans.shape[1]
    t0 = perf_counter() if recorder is not None else 0.0
    events: list[tuple[float, int, int]] = []
    for p in range(len(lb)):
        events.append((float(lb[p]), _EVENT_LB, p))
        events.append((float(ub[p]), _EVENT_UB, p))
    for i, x in enumerate(xs):
        events.append((float(x), _EVENT_PIXEL, i))
    events.sort(key=lambda e: (e[0], e[1]))
    if recorder is not None:
        t1 = perf_counter()
        recorder.timer(PHASE_ENDPOINT_SORT).add(t1 - t0)

    agg_l = [0.0] * num_channels  # aggregates of L (points whose LB was passed)
    agg_u = [0.0] * num_channels  # aggregates of U (points whose UB was passed)
    out = np.zeros(len(xs), dtype=np.float64)
    diff = np.zeros(num_channels, dtype=np.float64)
    for x, etype, idx in events:
        if etype == _EVENT_LB:  # case 1: sweep line meets LB_k(p)
            for c in range(num_channels):
                agg_l[c] += chans[idx, c]
        elif etype == _EVENT_UB:  # case 2: sweep line meets UB_k(p)
            for c in range(num_channels):
                agg_u[c] += chans[idx, c]
        else:  # case 3: sweep line meets a pixel -> evaluate (Lemma 3)
            for c in range(num_channels):
                diff[c] = agg_l[c] - agg_u[c]
            out[idx] = kernel.density_from_aggregates(x, 0.0, diff, 1.0)
    if recorder is not None:
        recorder.timer(PHASE_PREFIX_SWEEP).add(perf_counter() - t1)
    return out


def slam_sort_row_numpy(
    xs: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    chans: np.ndarray,
    kernel: Kernel,
    recorder: "Recorder | None" = None,
) -> np.ndarray:
    """Vectorized Algorithm 1: sorted endpoints + prefix sums per row."""
    num_channels = chans.shape[1]
    zero_row = np.zeros((1, num_channels), dtype=np.float64)

    t0 = perf_counter() if recorder is not None else 0.0
    order_l = np.argsort(lb, kind="stable")
    lb_sorted = lb[order_l]
    prefix_l = np.concatenate([zero_row, np.cumsum(chans[order_l], axis=0)])

    order_u = np.argsort(ub, kind="stable")
    ub_sorted = ub[order_u]
    prefix_u = np.concatenate([zero_row, np.cumsum(chans[order_u], axis=0)])
    if recorder is not None:
        t1 = perf_counter()
        recorder.timer(PHASE_ENDPOINT_SORT).add(t1 - t0)

    # L = points with LB <= x (inclusive); U = points with UB < x (strict),
    # so R(q) = L \ U is the closed interval membership of Lemma 2.
    idx_l = np.searchsorted(lb_sorted, xs, side="right")
    idx_u = np.searchsorted(ub_sorted, xs, side="left")
    agg = prefix_l[idx_l] - prefix_u[idx_u]
    out = kernel.density_from_aggregates(xs, 0.0, agg, 1.0)
    if recorder is not None:
        recorder.timer(PHASE_PREFIX_SWEEP).add(perf_counter() - t1)
    return out
