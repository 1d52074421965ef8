"""SLAM_BUCKET — the bucket-based sweep line algorithm (paper Algorithm 2).

The pixel centers of a row are evenly spaced, so the bucket that an interval
endpoint falls into can be computed arithmetically in O(1) (paper
Equations 19-20) instead of by sorting.  Each endpoint is assigned to the
pixel index at which it takes effect:

* a point *enters* the candidate set ``L`` at the first pixel ``i`` with
  ``xs[i] >= LB_k(p)``;
* it *enters* ``U`` (stops contributing) at the first pixel ``i`` with
  ``xs[i] > UB_k(p)`` (strict, so a pixel exactly on the upper bound still
  counts the point — Lemma 2's closed interval).

The sweep then visits pixels left to right, merging each pixel's buckets into
the running aggregates and evaluating the density in O(1) (Lemma 5).  Row
cost: O(m + X), giving O(Y (n + X)) overall (Theorem 2).

Floating-point robustness: the arithmetic bucket index
``ceil((LB - xs[0]) / gx)`` can be off by one when an endpoint coincides with
a pixel center (or within one ulp of it).  Both engines apply a one-step
correction against the actual pixel coordinates, which restores the exact
``searchsorted`` semantics; rounding error is far below one pixel gap, so a
single step suffices.

:mod:`repro.core.engines` registers :func:`slam_bucket_row_python` as the
``slam_bucket.python`` engine and :func:`slam_bucket_row_numpy` as the
``slam_bucket.numpy`` engine, the oracle the compiled ``slam_bucket.native``
is pinned to bit for bit.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from ..obs import Recorder
from .bounds import bucket_indices
from .kernels import Kernel
from .sweep import PHASE_ENDPOINT_BUCKET, PHASE_PREFIX_SWEEP

__all__ = [
    "slam_bucket_row_python",
    "slam_bucket_row_numpy",
    "bucket_indices",
    "PHASE_ENDPOINT_BUCKET",
]


def slam_bucket_row_python(
    xs: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    chans: np.ndarray,
    kernel: Kernel,
    recorder: "Recorder | None" = None,
) -> np.ndarray:
    """Literal transcription of Algorithm 2 with explicit bucket lists."""
    num_pixels = len(xs)
    num_channels = chans.shape[1]
    x0 = float(xs[0])
    gx = float(xs[1] - xs[0]) if num_pixels > 1 else 1.0

    t0 = perf_counter() if recorder is not None else 0.0
    # Lower/upper bound buckets, one per pixel plus the past-the-end bucket.
    buckets_l: list[list[int]] = [[] for _ in range(num_pixels + 1)]
    buckets_u: list[list[int]] = [[] for _ in range(num_pixels + 1)]

    for p in range(len(lb)):
        i_l = min(max(math.ceil((lb[p] - x0) / gx), 0), num_pixels)
        # float correction (see module docstring)
        if i_l < num_pixels and xs[i_l] < lb[p]:
            i_l += 1
        elif i_l > 0 and xs[i_l - 1] >= lb[p]:
            i_l -= 1
        i_u = min(max(math.floor((ub[p] - x0) / gx) + 1, 0), num_pixels)
        if i_u < num_pixels and xs[i_u] <= ub[p]:
            i_u += 1
        elif i_u > 0 and xs[i_u - 1] > ub[p]:
            i_u -= 1
        buckets_l[min(i_l, num_pixels)].append(p)
        buckets_u[min(i_u, num_pixels)].append(p)
    if recorder is not None:
        t1 = perf_counter()
        recorder.timer(PHASE_ENDPOINT_BUCKET).add(t1 - t0)

    agg_l = [0.0] * num_channels
    agg_u = [0.0] * num_channels
    out = np.zeros(num_pixels, dtype=np.float64)
    diff = np.zeros(num_channels, dtype=np.float64)
    for i in range(num_pixels):
        for p in buckets_l[i]:
            for c in range(num_channels):
                agg_l[c] += chans[p, c]
        for p in buckets_u[i]:
            for c in range(num_channels):
                agg_u[c] += chans[p, c]
        for c in range(num_channels):
            diff[c] = agg_l[c] - agg_u[c]
        out[i] = kernel.density_from_aggregates(float(xs[i]), 0.0, diff, 1.0)
    if recorder is not None:
        recorder.timer(PHASE_PREFIX_SWEEP).add(perf_counter() - t1)
    return out


def slam_bucket_row_numpy(
    xs: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    chans: np.ndarray,
    kernel: Kernel,
    recorder: "Recorder | None" = None,
) -> np.ndarray:
    """Vectorized Algorithm 2: per-channel bincount of bucket deltas + cumsum."""
    num_pixels = len(xs)
    num_channels = chans.shape[1]
    t0 = perf_counter() if recorder is not None else 0.0
    enter, leave = bucket_indices(xs, lb, ub)
    if recorder is not None:
        t1 = perf_counter()
        recorder.timer(PHASE_ENDPOINT_BUCKET).add(t1 - t0)

    # net[i] = (channel sums entering at pixel i) - (channel sums leaving);
    # the running aggregate at pixel i is the prefix sum over buckets <= i.
    net = np.empty((num_pixels + 1, num_channels), dtype=np.float64)
    for c in range(num_channels):
        net[:, c] = np.bincount(enter, weights=chans[:, c], minlength=num_pixels + 1)
        net[:, c] -= np.bincount(leave, weights=chans[:, c], minlength=num_pixels + 1)
    agg = np.cumsum(net[:num_pixels], axis=0)
    out = kernel.density_from_aggregates(xs, 0.0, agg, 1.0)
    if recorder is not None:
        recorder.timer(PHASE_PREFIX_SWEEP).add(perf_counter() - t1)
    return out
