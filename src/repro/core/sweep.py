"""Shared row-sweep driver for the SLAM algorithms.

Both SLAM variants process the raster one pixel row at a time (paper
Figure 4): extract the envelope point set ``E(k)`` for the row's y-coordinate
``k``, turn each envelope point into an x-interval ``[LB_k(p), UB_k(p)]``
(Section 3.3), and sweep the intervals against the row's pixel x-centers.
The algorithms differ only in how they order interval endpoints against
pixels — sorting (Algorithm 1) versus bucketing (Algorithm 2) — so everything
else lives here.

Engines
-------
Every engine is one kind of object: a ``name`` (its wire name, registered in
:mod:`repro.core.engines`), a ``threads`` count, and a ``sweep_block`` method
that computes a contiguous row block.  The per-row functions of
:mod:`repro.core.slam_sort` and :mod:`repro.core.slam_bucket` become engines
through the :class:`RowSweep` adapter; the compiled
:class:`repro.core.native.NativeEngine` computes a whole block in one C
call.  :func:`sweep_kdv`, the process executor and the dist workers all
just call ``engine.sweep_block``.

Numerical conditioning
----------------------
The aggregate recombination (Equation 5 and the quartic expansion) subtracts
large like-sized terms, so raw projected coordinates (|x| up to 1e6 m) would
lose precision.  The driver therefore evaluates every row in a *scaled local
frame*: coordinates are shifted so the row center is the origin and divided by
the bandwidth.  Distances scale by ``1/b``, so the engines evaluate kernels
with bandwidth 1; densities are invariant because the kernels of Table 2
depend only on ``dist/b``.  This changes nothing algorithmically — it is a
units change — and keeps every intermediate quantity O((W/b)^2).

Parallel execution
------------------
Rows are independent (the paper's per-row decomposition shares only read-only
state: the y-sorted index and the scaled pixel centers), so the driver can
hand contiguous *row blocks* to :mod:`repro.core.parallel` (a process pool)
or to :mod:`repro.dist` (external workers) and assemble the results.  Each
row is computed by exactly the same code in exactly the same floating-point
order regardless of blocking, so any ``workers`` setting — including
``workers=1``, which bypasses the executor entirely — produces bit-identical
grids.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

import numpy as np

from ..obs import NULL_RECORDER, Recorder, active
from ..viz.region import Raster
from .envelope import YSortedIndex
from .kernels import Kernel, channel_values
from .parallel import resolve_workers, run_blocks, validate_backend

__all__ = [
    "RowSweep",
    "sweep_kdv",
    "make_grid_function",
    "row_frame",
    "PHASE_ENVELOPE_UPDATE",
    "PHASE_ENDPOINT_SORT",
    "PHASE_ENDPOINT_BUCKET",
    "PHASE_PREFIX_SWEEP",
]

# Observability phase names shared by the sweep driver and the engines
# (see docs/observability.md).  They live here — the one module every
# engine already imports — so the row functions and the native engine can
# share them without circular imports; ``slam_sort`` / ``slam_bucket``
# re-export them for compatibility.
PHASE_ENVELOPE_UPDATE = "sweep.envelope_update"
PHASE_ENDPOINT_SORT = "sweep.endpoint_sort"
PHASE_ENDPOINT_BUCKET = "sweep.endpoint_bucket"
PHASE_PREFIX_SWEEP = "sweep.prefix_sweep"


def row_frame(
    envelope_xy: np.ndarray, k: float, cx: float, bandwidth: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a row's envelope points into the scaled local frame.

    Returns ``(u, v, half)`` where ``(u, v)`` are the scaled coordinates
    relative to ``(cx, k)`` and ``half`` is the scaled interval half-width
    ``sqrt(1 - v^2)`` so that ``lb = u - half`` and ``ub = u + half``
    (the scaled form of paper Equations 8-9).
    """
    u = (envelope_xy[:, 0] - cx) / bandwidth
    v = (envelope_xy[:, 1] - k) / bandwidth
    radicand = 1.0 - v * v
    # Envelope membership guarantees |v| <= 1; clamp the tiny negative values
    # float rounding can produce at the envelope boundary.
    np.clip(radicand, 0.0, None, out=radicand)
    return u, v, np.sqrt(radicand)


class RowSweep:
    """A per-row SLAM function in the engine shape (see the module doc).

    The per-row functions (:func:`~repro.core.slam_sort.slam_sort_row_numpy`
    and friends) take one row's intervals in the scaled local frame:

    ``xs``     -- pixel-center x coordinates, strictly increasing, shape (X,)
    ``lb/ub``  -- interval endpoints per envelope point, shape (m,)
    ``chans``  -- aggregate channel values per envelope point, shape (m, nch)
    ``kernel`` -- the kernel whose aggregates ``chans`` encodes
    ``recorder`` -- a :class:`~repro.obs.Recorder` for the engine's
    endpoint-ordering and prefix-sweep phase timings, or ``None``

    and return the row's ``sum_{p in R(q)} K(q, p)`` values, shape (X,).
    This adapter drives one such function over a row block.
    """

    threads = 1

    def __init__(self, name: str, row_fn: Callable[..., np.ndarray]):
        self.name = name
        self.row_fn = row_fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowSweep({self.name!r})"

    def sweep_block(
        self,
        start: int,
        stop: int,
        y_centers: np.ndarray,
        xs_scaled: np.ndarray,
        ysorted: YSortedIndex,
        cx: float,
        bandwidth: float,
        kernel: Kernel,
        sorted_weights: np.ndarray | None = None,
        recorder: "Recorder | None" = None,
    ) -> np.ndarray:
        """Compute the contiguous pixel-row block ``[start, stop)``.

        Pure function of its arguments -- all inputs are read-only shared
        state (the y-sorted index, the scaled pixel x-centers) plus the block
        bounds, so blocks can be evaluated in any order or in a worker
        process, and always yield the same ``(stop - start, X)`` float64
        array.  The result is *unscaled*: :func:`sweep_kdv` applies the
        kernel's rescale factor once after assembling all blocks.

        With a recorder the block accumulates counters (``sweep.rows``,
        ``sweep.empty_rows``, ``sweep.envelope_points``) and the
        ``sweep.envelope_update`` phase timer, and passes the recorder into
        the row function for its per-phase breakdown.  The clocks never
        touch the arithmetic, so both paths return the same bits.
        """
        nch = kernel.num_channels
        block = np.zeros((stop - start, len(xs_scaled)), dtype=np.float64)
        rec = active(recorder)
        perf = time.perf_counter
        envelope_seconds = 0.0
        envelope_points = 0
        empty_rows = 0
        for j in range(start, stop):
            k = y_centers[j]
            t0 = perf() if rec is not None else 0.0
            env_slice = ysorted.envelope_slice(k, bandwidth)
            env = ysorted.sorted_xy[env_slice]
            if len(env) == 0:
                empty_rows += 1
                if rec is not None:
                    envelope_seconds += perf() - t0
                continue
            u, v, half = row_frame(env, k, cx, bandwidth)
            row_weights = None if sorted_weights is None else sorted_weights[env_slice]
            chans = channel_values(np.column_stack((u, v)), nch, weights=row_weights)
            envelope_points += len(env)
            if rec is not None:
                envelope_seconds += perf() - t0
            block[j - start] = self.row_fn(
                xs_scaled, u - half, u + half, chans, kernel, recorder=rec
            )
        if rec is not None:
            # Local accumulators flush once per block, so the recorder lock
            # is not taken per row.
            rows = stop - start
            rec.count("sweep.rows", rows)
            rec.count("sweep.empty_rows", empty_rows)
            rec.count("sweep.envelope_points", envelope_points)
            rec.timer(PHASE_ENVELOPE_UPDATE).add(envelope_seconds, rows)
        return block


def sweep_kdv(
    xy: np.ndarray,
    raster: Raster,
    kernel: Kernel,
    bandwidth: float,
    engine,
    ysorted: YSortedIndex | None = None,
    weights: np.ndarray | None = None,
    workers: "int | str | None" = 1,
    backend: str = "process",
    stats: dict | None = None,
    recorder: "Recorder | None" = None,
    coordinator=None,
) -> np.ndarray:
    """Compute the raw KDV grid ``sum_p w_p K(q, p)`` with a sweep engine.

    Parameters
    ----------
    xy:
        ``(n, 2)`` point coordinates.
    raster:
        The pixel grid to evaluate.
    kernel:
        A finite-support kernel with an aggregate decomposition.
    bandwidth:
        The kernel bandwidth ``b`` in world units.
    engine:
        A sweep engine: an entry of :data:`repro.core.engines.ENGINES`, or
        any object with the same ``name``/``threads``/``sweep_block`` shape
        (e.g. a :class:`RowSweep` around a per-row test oracle).
    ysorted:
        Optional y-sorted index over ``xy`` (reused across exploratory
        calls).  One still unsorted (:meth:`YSortedIndex.deferred`, or a
        fresh :meth:`~YSortedIndex.transposed` twin) is sorted here.
    weights:
        Optional ``(n,)`` per-point weights (w_p = 1 when omitted).  Weighting
        scales each point's aggregate channels, so the sweep itself is
        unchanged and the complexity guarantees still hold.
    workers:
        ``1`` (default) or ``None`` runs the serial sweep; an integer > 1
        dispatches row blocks to that many workers; ``"auto"`` uses the
        CPUs this process may run on.  Any setting produces a bit-identical
        grid.
    backend:
        ``"process"`` (default; a process pool over row blocks, ignored when
        one worker resolves) or ``"dist"`` (shards dispatched to external
        worker processes via a :mod:`repro.dist` coordinator — see the
        ``coordinator`` parameter).  ``dist`` always routes through the
        coordinator, sharding by ``workers`` when it is > 1 and by the
        coordinator's own default otherwise.
    stats:
        Optional dict that receives lightweight instrumentation: ``rows``,
        ``blocks``, ``workers``, ``backend``, ``elapsed_seconds``,
        ``rows_per_sec``.
    recorder:
        Optional :class:`~repro.obs.Recorder`.  When attached, the sweep
        records the ``sweep`` span, an ``index_build`` span when this call
        sorts (never for an index that arrives sorted), per-phase timers
        (``sweep.envelope_update`` plus the engine's endpoint-ordering and
        prefix-sweep phases), and row/envelope counters.  In parallel runs
        each block records into a private recorder whose snapshot is merged
        back here, so counts equal the serial sweep's.  ``None`` (default)
        disables all instrumentation at zero cost.
    coordinator:
        Optional :class:`repro.dist.Coordinator` used when
        ``backend="dist"``.  ``None`` resolves one via
        :func:`repro.dist.coordinator.resolve_coordinator` (process default,
        then the ``REPRO_DIST_WORKERS`` environment variable, then a
        worker-less coordinator computing shards in-process).  Ignored for
        the in-process backend.

    Returns
    -------
    ``(Y, X)`` float64 grid of un-normalized density values.
    """
    if kernel.num_channels is None:
        raise ValueError(
            f"kernel {kernel.name!r} has no aggregate decomposition; "
            "SLAM supports uniform, epanechnikov, and quartic kernels"
        )
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    num_workers = resolve_workers(workers)
    validate_backend(backend)
    rec = active(recorder)
    xy = np.asarray(xy, dtype=np.float64)
    if ysorted is None:
        ysorted = YSortedIndex.deferred(xy)
    if not ysorted.is_sorted:
        # only the call that sorts records the build, in either orientation
        with (rec or NULL_RECORDER).span("index_build"):
            ysorted.sort()
    sorted_weights = None
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(xy),):
            raise ValueError(
                f"weights must have shape ({len(xy)},), got {weights.shape}"
            )
        sorted_weights = weights[ysorted.order]

    cx = (raster.region.xmin + raster.region.xmax) / 2.0
    xs_scaled = (raster.x_centers() - cx) / bandwidth
    y_centers = raster.y_centers()
    height = raster.height

    t0 = time.perf_counter()
    with (rec or NULL_RECORDER).span("sweep"):
        if backend == "dist":
            # Distributed dispatch: the coordinator plans row shards over
            # the same precomputed geometry and merges worker blocks by row
            # band, so the result is bit-identical to the serial branch
            # below (see repro.dist.plan for the argument).  Imported lazily
            # so the core sweep has no hard dependency on the dist tier.
            from ..dist.coordinator import resolve_coordinator
            from ..dist.worker import engine_spec

            coord = resolve_coordinator(coordinator)
            num_blocks, grid, snapshots = coord.render_sweep(
                ysorted=ysorted,
                y_centers=y_centers,
                xs_scaled=xs_scaled,
                cx=cx,
                bandwidth=bandwidth,
                kernel=kernel,
                engine=engine_spec(engine),
                sorted_weights=sorted_weights,
                shards=num_workers if num_workers > 1 else None,
                collect=rec is not None,
            )
        elif num_workers == 1:
            grid = engine.sweep_block(
                0, height, y_centers, xs_scaled, ysorted, cx, bandwidth,
                kernel, sorted_weights=sorted_weights, recorder=rec,
            )
            num_blocks, snapshots = 1, ()
        else:
            num_blocks, grid, snapshots = run_blocks(
                engine,
                (y_centers, xs_scaled, ysorted, cx, bandwidth, kernel),
                sorted_weights,
                height,
                num_workers,
                collect=rec is not None,
            )
        if rec is not None:
            # Each parallel block or shard recorded into a private recorder;
            # merging the snapshots reproduces the serial counts exactly.
            for snap in snapshots:
                rec.merge(snap)
    elapsed = time.perf_counter() - t0

    # Undo the bandwidth scaling for kernels whose value depends on b
    # directly (the uniform kernel's 1/b plateau); see Kernel.rescale_factor.
    factor = kernel.rescale_factor(bandwidth)
    if factor != 1.0:
        grid *= factor
    if rec is not None:
        rec.count("sweep.blocks", num_blocks)
    if stats is not None:
        stats.update(
            rows=height,
            blocks=num_blocks,
            workers=num_workers,
            backend=backend
            if backend == "dist"
            else ("serial" if num_workers == 1 else backend),
            elapsed_seconds=elapsed,
            rows_per_sec=height / elapsed if elapsed > 0 else float("inf"),
        )
    return grid


def make_grid_function(engine) -> Callable[..., np.ndarray]:
    """Bind an engine into a grid-level compute function
    ``fn(xy, raster, kernel, bandwidth, **sweep_kdv_kwargs)``."""
    return functools.partial(sweep_kdv, engine=engine)
