"""Shared row-sweep driver for the SLAM algorithms.

Both SLAM variants process the raster one pixel row at a time (paper
Figure 4): extract the envelope point set ``E(k)`` for the row's y-coordinate
``k``, turn each envelope point into an x-interval ``[LB_k(p), UB_k(p)]``
(Section 3.3), and hand the intervals plus the row's pixel x-centers to a
*row engine* that performs the actual sweep.  The engines differ only in how
they order interval endpoints against pixels — sorting (Algorithm 1) versus
bucketing (Algorithm 2) — so everything else lives here.

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
hand contiguous *row blocks* to :mod:`repro.core.parallel` and assemble the
results.  Each row is computed by exactly the same code in exactly the same
floating-point order regardless of blocking, so any ``workers`` setting —
including ``workers=1``, which bypasses the executor entirely — produces
bit-identical grids.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol

import numpy as np

from ..obs import NULL_RECORDER, Recorder, active
from ..viz.region import Raster
from .envelope import YSortedIndex
from .kernels import Kernel, channel_values
from .parallel import resolve_workers, run_blocks, validate_backend

__all__ = [
    "RowEngine",
    "sweep_kdv",
    "sweep_rows",
    "sweep_rows_batched",
    "row_frame",
    "PHASE_ENVELOPE_UPDATE",
    "PHASE_ENDPOINT_SORT",
    "PHASE_ENDPOINT_BUCKET",
    "PHASE_PREFIX_SWEEP",
]

# Observability phase names shared by the sweep driver and the engines
# (see docs/observability.md).  They live here — the one module every
# engine already imports — so the engines and the block-batched engine in
# :mod:`repro.core.batch` can share them without circular imports;
# ``slam_sort`` / ``slam_bucket`` re-export them for compatibility.
PHASE_ENVELOPE_UPDATE = "sweep.envelope_update"
PHASE_ENDPOINT_SORT = "sweep.endpoint_sort"
PHASE_ENDPOINT_BUCKET = "sweep.endpoint_bucket"
PHASE_PREFIX_SWEEP = "sweep.prefix_sweep"


class RowEngine(Protocol):
    """Signature of a per-row sweep implementation.

    All inputs are in the scaled local frame (bandwidth 1, row at y = 0):

    ``xs``     -- pixel-center x coordinates, strictly increasing, shape (X,)
    ``lb/ub``  -- interval endpoints per envelope point, shape (m,)
    ``chans``  -- aggregate channel values per envelope point, shape (m, nch)
    ``kernel`` -- the kernel whose aggregates ``chans`` encodes
    ``recorder`` -- optional :class:`~repro.obs.Recorder`; when attached the
    engine accumulates its endpoint-ordering and prefix-sweep phase timings
    into it (``None``, the default, skips all timing)

    Returns the row's ``sum_{p in R(q)} K(q, p)`` values, shape (X,).
    """

    def __call__(
        self,
        xs: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        chans: np.ndarray,
        kernel: Kernel,
        recorder: "Recorder | None" = None,
    ) -> np.ndarray: ...


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


def sweep_rows(
    start: int,
    stop: int,
    y_centers: np.ndarray,
    xs_scaled: np.ndarray,
    ysorted: YSortedIndex,
    cx: float,
    bandwidth: float,
    kernel: Kernel,
    row_engine: RowEngine,
    sorted_weights: np.ndarray | None = None,
    recorder: "Recorder | None" = None,
) -> np.ndarray:
    """Compute the contiguous pixel-row block ``[start, stop)`` of a sweep.

    Pure function of its arguments — all inputs are read-only shared state
    (the y-sorted index, the scaled pixel x-centers) plus the block bounds, so
    blocks can be evaluated in any order, on any thread, or in a worker
    process, and always yield the same ``(stop - start, X)`` float64 array.
    The result is *unscaled*: :func:`sweep_kdv` applies the kernel's rescale
    factor once after assembling all blocks.

    When ``recorder`` is attached the block accumulates counters
    (``sweep.rows``, ``sweep.empty_rows``, ``sweep.envelope_points``) and the
    ``sweep.envelope_update`` phase timer, and passes the recorder into the
    row engine for its per-phase breakdown.  With ``recorder=None`` (the
    default) the loop below runs untouched — no clock reads, no allocations.
    """
    nch = kernel.num_channels
    block = np.zeros((stop - start, len(xs_scaled)), dtype=np.float64)
    rec = active(recorder)
    if rec is None:
        for j in range(start, stop):
            k = y_centers[j]
            env_slice = ysorted.envelope_slice(k, bandwidth)
            env = ysorted.sorted_xy[env_slice]
            if len(env) == 0:
                continue
            u, v, half = row_frame(env, k, cx, bandwidth)
            row_weights = None if sorted_weights is None else sorted_weights[env_slice]
            chans = channel_values(np.column_stack((u, v)), nch, weights=row_weights)
            block[j - start] = row_engine(xs_scaled, u - half, u + half, chans, kernel)
        return block

    # Instrumented twin of the loop above: identical arithmetic in identical
    # order (the bit-identity contract), plus clocks and counters.  Local
    # accumulators flush into the recorder once per block so the recorder
    # lock is not taken per row.
    perf = time.perf_counter
    envelope_seconds = 0.0
    envelope_points = 0
    empty_rows = 0
    for j in range(start, stop):
        k = y_centers[j]
        t0 = perf()
        env_slice = ysorted.envelope_slice(k, bandwidth)
        env = ysorted.sorted_xy[env_slice]
        if len(env) == 0:
            envelope_seconds += perf() - t0
            empty_rows += 1
            continue
        u, v, half = row_frame(env, k, cx, bandwidth)
        row_weights = None if sorted_weights is None else sorted_weights[env_slice]
        chans = channel_values(np.column_stack((u, v)), nch, weights=row_weights)
        envelope_seconds += perf() - t0
        envelope_points += len(env)
        block[j - start] = row_engine(
            xs_scaled, u - half, u + half, chans, kernel, recorder=rec
        )
    rows = stop - start
    rec.count("sweep.rows", rows)
    rec.count("sweep.empty_rows", empty_rows)
    rec.count("sweep.envelope_points", envelope_points)
    rec.timer(PHASE_ENVELOPE_UPDATE).add(envelope_seconds, rows)
    return block


def sweep_rows_batched(
    start: int,
    stop: int,
    y_centers: np.ndarray,
    xs_scaled: np.ndarray,
    ysorted: YSortedIndex,
    cx: float,
    bandwidth: float,
    kernel: Kernel,
    row_engine,
    sorted_weights: np.ndarray | None = None,
    recorder: "Recorder | None" = None,
) -> np.ndarray:
    """Block-batched twin of :func:`sweep_rows` for whole-block engines.

    Same signature and same contract — a pure function of read-only shared
    state returning the ``(stop - start, X)`` unscaled block — but instead of
    looping over rows in Python it hands the *entire block* to the engine's
    ``sweep_block`` method (see :class:`repro.core.batch.NumpyBatchEngine`),
    which computes all rows in a handful of whole-block array operations.
    Because the batch engine emits (row, point) pairs in exactly the per-row
    order of the serial loop, the result is bit-identical to
    :func:`sweep_rows` with ``slam_bucket_row_numpy``.
    """
    return row_engine.sweep_block(
        start,
        stop,
        y_centers,
        xs_scaled,
        ysorted,
        cx,
        bandwidth,
        kernel,
        sorted_weights=sorted_weights,
        recorder=active(recorder),
    )


def _sweep_rows_recorded(start: int, stop: int, *args, **kwargs):
    """Picklable parallel-block wrapper: run :func:`sweep_rows` under a fresh
    per-block recorder and ship its snapshot back with the block.

    Worker threads and processes never share the caller's recorder; the
    parent merges the returned snapshots, so merged counters equal the serial
    sweep's counts exactly (see :meth:`repro.obs.Recorder.merge`).
    """
    recorder = Recorder()
    block = sweep_rows(start, stop, *args, recorder=recorder, **kwargs)
    return block, recorder.snapshot()


def _sweep_rows_batched_recorded(start: int, stop: int, *args, **kwargs):
    """Per-block recorder wrapper for :func:`sweep_rows_batched` (picklable)."""
    recorder = Recorder()
    block = sweep_rows_batched(start, stop, *args, recorder=recorder, **kwargs)
    return block, recorder.snapshot()


def sweep_kdv(
    xy: np.ndarray,
    raster: Raster,
    kernel: Kernel,
    bandwidth: float,
    row_engine: RowEngine,
    ysorted: YSortedIndex | None = None,
    weights: np.ndarray | None = None,
    workers: "int | str | None" = 1,
    backend: str = "process",
    stats: dict | None = None,
    recorder: "Recorder | None" = None,
    coordinator=None,
) -> np.ndarray:
    """Compute the raw KDV grid ``sum_p w_p K(q, p)`` with a row-sweep engine.

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
    row_engine:
        One of the SLAM per-row implementations (a :class:`RowEngine`
        callable), or a whole-block engine exposing a ``sweep_block`` method
        (e.g. :class:`repro.core.batch.NumpyBatchEngine`), which is handed
        entire row blocks via :func:`sweep_rows_batched` instead of being
        called once per row.
    ysorted:
        Optional pre-built y-sorted index (reused across exploratory calls).
    weights:
        Optional ``(n,)`` per-point weights (w_p = 1 when omitted).  Weighting
        scales each point's aggregate channels, so the sweep itself is
        unchanged and the complexity guarantees still hold.
    workers:
        ``1`` (default) runs the serial sweep; an integer > 1 dispatches row
        blocks to that many workers; ``"auto"`` uses the CPU count.  Any
        setting produces a bit-identical grid.
    backend:
        ``"process"`` (default; sidesteps the GIL for the python engine),
        ``"thread"`` (cheaper startup; effective for the numpy engine, whose
        heavy array ops release the GIL), or ``"dist"`` (shards dispatched
        to external worker processes via a :mod:`repro.dist` coordinator —
        see the ``coordinator`` parameter).  ``process``/``thread`` are
        ignored when one worker resolves; ``dist`` always routes through the
        coordinator, sharding by ``workers`` when it is > 1 and by the
        coordinator's own default otherwise.
    stats:
        Optional dict that receives lightweight instrumentation: ``rows``,
        ``blocks``, ``workers``, ``backend``, ``elapsed_seconds``,
        ``rows_per_sec``.
    recorder:
        Optional :class:`~repro.obs.Recorder`.  When attached, the sweep
        records the ``index_build`` and ``sweep`` spans, per-phase timers
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
        the in-process backends.

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
        if rec is not None:
            with rec.span("index_build"):
                ysorted = YSortedIndex(xy)
        else:
            ysorted = YSortedIndex(xy)
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
    row_args = (y_centers, xs_scaled, ysorted, cx, bandwidth, kernel, row_engine)
    row_kwargs = {"sorted_weights": sorted_weights}
    # Whole-block engines (duck-typed on `sweep_block`, e.g. the bucket numpy
    # engine) replace the per-row Python loop with the batched driver; the
    # block partitioning, worker dispatch, and recorder merging are shared.
    if hasattr(row_engine, "sweep_block"):
        block_fn, block_fn_recorded = sweep_rows_batched, _sweep_rows_batched_recorded
    else:
        block_fn, block_fn_recorded = sweep_rows, _sweep_rows_recorded
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
                engine=engine_spec(row_engine),
                sorted_weights=sorted_weights,
                shards=num_workers if num_workers > 1 else None,
                collect=rec is not None,
            )
            if rec is not None:
                for snap in snapshots:
                    rec.merge(snap)
        elif num_workers == 1:
            grid = block_fn(0, height, *row_args, recorder=rec, **row_kwargs)
            num_blocks = 1
        elif rec is None:
            num_blocks, grid, _aux = run_blocks(
                block_fn, row_args, row_kwargs, height, num_workers, backend
            )
        else:
            # Each block records into a private recorder; merging the
            # returned snapshots reproduces the serial counts exactly.
            num_blocks, grid, snapshots = run_blocks(
                block_fn_recorded, row_args, row_kwargs,
                height, num_workers, backend,
            )
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


def make_grid_function(row_engine: RowEngine) -> Callable[..., np.ndarray]:
    """Bind a row engine into a grid-level compute function."""

    def grid_fn(
        xy: np.ndarray,
        raster: Raster,
        kernel: Kernel,
        bandwidth: float,
        ysorted: YSortedIndex | None = None,
        weights: np.ndarray | None = None,
        workers: "int | str | None" = 1,
        backend: str = "process",
        stats: dict | None = None,
        recorder: "Recorder | None" = None,
        coordinator=None,
    ) -> np.ndarray:
        return sweep_kdv(
            xy,
            raster,
            kernel,
            bandwidth,
            row_engine,
            ysorted=ysorted,
            weights=weights,
            workers=workers,
            backend=backend,
            stats=stats,
            recorder=recorder,
            coordinator=coordinator,
        )

    return grid_fn
