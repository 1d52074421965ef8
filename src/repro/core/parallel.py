"""Parallel row-block execution for the SLAM sweeps.

The sweep of :mod:`repro.core.sweep` processes pixel rows independently —
each row reads only the shared y-sorted index and the scaled pixel x-centers
— which makes the ``Y``-row loop embarrassingly parallel (the structure
Saule et al. exploit in *Parallel Space-Time Kernel Density Estimation*).
This module owns the dispatch mechanics:

* :func:`partition_rows` splits the ``Y`` rows into roughly
  ``BLOCKS_PER_WORKER`` x ``workers`` contiguous blocks (more blocks than
  workers smooths load imbalance: envelope sizes vary across rows, so equal
  row counts are not equal work);
* :func:`run_blocks` hands the blocks to a process pool, each worker
  calling the engine's ``sweep_block`` (see :mod:`repro.core.sweep`), and
  assembles the full grid.

Backends
--------
``"process"`` (default)
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  The shared sweep
    context (engine, index, pixel centers, kernel) is shipped to each worker
    *once* via the pool initializer rather than per task, so per-block
    overhead is one small ``(start, stop)`` submission plus the result block.
``"dist"``
    The distributed tier: row *shards* dispatched to external worker
    processes by a :class:`repro.dist.coordinator.Coordinator`.  Listed here
    so one validation path covers every backend a compute can name, but the
    dispatch lives in :func:`repro.core.sweep.sweep_kdv` (the shard planner
    needs the sweep's geometry), not in :func:`run_blocks`.

Determinism: blocks are assembled by row position, each row is computed by
the same code in the same floating-point order regardless of blocking, and
the executors never re-order arithmetic — so every ``workers``/``backend``
combination returns a grid bit-identical to the serial sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..obs import Recorder

__all__ = [
    "BACKENDS",
    "BLOCKS_PER_WORKER",
    "resolve_workers",
    "usable_cpus",
    "validate_backend",
    "partition_rows",
    "run_blocks",
]

#: Valid execution backends.  ``process`` is the in-process executor of
#: :func:`run_blocks`; ``dist`` routes to the :mod:`repro.dist` coordinator
#: (dispatched in ``sweep_kdv``).
BACKENDS = ("process", "dist")

#: Target number of blocks per worker.  Over-partitioning by this factor lets
#: the executor balance rows whose envelopes (and therefore costs) differ.
BLOCKS_PER_WORKER = 4


def usable_cpus() -> int:
    """How many CPUs this process may run on: the size of its affinity mask
    (which ``taskset`` and cgroup cpusets narrow) where the OS has one, else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: "int | str | None") -> int:
    """Normalize a ``workers`` request to a concrete positive worker count.

    ``None`` and ``1`` mean serial here (the ``native`` engine reads an unset
    ``None`` itself and sizes an OpenMP team by the render's work, see
    :func:`repro.core.native.native_grid`); ``"auto"`` resolves to
    :func:`usable_cpus`; any other value must be a positive integer.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return usable_cpus()
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ValueError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        ) from None
    if count != workers and not isinstance(workers, str):
        # e.g. workers=1.5 — silently truncating a worker count is a trap
        raise ValueError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    if count < 1:
        raise ValueError(f"workers must be a positive integer or 'auto', got {workers!r}")
    return count


def validate_backend(backend: str) -> None:
    """Reject unknown backend names with a stable, sorted availability list.

    The single validation path for every layer that accepts a ``backend``
    (``sweep_kdv``, ``compute_kdv``, the CLI), so new backends appear in
    every error message consistently.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown parallel backend {backend!r}; "
            f"available: {', '.join(sorted(BACKENDS))}"
        )


def partition_rows(num_rows: int, num_blocks: int) -> list[tuple[int, int]]:
    """Split ``range(num_rows)`` into at most ``num_blocks`` contiguous
    near-equal ``(start, stop)`` blocks covering every row exactly once."""
    if num_rows < 0:
        raise ValueError(f"num_rows must be non-negative, got {num_rows}")
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be positive, got {num_blocks}")
    if num_rows == 0:
        return []
    num_blocks = min(num_blocks, num_rows)
    base, extra = divmod(num_rows, num_blocks)
    blocks: list[tuple[int, int]] = []
    start = 0
    for i in range(num_blocks):
        stop = start + base + (1 if i < extra else 0)
        blocks.append((start, stop))
        start = stop
    return blocks


# Per-worker-process sweep context, installed once by the pool initializer so
# the (potentially large) shared arrays are pickled per worker, not per block.
_WORKER_CTX: "tuple | None" = None


def _init_worker(*ctx) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _run_block(start: int, stop: int) -> "tuple[np.ndarray, dict | None]":
    """Sweep one block in a pool worker.  With ``collect`` the block records
    into a fresh recorder whose snapshot travels back with it: workers never
    share the caller's recorder, and the caller merges the snapshots, so
    merged counters equal the serial sweep's exactly (see
    :meth:`repro.obs.Recorder.merge`)."""
    engine, args, sorted_weights, collect = _WORKER_CTX
    recorder = Recorder() if collect else None
    block = engine.sweep_block(
        start, stop, *args, sorted_weights=sorted_weights, recorder=recorder
    )
    return block, None if recorder is None else recorder.snapshot()


def run_blocks(
    engine,
    args: tuple,
    sorted_weights: "np.ndarray | None",
    num_rows: int,
    workers: int,
    collect: bool = False,
) -> "tuple[int, np.ndarray, list[dict]]":
    """Evaluate ``engine.sweep_block(start, stop, *args, sorted_weights=...)``
    over a row partition on a process pool and assemble the
    ``(num_rows, X)`` grid.

    ``engine`` and ``args`` must be picklable (every registered engine is).
    Returns ``(num_blocks, grid, snapshots)``; ``snapshots`` holds one
    recorder snapshot per block, in row order, when ``collect`` is set and
    is empty otherwise.
    """
    blocks = partition_rows(num_rows, workers * BLOCKS_PER_WORKER)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(blocks)),
        initializer=_init_worker,
        initargs=(engine, args, sorted_weights, collect),
    ) as pool:
        futures = [pool.submit(_run_block, start, stop) for start, stop in blocks]
        results = [f.result() for f in futures]
    grid = np.empty((num_rows, results[0][0].shape[1]), dtype=np.float64)
    for (start, stop), (block, _) in zip(blocks, results):
        grid[start:stop] = block
    snapshots = [snap for _, snap in results] if collect else []
    return len(blocks), grid, snapshots
