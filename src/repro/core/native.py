"""The ``native`` engine: fused C bucket sweep with OpenMP row parallelism.

:mod:`repro.core._native_sweep` (an optional C extension, built on a
best-effort basis by ``setup.py``) implements the whole bucket sweep as one
fused per-row loop — binary-search envelope extraction, arithmetic bucket
assignment, difference-row accumulation, and the prefix sweep + kernel
recombination — with no intermediate tensors, parallelized across rows with
OpenMP.  This module wraps it in the engine shape of :mod:`repro.core.sweep`
(``name``, ``threads``, ``sweep_block``) as ``slam_bucket.native``, so the
shared drivers (:func:`repro.core.sweep.sweep_kdv`, the dist worker, the RAO
wrapper) need no special cases.

Optional-build semantics
------------------------
The extension import is attempted once at module import.  When it is absent
(no C toolchain, or ``REPRO_BUILD_NATIVE=0`` at build time) this module still
imports cleanly: :data:`NATIVE_AVAILABLE` is ``False``, the ``"native"`` name
is simply not registered in the engine tables, and requesting it raises the
standard unknown-engine error naming the engines that *are* available.  See
``docs/native.md`` for build instructions and the fallback matrix.

Thread model
------------
The C loop parallelizes across rows *inside* one ``sweep_block`` call, so the
``workers`` kwarg maps to OpenMP threads (:func:`native_grid` resolves it via
the same :func:`repro.core.parallel.resolve_workers` as the other engines)
and the sweep runs serially around it — there is nothing left for a process
pool to parallelize.  ``backend="dist"`` still routes through the
coordinator: the spec from :func:`repro.dist.worker.engine_spec` carries the
thread count to each worker.

Bit-identity: the extension replicates ``slam_bucket_row_numpy``'s exact
floating-point operand order (see the C source) and is pinned bit-identical
by ``tests/test_native.py`` and the ``tests/test_batch.py`` parity matrix.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..obs import Recorder
from .batch import NumpyBatchEngine
from .envelope import YSortedIndex
from .kernels import Kernel
from .parallel import resolve_workers
from .sweep import sweep_kdv

try:  # pragma: no cover - exercised via the availability tests
    from . import _native_sweep as _impl
except ImportError:  # the wheel-less / toolchain-less checkout
    _impl = None

__all__ = [
    "NATIVE_AVAILABLE",
    "NATIVE_OPENMP",
    "NativeEngine",
    "native_grid",
    "native_max_threads",
]

#: ``True`` when the C extension imported; the ``"native"`` engine-table
#: entries exist only in that case.
NATIVE_AVAILABLE = _impl is not None

#: ``True`` when the extension was additionally compiled with OpenMP (row
#: parallelism); without it the engine still runs, single-threaded.
NATIVE_OPENMP = bool(getattr(_impl, "OPENMP", 0))

#: Kernel name -> C kernel id (mirrors the C source's KERNEL_* defines).
_KERNEL_IDS = {"uniform": 0, "epanechnikov": 1, "quartic": 2}


def native_max_threads() -> int:
    """The OpenMP thread budget (1 when unavailable or OpenMP-less)."""
    if _impl is None:
        return 1
    return int(_impl.max_threads())


def _unavailable_error() -> RuntimeError:
    return RuntimeError(
        "the native sweep extension (repro.core._native_sweep) is not "
        "built; run `python setup.py build_ext --inplace` with a C "
        "toolchain, or use the default numpy engine (bit-identical, pure "
        "python) — see docs/native.md"
    )


class NativeEngine:
    """Whole-block sweep engine backed by the fused C loop.

    Registered as ``slam_bucket.native`` when the extension is compiled, and
    bit-identical to :class:`~repro.core.batch.NumpyBatchEngine` (and to
    ``slam_bucket_row_numpy``) by the extension's operand-order contract.
    ``threads`` is the OpenMP row-parallelism width for each block; with 1
    (or an OpenMP-less build) the C loop runs serially — still fused, still
    allocation-free.
    """

    name = "slam_bucket.native"

    def __init__(self, threads: int = 1):
        if not NATIVE_AVAILABLE:
            raise _unavailable_error()
        self.threads = max(1, int(threads))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NativeEngine(threads={self.threads})"

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
        """Compute the pixel-row block ``[start, stop)`` in one C call.

        Same contract as :meth:`NumpyBatchEngine.sweep_block`, including the
        recorder semantics: counters and phase call counts equal the serial
        loop's (phase *seconds* reflect the fused loop, which cannot split
        its time between the bucket and prefix phases — the whole compute is
        attributed to ``sweep.prefix_sweep``).
        """
        if kernel.name not in _KERNEL_IDS:
            raise ValueError(
                "engine 'native' supports the built-in SLAM kernels "
                f"(uniform, epanechnikov, quartic); got {kernel.name!r}"
            )
        num_rows = stop - start
        if num_rows <= 0 or len(xs_scaled) == 0:
            return np.zeros((max(num_rows, 0), len(xs_scaled)), dtype=np.float64)
        # The C loop stores every pixel (empty-envelope rows are memset), so
        # the output need not be pre-zeroed.
        out = np.empty((num_rows, len(xs_scaled)), dtype=np.float64)

        rec = recorder
        t0 = perf_counter() if rec is not None else 0.0
        ks = np.ascontiguousarray(y_centers[start:stop], dtype=np.float64)
        xs = np.ascontiguousarray(xs_scaled, dtype=np.float64)
        xy = ysorted.sorted_xy
        if xy.dtype != np.float64 or not xy.flags["C_CONTIGUOUS"]:
            xy = np.ascontiguousarray(xy, dtype=np.float64)
        weights = (
            None
            if sorted_weights is None
            else np.ascontiguousarray(sorted_weights, dtype=np.float64)
        )
        _impl.sweep(
            out,
            ks,
            xs,
            xy,
            weights,
            float(cx),
            float(bandwidth),
            _KERNEL_IDS[kernel.name],
            self.threads,
        )
        if rec is not None:
            sweep_seconds = perf_counter() - t0
            t1 = perf_counter()
            # Counter parity with the serial loop costs two searchsorted
            # calls — only paid when a recorder is attached.
            lo = np.searchsorted(ysorted.sorted_y, ks - bandwidth, side="left")
            hi = np.searchsorted(ysorted.sorted_y, ks + bandwidth, side="right")
            counts = hi - lo
            NumpyBatchEngine._flush_recorder(
                rec,
                num_rows,
                int(np.count_nonzero(counts)),
                int(counts.sum()),
                perf_counter() - t1,  # envelope accounting overhead
                0.0,  # bucket/prefix time is fused; see docstring
                sweep_seconds,
            )
        return out


def native_grid(
    xy: np.ndarray,
    raster,
    kernel: Kernel,
    bandwidth: float,
    workers: "int | str | None" = 1,
    backend: str = "process",
    stats: dict | None = None,
    **kwargs,
) -> np.ndarray:
    """Grid-level ``native`` compute function (engine-table entry).

    ``workers`` becomes the OpenMP thread count (``"auto"`` resolves to the
    CPU count exactly like the other engines) and the sweep itself runs
    serially, reporting ``stats["backend"] == "openmp"`` when it used more
    than one thread.  ``backend="dist"`` shards across a
    :class:`repro.dist.Coordinator` pool as usual, each worker running the
    native engine (or its bit-identical ``numpy`` block-engine fallback when
    the worker's checkout has no compiled extension).  Other keyword
    arguments pass through to :func:`repro.core.sweep.sweep_kdv`.
    """
    threads = resolve_workers(workers)
    engine = NativeEngine(threads=threads)
    if backend == "dist":
        return sweep_kdv(
            xy, raster, kernel, bandwidth, engine, workers=workers,
            backend=backend, stats=stats, **kwargs,
        )
    grid = sweep_kdv(xy, raster, kernel, bandwidth, engine, stats=stats, **kwargs)
    if stats is not None:
        # Report the realized parallelism, not the (serial) block executor's.
        stats["workers"] = threads
        stats["backend"] = "openmp" if threads > 1 else "serial"
    return grid
