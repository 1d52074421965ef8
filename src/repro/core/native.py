"""The ``native`` engine: fused C bucket sweep with OpenMP row parallelism.

:mod:`repro.core._native_sweep` (a C extension compiled from
``_native_sweep.c`` on first import, see below) implements the whole bucket
sweep as one fused per-row loop — binary-search envelope extraction,
arithmetic bucket assignment, difference-row accumulation, and the prefix
sweep + kernel recombination — with no intermediate tensors, parallelized
across rows with OpenMP.  This module wraps it in the engine shape of
:mod:`repro.core.sweep` (``name``, ``threads``, ``sweep_block``) as
``slam_bucket.native``, so the shared drivers (:func:`repro.core.sweep.sweep_kdv`,
the dist worker, the RAO wrapper) need no special cases.  Where it loads,
it is the default engine: ``engine="auto"`` resolves to it
(:mod:`repro.core.engines`).

Build on demand
---------------
The first import compiles ``_native_sweep.c`` with the host C compiler into
``$XDG_CACHE_HOME/repro/`` (``~/.cache/repro/`` when unset).  The file name
carries a hash of the source bytes, the compiler flags, the interpreter's
``EXT_SUFFIX`` and the machine, so a changed source or another interpreter
gets its own build.  Every later import only hashes the source, stats the
file and loads it: no compiler, no setuptools.  A miss compiles to a
temporary name in the cache directory and renames it into place, so
processes that import at the same moment (a dist pool starting up) never
load a partial file.  An unkeyed ``_native_sweep*.so`` beside this module,
left by an old in-place build, is never imported.

Every failure falls back quietly: no compiler, a compile error, a load
error, or a cache directory that cannot be written.  This module still
imports cleanly, :data:`NATIVE_AVAILABLE` is ``False``,
:data:`NATIVE_ERROR` says why, the ``"native"`` name is not registered in
the engine tables, and ``"auto"`` runs the bit-identical per-row ``numpy``
engine.
``REPRO_BUILD_NATIVE=0`` skips the extension (no load, no compile).  See
``docs/native.md``.

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
to it by ``tests/test_native.py`` and the ``tests/test_batch.py`` parity
matrix.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import sys
import sysconfig
from pathlib import Path
from time import perf_counter

import numpy as np

from ..obs import Recorder
from .envelope import YSortedIndex
from .kernels import Kernel
from .parallel import resolve_workers
from .sweep import (
    PHASE_ENDPOINT_BUCKET,
    PHASE_ENVELOPE_UPDATE,
    PHASE_PREFIX_SWEEP,
    sweep_kdv,
)

_SOURCE = Path(__file__).with_name("_native_sweep.c")

#: ``-ffp-contract=off`` is load-bearing: the bit-identity contract forbids
#: fusing a*b+c into one FMA, which rounds once instead of twice.
#: ``-march=native`` cannot change a bit (div/sqrt/round/convert stay
#: correctly rounded in SIMD form), and a build on demand always targets the
#: host that loads it.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-march=native", "-fPIC")
#: Tried first; a toolchain without OpenMP gets the serial fused loop.
_OPENMP = ("-fopenmp",)


def _cache_path(source: bytes) -> Path:
    """Where the build of ``source`` for this interpreter and host lives."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(source)
    key.update("\0".join((*_FLAGS, *_OPENMP, suffix, platform.machine())).encode())
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return Path(base, "repro", f"_native_sweep-{key.hexdigest()[:16]}{suffix}")


def _compile_argv(*flags: str, output: str, source: Path = _SOURCE) -> list[str]:
    """The command that builds ``source`` (:data:`_SOURCE` by default) into
    ``output`` with :data:`_FLAGS` plus ``flags``.  ``$CC`` replaces the
    interpreter's configured compiler, as in setuptools."""
    import shlex

    cc = sysconfig.get_config_var("CC") or "cc"
    command = sysconfig.get_config_var("LDSHARED") or f"{cc} -shared"
    if os.environ.get("CC") and command.startswith(cc):
        command = os.environ["CC"] + command[len(cc):]
    include = sysconfig.get_paths()["include"]
    return [*shlex.split(command), *_FLAGS, *flags, f"-I{include}",
            str(source), "-o", output]


def _compile(target: Path, source: Path = _SOURCE) -> None:
    """Compile ``source`` (:data:`_SOURCE` by default) into ``target``: the
    only code that starts a compiler, run on a cache miss."""
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    os.close(fd)
    try:
        for openmp in (_OPENMP, ()):
            argv = _compile_argv(*openmp, output=tmp, source=source)
            done = subprocess.run(argv, capture_output=True, text=True)
            if done.returncode == 0:
                os.replace(tmp, target)
                return
        lines = done.stderr.strip().splitlines() or ["no output"]
        detail = next((line for line in lines if "error" in line), lines[-1])
        raise OSError(f"{argv[0]} exited with {done.returncode}: {detail}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_extension():
    """``(module, "")`` when the extension loads, else ``(None, reason)``."""
    if os.environ.get("REPRO_BUILD_NATIVE", "1").strip().lower() in (
        "", "0", "false", "no"
    ):
        return None, "REPRO_BUILD_NATIVE=0"
    try:
        path = _cache_path(_SOURCE.read_bytes())
        if not path.exists():
            _compile(path)
        spec = importlib.util.spec_from_file_location(
            "repro.core._native_sweep", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:  # no compiler, compile/load error, read-only cache
        return None, f"{type(exc).__name__}: {exc}"
    sys.modules[spec.name] = module
    return module, ""


_impl, NATIVE_ERROR = _load_extension()

__all__ = [
    "NATIVE_AVAILABLE",
    "NATIVE_ERROR",
    "NATIVE_OPENMP",
    "NativeEngine",
    "native_grid",
    "native_max_threads",
]

#: ``True`` when the C extension loaded; the ``"native"`` engine-table
#: entries exist only in that case.  :data:`NATIVE_ERROR` is the reason
#: when it is ``False`` (``""`` otherwise).
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
        "the native sweep extension (repro.core._native_sweep) is "
        f"unavailable: {NATIVE_ERROR}.  It compiles on first import when a "
        "C compiler is on PATH; the numpy engine computes the same bits "
        "without it — see docs/native.md"
    )


class NativeEngine:
    """Whole-block sweep engine backed by the fused C loop.

    Registered as ``slam_bucket.native`` when the extension loaded, and
    bit-identical to the per-row ``slam_bucket_row_numpy`` (the
    ``slam_bucket.numpy`` engine) by the extension's operand-order contract.
    ``threads`` is the OpenMP row-parallelism width for each block; with 1
    (or an OpenMP-less build) the same fused C loop runs serially.
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

        Same contract as :meth:`repro.core.sweep.RowSweep.sweep_block`,
        including the recorder semantics: counters and phase call counts
        equal the per-row loop's (phase *seconds* reflect the fused loop,
        which cannot split its time between the bucket and prefix phases —
        the whole compute is attributed to ``sweep.prefix_sweep``).
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
            nonempty_rows = int(np.count_nonzero(counts))
            rec.count("sweep.rows", num_rows)
            rec.count("sweep.empty_rows", num_rows - nonempty_rows)
            rec.count("sweep.envelope_points", int(counts.sum()))
            # envelope time is the accounting overhead above; bucket and
            # prefix time are fused (see the docstring)
            rec.timer(PHASE_ENVELOPE_UPDATE).add(perf_counter() - t1, num_rows)
            if nonempty_rows:
                rec.timer(PHASE_ENDPOINT_BUCKET).add(0.0, nonempty_rows)
                rec.timer(PHASE_PREFIX_SWEEP).add(sweep_seconds, nonempty_rows)
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
    native engine (or the bit-identical per-row ``numpy`` engine when the
    worker's checkout has no compiled extension).  Other keyword
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
