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
pool to parallelize.  Unset (``workers=None``, :func:`repro.compute_kdv`'s
default), the engine sizes the team itself: every CPU the process may use
once the render's envelope pairs reach :data:`TEAM_MIN_PAIRS`, one thread
below it.  Importing this module sets ``OMP_WAIT_POLICY=passive`` unless
the environment already has a value, so the OpenMP threads sleep between
calls instead of spinning.  ``backend="dist"`` still routes through the
coordinator, with ``workers`` as the shard count; each shard sweeps on one
thread.

libgomp's thread pool does not survive ``fork``: a child forked after its
parent ran a team hangs in its own first one.  So a process forked after
this one started a team runs every native sweep on one thread, whatever
``workers`` asks (same bits).

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
from .parallel import resolve_workers, usable_cpus
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


# libgomp reads OMP_WAIT_POLICY once, when the extension loads it.  Its
# default keeps idle team threads spinning between parallel regions, and a
# multi-threaded sweep_block call then pays milliseconds to start or wake its
# team; passive threads sleep and wake at once.  A value the user set wins.
os.environ.setdefault("OMP_WAIT_POLICY", "passive")
_impl, NATIVE_ERROR = _load_extension()

__all__ = [
    "NATIVE_AVAILABLE",
    "NATIVE_ERROR",
    "NATIVE_OPENMP",
    "NativeEngine",
    "TEAM_MIN_PAIRS",
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

#: The envelope (row, point) pairs a sweep must reach before an unset
#: ``workers`` runs it on an OpenMP team; below it, one thread.  On a 2-vCPU
#: x86-64 guest (EXPERIMENTS.md), 2 threads against 1 read 0.94-1.01x up to
#: 0.4M pairs on 128x96 and 256x256 rasters, where the second thread did
#: almost no work, and 1.57-1.74x on the paper's 1280x960 cells
#: (1.5M-6.0M pairs).  At 1M pairs one thread takes about 4 ms.
TEAM_MIN_PAIRS = 1_000_000

# Process-wide, like libgomp's pool: set once this process has run a team,
# and (by the at-fork hook) in a child forked after that, whose sweeps must
# then stay on one thread.
_team_started = False
_fork_serial = False


def _after_fork_in_child() -> None:
    global _fork_serial
    _fork_serial = _team_started


if _impl is not None and hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


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
    (or an OpenMP-less build) the same fused C loop runs serially.  ``None``
    sizes the team for each block from its envelope pairs (see
    :data:`TEAM_MIN_PAIRS`); it never crosses the wire.  :attr:`team` is the
    team the last :meth:`sweep_block` call ran.
    """

    name = "slam_bucket.native"

    def __init__(self, threads: "int | None" = 1):
        if not NATIVE_AVAILABLE:
            raise _unavailable_error()
        self.threads = None if threads is None else max(1, int(threads))
        self.team = self.threads or 1

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

        global _team_started
        rec = recorder
        t0 = perf_counter() if rec is not None else 0.0
        ks = np.ascontiguousarray(y_centers[start:stop], dtype=np.float64)
        threads = self.threads
        if threads is None or rec is not None:
            # Each row's envelope size, for the team size and the recorder.
            lo = np.searchsorted(ysorted.sorted_y, ks - bandwidth, side="left")
            hi = np.searchsorted(ysorted.sorted_y, ks + bandwidth, side="right")
            counts = hi - lo
            if threads is None:
                # every usable CPU within omp_get_max_threads(), which
                # honours OMP_NUM_THREADS, once the pairs reach the floor
                threads = (
                    1 if counts.sum() < TEAM_MIN_PAIRS
                    else min(native_max_threads(), usable_cpus())
                )
        if _fork_serial:
            threads = 1
        elif threads > 1:
            _team_started = True
        self.team = threads
        t1 = perf_counter() if rec is not None else 0.0
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
            threads,
        )
        if rec is not None:
            sweep_seconds = perf_counter() - t1
            nonempty_rows = int(np.count_nonzero(counts))
            rec.count("sweep.rows", num_rows)
            rec.count("sweep.empty_rows", num_rows - nonempty_rows)
            rec.count("sweep.envelope_points", int(counts.sum()))
            # envelope time is the searchsorted accounting above; bucket and
            # prefix time are fused (see the docstring)
            rec.timer(PHASE_ENVELOPE_UPDATE).add(t1 - t0, num_rows)
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

    ``workers`` becomes the OpenMP thread count (``"auto"`` resolves to
    :func:`repro.core.parallel.usable_cpus` exactly like the other engines)
    and the sweep itself runs serially around it.  ``None`` lets the engine
    size the team: every usable CPU (within ``omp_get_max_threads()``) once
    the render's envelope pairs reach :data:`TEAM_MIN_PAIRS`, one thread
    below it; :func:`repro.compute_kdv` passes ``None`` when ``workers`` is
    not given, and this function's own default stays 1.  The stats report
    the team that ran: ``stats["workers"]`` and ``stats["backend"] ==
    "openmp"`` (or ``"serial"``).  Every setting returns the same bits.

    ``backend="dist"`` shards across a :class:`repro.dist.Coordinator` pool
    as usual, ``workers`` being the shard count and each shard sweeping on
    one thread of the native engine (or the bit-identical per-row ``numpy``
    engine when the worker's checkout has no compiled extension).  Other
    keyword arguments pass through to :func:`repro.core.sweep.sweep_kdv`.
    """
    if backend == "dist":
        # ``workers`` counts shards here, and a shard's team would
        # oversubscribe the pool's CPUs: each shard sweeps on one thread
        return sweep_kdv(
            xy, raster, kernel, bandwidth, NativeEngine(), workers=workers,
            backend=backend, stats=stats, **kwargs,
        )
    engine = NativeEngine(None if workers is None else resolve_workers(workers))
    grid = sweep_kdv(xy, raster, kernel, bandwidth, engine, stats=stats, **kwargs)
    if stats is not None:
        # Report the realized parallelism, not the (serial) block executor's.
        stats["workers"] = engine.team
        stats["backend"] = "openmp" if engine.team > 1 else "serial"
    return grid
