"""Public KDV API.

:func:`compute_kdv` is the single entry point a downstream user needs: pick a
dataset, a region/resolution, a kernel, a bandwidth, and a method, get back a
:class:`repro.core.result.KDVResult`.

Method registry (the paper's Table 6):

==================  =====  ==========================================
name                exact  description
==================  =====  ==========================================
scan                yes    naive O(XYn) scan
rqs_kd              yes    range queries on a kd-tree
rqs_ball            yes    range queries on a ball tree
rqs_rtree           yes    range queries on an STR R-tree (extension)
zorder              no     Z-order curve sampling [Zheng et al. 2013]
akde                no     bound-based tree pruning [Gray & Moore 2003]
akde_dual           no     dual-tree aKDE (extension; Gray & Moore's
                           full proposal)
binned_fft          no     binning + FFT convolution (extension; the
                           practice-standard approximation)
quad                yes    quadratic-bound kd-tree [Chan et al. 2020]
slam_sort           yes    Algorithm 1, O(Y(X + n log n))
slam_bucket         yes    Algorithm 2, O(Y(X + n))
slam_sort_rao       yes    Algorithm 1 + RAO, O(min(X,Y)(max(X,Y)+n log n))
slam_bucket_rao     yes    Algorithm 2 + RAO, O(min(X,Y)(max(X,Y)+n)) —
                           the paper's best method and our default
==================  =====  ==========================================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..baselines.akde import akde_grid
from ..baselines.akde_dual import akde_dual_grid
from ..baselines.binned_fft import binned_fft_grid
from ..baselines.quad import quad_grid
from ..baselines.rqs import rqs_ball_grid, rqs_kd_grid, rqs_rtree_grid
from ..baselines.scan import scan_grid
from ..baselines.zorder import zorder_grid
from ..data.points import PointSet, _as_xy
from ..obs import Recorder, active
from ..viz.bandwidth import BANDWIDTH_SELECTORS, resolve_bandwidth
from ..viz.region import Raster, Region
from .engines import slam_bucket_grid, slam_sort_grid
from .envelope import YSortedIndex
from .kernels import Kernel, get_kernel
from .parallel import resolve_workers, validate_backend
from .rao import with_rao
from .result import KDVResult, SweepStats

__all__ = [
    "compute_kdv",
    "METHODS",
    "EXACT_METHODS",
    "APPROXIMATE_METHODS",
    "PARALLEL_METHODS",
    "method_names",
]

GridFn = Callable[..., np.ndarray]


def _slam_fn(name: str, table: dict[str, GridFn], rao: bool) -> Callable[..., np.ndarray]:
    def fn(xy, raster, kernel, bandwidth, engine="auto", **kwargs):
        if engine not in table:
            raise ValueError(
                f"unknown engine {engine!r} for method {name!r}; "
                f"available: {sorted(table)}"
            )
        base = table[engine]
        if rao:
            return with_rao(base)(xy, raster, kernel, bandwidth, **kwargs)
        return base(xy, raster, kernel, bandwidth, **kwargs)

    return fn


def _plain(fn: GridFn) -> Callable[..., np.ndarray]:
    def wrapped(xy, raster, kernel, bandwidth, engine="auto", **kwargs):
        # SCAN / RQS / Z-order have a single implementation; "engine" is
        # accepted for interface uniformity and ignored.
        return fn(xy, raster, kernel, bandwidth, **kwargs)

    return wrapped


def _engined(fn: GridFn) -> Callable[..., np.ndarray]:
    def wrapped(xy, raster, kernel, bandwidth, engine="auto", **kwargs):
        # aKDE and QUAD have their own numpy/python engines; "auto" is numpy.
        if engine == "auto":
            engine = "numpy"
        return fn(xy, raster, kernel, bandwidth, engine=engine, **kwargs)

    return wrapped


#: method name -> (grid function, exact?)
METHODS: dict[str, tuple[Callable[..., np.ndarray], bool]] = {
    "scan": (_plain(scan_grid), True),
    "rqs_kd": (_plain(rqs_kd_grid), True),
    "rqs_ball": (_plain(rqs_ball_grid), True),
    "rqs_rtree": (_plain(rqs_rtree_grid), True),
    "zorder": (_plain(zorder_grid), False),
    "akde": (_engined(akde_grid), False),
    "akde_dual": (_plain(akde_dual_grid), False),
    "binned_fft": (_plain(binned_fft_grid), False),
    "quad": (_engined(quad_grid), True),
    "slam_sort": (_slam_fn("slam_sort", slam_sort_grid, rao=False), True),
    "slam_bucket": (_slam_fn("slam_bucket", slam_bucket_grid, rao=False), True),
    "slam_sort_rao": (_slam_fn("slam_sort_rao", slam_sort_grid, rao=True), True),
    "slam_bucket_rao": (_slam_fn("slam_bucket_rao", slam_bucket_grid, rao=True), True),
}

EXACT_METHODS = tuple(name for name, (_, exact) in METHODS.items() if exact)
APPROXIMATE_METHODS = tuple(name for name, (_, exact) in METHODS.items() if not exact)

#: Methods whose row sweep honors the ``workers`` parallelism parameter.
PARALLEL_METHODS = ("slam_sort", "slam_bucket", "slam_sort_rao", "slam_bucket_rao")

_NORMALIZATIONS = ("none", "count", "density")


def method_names() -> tuple[str, ...]:
    """All registered method names, in Table 6 order."""
    return tuple(METHODS)


def compute_kdv(
    points: "PointSet | np.ndarray",
    region: Region | None = None,
    size: tuple[int, int] = (1280, 960),
    kernel: "str | Kernel" = "epanechnikov",
    bandwidth: "float | str" = "scott",
    method: str = "slam_bucket_rao",
    engine: str = "auto",
    normalization: str = "count",
    weights: np.ndarray | None = None,
    workers: "int | str" = 1,
    ysorted: "YSortedIndex | None" = None,
    collect_stats: bool = False,
    recorder: "Recorder | None" = None,
    **method_kwargs,
) -> KDVResult:
    """Compute a kernel density visualization.

    Parameters
    ----------
    points:
        A :class:`~repro.data.points.PointSet` or an ``(n, 2)`` array of
        finite coordinates (NaN or ±inf raises ``ValueError``).
    region:
        World-coordinate rectangle to render; defaults to the dataset MBR
        (:meth:`Region.from_points`; a :class:`PointSet` computes its
        extents once and keeps them).
    size:
        ``(X, Y)`` resolution in pixels (paper default 1280 x 960).
    kernel:
        ``"uniform"``, ``"epanechnikov"`` (default, as in the paper),
        ``"quartic"``, or a :class:`~repro.core.kernels.Kernel` instance.
    bandwidth:
        A positive float in world units, or a selector name: ``"scott"``
        for Scott's rule (the paper's default), ``"silverman"`` for
        Silverman's robust rule, or ``"lcv"`` for likelihood
        cross-validation (see :mod:`repro.viz.bandwidth`).
    method:
        One of :func:`method_names`.
    engine:
        ``"auto"`` (default), ``"python"`` (literal transcription of the
        published pseudocode), ``"numpy"``, or ``"native"`` — the method's
        engines in :mod:`repro.core.engines`.  ``"native"`` (bucket methods
        only) is a fused C loop with OpenMP row parallelism, compiled on
        first import; it is registered only where the extension loaded —
        see :mod:`repro.core.native` and ``docs/native.md``.  ``"numpy"``
        is the per-row vectorized algorithm: under the bucket methods it is
        the oracle ``"native"`` is bit-identical to, under ``slam_sort`` the
        vectorized sort.  ``"auto"`` is ``"native"`` where it is registered
        and ``"numpy"`` otherwise, so the default returns the same bits on
        every host.
    normalization:
        ``"none"`` (raw kernel sums, w = 1), ``"count"`` (w = 1/n, default;
        1/total-weight for weighted datasets), or ``"density"`` (proper 2-D
        density estimate).
    weights:
        Optional ``(n,)`` non-negative per-point weights (e.g. accident
        severity).  Defaults to the :class:`PointSet`'s ``w`` field when one
        is set.  All methods support weighting; the density becomes
        ``sum_p w_p K(q, p)``.
    workers:
        ``1`` (default, serial), an integer worker count, or ``"auto"`` for
        the CPU count.  Honored by the SLAM methods
        (:data:`PARALLEL_METHODS`): the ``native`` engine (and ``"auto"``
        where it loaded) runs that many OpenMP threads, the others
        partition the sweep into row blocks for a process pool; results are
        bit-identical for every setting.  Other methods run serially
        regardless.  Pass ``backend="dist"`` as a method kwarg to fan the
        sweep out to external worker processes via a
        :class:`repro.dist.Coordinator` (pass one as the ``coordinator``
        method kwarg, or let
        :func:`repro.dist.resolve_coordinator` find one; see
        ``docs/distributed.md``).  Backend names are validated up front via
        :func:`repro.core.parallel.validate_backend` for every method that
        accepts one.
    ysorted:
        For raw arrays: an optional pre-built
        :class:`~repro.core.envelope.YSortedIndex` over exactly these
        coordinates, letting repeated calls on the same array (e.g. tile
        rendering) skip the O(n log n) sort.  A
        :class:`~repro.data.points.PointSet` needs none: the SLAM methods
        use the index it keeps (:meth:`~repro.data.points.PointSet.ysorted_index`),
        so only its first render sorts.  Only the SLAM methods
        (:data:`PARALLEL_METHODS`) consume an index; passing one with any
        other method raises, as does one built over other points (the
        same array object is accepted at once, an equal copy after one
        comparison).  RAO methods reuse it in both orientations via its
        cached transposed twin, sorted on first use.
    collect_stats:
        ``True`` attaches a fresh :class:`~repro.obs.Recorder` to the
        computation and returns it on :attr:`KDVResult.recorder`.  SLAM
        methods record per-phase sweep timings (index build, envelope
        update, endpoint sort/bucket, prefix sweep) and row/envelope
        counters; other methods record a single ``compute`` span.  The
        default ``False`` skips all instrumentation — the sweep hot path
        pays nothing.
    recorder:
        Pass an existing :class:`~repro.obs.Recorder` to accumulate several
        computations into one dump (e.g. a benchmark cell that renders many
        tiles).  Implies ``collect_stats``.
    method_kwargs:
        Extra options forwarded to the method (e.g. ``tolerance`` for aKDE,
        ``sample_size`` for Z-order, ``leaf_size`` for tree methods,
        ``backend`` and ``coordinator`` for the SLAM methods).

    Returns
    -------
    :class:`~repro.core.result.KDVResult`
    """
    if isinstance(points, PointSet):
        xy = points.xy
        if weights is None and points.w is not None:
            weights = points.w
    else:
        # shape and finiteness; a PointSet checked both when it was built
        xy = _as_xy(points)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; available: {method_names()}")
    if normalization not in _NORMALIZATIONS:
        raise ValueError(
            f"unknown normalization {normalization!r}; available: {_NORMALIZATIONS}"
        )
    kernel_obj = get_kernel(kernel)
    resolve_workers(workers)  # reject bad values up front, for every method
    if "backend" in method_kwargs:
        # Same up-front treatment for the backend name: one shared
        # validation path (sorted availability list) for every layer.
        validate_backend(method_kwargs["backend"])
    if region is None:
        if len(xy) == 0:
            raise ValueError("region is required for an empty dataset")
        if isinstance(points, PointSet):
            region = Region.from_extents(*points.bounds())
        else:
            region = Region.from_points(xy)
    width, height = size
    raster = Raster(region, int(width), int(height))
    n = len(xy)

    if isinstance(bandwidth, str) and n == 0:
        if bandwidth not in BANDWIDTH_SELECTORS:
            raise ValueError(
                f"unknown bandwidth selector {bandwidth!r}; pass a positive "
                f"number or one of {sorted(BANDWIDTH_SELECTORS)}"
            )
        # Data-driven selectors are undefined without data.  The grid below
        # is identically zero whatever the bandwidth, so any positive
        # placeholder keeps the result well-formed; pick one scaled to the
        # region so downstream consumers see a plausible value.
        bandwidth_value = min(region.width, region.height) / 10.0
    elif isinstance(bandwidth, str) and isinstance(points, PointSet):
        bandwidth_value = points.selector_bandwidth(bandwidth)
    else:
        bandwidth_value = resolve_bandwidth(bandwidth, xy)

    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(xy),):
            raise ValueError(
                f"weights must have shape ({len(xy)},), got {weights.shape}"
            )
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        method_kwargs = {**method_kwargs, "weights": weights}

    if ysorted is not None:
        if method not in PARALLEL_METHODS:
            raise ValueError(
                f"ysorted is only consumed by the SLAM methods "
                f"{PARALLEL_METHODS}; method {method!r} would silently "
                f"ignore it"
            )
        if not isinstance(ysorted, YSortedIndex):
            raise TypeError(
                f"ysorted must be a YSortedIndex, got {type(ysorted).__name__}"
            )
        if len(ysorted) != n:
            raise ValueError(
                f"ysorted was built over {len(ysorted)} points but the "
                f"dataset has {n}; the index must cover exactly these points"
            )
        if ysorted.xy is not xy and not np.array_equal(ysorted.xy, xy):
            raise ValueError(
                f"ysorted was built over other coordinates than these {n} "
                f"points; the index must cover exactly these points"
            )

    if recorder is None and collect_stats:
        recorder = Recorder()
    rec = active(recorder)

    grid_fn, exact = METHODS[method]
    if n == 0:
        # No point contributes anywhere; short-circuit to an all-zeros grid
        # rather than running method internals that assume n >= 1.
        return KDVResult(
            grid=np.zeros(raster.shape, dtype=np.float64),
            raster=raster,
            kernel=kernel_obj.name,
            bandwidth=bandwidth_value,
            method=method,
            normalization=normalization,
            n_points=0,
            exact=exact,
            recorder=rec,
        )

    sweep_stats: dict = {}
    if method in PARALLEL_METHODS:
        if ysorted is None and isinstance(points, PointSet):
            ysorted = points.ysorted_index()
        method_kwargs = {
            **method_kwargs, "workers": workers, "stats": sweep_stats,
            "ysorted": ysorted,
        }
        if rec is not None:
            method_kwargs["recorder"] = rec
        grid = grid_fn(
            xy, raster, kernel_obj, bandwidth_value, engine=engine, **method_kwargs
        )
    elif rec is not None:
        # Baselines have no internal phases; record the whole computation as
        # one span so every method is comparable in a recorder dump.
        with rec.span(f"compute.{method}"):
            grid = grid_fn(
                xy, raster, kernel_obj, bandwidth_value, engine=engine,
                **method_kwargs,
            )
    else:
        grid = grid_fn(
            xy, raster, kernel_obj, bandwidth_value, engine=engine, **method_kwargs
        )

    # In place: every method returns a fresh float64 grid
    # (tests/test_api.py pins that), so no second grid is allocated.
    total_mass = float(weights.sum()) if weights is not None else float(n)
    if normalization == "count" and total_mass > 0:
        grid /= total_mass
    elif normalization == "density" and total_mass > 0:
        grid *= kernel_obj.normalizer(bandwidth_value) / total_mass

    stats = None
    if sweep_stats:
        phases: dict[str, float] = {}
        counters: dict[str, int] = {}
        if rec is not None:
            snap = rec.snapshot()
            phases = {name: p["total_s"] for name, p in snap["phases"].items()}
            counters = dict(snap["counters"])
        stats = SweepStats(
            rows=sweep_stats["rows"],
            blocks=sweep_stats["blocks"],
            workers=sweep_stats["workers"],
            backend=sweep_stats["backend"],
            orientation=sweep_stats.get("orientation", "rows"),
            elapsed_seconds=sweep_stats["elapsed_seconds"],
            rows_per_sec=sweep_stats["rows_per_sec"],
            phases=phases,
            counters=counters,
        )

    return KDVResult(
        grid=grid,
        raster=raster,
        kernel=kernel_obj.name,
        bandwidth=bandwidth_value,
        method=method,
        normalization=normalization,
        n_points=n,
        exact=exact,
        stats=stats,
        recorder=rec,
    )
