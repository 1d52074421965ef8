"""Quality tiers: graceful degradation for the tile server.

Under load the service used to face a binary choice — render an exact
sweep or shed the request with a 503.  This module turns the repo's two
offline approximations into first-class *serving tiers* so backpressure
degrades quality tier by tier before ever shedding load:

``exact``
    The full SLAM sweep of :func:`~repro.viz.tiles.render_tile`; error
    bound 0 by construction.

``pyramid:<k>``
    An *exact* KDV rendered at ``1/2^k`` of the tile resolution and
    nearest-neighbor upsampled (:func:`pyramid_grid`) — the serving form
    of :func:`~repro.extensions.progressive.progressive_kdv`'s rungs (the
    two are bit-identical for matching region/size/kwargs).  Error comes
    only from coarseness, and is calibrated per ingest generation.

``coreset:<m>``
    The full-resolution KDV of a Z-order coreset of size ``m``, scaled by
    ``n/m`` (:func:`coreset_grid`) — the serving form of
    :func:`~repro.baselines.zorder.zorder_grid` [Zheng et al.], evaluated
    through the configured SLAM method instead of the chunked SCAN
    baseline (identical result, faster).  The advertised bound combines
    the theoretical ``eps(m) = 1/sqrt(m)`` sizing inverse
    (:func:`~repro.baselines.zorder.epsilon_for`) with a measured
    calibration.

**Error model.**  A tier's error for a tile is the L-infinity distance to
the exact tile, *relative to the dataset's global density peak* (the
level-0 tile's maximum) — per-tile peaks vary wildly across a pyramid, so
normalizing globally keeps one number meaningful for every tile.
:func:`calibrate` measures each degraded tier against an exact render of
the reference tile ``(0, 0, 0)`` at a modest calibration resolution, once
per ingest generation, and advertises
``max(theory, measured * error_headroom, error_floor)``.  The bounds are
exposed per view via ``/metricz`` and per response via the
``X-KDV-Error-Bound`` header.

**Degradation ladder.**  :class:`QualityPolicy` orders the tiers best
first (``exact``, then the pyramid levels, then the coresets).  Tier ``i``
admits a request while the service's load (in-flight pool renders plus
active degraded renders) is below ``queue_limit + i * tier_headroom`` —
so as saturation grows, successive requests step down the ladder, and 503
is reached only past the cheapest tier.  ``?quality=<tier>`` pins a tier
explicitly; ``?max_error=<eps>`` filters the ladder to tiers whose
advertised bound fits.  See ``docs/quality.md`` for the full contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..baselines.zorder import epsilon_for
from ..core.api import PARALLEL_METHODS, compute_kdv
from ..core.envelope import YSortedIndex
from ..extensions.progressive import upsample_preview
from ..index.zorder_curve import zorder_argsort

__all__ = [
    "EXACT",
    "QualityError",
    "QualityPolicy",
    "Tier",
    "TileResponse",
    "calibrate",
    "coreset_grid",
    "measured_error",
    "parse_tier",
    "pyramid_grid",
]


class QualityError(ValueError):
    """A malformed or unservable quality request (the HTTP layer's 400)."""


@dataclass(frozen=True)
class Tier:
    """One rung of the degradation ladder.

    ``kind`` is ``"exact"``, ``"pyramid"`` or ``"coreset"``; ``param`` is
    the pyramid level or coreset size (``None`` for exact).
    """

    kind: str
    param: "int | None" = None

    @property
    def name(self) -> str:
        """The wire name (``exact``, ``pyramid:<k>``, ``coreset:<m>``)."""
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param}"


EXACT = Tier("exact")


def parse_tier(value) -> Tier:
    """Parse a ``?quality=`` value (``exact`` / ``pyramid:<k>`` /
    ``coreset:<m>``) into a :class:`Tier`; raises :class:`QualityError`."""
    if isinstance(value, Tier):
        return value
    text = str(value).strip()
    if text == "exact":
        return EXACT
    kind, sep, param = text.partition(":")
    if sep and kind in ("pyramid", "coreset"):
        try:
            number = int(param)
        except ValueError:
            number = -1
        if number >= 1:
            return Tier(kind, number)
    raise QualityError(
        f"bad quality tier {value!r}: expected 'exact', 'pyramid:<level>' "
        f"or 'coreset:<size>'"
    )


class QualityPolicy:
    """Maps load state and request hints to a serving tier.

    Parameters
    ----------
    pyramid_levels:
        Coarsening exponents served as ``pyramid:<k>`` tiers, best first
        (level ``k`` renders at ``1/2^k`` resolution).
    coreset_sizes:
        Z-order sample sizes served as ``coreset:<m>`` tiers, best
        (largest) first.
    tier_headroom:
        Extra load admitted per ladder rung: tier ``i`` (0 = exact)
        admits while ``load < queue_limit + i * tier_headroom``.
    error_headroom:
        Safety factor on the measured calibration error when advertising
        a bound.
    error_floor:
        Minimum advertised bound for a degraded tier (degraded output is
        never advertised as perfect).
    calibration_size:
        Resolution (pixels per axis) of the reference-tile renders used
        by :func:`calibrate` — modest by design, so calibrating costs a
        small fraction of one exact tile.
    degraded_ttl_s:
        Cache TTL for degraded tiles; short, so they age out quickly even
        if background refinement never gets pool time.
    default_max_error:
        Server-side cap applied when a request carries no ``max_error``
        hint (``None`` = no cap).
    """

    def __init__(
        self,
        pyramid_levels: "tuple[int, ...]" = (1, 2),
        coreset_sizes: "tuple[int, ...]" = (4096, 1024),
        *,
        tier_headroom: int = 1,
        error_headroom: float = 3.0,
        error_floor: float = 1e-6,
        calibration_size: int = 64,
        degraded_ttl_s: float = 5.0,
        default_max_error: "float | None" = None,
    ):
        pyramid_levels = tuple(int(k) for k in pyramid_levels)
        coreset_sizes = tuple(int(m) for m in coreset_sizes)
        if any(k < 1 for k in pyramid_levels):
            raise ValueError("pyramid levels must be >= 1")
        if list(pyramid_levels) != sorted(set(pyramid_levels)):
            raise ValueError("pyramid_levels must be strictly increasing")
        if any(m < 1 for m in coreset_sizes):
            raise ValueError("coreset sizes must be >= 1")
        if list(coreset_sizes) != sorted(set(coreset_sizes), reverse=True):
            raise ValueError("coreset_sizes must be strictly decreasing")
        if not pyramid_levels and not coreset_sizes:
            raise ValueError("the policy needs at least one degraded tier")
        if tier_headroom < 1:
            raise ValueError("tier_headroom must be >= 1")
        if error_headroom < 1.0:
            raise ValueError("error_headroom must be >= 1.0")
        if error_floor < 0:
            raise ValueError("error_floor must be >= 0")
        if calibration_size < 1:
            raise ValueError("calibration_size must be >= 1")
        if degraded_ttl_s <= 0:
            raise ValueError("degraded_ttl_s must be positive")
        if default_max_error is not None:
            default_max_error = float(default_max_error)
            if not math.isfinite(default_max_error) or default_max_error < 0:
                raise ValueError("default_max_error must be finite and >= 0")
        self.pyramid_levels = pyramid_levels
        self.coreset_sizes = coreset_sizes
        self.tier_headroom = int(tier_headroom)
        self.error_headroom = float(error_headroom)
        self.error_floor = float(error_floor)
        self.calibration_size = int(calibration_size)
        self.degraded_ttl_s = float(degraded_ttl_s)
        self.default_max_error = default_max_error
        self._ladder = (
            EXACT,
            *(Tier("pyramid", k) for k in pyramid_levels),
            *(Tier("coreset", m) for m in coreset_sizes),
        )

    def ladder(self) -> "tuple[Tier, ...]":
        """The degradation ladder, best tier first (``exact`` at index 0)."""
        return self._ladder

    def theoretical_bound(self, tier: Tier, n: int) -> float:
        """The analysis-backed part of a tier's bound (0 when none exists:
        pyramid error is coarseness-only and purely measured)."""
        if tier.kind == "coreset":
            return epsilon_for(tier.param, n)
        return 0.0

    def describe(self) -> dict:
        """The ``/metricz`` summary of the policy's configuration."""
        return {
            "ladder": [tier.name for tier in self._ladder],
            "tier_headroom": self.tier_headroom,
            "error_headroom": self.error_headroom,
            "error_floor": self.error_floor,
            "calibration_size": self.calibration_size,
            "degraded_ttl_s": self.degraded_ttl_s,
            "default_max_error": self.default_max_error,
        }


# -- tier renderers (shared by the service, the tests, and bench_quality) ----


def pyramid_grid(
    points,
    region,
    size: "tuple[int, int]",
    *,
    level: int,
    bandwidth: float,
    kernel: str = "epanechnikov",
    method: str = "slam_bucket_rao",
    engine: str = "auto",
    ysorted=None,
) -> np.ndarray:
    """Exact KDV at ``1/2^level`` resolution, upsampled back to ``size``.

    Bit-identical to upsampling the corresponding
    :func:`~repro.extensions.progressive.progressive_kdv` rung: the coarse
    render is ``compute_kdv`` at ``max(1, size // 2^level)`` per axis with
    ``normalization="none"`` and the upsample is
    :func:`~repro.extensions.progressive.upsample_preview`.  Degraded
    renders run synchronously on request threads, on the default engine
    (``"auto"``: the compiled sweep where it loaded, else the bit-identical
    numpy block sweep).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    width, height = size
    shrink = 1 << level
    coarse = (max(1, width // shrink), max(1, height // shrink))
    kwargs = {} if ysorted is None else {"ysorted": ysorted}
    result = compute_kdv(
        points,
        region=region,
        size=coarse,
        kernel=kernel,
        bandwidth=bandwidth,
        method=method,
        engine=engine,
        normalization="none",
        **kwargs,
    )
    return upsample_preview(result, (width, height))


def coreset_grid(
    points,
    region,
    size: "tuple[int, int]",
    *,
    sample_size: int,
    bandwidth: float,
    kernel: str = "epanechnikov",
    method: str = "slam_bucket_rao",
    engine: str = "auto",
    order: "np.ndarray | None" = None,
) -> np.ndarray:
    """Full-resolution KDV of a Z-order coreset, scaled back to ``n/m``.

    The sample is the same evenly spaced Z-order subsequence as
    :func:`~repro.baselines.zorder.zorder_sample`; evaluation runs through
    the configured (SLAM) ``method`` instead of the chunked SCAN baseline —
    mathematically identical, materially faster, on the default engine (see
    :func:`pyramid_grid`).  ``order`` accepts a precomputed
    ``zorder_argsort`` of the points (the service caches one per ingest
    generation); ``sample_size >= n`` degenerates to the exact render of all
    points.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    xy = np.asarray(points, dtype=np.float64)
    n = len(xy)
    width, height = size
    if n == 0:
        return np.zeros((height, width), dtype=np.float64)
    if sample_size >= n:
        sample, scale = xy, 1.0
    else:
        if order is None:
            order = zorder_argsort(xy)
        positions = (
            (np.arange(sample_size) + 0.5) * n / sample_size
        ).astype(np.int64)
        sample = xy[order[positions]]
        scale = n / sample_size
    grid = compute_kdv(
        sample,
        region=region,
        size=size,
        kernel=kernel,
        bandwidth=bandwidth,
        method=method,
        engine=engine,
        normalization="none",
    ).grid
    return grid * scale


def measured_error(
    approx: np.ndarray, exact: np.ndarray, peak: "float | None" = None
) -> float:
    """L-infinity distance relative to ``peak`` (the exact grid's maximum
    by default; pass the global level-0 peak to compare tiles across a
    pyramid on one scale).  ``0.0`` when both grids are flat zero."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    diff = float(np.abs(approx - exact).max()) if exact.size else 0.0
    peak = float(exact.max()) if peak is None else float(peak)
    if peak <= 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / peak


def calibrate(
    policy: QualityPolicy,
    points,
    scheme,
    *,
    bandwidth: float,
    kernel: str = "epanechnikov",
    method: str = "slam_bucket_rao",
    order: "np.ndarray | None" = None,
) -> "dict[str, float]":
    """Measure every degraded tier against the reference tile, once.

    Renders the reference tile ``(0, 0, 0)`` exactly at the policy's
    calibration resolution, then through each degraded tier, and returns
    ``{tier name: advertised bound}`` where the bound is
    ``max(theory, measured * error_headroom, error_floor)`` (theory is
    the coreset sizing inverse ``eps(m)``; pyramid has no analytic term).
    The service runs this lazily, once per ingest generation per view.
    """
    xy = np.asarray(points, dtype=np.float64)
    n = len(xy)
    size = (policy.calibration_size, policy.calibration_size)
    region = scheme.tile_region(0, 0, 0)
    bounds: "dict[str, float]" = {EXACT.name: 0.0}
    if n == 0:
        for tier in policy.ladder()[1:]:
            bounds[tier.name] = policy.error_floor
        return bounds
    # the exact render and every pyramid rung share one sort
    ysorted = YSortedIndex.deferred(xy) if method in PARALLEL_METHODS else None
    kwargs = {} if ysorted is None else {"ysorted": ysorted}
    exact = compute_kdv(
        xy,
        region=region,
        size=size,
        kernel=kernel,
        bandwidth=bandwidth,
        method=method,
        normalization="none",
        **kwargs,
    ).grid
    peak = float(exact.max())
    for tier in policy.ladder()[1:]:
        if tier.kind == "pyramid":
            approx = pyramid_grid(
                xy, region, size, level=tier.param,
                bandwidth=bandwidth, kernel=kernel, method=method,
                ysorted=ysorted,
            )
        else:
            approx = coreset_grid(
                xy, region, size, sample_size=tier.param,
                bandwidth=bandwidth, kernel=kernel, method=method,
                order=order,
            )
        measured = measured_error(approx, exact, peak)
        bounds[tier.name] = max(
            policy.theoretical_bound(tier, n),
            measured * policy.error_headroom,
            policy.error_floor,
        )
    return bounds


@dataclass(frozen=True)
class TileResponse:
    """One served tile plus its quality metadata (the header contract:
    ``tier`` feeds ``X-KDV-Quality``, ``error_bound`` feeds
    ``X-KDV-Error-Bound``)."""

    grid: np.ndarray
    tier: str
    error_bound: float

    @property
    def degraded(self) -> bool:
        return self.tier != EXACT.name
