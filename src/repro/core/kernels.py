"""Kernel functions and their aggregate decompositions.

The SLAM algorithms are exact because, for the finite-support kernels of the
paper's Table 2, the kernel density at a pixel ``q`` depends on its range-query
solution set ``R(q)`` only through a fixed list of *aggregate values*
(paper Table 4):

=============  =====================================================
Kernel         Aggregates
=============  =====================================================
Uniform        ``|R|``
Epanechnikov   ``|R|``, ``A = sum p``, ``S = sum ||p||^2``
Quartic        additionally ``C = sum ||p||^2 p``, ``Q = sum ||p||^4``,
               ``M = sum p p^T``
=============  =====================================================

Each aggregate is a sum over points of a *channel value* that depends on the
point alone, so it can be maintained incrementally by a sweep line.  We encode
every aggregate as one or more scalar channels in a fixed order:

    idx  channel value of point p = (x, y)
    ---  ----------------------------------
      0  1                 (count, |R|)
      1  x                 (A.x)
      2  y                 (A.y)
      3  x^2 + y^2         (S)
      4  (x^2 + y^2) * x   (C.x)
      5  (x^2 + y^2) * y   (C.y)
      6  (x^2 + y^2)^2     (Q)
      7  x^2               (M[0,0])
      8  x * y             (M[0,1] = M[1,0])
      9  y^2               (M[1,1])

A kernel declares how many leading channels it needs
(:attr:`Kernel.num_channels`); the sweep algorithms carry exactly that many
prefix sums, and :meth:`Kernel.density_from_aggregates` recombines them into
``sum_{p in R(q)} K(q, p)``.

The Gaussian kernel is included for the approximate baselines only: it has
infinite support and no finite aggregate decomposition, so SLAM cannot
evaluate it exactly (paper Section 3.7's closing remark).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Kernel",
    "UniformKernel",
    "EpanechnikovKernel",
    "QuarticKernel",
    "GaussianKernel",
    "get_kernel",
    "KERNELS",
    "channel_values",
    "NUM_CHANNELS",
]

#: Total number of defined aggregate channels (quartic needs all of them).
NUM_CHANNELS = 10


def channel_values(
    xy: np.ndarray, num_channels: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Channel value matrix for a coordinate array.

    Parameters
    ----------
    xy:
        ``(m, 2)`` point coordinates.
    num_channels:
        How many leading channels to compute (1, 4, or 10 in practice).
    weights:
        Optional ``(m,)`` per-point weights.  Weighted density
        ``sum_p w_p K(q, p)`` decomposes into the *same* aggregates with every
        channel scaled by ``w_p``, so weighting is a row-scaling here and the
        sweep algorithms are untouched.

    Returns
    -------
    ``(m, num_channels)`` float64 array whose column ``c`` holds channel ``c``
    of every point, in the order documented in the module docstring.
    """
    xy = np.asarray(xy, dtype=np.float64)
    m = len(xy)
    if not 1 <= num_channels <= NUM_CHANNELS:
        raise ValueError(f"num_channels must be in [1, {NUM_CHANNELS}], got {num_channels}")
    out = np.empty((m, num_channels), dtype=np.float64)
    out[:, 0] = 1.0
    if num_channels > 1:
        x = xy[:, 0]
        y = xy[:, 1]
        s = x * x + y * y
        out[:, 1] = x
        out[:, 2] = y
        out[:, 3] = s
        if num_channels > 4:
            out[:, 4] = s * x
            out[:, 5] = s * y
            out[:, 6] = s * s
            out[:, 7] = x * x
            out[:, 8] = x * y
            out[:, 9] = y * y
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise ValueError(f"weights must have shape ({m},), got {w.shape}")
        out *= w[:, None]
    return out


class Kernel(ABC):
    """A radially symmetric kernel ``K(q, p) = k(dist(q, p); b)``."""

    #: Registry name, e.g. ``"epanechnikov"``.
    name: str = ""
    #: Number of leading aggregate channels needed for exact evaluation,
    #: or ``None`` when the kernel has no finite decomposition (Gaussian).
    num_channels: int | None = None

    @abstractmethod
    def evaluate(self, dist_sq: np.ndarray, bandwidth: float) -> np.ndarray:
        """Pointwise kernel value given *squared* distances.

        This is the ground-truth definition every exact method must match.
        """

    def support_radius(self, bandwidth: float) -> float:
        """Distance beyond which the kernel is exactly zero (``inf`` if none)."""
        return bandwidth

    def rescale_factor(self, bandwidth: float) -> float:
        """Ratio ``K_b(d) / K_1(d / b)`` for evaluation in a bandwidth-scaled
        frame.

        The sweep and tree methods evaluate in coordinates divided by ``b``
        (so the kernel sees bandwidth 1) for numerical conditioning.  That is
        value-preserving for kernels that depend on ``d / b`` only
        (Epanechnikov, quartic, Gaussian) but the uniform kernel's plateau
        height is ``1 / b``, so its scaled-frame result must be multiplied by
        this factor.
        """
        return 1.0

    @abstractmethod
    def density_from_aggregates(
        self, qx: np.ndarray, qy: np.ndarray, agg: np.ndarray, bandwidth: float
    ) -> np.ndarray:
        """Recombine aggregate channel sums into ``sum_{p in R(q)} K(q, p)``.

        Parameters
        ----------
        qx, qy:
            Pixel coordinates (broadcastable arrays or scalars).
        agg:
            ``(..., num_channels)`` aggregate sums over ``R(q)``; the leading
            dimensions broadcast against ``qx``/``qy``.
        bandwidth:
            The kernel bandwidth ``b``.
        """

    def normalizer(self, bandwidth: float) -> float:
        """The constant that makes the 2-D kernel integrate to one.

        Used when ``normalization="density"`` is requested so that KDV grids
        are proper density estimates.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class UniformKernel(Kernel):
    """``K = 1/b`` inside the bandwidth disc, zero outside (paper Table 2)."""

    name = "uniform"
    num_channels = 1

    def evaluate(self, dist_sq: np.ndarray, bandwidth: float) -> np.ndarray:
        dist_sq = np.asarray(dist_sq, dtype=np.float64)
        return np.where(dist_sq <= bandwidth * bandwidth, 1.0 / bandwidth, 0.0)

    def density_from_aggregates(
        self, qx: np.ndarray, qy: np.ndarray, agg: np.ndarray, bandwidth: float
    ) -> np.ndarray:
        # F = (1/b) * |R(q)|   (paper Section 3.7)
        return agg[..., 0] / bandwidth

    def rescale_factor(self, bandwidth: float) -> float:
        # K_b = 1/b inside the disc while K_1 evaluates to 1 in the scaled frame.
        return 1.0 / bandwidth

    def normalizer(self, bandwidth: float) -> float:
        # Integral of 1/b over the disc of radius b is pi * b, so divide by it.
        return 1.0 / (math.pi * bandwidth)


class EpanechnikovKernel(Kernel):
    """``K = 1 - d^2/b^2`` inside the bandwidth disc (the paper's default)."""

    name = "epanechnikov"
    num_channels = 4

    def evaluate(self, dist_sq: np.ndarray, bandwidth: float) -> np.ndarray:
        dist_sq = np.asarray(dist_sq, dtype=np.float64)
        b2 = bandwidth * bandwidth
        return np.where(dist_sq <= b2, 1.0 - dist_sq / b2, 0.0)

    def density_from_aggregates(
        self, qx: np.ndarray, qy: np.ndarray, agg: np.ndarray, bandwidth: float
    ) -> np.ndarray:
        # F = |R| - (|R| * ||q||^2 - 2 q . A + S) / b^2      (paper Equation 5)
        qx = np.asarray(qx, dtype=np.float64)
        cnt = agg[..., 0]
        ax = agg[..., 1]
        s = agg[..., 3]
        b2 = bandwidth * bandwidth
        if np.ndim(qy) == 0 and float(qy) == 0.0:
            # Row-local frame fast path: every qy-weighted term is exactly
            # +-0.0, so A.y (channel 2) is not read, and the result equals
            # the general branch under ``==`` (only the signs of zeros can
            # differ).  ``2.0 * x`` and ``x / 1.0`` are exact, so the
            # reassociations below are bitwise neutral.
            inner = cnt * (qx * qx)
            inner -= (2.0 * qx) * ax
            inner += s
            if b2 != 1.0:
                inner /= b2
            return cnt - inner
        qy = np.asarray(qy, dtype=np.float64)
        ay = agg[..., 2]
        q2 = qx * qx + qy * qy
        return cnt - (cnt * q2 - 2.0 * (qx * ax + qy * ay) + s) / b2

    def normalizer(self, bandwidth: float) -> float:
        # Integral of (1 - d^2/b^2) over the disc is pi * b^2 / 2.
        return 2.0 / (math.pi * bandwidth * bandwidth)


class QuarticKernel(Kernel):
    """``K = (1 - d^2/b^2)^2`` inside the bandwidth disc.

    The default kernel of QGIS and ArcGIS.  Exact evaluation needs all ten
    aggregate channels; the recombination below is the expansion of

        sum (1 - d^2/b^2)^2 = |R| - (2/b^2) sum d^2 + (1/b^4) sum d^4

    with ``d^2 = ||q||^2 - 2 q.p + ||p||^2`` and

        sum d^2 = |R| ||q||^2 - 2 q.A + S
        sum d^4 = |R| ||q||^4 + 4 q^T M q + Q + 2 ||q||^2 S
                  - 4 ||q||^2 (q.A) - 4 q.C
    """

    name = "quartic"
    num_channels = 10

    def evaluate(self, dist_sq: np.ndarray, bandwidth: float) -> np.ndarray:
        dist_sq = np.asarray(dist_sq, dtype=np.float64)
        b2 = bandwidth * bandwidth
        inside = 1.0 - dist_sq / b2
        return np.where(dist_sq <= b2, inside * inside, 0.0)

    def density_from_aggregates(
        self, qx: np.ndarray, qy: np.ndarray, agg: np.ndarray, bandwidth: float
    ) -> np.ndarray:
        qx = np.asarray(qx, dtype=np.float64)
        b2 = bandwidth * bandwidth
        b4 = b2 * b2
        cnt = agg[..., 0]
        ax = agg[..., 1]
        s = agg[..., 3]
        cx = agg[..., 4]
        qq = agg[..., 6]
        mxx = agg[..., 7]
        if np.ndim(qy) == 0 and float(qy) == 0.0:
            # Row-local frame fast path (see EpanechnikovKernel): the
            # qy-weighted aggregates A.y, C.y, M.xy, M.yy (channels 2, 5,
            # 8, 9) contribute exactly +-0.0 and are not read; values equal
            # the general branch under ``==``.
            qx2 = qx * qx
            q_dot_a = qx * ax
            sum_d2 = cnt * qx2 - 2.0 * q_dot_a + s
            sum_d4 = (
                cnt * qx2 * qx2
                + 4.0 * (qx2 * mxx)
                + qq
                + 2.0 * qx2 * s
                - 4.0 * qx2 * q_dot_a
                - 4.0 * (qx * cx)
            )
            if b2 != 1.0:
                return cnt - 2.0 * sum_d2 / b2 + sum_d4 / b4
            return cnt - 2.0 * sum_d2 + sum_d4
        qy = np.asarray(qy, dtype=np.float64)
        ay = agg[..., 2]
        cy = agg[..., 5]
        mxy, myy = agg[..., 8], agg[..., 9]
        q2 = qx * qx + qy * qy
        q_dot_a = qx * ax + qy * ay
        sum_d2 = cnt * q2 - 2.0 * q_dot_a + s
        qmq = qx * qx * mxx + 2.0 * qx * qy * mxy + qy * qy * myy
        q_dot_c = qx * cx + qy * cy
        sum_d4 = cnt * q2 * q2 + 4.0 * qmq + qq + 2.0 * q2 * s - 4.0 * q2 * q_dot_a - 4.0 * q_dot_c
        return cnt - 2.0 * sum_d2 / b2 + sum_d4 / b4

    def normalizer(self, bandwidth: float) -> float:
        # Integral of (1 - d^2/b^2)^2 over the disc is pi * b^2 / 3.
        return 3.0 / (math.pi * bandwidth * bandwidth)


class GaussianKernel(Kernel):
    """``K = exp(-d^2 / (2 b^2))`` — infinite support, *no* exact SLAM support.

    Provided so the approximate baselines (SCAN, aKDE, Z-order) can be
    exercised on it; requesting it from a SLAM method raises at the API layer.
    """

    name = "gaussian"
    num_channels = None

    def evaluate(self, dist_sq: np.ndarray, bandwidth: float) -> np.ndarray:
        dist_sq = np.asarray(dist_sq, dtype=np.float64)
        return np.exp(-dist_sq / (2.0 * bandwidth * bandwidth))

    def support_radius(self, bandwidth: float) -> float:
        return math.inf

    def density_from_aggregates(
        self, qx: np.ndarray, qy: np.ndarray, agg: np.ndarray, bandwidth: float
    ) -> np.ndarray:
        raise NotImplementedError(
            "the Gaussian kernel has no finite aggregate decomposition; "
            "SLAM supports the kernels of paper Table 2 only"
        )

    def normalizer(self, bandwidth: float) -> float:
        return 1.0 / (2.0 * math.pi * bandwidth * bandwidth)


#: Registry of kernel singletons keyed by name.
KERNELS: dict[str, Kernel] = {
    k.name: k
    for k in (UniformKernel(), EpanechnikovKernel(), QuarticKernel(), GaussianKernel())
}


def get_kernel(kernel: "str | Kernel") -> Kernel:
    """Resolve a kernel name or instance to a :class:`Kernel`."""
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; available: {sorted(KERNELS)}"
        ) from None
