"""Deterministic shard planner for distributed KDV rendering.

Because ``F_P(q) = sum_p w_p K(q, p)`` is additive over any partition of the
point set, a KDV render decomposes exactly across disjoint shards.  This
planner goes one step further and produces a decomposition whose merge is
*bit-identical* to the serial sweep, not merely mathematically equal:

* the **points** are split into K disjoint, contiguous ranges of the
  y-sorted order (each shard *owns* ``sorted_xy[own_start:own_stop]``);
* each shard is assigned the disjoint band of **pixel rows** whose centers
  fall nearest its owned y-range, so the row bands partition ``range(Y)``;
* the payload shipped to a worker is the owned range *inflated by one
  bandwidth on each side* (the ``halo``, still one contiguous y-sorted
  slice) — exactly the points that can influence any pixel of the shard's
  rows, because a finite-support kernel reaches at most ``b``.

A worker therefore computes its rows with *exactly* the same envelope point
sequences, in the same order, as the serial sweep would (the halo slice of a
y-sorted array is itself y-sorted, so rebuilding a
:class:`~repro.core.envelope.YSortedIndex` over it is an identity
permutation), and the coordinator's merge is pure row concatenation — no
floating-point value is ever combined across shards.  That is the exactness
argument in full; ``docs/distributed.md`` spells it out.  Crucially, the
argument only uses the band's *contiguity*: **any** contiguous row band with
its halo is a self-contained unit of work, which is what lets the
cost-model planner (:mod:`repro.dist.sched`) move boundary rows freely and
lets the coordinator split a straggler's band mid-render (work stealing)
without ever risking the merge.

The planner is a pure function of its inputs: same points, raster rows,
bandwidth, and shard count always yield the same plan, on every host.  This
is what makes resubmission after a worker death safe — a re-planned or
re-shipped shard recomputes exactly the same block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.envelope import YSortedIndex
from ..core.parallel import partition_rows

__all__ = [
    "Shard",
    "ShardPlan",
    "plan_shards",
    "build_plan",
    "band_halo",
    "midpoint_row_bounds",
    "refine_row_bounds",
]

#: Valid ``balance`` modes for :func:`plan_shards`.  The coordinator adds a
#: third mode, ``"cost"``, which routes through the cost-model planner in
#: :mod:`repro.dist.sched` (it needs calibration state a pure function
#: cannot carry).
BALANCE_MODES = ("points", "rows")


@dataclass(frozen=True)
class Shard:
    """One unit of distributable work.

    ``row_start:row_stop`` is the disjoint band of pixel rows this shard
    renders; ``own_start:own_stop`` the disjoint y-sorted point range it
    accounts for; ``halo_start:halo_stop`` the contiguous y-sorted slice
    actually shipped (owned range ± one bandwidth, clipped to the dataset).
    """

    shard_id: int
    row_start: int
    row_stop: int
    own_start: int
    own_stop: int
    halo_start: int
    halo_stop: int

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def owned_points(self) -> int:
        return self.own_stop - self.own_start

    @property
    def halo_points(self) -> int:
        return self.halo_stop - self.halo_start


@dataclass(frozen=True)
class ShardPlan:
    """The full deterministic decomposition of one render."""

    shards: tuple[Shard, ...]
    n_points: int
    height: int
    bandwidth: float
    balance: str

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def describe(self) -> str:
        """One line per shard, for logs and ``--stats`` output."""
        lines = [
            f"shard plan: {len(self.shards)} shard(s) over {self.height} rows, "
            f"{self.n_points} points (balance={self.balance})"
        ]
        for s in self.shards:
            lines.append(
                f"  #{s.shard_id}: rows [{s.row_start}, {s.row_stop}) "
                f"owns {s.owned_points} pts, ships {s.halo_points}"
            )
        return "\n".join(lines)


def _validate(n: int, height: int, bandwidth: float, shards: int) -> None:
    if n < 1:
        raise ValueError("cannot plan shards over an empty dataset")
    if height < 1:
        raise ValueError("cannot plan shards over a zero-row raster")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")


def midpoint_row_bounds(
    ysorted: YSortedIndex, y_centers: np.ndarray, k: int
) -> list[int]:
    """Row boundaries seeded from a near-equal *owned-points* split.

    The owned point ranges are cut into ``k <= len(ysorted)`` near-equal
    slices of the y-sorted order (:func:`repro.core.parallel.partition_rows`);
    each internal row boundary is the first row whose center
    lies at or beyond the midpoint between the two boundary points.  This is
    the classic midpoint seed — both the refined ``balance="points"`` mode
    and the cost-model planner (:mod:`repro.dist.sched`) start from it.
    """
    n = len(ysorted)
    height = int(len(y_centers))
    sorted_y = ysorted.sorted_y
    row_bounds = [0]
    for _, b_i in partition_rows(n, k)[:-1]:
        split_y = 0.5 * (sorted_y[b_i - 1] + sorted_y[b_i])
        r = int(np.searchsorted(y_centers, split_y, side="left"))
        row_bounds.append(min(max(r, row_bounds[-1]), height))
    row_bounds.append(height)
    return row_bounds


def band_halo(
    sorted_y: np.ndarray,
    y_centers: np.ndarray,
    bandwidth: float,
    row_start: int,
    row_stop: int,
) -> tuple[int, int]:
    """The y-sorted halo slice ``[start, stop)`` for one contiguous row band.

    The slice holds every point within one bandwidth of any of the band's
    row centers — the self-containment property the exactness argument (and
    work stealing) rests on.  A rowless band ships nothing.
    """
    if row_stop <= row_start:
        return 0, 0
    lo = int(
        np.searchsorted(sorted_y, y_centers[row_start] - bandwidth, side="left")
    )
    hi = int(
        np.searchsorted(
            sorted_y, y_centers[row_stop - 1] + bandwidth, side="right"
        )
    )
    return lo, hi


def refine_row_bounds(
    band_cost,
    row_bounds: list[int],
    weights=None,
    max_passes: int = 8,
) -> tuple[list[int], int]:
    """Iteratively move boundary rows between adjacent bands while the
    predicted makespan drops (the allocate-then-refine structure).

    ``band_cost(r0, r1)`` must return a nonnegative cost that is monotone in
    band extension (growing a band never lowers its cost) — true for both
    additive per-row costs and haloed point counts.  Each internal boundary
    is re-placed by binary search at the weighted cost crossover of its two
    neighbors, and a move is accepted only when the pair's weighted maximum
    strictly drops, so the loop terminates and the result is a pure function
    of its inputs.  ``weights[i]`` scales band ``i``'s capacity (a band on a
    2x-faster worker tolerates 2x the cost); ``None`` means equal workers.

    Returns ``(bounds, moves)`` where ``moves`` counts accepted boundary
    relocations (the ``dist.sched.refine_moves`` counter).
    """
    k = len(row_bounds) - 1
    bounds = list(row_bounds)
    if k <= 1:
        return bounds, 0
    if weights is None:
        w = [1.0] * k
    else:
        w = [max(float(x), 1e-9) for x in weights]
        if len(w) != k:
            raise ValueError(
                f"need one weight per band: got {len(w)} for {k} bands"
            )
    moves = 0
    for _ in range(max_passes):
        changed = False
        for i in range(1, k):
            lo, hi = bounds[i - 1], bounds[i + 1]
            if hi - lo < 1:
                continue
            wl, wr = w[i - 1], w[i]

            def pair_max(b: int) -> float:
                return max(band_cost(lo, b) / wl, band_cost(b, hi) / wr)

            # Left cost/wl is nondecreasing in b and right cost/wr is
            # nonincreasing, so the weighted max is unimodal: binary-search
            # the smallest b where the left side has caught up, then pick
            # the better of the two bracketing positions.
            a, z = lo, hi
            while a < z:
                m = (a + z) // 2
                if band_cost(lo, m) / wl >= band_cost(m, hi) / wr:
                    z = m
                else:
                    a = m + 1
            candidates = [a] if a - 1 < lo else [a - 1, a]
            best = min(candidates, key=lambda b: (pair_max(b), b))
            if best != bounds[i] and pair_max(best) < pair_max(bounds[i]):
                bounds[i] = best
                moves += 1
                changed = True
        if not changed:
            break
    return bounds, moves


def build_plan(
    ysorted: YSortedIndex,
    y_centers: np.ndarray,
    bandwidth: float,
    row_bounds: list[int],
    balance: str,
) -> ShardPlan:
    """Assemble a :class:`ShardPlan` from final row boundaries.

    Owned point ranges are derived from the row boundaries (points below the
    midpoint of the two adjacent row centers belong to the lower shard) and
    halos from :func:`band_halo`, so any monotone ``row_bounds`` partition of
    ``range(Y)`` yields a valid, exact plan — the property the refinement
    planners rely on.
    """
    n = len(ysorted)
    height = int(len(y_centers))
    sorted_y = ysorted.sorted_y
    k = len(row_bounds) - 1
    own_bounds = [0]
    for r_i in row_bounds[1:-1]:
        if r_i <= 0:
            b = 0
        elif r_i >= height:
            b = n
        else:
            split_y = 0.5 * (y_centers[r_i - 1] + y_centers[r_i])
            b = int(np.searchsorted(sorted_y, split_y, side="left"))
        own_bounds.append(min(max(b, own_bounds[-1]), n))
    own_bounds.append(n)

    shards_out: list[Shard] = []
    for i in range(k):
        row_start, row_stop = row_bounds[i], row_bounds[i + 1]
        if row_stop > row_start:
            halo_start, halo_stop = band_halo(
                sorted_y, y_centers, bandwidth, row_start, row_stop
            )
        else:
            # A rowless shard renders nothing and ships nothing; it exists
            # only so the owned ranges still partition the dataset.
            halo_start = halo_stop = own_bounds[i]
        shards_out.append(
            Shard(
                shard_id=i,
                row_start=row_start,
                row_stop=row_stop,
                own_start=own_bounds[i],
                own_stop=own_bounds[i + 1],
                halo_start=halo_start,
                halo_stop=halo_stop,
            )
        )
    return ShardPlan(
        shards=tuple(shards_out),
        n_points=n,
        height=height,
        bandwidth=float(bandwidth),
        balance=balance,
    )


def plan_shards(
    ysorted: YSortedIndex,
    y_centers: np.ndarray,
    bandwidth: float,
    shards: int,
    balance: str = "points",
) -> ShardPlan:
    """Split one render into ``shards`` deterministic shard descriptions.

    Parameters
    ----------
    ysorted:
        The y-sorted index over the full dataset (n >= 1 points).
    y_centers:
        Ascending pixel-row center y coordinates, shape ``(Y,)`` with
        ``Y >= 1`` (``Raster.y_centers()``).
    bandwidth:
        Kernel bandwidth ``b`` in world units (> 0); sets the halo width.
    shards:
        Requested shard count ``K >= 1``.  Clamped to
        ``min(K, n_points, Y)`` — more shards than points or rows would only
        mint empty work units.
    balance:
        ``"points"`` (default) balances the per-shard *haloed* point counts
        — the points a shard actually computes with, which is what the
        envelope work scales with.  (It used to balance owned counts only,
        which undercounts boundary-heavy shards: a shard whose band sits in
        a dense region ships a much larger halo than it owns.)  The split is
        seeded from the owned-count midpoint boundaries and refined with
        :func:`refine_row_bounds` over the halo counts.  ``"rows"`` makes
        the row bands near-equal instead, which balances the per-pixel term
        when the data is close to uniform.  For balancing by *predicted
        wall time* see the coordinator's ``balance="cost"`` mode
        (:mod:`repro.dist.sched`).

    Returns
    -------
    A :class:`ShardPlan` whose row bands partition ``range(Y)`` exactly and
    whose owned ranges partition ``range(n)`` exactly.  Pure function: the
    same inputs produce the same plan on every call and every host.
    """
    n = len(ysorted)
    height = int(len(y_centers))
    _validate(n, height, bandwidth, shards)
    if balance not in BALANCE_MODES:
        raise ValueError(
            f"unknown balance mode {balance!r}; available: {BALANCE_MODES}"
        )
    k = min(int(shards), n, height)
    y_centers = np.asarray(y_centers, dtype=np.float64)
    sorted_y = ysorted.sorted_y

    if balance == "points":
        row_bounds = midpoint_row_bounds(ysorted, y_centers, k)
        if k > 1:
            # Balance what a shard *ships and computes with* — its haloed
            # point count — not just what it owns.  Per-row halo edges are
            # precomputed once, so each band cost is O(1) and the whole
            # refinement is a handful of binary searches.
            lo = np.searchsorted(sorted_y, y_centers - bandwidth, side="left")
            hi = np.searchsorted(sorted_y, y_centers + bandwidth, side="right")

            def halo_count(r0: int, r1: int) -> float:
                return 0.0 if r1 <= r0 else float(hi[r1 - 1] - lo[r0])

            row_bounds, _ = refine_row_bounds(halo_count, row_bounds)
    else:
        row_bounds = [0] + [stop for _, stop in partition_rows(height, k)]

    return build_plan(ysorted, y_centers, bandwidth, row_bounds, balance)
