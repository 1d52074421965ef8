"""Block-vectorized bucket sweep engine — SLAM_BUCKET's ``numpy`` engine.

This is the engine behind ``engine="numpy"`` under the bucket methods, and
behind the default ``engine="auto"`` where the compiled extension did not
load; ``"numpy_batch"`` is an alias of it.  The per-row driver in
:mod:`repro.core.sweep` executes a Python-level loop over all ``Y`` pixel
rows — each iteration doing an envelope slice, ``row_frame``,
``channel_values``, and a row-engine call, i.e. roughly fifty NumPy
dispatches per row.  At realistic resolutions that interpreter and dispatch
overhead is a fixed ~0.1 s tax per sweep, which dominates wall clock
whenever the envelopes are small (sharp bandwidths, the regime where SLAM's
per-row cost is lowest).  This module removes the loop: one engine call
computes an entire contiguous row block with a handful of whole-block array
operations.  The per-row vectorized Algorithm 2
(:func:`repro.core.slam_bucket.slam_bucket_row_numpy`) stays as the test
oracle this engine is pinned to.

The batched pipeline (mirroring the serial one stage for stage):

1. **Vectorized envelope extraction** — two ``searchsorted`` calls over the
   y-sorted index yield every row's ``[lo, hi)`` envelope slice at once.
   Each row's pairs are that contiguous slice of the sorted arrays, so the
   flat ``(total_pairs,)`` per-pair arrays are the concatenation of the
   rows' slices — emitted in exactly the per-row order of the serial loop,
   with no pair index to build or gather through.
2. **One frame + channel evaluation for all pairs** — the scaled x offset
   ``u = (p.x - cx) / b`` (and ``u^2``) is row-independent, so it is computed
   once per *point* of the block's envelope window and copied per pair; only
   ``v`` (and quantities built from it) is per-pair.  The serial loop recomputes these per row for
   every row a point's envelope covers — about ``2b/gy`` times per point.
3. **Bucket assignment for all pairs at once** — the same arithmetic
   ``bucket_indices`` as ``slam_bucket_row_numpy``, applied to the flat
   endpoint arrays.
4. **Scatter-add into a difference tensor** — ``np.bincount`` on the
   composite index ``row * (X + 1) + bucket`` accumulates every channel's
   deltas for all rows in one call; a single ``cumsum`` along x and one
   grid-level ``kernel.density_from_aggregates`` finish the block.

Bit-identity contract
---------------------
The batch engine is **bit-identical** to ``slam_bucket_row_numpy`` (pinned by
``tests/test_batch.py``, not hoped for), because every stage preserves the
serial computation's operand order:

* pairs are emitted row-major, and ``np.bincount`` accumulates its weights
  sequentially in input order, so each (row, bucket) cell sums the same
  values in the same order as the per-row bincount;
* ``cumsum`` along the x axis performs the same left-to-right additions;
* ``density_from_aggregates`` broadcasts over leading axes, so evaluating a
  ``(rows, X, nch)`` aggregate tensor is elementwise-identical to evaluating
  each row's ``(X, nch)`` slice.

Channels that the recombination multiplies only by ``qy`` are dead at
``qy = 0`` (the scaled local frame evaluates every row at y = 0): they
contribute exactly ``±0.0``, so the engine never builds them and the kernels'
``density_from_channel_map`` fast path never reads them — value-preserving
under ``==`` (and ``np.array_equal``), which treats ``-0.0 == +0.0``.

Memory bounding
---------------
Materializing all pairs of a tall block at once would thrash caches (and can
exceed RAM), so blocks are internally chunked by :data:`MAX_BLOCK_BYTES`:
chunk boundaries bound both the difference tensor
(``rows × (X+1) × nch`` float64) and the per-pair working set (about
eleven float64/int64 arrays of ``total_pairs`` elements).  The default
(2 MB) keeps the per-chunk working set resident in the CPU cache — measured
fastest across 256 KB..16 MB — and chunking never changes results, because
each row's pairs stay contiguous and whole.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..obs import Recorder
from .bounds import bucket_indices
from .envelope import YSortedIndex
from .kernels import Kernel
from .sweep import PHASE_ENDPOINT_BUCKET, PHASE_ENVELOPE_UPDATE, PHASE_PREFIX_SWEEP

__all__ = ["NumpyBatchEngine", "MAX_BLOCK_BYTES"]

#: Chunk budget of one block sweep.  2 MB keeps a chunk's difference arrays
#: and pair working set resident in the CPU cache, where the ~25 whole-chunk
#: array passes run at cache bandwidth instead of DRAM bandwidth — measured
#: fastest across 256 KB..16 MB on the benchmark workload.  Read at call
#: time, so the chunking tests can patch it.
MAX_BLOCK_BYTES = 2 * 1024 * 1024

#: Bytes of per-pair working state: the float64 scratch (u, v, v², half, lb,
#: ub, and up to s, s·u, s², u², w), the int64 row base, enter and leave —
#: about eleven 8-byte arrays per pair.
_BYTES_PER_PAIR = 88

#: Channel indices whose recombination weight is a pure ``qy`` factor, making
#: them exactly ``±0.0`` at ``qy = 0`` (see module docstring): ``y`` (2) for
#: the Epanechnikov aggregates, plus ``s*y`` (5), ``x*y`` (8) and ``y*y`` (9)
#: for the quartic ones.  Keyed by kernel name; doubles as the registry of
#: kernels whose live-channel construction the engine hardcodes — unknown
#: kernels are rejected rather than silently miscomputed.
_DEAD_AT_QY0 = {
    "uniform": frozenset(),
    "epanechnikov": frozenset({2}),
    "quartic": frozenset({2, 5, 8, 9}),
}


class NumpyBatchEngine:
    """Whole-block sweep engine: all rows of a block in O(1) NumPy calls.

    Registered as ``slam_bucket.numpy`` (:mod:`repro.core.engines`).
    Instances are stateless, so they are trivially picklable and safe to
    share across the pool workers of :func:`repro.core.parallel.run_blocks`.
    """

    name = "slam_bucket.numpy"
    threads = 1

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
        """Compute the pixel-row block ``[start, stop)`` — batched.

        Same inputs and output as
        :meth:`repro.core.sweep.RowSweep.sweep_block`; see the module
        docstring for the pipeline and the bit-identity argument.
        Recorder semantics match the serial loop's *totals*: the phase
        timers accumulate per chunk and flush once per block with call
        counts equal to the serial loop's (``sweep.envelope_update`` counts
        every row, the engine phases count non-empty rows), so merged
        parallel snapshots equal serial snapshots in every count.
        """
        num_pixels = len(xs_scaled)
        num_rows = stop - start
        nch = kernel.num_channels
        if kernel.name not in _DEAD_AT_QY0:
            # The channel construction below hardcodes which channels are
            # live at qy = 0 per kernel; refuse kernels it does not know.
            raise ValueError(
                "engine 'numpy' (alias 'numpy_batch') supports the built-in "
                "SLAM kernels (uniform, epanechnikov, quartic); got "
                f"{kernel.name!r}"
            )
        out = np.zeros((num_rows, num_pixels), dtype=np.float64)
        if num_rows <= 0:
            return out

        rec = recorder
        perf = perf_counter
        envelope_seconds = 0.0
        bucket_seconds = 0.0
        sweep_seconds = 0.0
        t0 = perf() if rec is not None else 0.0

        # Stage 1: every row's envelope slice from two searchsorted calls,
        # plus the row-independent per-point precomputation.
        ks = y_centers[start:stop]
        all_y = ysorted.sorted_y
        lo_all = np.searchsorted(all_y, ks - bandwidth, side="left")
        hi_all = np.searchsorted(all_y, ks + bandwidth, side="right")
        counts_all = hi_all - lo_all

        nonempty_rows = int(np.count_nonzero(counts_all))
        total_pairs = int(counts_all.sum())
        if total_pairs == 0:
            if rec is not None:
                envelope_seconds += perf() - t0
                self._flush_recorder(
                    rec, num_rows, nonempty_rows, total_pairs,
                    envelope_seconds, bucket_seconds, sweep_seconds,
                )
            return out

        # Every pair reads a point of the block's envelope union
        # [first, last), so the per-point arrays cover only that window: a
        # tile or a shard band pays for its own points, not the dataset's.
        first, last = int(lo_all.min()), int(hi_all.max())
        lo_all -= first
        hi_all -= first
        sorted_y = all_y[first:last]
        point_u = (ysorted.sorted_xy[first:last, 0] - cx) / bandwidth
        point_u2 = point_u * point_u if nch > 1 else None
        if sorted_weights is not None:
            sorted_weights = sorted_weights[first:last]

        # Chunk boundaries: bound both the difference tensor and the pair
        # working set by MAX_BLOCK_BYTES (see module docstring).  Boundaries
        # depend only on the envelope counts, so they are computed up front —
        # which also yields the largest chunk's pair count, letting the
        # per-pair scratch below be allocated once per block instead of once
        # per chunk (the repeated-temporary fix pinned by
        # tests/test_batch.py's tracemalloc bound).
        max_pairs = max(MAX_BLOCK_BYTES // _BYTES_PER_PAIR, 1)
        max_chunk_rows = max(MAX_BLOCK_BYTES // (8 * (num_pixels + 1) * nch), 1)
        cum_pairs = np.cumsum(counts_all)
        chunks: "list[tuple[int, int]]" = []
        cap = 0
        r0 = 0
        while r0 < num_rows:
            base = cum_pairs[r0 - 1] if r0 > 0 else 0
            r1 = int(
                np.searchsorted(cum_pairs, base + max_pairs, side="right")
            ) + 1
            r1 = min(max(r1, r0 + 1), num_rows, r0 + max_chunk_rows)
            chunks.append((r0, r1))
            cap = max(cap, int(cum_pairs[r1 - 1] - base))
            r0 = r1

        # Reusable per-pair scratch, sized to the largest chunk.  Every
        # whole-chunk array op below lands in a view of these buffers (the
        # values — and their operand order — are exactly the previous
        # allocate-per-chunk expressions).
        buf_names = ["u", "v", "v2", "rad", "lb", "ub"]
        if nch > 1:
            buf_names.append("s")
        if nch > 4:
            buf_names += ["su", "ss", "u2g"]
        if sorted_weights is not None:
            buf_names.append("w")
        buf = {name: np.empty(cap, dtype=np.float64) for name in buf_names}
        ones_full = (
            np.ones(cap, dtype=np.float64) if sorted_weights is None else None
        )
        if rec is not None:
            envelope_seconds += perf() - t0

        for row0, row1 in chunks:
            t0 = perf() if rec is not None else 0.0
            # Compress the chunk to its non-empty rows: empty rows stay zero
            # in `out` (exactly what the serial loop's `continue` produces),
            # and the tensor below only spends memory on rows that scatter.
            rows_nz = np.nonzero(counts_all[row0:row1])[0]
            num_nz = len(rows_nz)
            if num_nz == 0:
                continue
            counts = counts_all[row0:row1][rows_nz]
            total = int(counts.sum())

            # Flat (row, point) pairs, row-major like the serial loop: row
            # r's pairs are the contiguous sorted-point slice [lo[r], hi[r]),
            # so every per-pair array is the concatenation of those slices.
            # The scatter destination is the *compressed* row slot
            # (0..num_nz-1, the difference array's leading axis), not the
            # chunk-relative position in rows_nz.
            spans = [
                slice(a, b)
                for a, b in zip(
                    lo_all[row0:row1][rows_nz].tolist(),
                    hi_all[row0:row1][rows_nz].tolist(),
                )
            ]
            row_base = np.repeat(
                np.arange(num_nz, dtype=np.int64) * (num_pixels + 1), counts
            )

            def pairs(values: np.ndarray, name: str) -> np.ndarray:
                return np.concatenate(
                    [values[s] for s in spans], out=buf[name][:total]
                )

            # Stage 2: scaled local frame + channel values for all pairs.
            # u comes from the per-point precomputation; v is per-pair.
            u = pairs(point_u, "u")
            v = pairs(sorted_y, "v")
            v -= np.repeat(ks[row0:row1][rows_nz], counts)
            v /= bandwidth
            v2 = np.multiply(v, v, out=buf["v2"][:total])
            radicand = np.subtract(1.0, v2, out=buf["rad"][:total])
            np.clip(radicand, 0.0, None, out=radicand)
            half = np.sqrt(radicand, out=radicand)
            lb = np.subtract(u, half, out=buf["lb"][:total])
            ub = np.add(u, half, out=buf["ub"][:total])
            # Channel values, expressed as bincount weight arrays instead of
            # a materialized (total, nch) matrix: channel 0 is the count
            # (weight w, or an implicit 1), and only the channels live at
            # qy = 0 are built.  Arithmetic matches channel_values exactly:
            # s = x*x + y*y with x = u (precomputed square) and y = v.
            chan_weights: dict[int, np.ndarray | None] = {0: None}
            if nch > 1:
                s = pairs(point_u2, "s")
                s += v2
                chan_weights[1] = u
                chan_weights[3] = s
                if nch > 4:
                    chan_weights[4] = np.multiply(s, u, out=buf["su"][:total])
                    chan_weights[6] = np.multiply(s, s, out=buf["ss"][:total])
                    chan_weights[7] = pairs(point_u2, "u2g")
            if sorted_weights is not None:
                # In-place: every value above is already a private scratch
                # view, and a*w elementwise equals the old out-of-place
                # product bit for bit.
                w = pairs(sorted_weights, "w")
                for c, a in chan_weights.items():
                    if a is None:
                        chan_weights[c] = w
                    else:
                        a *= w
            if rec is not None:
                t1 = perf()
                envelope_seconds += t1 - t0
                t0 = t1

            # Stage 3: arithmetic bucket assignment for all pairs, then the
            # composite (row, bucket) index.
            enter, leave = bucket_indices(xs_scaled, lb, ub)
            enter += row_base
            leave += row_base
            if rec is not None:
                t1 = perf()
                bucket_seconds += t1 - t0
                t0 = t1

            # Stage 4: one bincount pair per live channel into a flattened
            # (rows, X+1) difference array, prefix-sum along x, and one
            # grid-level density evaluation on the channel map (dead
            # channels stay absent; the kernels' qy = 0 fast path never
            # reads them).
            num_buckets = num_nz * (num_pixels + 1)
            channel_map: dict[int, np.ndarray] = {}
            for c, a in chan_weights.items():
                if a is None:
                    # Unweighted count channel: float weights of 1.0 keep the
                    # bincount in float64 (no int round trip) at equal values.
                    a = ones_full[:total]
                net = np.bincount(enter, weights=a, minlength=num_buckets)
                net -= np.bincount(leave, weights=a, minlength=num_buckets)
                body = net.reshape(num_nz, num_pixels + 1)[:, :num_pixels]
                np.cumsum(body, axis=1, out=body)
                channel_map[c] = body
            density = kernel.density_from_channel_map(
                xs_scaled, 0.0, channel_map, 1.0
            )
            if num_nz == row1 - row0:
                out[row0:row1] = density
            else:
                out[row0 + rows_nz] = density
            if rec is not None:
                sweep_seconds += perf() - t0

        if rec is not None:
            self._flush_recorder(
                rec, num_rows, nonempty_rows, total_pairs,
                envelope_seconds, bucket_seconds, sweep_seconds,
            )
        return out

    @staticmethod
    def _flush_recorder(
        rec: Recorder,
        num_rows: int,
        nonempty_rows: int,
        total_pairs: int,
        envelope_seconds: float,
        bucket_seconds: float,
        sweep_seconds: float,
    ) -> None:
        """Flush per-block accumulators with serial-equal call counts."""
        rec.count("sweep.rows", num_rows)
        rec.count("sweep.empty_rows", num_rows - nonempty_rows)
        rec.count("sweep.envelope_points", total_pairs)
        rec.timer(PHASE_ENVELOPE_UPDATE).add(envelope_seconds, num_rows)
        if nonempty_rows:
            rec.timer(PHASE_ENDPOINT_BUCKET).add(bucket_seconds, nonempty_rows)
            rec.timer(PHASE_PREFIX_SWEEP).add(sweep_seconds, nonempty_rows)
