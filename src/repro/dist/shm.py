"""Zero-copy shared-memory shard transport for co-located worker pools.

The pickle transport ships each shard's halo point slice over TCP and the
computed row band back — ~150 KB each way for even a small tile render.
When coordinator and workers share a machine (same ``node`` token in the
HELLO handshake, see :func:`repro.dist.proto.node_id`), that is pure waste:
both processes can map the same pages.

This module implements the segment layer:

* **Request segment** — the coordinator packs the render's y-sorted point
  array, optional sorted weights, the full ``y_centers`` vector, and
  ``xs_scaled`` into one named ``multiprocessing.shared_memory`` segment,
  once per render.  Every shard's TASK frame then carries only the segment
  name plus integer offsets (< 1 KB on the wire); workers map the segment
  and slice their halo window zero-copy.
* **Response segment** — one ``height x width`` float64 band buffer.  Each
  worker sweeps its disjoint row band straight into its view of it, chunk
  by chunk, and replies with a tiny RESULT frame (no ``block``).  The
  coordinator's output grid *is* a view of this segment, so "merge" is a
  no-op and the only copy is the final detach copy.

Ownership and lifetime: segments are strictly coordinator-owned.  A
coordinator keeps one request/response pair (:class:`SegmentPair`, held by
:class:`KeptPair`) for its lifetime: the next render refills it in place
when it fits, and replaces it when it does not, so a steady stream of
renders creates, page-faults and unlinks nothing.  A render that finds the
kept pair in use by a concurrent render gets a private pair, created and
unlinked around it.  :meth:`~repro.dist.coordinator.Coordinator.close` (or
a ``weakref.finalize`` when a coordinator is dropped unclosed) unlinks the
kept pair.

**Retire on abandon.**  A render that raised, or that abandoned any attempt
(deadline expiry, worker death, shm demotion, ERROR frame), unlinks its pair
instead of keeping it.  An abandoned worker may still be finishing a chunk,
and it writes into the only pair it was told about; once that pair is
retired, no later render maps it, so a straggler's late band can never land
in another render's grid.  A render that completes normally has collected a
RESULT for every attempt, and a worker sends RESULT only after its last
band write, so nothing writes into a kept pair between renders.

Workers *attach* and must therefore never unlink; on CPython < 3.13
``SharedMemory`` registers attachments with the ``resource_tracker`` as if
they were owned, which both spews "leaked shared_memory" warnings and lets
the tracker unlink segments still in use, so :func:`attach` immediately
unregisters the attachment (the documented workaround for bpo-39959).  A
worker keeps its mappings for the life of a coordinator connection in a
small LRU by segment name (:class:`Mappings`), so a kept pair is mapped —
and its pages faulted in — once per connection, not once per task; the
cache is closed on disconnect.  Worker-side arrays are export-tracked views
(:func:`numpy.frombuffer`), so closing a mapping while a view is alive
fails with ``BufferError`` instead of leaving a dangling pointer; the views
are dropped before their mapping closes.  If the coordinator process itself
dies uncleanly, *its* resource tracker still reclaims the segments — exactly
the ownership the registration is meant to express.

Failure model: any worker-side mapping error (segment vanished, truncated,
permissions) is reported back as an ERROR frame flagged ``shm_failed``; the
coordinator then demotes that worker to the pickle transport for the rest
of the pool's life and resubmits the shard, so a broken shm path degrades
to correctness, never to a failed render.  See ``docs/native.md`` for the
negotiation walk-through.
"""

from __future__ import annotations

import secrets
import threading
from collections import OrderedDict

import numpy as np

from .errors import DistError

try:  # pragma: no cover - present on every supported CPython
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SHM_AVAILABLE",
    "ShmError",
    "RequestSegment",
    "ResponseSegment",
    "SegmentPair",
    "KeptPair",
    "Mappings",
    "attach",
    "detach",
    "map_request",
    "map_band",
]

#: ``True`` when :mod:`multiprocessing.shared_memory` imported; advertised
#: as the ``shm`` capability in the HELLO handshake.
SHM_AVAILABLE = _shared_memory is not None

_FLOAT = np.dtype(np.float64)

#: Names created (and therefore tracker-registered) by THIS process.  An
#: attach to one of our own segments — the in-thread worker servers the
#: tests use — must not unregister it, or the owner's eventual ``unlink``
#: would double-unregister and the tracker process logs a KeyError.
_OWNED: set = set()


class ShmError(DistError):
    """A shared-memory mapping failed (attach, size check, band write).

    Workers report it as an ERROR frame flagged ``shm_failed`` so the
    coordinator can demote them to the pickle transport and resubmit,
    instead of treating the shard as poisoned.
    """


def _untrack(seg) -> None:
    """Unregister an *attached* segment from this process's resource tracker.

    Attaching is not owning: without this, the attaching process's tracker
    would warn about (and eventually unlink) the coordinator's segments.
    CPython 3.13+ has ``track=False`` for the same purpose; this is the
    portable spelling.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across builds
        pass


def attach(name: str):
    """Map an existing segment by name (worker side); never unlinks it."""
    if _shared_memory is None:  # pragma: no cover
        raise ShmError("shared memory is unavailable in this interpreter")
    try:
        seg = _shared_memory.SharedMemory(name=name)
    except (OSError, ValueError) as exc:
        raise ShmError(f"cannot attach shm segment {name!r}: {exc}") from exc
    if seg.name not in _OWNED:
        _untrack(seg)
    return seg


def detach(seg) -> None:
    """Close a mapping without unlinking (both sides; owners unlink too).

    A mapping that still has export-tracked array views raises
    ``BufferError`` on close; it is left open and closes when the last view
    and the segment object are gone.
    """
    if seg is None:
        return
    try:
        seg.close()
    except (OSError, BufferError):  # pragma: no cover - dead or viewed mapping
        pass


def _create(prefix: str, nbytes: int):
    """A new coordinator-owned segment of at least ``nbytes`` bytes."""
    if _shared_memory is None:  # pragma: no cover
        raise DistError("shared memory is unavailable in this interpreter")
    # Short + collision-proof; shm names share a flat per-boot namespace.
    seg = _shared_memory.SharedMemory(
        create=True, size=max(int(nbytes), 1),
        name=f"{prefix}-{secrets.token_hex(6)}",
    )
    _OWNED.add(seg.name)
    return seg


def _unlink(seg) -> None:
    """Release the mapping and remove the segment (owner side)."""
    detach(seg)
    _OWNED.discard(seg.name)
    try:
        seg.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - already gone
        pass


def _view(seg, shape: tuple, offset: int) -> np.ndarray:
    """A float64 array over ``seg`` that holds a buffer export, so the
    mapping cannot be closed under it (worker side)."""
    count = int(np.prod(shape))
    return np.frombuffer(
        seg.buf, dtype=_FLOAT, count=count, offset=offset
    ).reshape(shape)


def _request_bytes(n: int, weighted: bool, height: int, width: int) -> int:
    return (2 * n + (n if weighted else 0) + height + width) * _FLOAT.itemsize


class RequestSegment:
    """Coordinator-owned segment holding one render's shared input arrays.

    Layout (all float64, C order, 8-byte aligned by construction)::

        [ sorted_xy (n, 2) | sorted_weights (n)? | y_centers (H) | xs_scaled (W) ]

    The descriptor (:attr:`descr`) travels in each TASK frame; workers
    rebuild the views with :func:`map_request`.  :meth:`fill` loads another
    render's arrays in place when they fit.
    """

    def __init__(self, sorted_xy, sorted_weights, y_centers, xs_scaled):
        self.seg = _create("rkdv-req", _request_bytes(
            len(sorted_xy), sorted_weights is not None,
            len(y_centers), len(xs_scaled),
        ))
        self.fill(sorted_xy, sorted_weights, y_centers, xs_scaled)

    def fits(self, sorted_xy, sorted_weights, y_centers, xs_scaled) -> bool:
        """Whether :meth:`fill` can take these arrays."""
        return self.seg.size >= _request_bytes(
            len(sorted_xy), sorted_weights is not None,
            len(y_centers), len(xs_scaled),
        )

    def fill(self, sorted_xy, sorted_weights, y_centers, xs_scaled) -> None:
        """Copy one render's arrays into the segment (it must fit)."""
        n = len(sorted_xy)
        height = len(y_centers)
        width = len(xs_scaled)
        off = 0
        for arr, shape in (
            (sorted_xy, (n, 2)),
            (sorted_weights, (n,)),
            (y_centers, (height,)),
            (xs_scaled, (width,)),
        ):
            if arr is None:
                continue
            dst = np.ndarray(shape, dtype=_FLOAT, buffer=self.seg.buf,
                             offset=off)
            dst[...] = arr
            off += dst.nbytes
        #: Wire descriptor: everything a worker needs to rebuild the views.
        self.descr = {
            "name": self.seg.name,
            "n": n,
            "weighted": sorted_weights is not None,
            "height": height,
            "width": width,
        }
        #: Bytes published through shared memory (feeds ``dist.shm_bytes``).
        self.nbytes = off

    def unlink(self) -> None:
        """Release the mapping and remove the segment (owner side)."""
        _unlink(self.seg)


def map_request(seg, descr: dict):
    """Rebuild ``(sorted_xy, sorted_weights, y_centers, xs_scaled)`` views
    over an attached request segment (worker side, zero-copy)."""
    n = int(descr["n"])
    height = int(descr["height"])
    width = int(descr["width"])
    weighted = bool(descr["weighted"])
    need = _request_bytes(n, weighted, height, width)
    if seg.size < need:
        raise ShmError(
            f"shm request segment {descr['name']!r} is {seg.size} bytes; "
            f"descriptor implies {need}"
        )
    xy = _view(seg, (n, 2), 0)
    off = xy.nbytes
    w = None
    if weighted:
        w = _view(seg, (n,), off)
        off += w.nbytes
    ys = _view(seg, (height,), off)
    xs = _view(seg, (width,), off + ys.nbytes)
    return xy, w, ys, xs


class ResponseSegment:
    """Coordinator-owned ``height x width`` float64 band buffer.

    The coordinator's render grid is :meth:`grid` — a view straight over the
    segment — so worker band writes *are* the merge.  :meth:`reshape` reuses
    the segment for another render's grid when it fits.
    """

    def __init__(self, height: int, width: int):
        self.seg = _create("rkdv-resp", int(height) * int(width) * _FLOAT.itemsize)
        self.name = self.seg.name
        self.reshape(height, width)

    def fits(self, height: int, width: int) -> bool:
        return self.seg.size >= int(height) * int(width) * _FLOAT.itemsize

    def reshape(self, height: int, width: int) -> None:
        """Serve a ``height x width`` grid from here on (it must fit)."""
        self.height = int(height)
        self.width = int(width)

    def grid(self) -> np.ndarray:
        """The full-grid view (valid until :meth:`unlink`)."""
        return np.ndarray(
            (self.height, self.width), dtype=_FLOAT, buffer=self.seg.buf
        )

    def unlink(self) -> None:
        _unlink(self.seg)


def map_band(seg, descr: dict, row_start: int, rows: int) -> np.ndarray:
    """Worker side: the ``rows x width`` view of a response segment where a
    band starting at grid row ``row_start`` is written, zero-copy.

    ``descr`` is the render's request descriptor (it carries the grid
    shape).  Raises :class:`ShmError` when the band falls outside the grid
    or the segment is too small for it.
    """
    height = int(descr["height"])
    width = int(descr["width"])
    if not (0 <= row_start and rows >= 0 and row_start + rows <= height):
        raise ShmError(
            f"band rows [{row_start}, {row_start + rows}) outside grid "
            f"height {height}"
        )
    need = height * width * _FLOAT.itemsize
    if seg.size < need:
        raise ShmError(
            f"shm response segment {seg.name!r} is {seg.size} bytes; grid "
            f"needs {need}"
        )
    return _view(seg, (rows, width), row_start * width * _FLOAT.itemsize)


class SegmentPair:
    """One render's request and response segments (coordinator side)."""

    def __init__(self, sorted_xy, sorted_weights, y_centers, xs_scaled):
        self.req = RequestSegment(sorted_xy, sorted_weights, y_centers, xs_scaled)
        try:
            self.resp = ResponseSegment(len(y_centers), len(xs_scaled))
        except BaseException:
            self.req.unlink()
            raise

    def refill(self, sorted_xy, sorted_weights, y_centers, xs_scaled) -> bool:
        """Load the next render in place; ``False`` (and untouched) when it
        does not fit."""
        arrays = (sorted_xy, sorted_weights, y_centers, xs_scaled)
        if not (self.req.fits(*arrays)
                and self.resp.fits(len(y_centers), len(xs_scaled))):
            return False
        self.req.fill(*arrays)
        self.resp.reshape(len(y_centers), len(xs_scaled))
        return True

    def unlink(self) -> None:
        self.req.unlink()
        self.resp.unlink()


class KeptPair:
    """The one :class:`SegmentPair` a coordinator keeps between renders.

    :meth:`acquire` hands a render the kept pair, refilled in place when the
    render fits and replaced when it does not — or, while another render
    holds it, a private pair.  :meth:`release` keeps the kept pair for the
    next render only when the render asks to (it finished and abandoned no
    attempt); every other pair is unlinked.  :meth:`close` unlinks the kept
    pair and makes every later release unlink.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pair: "SegmentPair | None" = None
        self._busy = False
        self._closed = False

    def acquire(self, sorted_xy, sorted_weights, y_centers, xs_scaled):
        """``(pair, kept)``: the pair to render into, and whether it is the
        kept one (to hand back through :meth:`release`)."""
        arrays = (sorted_xy, sorted_weights, y_centers, xs_scaled)
        with self._lock:
            kept = not (self._busy or self._closed)
            if kept:
                self._busy = True
                pair, self._pair = self._pair, None
        if not kept:
            return SegmentPair(*arrays), False
        try:
            if pair is not None and not pair.refill(*arrays):
                pair.unlink()
                pair = None
            if pair is None:
                pair = SegmentPair(*arrays)
        except BaseException:
            with self._lock:
                self._busy = False
            raise
        return pair, True

    def release(self, pair: SegmentPair, kept: bool, reuse: bool) -> None:
        """Return a pair from :meth:`acquire`: keep it when it is the kept
        one and ``reuse`` holds, else unlink it."""
        if kept:
            with self._lock:
                self._busy = False
                if reuse and not self._closed:
                    self._pair, pair = pair, None
        if pair is not None:
            pair.unlink()

    def close(self) -> None:
        """Unlink the kept pair; later releases unlink theirs.  Idempotent."""
        with self._lock:
            self._closed = True
            pair, self._pair = self._pair, None
        if pair is not None:
            pair.unlink()


#: Mappings a worker connection keeps: the kept pair plus a concurrent
#: render's private pair, or a pair the coordinator has since replaced.  A
#: task maps its request and response segments together, so at least two.
_MAPPINGS_KEPT = 4


class Mappings:
    """A worker connection's attached segments, by name, least recently
    used first out.

    A kept pair is then attached once per connection instead of once per
    task.  The views a task makes must be gone when it ends, before a later
    task's :meth:`get` can evict their mapping and before :meth:`close`.
    """

    def __init__(self) -> None:
        self._segs: "OrderedDict[str, object]" = OrderedDict()

    def get(self, name: str):
        """The mapping of segment ``name``, attached on first use."""
        seg = self._segs.get(name)
        if seg is None:
            seg = self._segs[name] = attach(name)
            while len(self._segs) > _MAPPINGS_KEPT:
                detach(self._segs.popitem(last=False)[1])
        else:
            self._segs.move_to_end(name)
        return seg

    def close(self) -> None:
        """Close every mapping (none is unlinked)."""
        while self._segs:
            detach(self._segs.popitem()[1])
