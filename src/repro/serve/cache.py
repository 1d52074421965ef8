"""Thread-safe TTL + LRU tile cache.

The serving layer caches rendered tiles under concurrent access.  On top
of LRU capacity eviction this cache adds:

* a per-entry **TTL** (entries older than ``ttl_s`` read as misses and are
  dropped), so a long-running server eventually refreshes tiles even without
  explicit invalidation;
* **key invalidation** (:meth:`invalidate`), the hook live ingest uses to
  drop exactly the tiles a batch touched;
* a single internal lock so every operation is atomic under threads.

Hit/miss/eviction/expiry totals are plain integers read without the lock
(stale reads are fine for metrics); the owning service mirrors them into its
:class:`~repro.obs.Recorder`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import monotonic
from typing import Any, Callable, Hashable, Iterable

__all__ = ["TTLCache"]

_MISSING = object()


class TTLCache:
    """A bounded, thread-safe mapping with LRU eviction and optional TTL.

    Parameters
    ----------
    capacity:
        Maximum number of live entries; the least recently used entry is
        evicted when a store would exceed it.
    ttl_s:
        Seconds after which an entry expires (``None`` disables expiry).
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        capacity: int,
        ttl_s: "float | None" = None,
        clock: Callable[[], float] = monotonic,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive or None")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (value, expires_at | None), insertion order = recency
        self._entries: "OrderedDict[Hashable, tuple[Any, float | None]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        """Live (non-expired) entry count.

        Expired-but-unread entries are purged first so sizes reported to
        metrics (``serve.cache_size``, ``/metricz`` ``tiles_cached``) never
        overstate what a reader could actually hit.
        """
        with self._lock:
            self._purge_expired()
            return len(self._entries)

    def _purge_expired(self) -> int:
        """Drop every entry past its TTL (caller holds the lock); returns
        how many were dropped (each counted as an expiration).  Checks
        per-entry deadlines, so entries stored with a ``put(ttl_s=...)``
        override expire even when the cache has no default TTL."""
        if not self._entries:
            return 0
        now = self._clock()
        stale = [
            key
            for key, (_value, expires_at) in self._entries.items()
            if expires_at is not None and now >= expires_at
        ]
        for key in stale:
            del self._entries[key]
        self.expirations += len(stale)
        return len(stale)

    def get(self, key: Hashable, default: Any = None, count: bool = True) -> Any:
        """The cached value, bumping recency; expired entries read as misses.

        ``count=False`` skips the hit/miss tallies — for double-check probes
        that re-examine a key already counted once (the single-flight path),
        so the stats stay one-tally-per-request.
        """
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                if count:
                    self.misses += 1
                return default
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self.expirations += 1
                if count:
                    self.misses += 1
                return default
            self._entries.move_to_end(key)
            if count:
                self.hits += 1
            return value

    def put(self, key: Hashable, value: Any, ttl_s: "float | None" = None) -> int:
        """Store a value; returns how many entries were evicted (0 or 1).

        ``ttl_s`` overrides the cache-wide TTL for this entry (the serving
        layer stores degraded tiles with a short per-entry TTL so they age
        out fast even in a cache with no default expiry).
        """
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive or None")
        effective = self.ttl_s if ttl_s is None else float(ttl_s)
        now = self._clock()
        expires_at = None if effective is None else now + effective
        with self._lock:
            self._entries[key] = (value, expires_at)
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.capacity:
                _key, (_value, old_expires) = self._entries.popitem(last=False)
                # popping a dead entry is an expiration, not a capacity
                # eviction — the distinction keeps the eviction counter an
                # honest measure of cache pressure
                if old_expires is not None and now is not None and now >= old_expires:
                    self.expirations += 1
                else:
                    self.evictions += 1
                    evicted += 1
            return evicted

    def invalidate(self, keys: Iterable[Hashable]) -> int:
        """Drop the given keys; returns how many were present."""
        dropped = 0
        with self._lock:
            for key in keys:
                if self._entries.pop(key, None) is not None:
                    dropped += 1
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list:
        """A snapshot of the live (non-expired) keys (oldest first)."""
        with self._lock:
            self._purge_expired()
            return list(self._entries)
