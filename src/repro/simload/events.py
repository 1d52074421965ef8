"""Virtual clock and deterministic discrete-event loop.

The simulator never sleeps: time is a number that jumps from one scheduled
event to the next.  Determinism rests on two properties of this module:

* **Total event order.**  The heap orders events by ``(time, seq)`` where
  ``seq`` is the schedule-call counter — two events at the same virtual
  instant fire in the order they were scheduled, which is itself
  deterministic because all scheduling happens on the single simulator
  thread at deterministic points.
* **One readable clock.**  :class:`SimClock` is a plain callable returning
  the current virtual time, injectable everywhere the serving stack accepts
  a ``clock`` (:class:`~repro.serve.TileService`, its
  :class:`~repro.serve.cache.TTLCache`, tick schedules), so TTL expiry and
  window aging happen in simulated seconds, independent of host speed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = ["SimClock", "EventLoop"]


class SimClock:
    """A settable virtual clock, callable like ``time.monotonic``.

    The event loop is the only writer; readers (the tile service, its cache,
    the renders the virtual pool runs) see a monotonically non-decreasing
    float.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Jump forward to ``t`` (never backwards — events are processed in
        time order, so a regression is a scheduling bug)."""
        if t < self._now:
            raise ValueError(
                f"virtual clock cannot run backwards: {t} < {self._now}"
            )
        self._now = float(t)


class EventLoop:
    """A heap-based discrete-event loop over one :class:`SimClock`.

    Events are ``(time, seq, action)`` triples; :meth:`run` pops them in
    ``(time, seq)`` order, advances the clock to each event's time, and
    invokes the action.  Actions may schedule further events (at or after
    the current instant).
    """

    def __init__(self, clock: "SimClock | None" = None):
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[tuple[float, int, Callable[[], Any]]] = []
        self._seq = 0
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, t: float, action: Callable[[], Any]) -> None:
        """Queue ``action`` to fire at virtual time ``t``."""
        if t < self.clock.now:
            raise ValueError(
                f"cannot schedule into the past: {t} < {self.clock.now}"
            )
        heapq.heappush(self._heap, (float(t), self._seq, action))
        self._seq += 1

    def peek_time(self) -> "float | None":
        """The next event's time, or ``None`` when the loop is drained."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: "float | None" = None) -> int:
        """Process events until the heap drains (or, with ``until``, until
        the next event lies strictly beyond it).  Returns how many events
        fired in this call."""
        fired = 0
        while self._heap:
            t = self._heap[0][0]
            if until is not None and t > until:
                break
            t, _seq, action = heapq.heappop(self._heap)
            self.clock.advance_to(t)
            action()
            fired += 1
            self.processed += 1
        return fired
