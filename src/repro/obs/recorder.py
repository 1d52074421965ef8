"""Lightweight observability primitives: counters, phase timers, trace spans.

The paper's evaluation is entirely wall-clock driven (Tables 1/7,
Figures 13-19), and the per-phase structure of a SLAM sweep — index build,
envelope update, endpoint ordering, prefix sweep — determines *where* the
time goes.  Following the instrumentation discipline of Saule et al.
(*Parallel Space-Time Kernel Density Estimation*), whose scaling analysis
hinges on per-phase timing, this module provides the recording substrate the
rest of the stack threads through.

Design constraints, in order:

1. **The un-instrumented hot path pays ~nothing.**  Every instrumented call
   site branches on ``recorder is None`` (or :data:`NULL_RECORDER`, whose
   ``enabled`` flag is ``False``) before touching a clock.  The no-op
   recorder returns cached singletons from every accessor, so even code that
   holds a :class:`NullRecorder` allocates nothing per call.
2. **Thread- and process-safe aggregation.**  A :class:`Recorder` guards its
   state with a lock, and :meth:`Recorder.merge` folds in the
   :meth:`Recorder.snapshot` of another recorder — the mechanism the parallel
   sweep uses to combine per-block recorders from worker threads or
   processes into one dump whose counters equal the serial counts exactly.
3. **Machine-readable.**  :meth:`Recorder.snapshot` returns a plain
   JSON-able dict with a versioned ``schema`` tag; benchmark reports embed
   it verbatim (see :mod:`repro.bench.report`).

Vocabulary
----------
counter
    A named monotonically increasing integer (``sweep.rows``,
    ``tiles.cache.hits``).
gauge
    A named last-written value (``serve.queue_depth``, ``serve.cache_size``)
    for quantities that go up *and* down; merging keeps the donor's reading.
phase timer
    A named ``(total_seconds, calls)`` accumulator for code regions entered
    many times (per pixel row) where recording every instance would cost
    more than the region itself.
span
    A nestable context manager recording one timed region as an event with
    its depth and start offset — the right tool for the handful of
    coarse-grained phases per computation (``index_build``, ``sweep``).
    Span exits also feed the phase timer of the same name, so phase totals
    are complete whichever primitive a call site used.  A recorder keeps
    only the newest :data:`MAX_SPANS` spans, so a long-lived one (a tile
    service's, a coordinator's) stays bounded; counters and phase timers
    stay exact.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

__all__ = [
    "RECORDER_SCHEMA",
    "MAX_SPANS",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "Counter",
    "Gauge",
    "PhaseTimer",
    "Span",
    "active",
    "format_summary",
]

#: Versioned tag embedded in every snapshot so downstream consumers (bench
#: reports, CI validation) can detect incompatible dumps.
RECORDER_SCHEMA = "repro.obs.recorder/1"

#: Spans a recorder keeps, newest last; older ones are dropped.  One
#: computation records a handful, so only long-lived recorders reach it.
MAX_SPANS = 256


class Counter:
    """A named monotonic counter owned by a :class:`Recorder`."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0
        self._lock = lock

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A named last-value instrument owned by a :class:`Recorder`.

    Unlike a :class:`Counter`, a gauge moves in both directions — it reports
    the most recently written value (a queue depth, a cache size), not an
    accumulation.
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value: "int | float" = 0
        self._lock = lock

    def set(self, value: "int | float") -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> "int | float":
        return self._value


class PhaseTimer:
    """Accumulates total seconds and call count for one named phase."""

    __slots__ = ("name", "_total", "_calls", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._total = 0.0
        self._calls = 0
        self._lock = lock

    def add(self, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self._total += seconds
            self._calls += calls

    @property
    def total_seconds(self) -> float:
        return self._total

    @property
    def calls(self) -> int:
        return self._calls


class Span:
    """One nestable timed region; created via :meth:`Recorder.span`."""

    __slots__ = ("recorder", "name", "depth", "start", "elapsed")

    def __init__(self, recorder: "Recorder", name: str):
        self.recorder = recorder
        self.name = name
        self.depth = 0
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        self.depth = self.recorder._enter_span()
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = perf_counter() - self.start
        self.recorder._exit_span(self)
        return False


class Recorder:
    """Thread-safe sink for counters, phase timers, and trace spans.

    One recorder describes one logical computation (one ``compute_kdv``
    call, one benchmark cell).  Worker threads/processes use private
    recorders whose snapshots the parent :meth:`merge`\\ s, so no lock ever
    crosses a process boundary.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, PhaseTimer] = {}
        self._spans: "deque[dict]" = deque(maxlen=MAX_SPANS)
        self._epoch = perf_counter()
        self._local = threading.local()

    # -- counters ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name, self._lock))

    def count(self, name: str, n: int = 1) -> None:
        """Shorthand for ``recorder.counter(name).add(n)``."""
        self.counter(name).add(n)

    def counter_value(self, name: str) -> int:
        c = self._counters.get(name)
        return 0 if c is None else c.value

    # -- gauges ------------------------------------------------------------

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge(name, self._lock))

    def set_gauge(self, name: str, value: "int | float") -> None:
        """Shorthand for ``recorder.gauge(name).set(value)``."""
        self.gauge(name).set(value)

    def gauge_value(self, name: str) -> "int | float":
        g = self._gauges.get(name)
        return 0 if g is None else g.value

    # -- phase timers ------------------------------------------------------

    def timer(self, name: str) -> PhaseTimer:
        """The named phase timer, created on first use."""
        try:
            return self._timers[name]
        except KeyError:
            with self._lock:
                return self._timers.setdefault(name, PhaseTimer(name, self._lock))

    def phase_seconds(self, name: str) -> float:
        t = self._timers.get(name)
        return 0.0 if t is None else t.total_seconds

    # -- spans -------------------------------------------------------------

    def span(self, name: str) -> Span:
        """A nestable timed region: ``with recorder.span("index_build"):``."""
        return Span(self, name)

    def _enter_span(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _exit_span(self, span: Span) -> None:
        self._local.depth = max(getattr(self._local, "depth", 1) - 1, 0)
        with self._lock:
            self._spans.append(
                {
                    "name": span.name,
                    "depth": span.depth,
                    "start_s": span.start - self._epoch,
                    "elapsed_s": span.elapsed,
                }
            )
        # keep phase totals complete whichever primitive the call site used
        self.timer(span.name).add(span.elapsed)

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able dump of everything recorded so far."""
        with self._lock:
            return {
                "schema": RECORDER_SCHEMA,
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "phases": {
                    n: {"total_s": t.total_seconds, "calls": t.calls}
                    for n, t in self._timers.items()
                },
                "spans": list(self._spans),
            }

    def merge(self, other: "Recorder | dict") -> None:
        """Fold another recorder (or its snapshot) into this one.

        Counters and phase totals add; spans append, keeping the newest
        :data:`MAX_SPANS` (their start offsets are relative to the *donor's*
        epoch, so merged spans describe durations, not a shared timeline).
        This is how per-block worker recorders combine: merged counters
        equal the serial sweep's counts exactly.
        """
        snap = other.snapshot() if isinstance(other, Recorder) else other
        for name, value in snap.get("counters", {}).items():
            self.counter(name).add(value)
        # gauges are last-value instruments: the donor's reading wins
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, phase in snap.get("phases", {}).items():
            self.timer(name).add(phase["total_s"], phase["calls"])
        spans = snap.get("spans", [])
        if spans:
            with self._lock:
                self._spans.extend(dict(s) for s in spans[-MAX_SPANS:])

    def summary(self) -> str:
        """Human-readable phase/counter breakdown (the CLI ``--stats`` view)."""
        return format_summary(self.snapshot())


class _NullSpan:
    """Shared no-op span; ``__exit__`` takes explicit args so entering and
    leaving the context allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0

    def add(self, n: int = 1) -> None:
        return None


class _NullGauge:
    __slots__ = ()
    name = ""
    value = 0

    def set(self, value) -> None:
        return None


class _NullTimer:
    __slots__ = ()
    name = ""
    total_seconds = 0.0
    calls = 0

    def add(self, seconds: float, calls: int = 1) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_TIMER = _NullTimer()


class NullRecorder:
    """The do-nothing recorder: every accessor returns a cached singleton,
    so hot paths holding one perform zero allocations and zero clock reads.

    Instrumented call sites check ``recorder.enabled`` (or ``is None``) and
    skip timing entirely, so passing :data:`NULL_RECORDER` is exactly as
    cheap as passing ``None``.
    """

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def count(self, name: str, n: int = 1) -> None:
        return None

    def counter_value(self, name: str) -> int:
        return 0

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def set_gauge(self, name: str, value) -> None:
        return None

    def gauge_value(self, name: str) -> int:
        return 0

    def timer(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def phase_seconds(self, name: str) -> float:
        return 0.0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> dict:
        return {
            "schema": RECORDER_SCHEMA,
            "counters": {},
            "gauges": {},
            "phases": {},
            "spans": [],
        }

    def merge(self, other) -> None:
        return None

    def summary(self) -> str:
        return "(recording disabled)"


#: Shared no-op instance; safe to pass anywhere a recorder is accepted.
NULL_RECORDER = NullRecorder()


def active(recorder: "Recorder | NullRecorder | None") -> "Recorder | None":
    """Normalize an optional recorder argument to ``Recorder`` or ``None``.

    Call sites branch on the result once, keeping the disabled path free of
    attribute lookups inside loops.
    """
    if recorder is None or not recorder.enabled:
        return None
    return recorder


def format_summary(snapshot: dict) -> str:
    """Render a snapshot as an aligned phase/counter breakdown.

    Phases print by descending total time with their share of the largest
    phase; counters print alphabetically.  Works on merged dumps too.
    """
    lines: list[str] = []
    phases = snapshot.get("phases", {})
    if phases:
        lines.append("phase breakdown:")
        total = sum(p["total_s"] for p in phases.values()) or 1.0
        width = max(len(n) for n in phases)
        ordered = sorted(phases.items(), key=lambda kv: -kv[1]["total_s"])
        for name, p in ordered:
            lines.append(
                f"  {name:<{width}}  {p['total_s']:9.4f}s"
                f"  {100.0 * p['total_s'] / total:5.1f}%"
                f"  ({p['calls']:,} call{'s' if p['calls'] != 1 else ''})"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:,}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:,}")
    if not lines:
        return "(nothing recorded)"
    return "\n".join(lines)
