"""The simulation runner: virtual time outside, real ``TileService`` inside.

The hard problem this module solves is *deterministic saturation*.  The
service's interesting behaviour — coalescing, backpressure, the quality
ladder, 503s — only appears when its render pool is genuinely occupied,
but real thread timing is not reproducible.  The runner squares the circle
with two mechanisms:

* **A virtual render pool.**  The service's ``executor`` is a
  :class:`_VirtualPool`.  Its ``submit`` only queues each render (leaders
  and background refinements alike) FIFO behind the scenario's
  ``workers`` slots; a render that takes a slot completes the
  :class:`~repro.simload.scenarios.CostModel`'s ``render_s`` virtual
  seconds later.  At that instant the pool runs the render, resolves its
  future, answers the requests waiting on it and starts the next queued
  render.  Until then the service's real ``_inflight`` table holds the
  render, so its own admission/degradation/rejection logic runs
  unmodified.
* **One thread.**  The simulator thread makes every service call
  (``request_tile(wait=False)`` never blocks; a request that must wait
  holds a :class:`~repro.serve.PendingTile` until its render completes),
  runs all ingest, ticks and renders, and owns the virtual clock the
  service reads.  A run starts no other thread.

Latency is *virtual* throughout: queueing delay in the virtual pool plus
the cost model's constants.  Nothing in a run reads the wall clock, so a
(scenario, seed) pair reproduces byte-for-byte on any host.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.points import PointSet
from ..serve import (
    PendingTile,
    QualityPolicy,
    ServiceOverloaded,
    TileService,
)
from ..viz.tiles import TileScheme
from .arrivals import arrival_times, rate_at
from .events import EventLoop, SimClock
from .metrics import (
    DEADLINE,
    ERROR,
    OK,
    OVERLOAD,
    RequestRecord,
    find_knee,
    summarize,
    trace_digest,
    trace_lines,
)
from .scenarios import Scenario
from .sessions import SessionWalk

__all__ = ["SimResult", "SimulationRunner", "run_scenario", "sweep"]


@dataclass
class _RenderJob:
    """One render submitted to the virtual pool."""

    fn: Callable
    args: tuple
    future: Future = field(default_factory=Future)
    waiters: "list[tuple[RequestRecord, PendingTile]]" = field(
        default_factory=list
    )


class _VirtualPool:
    """The service's render pool, run in virtual time on the simulator
    thread.

    ``submit`` is called while the service holds its lock, so it only
    queues and schedules: running the render inline would deadlock.  Jobs
    take one of ``workers`` slots in FIFO order and complete ``render_s``
    virtual seconds later, when :meth:`_finish` runs them.
    """

    def __init__(self, loop: EventLoop, workers: int, render_s: float, answer):
        self._loop = loop
        self._render_s = render_s
        self._answer = answer
        self._slots_free = workers
        self._queue: "deque[_RenderJob]" = deque()
        #: unfinished jobs by future, so a PendingTile finds its job
        self.jobs: "dict[Future, _RenderJob]" = {}

    def submit(self, fn, *args) -> Future:
        job = _RenderJob(fn, args)
        self.jobs[job.future] = job
        if self._slots_free > 0:
            self._start(job)
        else:
            self._queue.append(job)
        return job.future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing to stop: no job ever ran on a thread of its own."""

    def _start(self, job: _RenderJob) -> None:
        self._slots_free -= 1
        done_vt = self._loop.clock.now + self._render_s
        self._loop.schedule(done_vt, lambda: self._finish(job))

    def _finish(self, job: _RenderJob) -> None:
        """A render's virtual completion: run it (refinements it submits
        queue behind the jobs already waiting), resolve its future, answer
        every waiter, then feed the freed slot."""
        del self.jobs[job.future]
        try:
            job.future.set_result(job.fn(*job.args))
        except Exception as exc:  # pragma: no cover - requires a render bug
            job.future.set_exception(exc)
        for record, pending in job.waiters:
            self._answer(record, pending)
        self._slots_free += 1
        while self._slots_free > 0 and self._queue:
            self._start(self._queue.popleft())


@dataclass
class SimResult:
    """Everything one run produced."""

    scenario: str
    seed: int
    records: "list[RequestRecord]"
    metrics: dict
    stats: dict
    events_processed: int

    @property
    def trace(self) -> "list[str]":
        return trace_lines(self.records)

    @property
    def digest(self) -> str:
        return trace_digest(self.records)


def _make_dataset(
    scenario: Scenario, rng: np.random.Generator
) -> "tuple[PointSet, TileScheme, float, np.ndarray]":
    """Synthetic clustered events in a unit-ish world, with timestamps.

    Returns the seed point set, its tile scheme, a bandwidth sized to the
    world, and the cluster centers (ingest batches re-use them so live
    events land where the crowd looks).
    """
    centers = rng.uniform(0.2, 0.8, size=(scenario.n_clusters, 2))
    n = scenario.n_points
    which = rng.integers(0, scenario.n_clusters, size=n)
    xy = centers[which] + rng.normal(0.0, 0.06, size=(n, 2))
    xy = np.clip(xy, 0.0, 1.0)
    # seed events carry slightly-past timestamps so a window view starts
    # populated instead of empty
    t = rng.uniform(-1.0, 0.0, size=n)
    t.sort()
    points = PointSet(xy=xy, t=t, name=f"simload-{scenario.name}")
    scheme = TileScheme.for_points(xy)
    bandwidth = 0.08 * scheme.world.width
    return points, scheme, bandwidth, centers


class SimulationRunner:
    """Run one scenario at one seed; see the module docstring for how."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        self.scenario = scenario
        self.seed = int(seed)
        # independent, reproducible streams per concern so e.g. a longer
        # arrival trace cannot perturb the session walk
        ss = np.random.SeedSequence(self.seed)
        s_data, s_arrivals, s_sessions, s_ingest = ss.spawn(4)
        self._rng_data = np.random.default_rng(s_data)
        self._rng_arrivals = np.random.default_rng(s_arrivals)
        self._rng_sessions = np.random.default_rng(s_sessions)
        self._rng_ingest = np.random.default_rng(s_ingest)

        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.records: "list[RequestRecord]" = []
        self._pool = _VirtualPool(
            self.loop, scenario.workers, scenario.cost.render_s, self._answer
        )
        self._offered = 0

        (
            self.points,
            self.scheme,
            self.bandwidth,
            self.centers,
        ) = _make_dataset(scenario, self._rng_data)
        self.walk = SessionWalk(
            scenario.session, self.scheme, self._rng_sessions
        )
        self.service = self._build_service()

    def _build_service(self) -> TileService:
        sc = self.scenario
        quality = None
        if sc.quality:
            quality = QualityPolicy(
                pyramid_levels=(1, 2),
                coreset_sizes=(min(1024, sc.n_points // 2), 256),
                calibration_size=32,
                degraded_ttl_s=3.0,
            )
        return TileService(
            self.points,
            self.scheme,
            tile_size=sc.tile_size,
            bandwidth=self.bandwidth,
            max_zoom=sc.max_zoom,
            workers=sc.workers,
            queue_limit=sc.queue_limit,
            deadline_s=None,  # deadlines are virtual, enforced sim-side
            cache_tiles=sc.cache_tiles,
            cache_ttl_s=sc.cache_ttl_s,
            window_s=sc.window_s,
            tick_s=None,  # ticks are explicit simulator events
            quality=quality,
            clock=self.clock,
            executor=self._pool,
        )

    def _answer(self, record: RequestRecord, pending: PendingTile) -> None:
        """Resolve one request whose render completes now."""
        record.latency_s = self.clock.now - record.t
        try:
            response = pending.resolve()
        except Exception:  # pragma: no cover - requires a render bug
            record.outcome, record.tier = ERROR, None
            return
        deadline = self.scenario.deadline_s
        if deadline is not None and record.latency_s > deadline:
            record.outcome, record.tier = DEADLINE, None
            self.service.recorder.count("serve.rejected.deadline")
        else:
            record.outcome, record.tier = OK, response.tier

    # -- workload events ----------------------------------------------------

    def _in_flash(self) -> bool:
        arr = self.scenario.arrivals
        return arr.shape == "flash" and (
            arr.spike_start_s <= self.clock.now < arr.spike_end_s
        )

    def _on_request(self, seq: int) -> None:
        sc = self.scenario
        zoom, tx, ty = self.walk.next_tile(in_flash=self._in_flash())
        window = None
        if sc.window_request_fraction > 0 and (
            float(self._rng_sessions.random()) < sc.window_request_fraction
        ):
            window = sc.window_s
        record = RequestRecord(
            seq=seq,
            t=self.clock.now,
            zoom=zoom,
            tx=tx,
            ty=ty,
            window=window,
            outcome=ERROR,
            tier=None,
            latency_s=0.0,
        )
        self.records.append(record)
        try:
            answer = self.service.request_tile(
                zoom, tx, ty, window=window, wait=False
            )
        except ServiceOverloaded:
            record.outcome = OVERLOAD
            record.latency_s = sc.cost.hit_s
        except Exception:  # pragma: no cover - requires a service bug
            record.outcome = ERROR
            record.latency_s = sc.cost.hit_s
        else:
            if isinstance(answer, PendingTile):
                self._pool.jobs[answer.future].waiters.append((record, answer))
            else:
                record.outcome = OK
                record.tier = answer.tier
                record.latency_s = (
                    sc.cost.hit_s
                    if answer.tier == "exact"
                    else sc.cost.degraded_s
                )

    def _on_ingest(self) -> None:
        spec = self.scenario.ingest
        rng = self._rng_ingest
        n = spec.batch
        n_cluster = int(round(n * spec.cluster_fraction))
        which = rng.integers(0, len(self.centers), size=n_cluster)
        clustered = self.centers[which] + rng.normal(
            0.0, 0.06, size=(n_cluster, 2)
        )
        uniform = rng.uniform(0.0, 1.0, size=(n - n_cluster, 2))
        xy = np.clip(np.vstack([clustered, uniform]), 0.0, 1.0)
        t = np.full(n, self.clock.now)
        self.service.ingest(xy, t=t)

    def _on_tick(self) -> None:
        self.service.tick(now=self.clock.now)

    # -- run ----------------------------------------------------------------

    def run(self) -> SimResult:
        sc = self.scenario
        arrivals = arrival_times(sc.arrivals, sc.duration_s, self._rng_arrivals)
        self._offered = len(arrivals)
        for seq, t in enumerate(arrivals):
            self.loop.schedule(float(t), lambda s=seq: self._on_request(s))
        if sc.ingest is not None:
            t = sc.ingest.interval_s
            while t < sc.duration_s:
                self.loop.schedule(t, self._on_ingest)
                t += sc.ingest.interval_s
        if sc.tick_s is not None:
            t = sc.tick_s
            while t < sc.duration_s:
                self.loop.schedule(t, self._on_tick)
                t += sc.tick_s

        try:
            # drain completely: renders schedule their own completion
            # events, and refinement cascades can extend the heap
            self.loop.run()
            stats = self.service.stats()
        finally:
            self.service.close(drain=True)

        end = max(sc.duration_s, self.clock.now)
        metrics = summarize(
            self.records, stats, duration_s=end, offered=self._offered
        )
        metrics["arrival_peak_rps"] = round(
            max(rate_at(sc.arrivals, t) for t in np.linspace(0, sc.duration_s, 101)),
            4,
        )
        return SimResult(
            scenario=sc.name,
            seed=self.seed,
            records=self.records,
            metrics=metrics,
            stats=stats,
            events_processed=self.loop.processed,
        )


def run_scenario(scenario: Scenario, seed: int = 0) -> SimResult:
    """One-shot convenience: build a runner and run it."""
    return SimulationRunner(scenario, seed=seed).run()


def sweep(
    scenario: Scenario,
    seed: int = 0,
    factors: "tuple[float, ...]" = (0.25, 0.5, 1.0, 2.0, 4.0),
    shed_threshold: float = 0.01,
) -> dict:
    """Open-loop capacity sweep: rerun the scenario at stepped offered
    rates (each level an independent, identically seeded run) and find the
    max-sustainable-QPS knee."""
    levels = []
    for factor in factors:
        rate = scenario.arrivals.rate * factor
        result = run_scenario(scenario.at_rate(rate), seed=seed)
        levels.append((round(rate, 4), result))
    blocks = [(rate, r.metrics) for rate, r in levels]
    return {
        "scenario": scenario.name,
        "seed": seed,
        "levels": blocks,
        "knee": find_knee(blocks, shed_threshold=shed_threshold),
        "shed_threshold": shed_threshold,
    }
