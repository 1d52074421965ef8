"""Coordinator: dispatches shard plans to a worker pool and merges results.

The coordinator owns the fault-tolerance and scheduling policy; the workers
stay dumb:

* **One loop per render, no threads.**  A render's shards are driven from
  the thread that calls :meth:`Coordinator.render_sweep`, through one
  ``selectors`` loop over the sockets of its attempts in flight: start
  queued shards on idle workers, wait, handle each frame as it arrives,
  then check deadlines and steal triggers.  Concurrent renders share the
  pool through a condition variable, one shard in flight per worker.
* **Deterministic merge.**  Shard results are written into the output grid
  at their planned row band, so the assembled grid is a pure row
  concatenation — bit-identical to the serial sweep for every shard count
  and every arrival order (see :mod:`repro.dist.plan` for the argument).
* **Worker deaths.**  A connection that breaks mid-shard (EOF, reset,
  protocol corruption) marks that worker dead and resubmits the shard to a
  survivor.  Deaths do not consume the retry budget — a shard can migrate
  across any number of dying workers as long as somebody (ultimately the
  coordinator itself) remains to run it.
* **Stragglers.**  Each dispatch attempt gets ``deadline_s`` of wall clock,
  measured from the last sign of life (result, heartbeat); a worker that
  heartbeats is slow, not dead.  An expired attempt is retried elsewhere
  with exponential backoff, up to ``max_retries`` times; exhaustion raises
  :class:`~repro.dist.errors.DistTimeout` rather than hanging the render.
* **Cost-balanced planning.**  The default ``balance="cost"`` mode routes
  through :mod:`repro.dist.sched`: per-row envelope counts are priced by an
  online-calibrated cost model (warm-started from ``sched_state`` when
  given) and shard boundaries are refined until the predicted weighted
  makespan stops dropping, with per-worker capacity weights learned from
  observed throughput (``docs/scheduling.md``).
* **Work stealing.**  A shard whose elapsed time exceeds its pool-normal
  prediction by ``steal_factor`` donates the unstarted half of its band to
  an idle worker: the straggler gets a CANCEL frame truncating it at the
  steal row, a thief shard is minted for the tail, and — because any
  contiguous row band plus its halo is self-contained — the merge stays
  bit-identical.  If the straggler finishes the stolen rows anyway (the
  double-completion race), its overlap is discarded deterministically: the
  thief always owns the stolen rows.
* **Graceful degradation.**  When no workers are reachable — or every one
  of them dies mid-render — remaining shards are computed in-process with
  the same :func:`~repro.dist.worker.compute_shard` code path, so a
  coordinator with an empty worker list is just a sharded serial sweep.

Observability: each render merges per-shard worker recorders plus the
coordinator's own counters (``dist.shards``, ``dist.retries``,
``dist.worker_deaths``, ``dist.bytes_rx``/``tx``, ``dist.shm_bytes``,
``dist.shm_demotions``, ``dist.local_shards``, ``dist.heartbeats``,
``dist.steals``, ``dist.steal_rows``, ``dist.cancels``,
``dist.steal_discarded_rows``, ``dist.sched.refine_moves``) and phase
timers (``dist.plan``, ``dist.dispatch``, ``dist.merge``) into the recorder
handed to :meth:`Coordinator.render_sweep` and the coordinator's own
long-lived recorder (the one ``/metricz`` sees).  The scheduling outcome of
the most recent render — per-shard times, predictions, steal activity — is
kept on :attr:`Coordinator.last_report`.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
import weakref

import numpy as np

from ..obs import Recorder, active
from . import proto, shm
from .errors import ConnectionClosed, DistError, DistTimeout, ProtocolError
from .plan import ShardPlan, band_halo, plan_shards
from .sched import (
    CostModel,
    RenderReport,
    ShardRecord,
    engine_key,
    pairs_prefix,
    plan_shards_cost,
)
from .shm import KeptPair
from .worker import compute_shard

__all__ = [
    "Coordinator",
    "WorkerAddress",
    "parse_worker_addrs",
    "set_default_coordinator",
    "get_default_coordinator",
    "resolve_coordinator",
]

#: Environment variable listing worker addresses (``host:port,host:port``)
#: that ``backend="dist"`` uses when no coordinator is passed explicitly.
WORKERS_ENV = "REPRO_DIST_WORKERS"

#: Balance modes the coordinator accepts: the two pure planner modes from
#: :mod:`repro.dist.plan` plus the cost-model mode from
#: :mod:`repro.dist.sched`.
COORD_BALANCE_MODES = ("cost", "points", "rows")


def parse_worker_addrs(spec: str) -> "list[tuple[str, int]]":
    """Parse ``"host:port,host:port"`` (whitespace tolerated) into pairs."""
    addrs: list[tuple[str, int]] = []
    for item in spec.replace(",", " ").split():
        host, _, port = item.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"bad worker address {item!r}; expected host:port"
            )
        addrs.append((host, int(port)))
    return addrs


class WorkerAddress:
    """One configured worker endpoint and its connection state."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self.sock: "socket.socket | None" = None
        self.hello: "dict | None" = None
        #: Set when a send/recv on this worker failed; cleared on reconnect.
        self.dead = False
        #: Claimed by a render (one in-flight shard per worker).
        self.busy = False
        #: Cleared when a runtime shm failure demotes this worker to pickle.
        self.shm_ok = True

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else ("up" if self.sock else "down")
        return f"WorkerAddress({self.addr}, {state})"


class _ShardJob:
    """Scheduling state for one unit of work during a render.

    ``stop`` is the job's current exclusive end row; work stealing shrinks
    it, never grows it.  Thief jobs minted by steals carry ``depth=1`` and
    are never stolen from again.  ``timeouts`` counts expired attempts
    against the retry budget, ``attempts`` (deaths and timeouts) sets the
    backoff exponent, and a timed-out job waits in the queue until
    ``not_before``.
    """

    __slots__ = (
        "shard_id", "row_start", "stop", "depth", "steals", "stolen_from",
        "timeouts", "attempts", "not_before",
    )

    def __init__(
        self,
        shard_id: int,
        row_start: int,
        row_stop: int,
        depth: int = 0,
        stolen_from: "int | None" = None,
    ):
        self.shard_id = shard_id
        self.row_start = row_start
        self.stop = row_stop
        self.depth = depth
        self.steals = 0
        self.stolen_from = stolen_from
        self.timeouts = 0
        self.attempts = 0
        self.not_before = 0.0


class _Attempt:
    """One job dispatched to one worker, waiting for its RESULT."""

    __slots__ = (
        "job", "worker", "row_stop", "predicted", "started", "last_alive",
        "rows_done",
    )

    def __init__(self, job: _ShardJob, worker: "WorkerAddress", predicted):
        self.job = job
        self.worker = worker
        #: The band's end row at dispatch; a RESULT without ``row_stop``
        #: computed all of it.
        self.row_stop = job.stop
        self.predicted = predicted
        self.started = time.monotonic()
        self.last_alive = self.started
        self.rows_done = 0


class _RenderState:
    """One render's dispatcher, run on the thread that called
    :meth:`Coordinator.render_sweep`.

    It owns the job queue (widest predicted band first), the attempts in
    flight and one selector over their sockets.  Each pass of :meth:`run`
    starts queued jobs on idle workers, waits on the selector, handles each
    frame as it arrives, then checks the deadlines and steal triggers of
    the attempts that sent nothing.
    """

    def __init__(
        self,
        coord: "Coordinator",
        plan: ShardPlan,
        grid: np.ndarray,
        pairs: np.ndarray,
        ekey: str,
        make_task,
        shared: bool,
        rec: Recorder,
    ):
        self.coord = coord
        self.grid = grid
        self.pairs = pairs
        self.ekey = ekey
        self.model = coord.cost_model
        #: ``make_task(shard_id, row_start, row_stop, shared)``: the TASK
        #: payload, offsets into the render's segments when ``shared``.
        self.make_task = make_task
        self.shared = shared
        self.rec = rec
        #: Widest predicted band first: the longest-processing-time order
        #: pairs expensive bands with the fastest idle workers (the
        #: capacity-aware ``_claim_idle`` picks them).
        self.queue = sorted(
            (
                _ShardJob(s.shard_id, s.row_start, s.row_stop)
                for s in plan
                if s.rows > 0
            ),
            key=lambda job: -self.band_pairs(job.row_start, job.stop),
        )
        self.selector = selectors.DefaultSelector()
        self.snapshots: list[dict] = []
        self.records: list[ShardRecord] = []
        self._next_shard_id = len(plan)
        #: The first failure (ERROR frame, exhausted retries).  Once set,
        #: nothing new starts; the attempts in flight finish or expire, and
        #: then :meth:`run` raises it.
        self.error: "BaseException | None" = None
        #: Set when an attempt was given up on (deadline expiry, worker
        #: death, shm demotion, ERROR frame): its worker may still write
        #: into this render's segments, so they must not be reused.
        self.abandoned = False

    def band_pairs(self, row_start: int, row_stop: int) -> float:
        if row_stop <= row_start:
            return 0.0
        return float(self.pairs[row_stop] - self.pairs[row_start])

    def predict(self, row_start: int, row_stop: int) -> "float | None":
        """Pool-normal predicted seconds for a band (``None`` pre-calibration)."""
        return self.model.predict_seconds(
            self.ekey,
            row_stop - row_start,
            self.band_pairs(row_start, row_stop),
        )

    def _inflight(self) -> "list[_Attempt]":
        return [key.data for key in self.selector.get_map().values()]

    # -- the loop ----------------------------------------------------------

    def run(self) -> None:
        """Drive every job to completion, then raise the first failure."""
        try:
            while self._inflight() or (self.queue and self.error is None):
                self._start_ready()
                if self._inflight():
                    self._wait_and_handle()
                elif self.queue and self.error is None:
                    self._idle()
        finally:
            # Whatever ends the loop (make_task raising, KeyboardInterrupt),
            # no worker stays checked out; one left mid-shard has a stream
            # nobody will read, so its connection goes.
            for att in self._inflight():
                self.abandoned = True
                self._drop(att, dead=True)
            self.selector.close()
        if self.error is not None:
            raise self.error

    def _start_ready(self) -> None:
        """Start queued jobs on idle workers, in queue order, until none is
        idle.  Jobs still waiting out a backoff keep their place."""
        if self.error is not None:
            return
        # A job whose whole band was stolen away has nothing left to run.
        self.queue = [job for job in self.queue if job.stop > job.row_start]
        now = time.monotonic()
        for job in [job for job in self.queue if job.not_before <= now]:
            worker = self.coord._claim_idle()
            if worker is None:
                return
            self.queue.remove(job)
            self._start(job, worker)

    def _idle(self) -> None:
        """Nothing of this render is in flight and no worker was idle: wait
        out a backoff, wait for a concurrent render to free a worker, or —
        when no live worker exists at all — compute the next job in
        process."""
        now = time.monotonic()
        ready = [job for job in self.queue if job.not_before <= now]
        if not ready:
            # Nothing in flight, so this sleep stalls no other attempt.
            time.sleep(min(job.not_before for job in self.queue) - now)
        elif not self.coord._await_worker():
            self.queue.remove(ready[0])
            self._run_local(ready[0])

    def _wait_and_handle(self) -> None:
        coord = self.coord
        now = time.monotonic()
        inflight = self._inflight()
        if coord.deadline_s is None:
            slice_s = 0.5
        else:
            slice_s = min(
                [0.2]
                + [coord.deadline_s - (now - a.last_alive) for a in inflight]
            )
        if self.error is None:  # wake for the end of a queued backoff
            slice_s = min(
                [slice_s]
                + [j.not_before - now for j in self.queue if j.not_before > now]
            )
        slice_s = max(slice_s, 0.0)
        heard = set()
        for key, _ in self.selector.select(slice_s):
            heard.add(key.data)
            self._on_frame(key.data)
        now = time.monotonic()
        for att in self._inflight():
            if att in heard:
                continue
            if (
                coord.deadline_s is not None
                and now - att.last_alive >= coord.deadline_s
            ):
                self._give_up(att, timed_out=True)
            else:
                self._maybe_steal(att, now)

    # -- attempts ----------------------------------------------------------

    def _start(self, job: _ShardJob, worker: "WorkerAddress") -> None:
        """Send one job to a claimed worker.  The transport is picked per
        worker: an shm-capable one gets the offsets-only task, everyone else
        the pickle task."""
        shared = self.shared and self.coord._worker_shm_ok(worker)
        try:
            task = self.make_task(job.shard_id, job.row_start, job.stop, shared)
        except BaseException:
            self.coord._checkin(worker)
            raise
        att = _Attempt(job, worker, self.predict(job.row_start, job.stop))
        self.selector.register(worker.sock, selectors.EVENT_READ, att)
        try:
            self.rec.count(
                "dist.bytes_tx", proto.send_msg(worker.sock, proto.MSG_TASK, task)
            )
        except OSError:
            self._give_up(att)

    def _run_local(self, job: _ShardJob) -> None:
        r0, r1 = job.row_start, job.stop
        predicted = self.predict(r0, r1)
        self.rec.count("dist.local_shards", 1)
        t0 = time.perf_counter()
        block, snapshot = compute_shard(
            self.make_task(job.shard_id, r0, r1, False)
        )
        self._finish(
            job, "local", r1, block, snapshot, time.perf_counter() - t0,
            predicted,
        )

    def _drop(self, att: _Attempt, dead: bool = False) -> None:
        """Stop waiting on an attempt and check its worker back in."""
        self.selector.unregister(att.worker.sock)
        self.coord._checkin(att.worker, dead=dead)

    def _give_up(self, att: _Attempt, timed_out: bool = False) -> None:
        """Abandon an attempt whose connection broke or that sent nothing for
        ``deadline_s``, and requeue its job.

        The worker is checked in as dead either way: a timed-out one may
        still be computing the stale shard, and its eventual result would
        desynchronize the stream (the worker process survives and accepts a
        fresh connection).  Deaths never consume the retry budget — a job
        can migrate across any number of dying workers as long as somebody
        (ultimately this process) remains to run it.  A timed-out job waits
        out its backoff in the queue.
        """
        coord = self.coord
        self._drop(att, dead=True)
        self.abandoned = True
        self.rec.count("dist.retries", 1)
        job = att.job
        job.attempts += 1
        if not timed_out:
            self.rec.count("dist.worker_deaths", 1)
            self.queue.insert(0, job)
            return
        job.timeouts += 1
        if job.timeouts > coord.max_retries:
            if self.error is None:
                self.error = DistTimeout(
                    f"shard {job.shard_id} timed out "
                    f"{job.timeouts}x (deadline_s={coord.deadline_s}, "
                    f"max_retries={coord.max_retries})"
                )
            return
        job.not_before = time.monotonic() + min(
            coord.backoff_base_s * (2.0 ** (job.attempts - 1)),
            coord.backoff_max_s,
        )
        self.queue.insert(0, job)

    def _on_frame(self, att: _Attempt) -> None:
        """Read and handle one frame from an attempt's worker."""
        try:
            msg_type, payload, nbytes = proto.recv_msg(
                att.worker.sock, timeout=0.5
            )
        except (ConnectionClosed, ProtocolError, OSError):
            self._give_up(att)
            return
        self.rec.count("dist.bytes_rx", nbytes)
        job = att.job
        if msg_type == proto.MSG_HEARTBEAT:
            self.rec.count("dist.heartbeats", 1)
            att.last_alive = time.monotonic()
            if isinstance(payload, dict) and payload.get("shard_id") == job.shard_id:
                att.rows_done = max(
                    att.rows_done, int(payload.get("rows_done") or 0)
                )
            self._maybe_steal(att, att.last_alive)
        elif msg_type == proto.MSG_RESULT:
            if payload.get("shard_id") != job.shard_id:
                # A stale result from an earlier (timed-out) dispatch on a
                # reused connection — cannot happen because timed-out
                # connections are abandoned, so treat it as corruption.
                self._give_up(att)
                return
            elapsed = time.monotonic() - att.started
            self._drop(att)
            result_stop = int(payload.get("row_stop", att.row_stop))
            block = None
            if payload.get("shm"):
                # The band is already in the response segment.
                self.rec.count(
                    "dist.shm_bytes", int(payload.get("shm_bytes") or 0)
                )
            else:
                block = payload["block"]
            self._finish(
                job, att.worker.addr, result_stop, block,
                payload.get("snapshot"), elapsed, att.predicted,
            )
        elif msg_type == proto.MSG_ERROR:
            self._drop(att)
            self.abandoned = True
            if payload.get("shm_failed"):
                # The worker could not map the segments (stale namespace,
                # permissions, ...): demote it to pickle for the life of the
                # pool and resubmit — degrade the transport, not the render.
                att.worker.shm_ok = False
                self.rec.count("dist.shm_demotions", 1)
                self.rec.count("dist.retries", 1)
                self.queue.insert(0, job)
            elif self.error is None:
                # The shard is poisoned (e.g. an unknown engine spec), not
                # the worker.
                self.error = DistError(
                    f"worker {att.worker.addr} failed shard "
                    f"{payload.get('shard_id')}: {payload.get('error')}"
                )
        # other frame types (PONG from an earlier probe) are ignored

    def _finish(
        self,
        job: _ShardJob,
        worker_key: str,
        result_stop: int,
        block: "np.ndarray | None",
        snapshot: "dict | None",
        elapsed: float,
        predicted: "float | None",
    ) -> None:
        """Commit one successful attempt: write the rows this job still owns
        (steals may have shrunk it since dispatch — the thief always wins
        the overlap), feed the calibration, and record the outcome."""
        row_start = job.row_start
        use_stop = min(result_stop, job.stop)
        if block is not None and use_stop > row_start:
            self.grid[row_start:use_stop] = block[: use_stop - row_start]
        if result_stop > use_stop:
            # Double-completion race: the straggler outran its CANCEL and
            # computed rows a thief owns.  Both computed identical bytes
            # (same rows, same halo contract), and the thief's copy is the
            # one merged — the discard is deterministic by construction.
            self.rec.count("dist.steal_discarded_rows", result_stop - use_stop)
        if result_stop > row_start:
            self.model.observe(
                self.ekey,
                worker_key,
                result_stop - row_start,
                self.band_pairs(row_start, result_stop),
                elapsed,
            )
        self.records.append(
            ShardRecord(
                shard_id=job.shard_id,
                row_start=row_start,
                row_stop=use_stop,
                computed_rows=max(result_stop - row_start, 0),
                pairs=self.band_pairs(row_start, result_stop),
                worker=worker_key,
                elapsed_s=elapsed,
                predicted_s=predicted,
                stolen_from=job.stolen_from,
            )
        )
        if snapshot is not None:
            self.snapshots.append(snapshot)

    # -- work stealing -----------------------------------------------------

    def _maybe_steal(self, att: _Attempt, now: float) -> None:
        """Evaluate the steal trigger for an attempt in flight; fires at most
        one steal per call.

        A steal requires: stealing enabled and no failure pending, a
        primary (depth-0) job under its donation cap, at least
        ``steal_min_s`` on the clock, a calibrated prediction exceeded
        ``steal_factor`` times *pool-normal* (so a slow worker is late by the
        pool's standards, not its own), a worthwhile tail, and an idle
        worker.  The stolen tail is the unstarted half of the remaining band
        — except for a repeat steal from a job that has made zero progress
        (a wedged or napping worker), which donates everything left.  The
        thief starts on the idle worker that allowed the steal, in this same
        step, so no second steal can count on that worker.
        """
        coord = self.coord
        job = att.job
        elapsed = now - att.started
        if (
            not coord.steal
            or self.error is not None
            or job.depth >= 1
            or job.steals >= coord.max_steals_per_shard
            or elapsed < coord.steal_min_s
        ):
            return
        stop = job.stop
        remaining = stop - (job.row_start + att.rows_done)
        if remaining <= 0:
            return
        predicted = self.predict(job.row_start, stop)
        if predicted is None:
            return
        if elapsed <= coord.steal_factor * max(predicted, 1e-6):
            return
        if att.rows_done == 0 and job.steals >= 1:
            steal_rows = remaining  # wedged straggler: take everything left
        else:
            steal_rows = remaining // 2
            if steal_rows < coord.min_steal_rows:
                return
        thief_worker = coord._claim_idle()
        if thief_worker is None:
            return
        steal_start = stop - steal_rows
        job.stop = steal_start
        job.steals += 1
        try:
            self.rec.count(
                "dist.bytes_tx",
                proto.send_msg(
                    att.worker.sock,
                    proto.MSG_CANCEL,
                    {"shard_id": job.shard_id, "row_stop": steal_start},
                ),
            )
            self.rec.count("dist.cancels", 1)
        except OSError:
            # The straggler is probably dead; its next read will say so.
            # The steal stands either way — the thief owns the tail now.
            pass
        self.rec.count("dist.steals", 1)
        self.rec.count("dist.steal_rows", steal_rows)
        thief = _ShardJob(
            self._next_shard_id,
            steal_start,
            stop,
            depth=job.depth + 1,
            stolen_from=job.shard_id,
        )
        self._next_shard_id += 1
        self._start(thief, thief_worker)


class Coordinator:
    """Renders shard plans across a pool of worker processes.

    Parameters
    ----------
    workers:
        ``(host, port)`` pairs, ``"host:port"`` strings, or a single
        comma-separated string.  May be empty: every shard then runs
        in-process (the graceful-degradation path, and the cheapest way to
        get a sharded render for tests).
    deadline_s:
        Per-attempt wall-clock budget for one shard, measured from the last
        sign of life from its worker (heartbeats reset it).  ``None``
        (default) disables straggler detection.
    max_retries:
        How many *timed-out* attempts a shard may burn before
        :class:`DistTimeout`.  Worker deaths do not consume this budget.
    backoff_base_s / backoff_max_s:
        Exponential backoff between retry attempts:
        ``min(base * 2**attempt, max)``.
    shards:
        Default shard count for renders that do not specify one; ``None``
        means one shard per connected worker (times ``shards_per_worker``),
        or 1 when running locally.
    shards_per_worker:
        Over-decomposition factor: more shards than workers lets survivors
        absorb a dead worker's load in smaller pieces.
    balance:
        Shard planner balance mode: ``"cost"`` (default; the cost-model
        allocate-then-refine planner from :mod:`repro.dist.sched`),
        ``"points"``, or ``"rows"`` (the pure geometric modes from
        :mod:`repro.dist.plan`).
    steal / steal_factor / steal_min_s / min_steal_rows /
    max_steals_per_shard:
        Work stealing: when a shard's elapsed time exceeds
        ``steal_factor`` times its pool-normal prediction (and at least
        ``steal_min_s`` — renders faster than that never steal), an idle
        worker claims the unstarted half of the band (at least
        ``min_steal_rows`` rows; a shard donates at most
        ``max_steals_per_shard`` times).  See ``docs/scheduling.md``.
    cost_model / sched_state:
        The shared :class:`~repro.dist.sched.CostModel` (one is created if
        not given).  ``sched_state`` names a JSON file to warm-start it
        from; :meth:`close` persists the calibration back to it.
    connect_timeout_s:
        TCP connect + handshake budget per worker.
    shm:
        Allow the zero-copy shared-memory shard transport (default on).
        It only actually engages per worker when the HELLO handshake shows
        the worker is shm-capable *and* on this machine (same ``node``
        token); remote or incapable workers keep the pickle transport, and
        a worker whose mapping fails at runtime is demoted to pickle for
        the life of the pool.  The coordinator keeps one segment pair
        across renders, refilled in place, and :meth:`close` unlinks it.
        See :mod:`repro.dist.shm`.
    recorder:
        Long-lived recorder accumulating across renders (e.g. the tile
        service's).  Each render *also* gets its counters merged into the
        per-call recorder passed to :meth:`render_sweep`.

    Thread safety: multiple threads may call :meth:`render_sweep`
    concurrently (the tile service's render pool does).  Each render runs
    its shards on its calling thread; workers are claimed under a
    condition variable so one shard is in flight per worker.
    """

    def __init__(
        self,
        workers=(),
        *,
        deadline_s: "float | None" = None,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 1.0,
        shards: "int | None" = None,
        shards_per_worker: int = 2,
        balance: str = "cost",
        steal: bool = True,
        steal_factor: float = 3.0,
        steal_min_s: float = 0.5,
        min_steal_rows: int = 8,
        max_steals_per_shard: int = 4,
        cost_model: "CostModel | None" = None,
        sched_state: "str | None" = None,
        connect_timeout_s: float = 5.0,
        shm: bool = True,
        recorder: "Recorder | None" = None,
    ):
        if isinstance(workers, str):
            workers = parse_worker_addrs(workers)
        self._workers: list[WorkerAddress] = []
        for w in workers:
            if isinstance(w, str):
                (pair,) = parse_worker_addrs(w)
                self._workers.append(WorkerAddress(*pair))
            else:
                host, port = w
                self._workers.append(WorkerAddress(host, port))
        self.deadline_s = deadline_s
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.default_shards = shards
        self.shards_per_worker = int(shards_per_worker)
        if balance not in COORD_BALANCE_MODES:
            raise ValueError(
                f"unknown balance mode {balance!r}; "
                f"available: {COORD_BALANCE_MODES}"
            )
        self.balance = balance
        self.steal = bool(steal)
        self.steal_factor = float(steal_factor)
        self.steal_min_s = float(steal_min_s)
        self.min_steal_rows = max(int(min_steal_rows), 1)
        self.max_steals_per_shard = int(max_steals_per_shard)
        self.sched_state = sched_state
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if sched_state:
            self.cost_model.load(sched_state)
        self.connect_timeout_s = float(connect_timeout_s)
        self.use_shm = bool(shm)
        self._node = proto.node_id()
        self.recorder = recorder if recorder is not None else Recorder()
        #: Scheduling outcome of the most recent completed render.
        self.last_report: "RenderReport | None" = None
        self._cond = threading.Condition()
        self._closed = False
        # The shared-memory segment pair kept between renders; unlinked by
        # close(), or when the coordinator is collected or the interpreter
        # exits without one.
        self._segments = KeptPair()
        self._release_segments = weakref.finalize(self, self._segments.close)

    # -- connection management --------------------------------------------

    def _connect_one(self, worker: WorkerAddress) -> bool:
        """(Re)establish one worker connection; returns success."""
        if worker.sock is not None and not worker.dead:
            return True
        if worker.sock is not None:
            try:
                worker.sock.close()
            except OSError:
                pass
            worker.sock = None
        try:
            sock = socket.create_connection(
                (worker.host, worker.port), timeout=self.connect_timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            worker.hello = proto.client_handshake(
                sock, timeout=self.connect_timeout_s
            )
        except (OSError, DistError):
            return False
        worker.sock = sock
        worker.dead = False
        specs = (worker.hello or {}).get("specs") or {}
        self.cost_model.hello(worker.addr, specs.get("cpus"))
        return True

    def connect(self) -> int:
        """Connect (or reconnect) every configured worker; returns the number
        alive.  Called automatically at the start of each render."""
        with self._cond:
            alive = 0
            for worker in self._workers:
                if worker.busy:
                    alive += 1  # in use by another render; known-alive
                elif self._connect_one(worker):
                    alive += 1
            return alive

    def num_alive(self) -> int:
        with self._cond:
            return sum(
                1 for w in self._workers if w.sock is not None and not w.dead
            )

    def _alive_addrs(self) -> list[str]:
        with self._cond:
            return [
                w.addr
                for w in self._workers
                if w.sock is not None and not w.dead
            ]

    def _claim_idle(self) -> "WorkerAddress | None":
        """Claim an idle live worker, or ``None`` when none is idle; never
        blocks.  When several workers are idle, the highest-capacity one
        wins, so big bands land on fast machines first."""
        with self._cond:
            idle = [
                w
                for w in self._workers
                if w.sock is not None and not w.dead and not w.busy
            ]
            if not idle:
                return None
            caps = self.cost_model.capacities([w.addr for w in idle])
            worker = idle[max(range(len(idle)), key=lambda i: caps[i])]
            worker.busy = True
            return worker

    def _await_worker(self) -> bool:
        """For a render with nothing in flight and no idle worker: ``False``
        when no live worker exists at all, else ``True`` after waiting up to
        0.1 s for a concurrent render to free one."""
        with self._cond:
            live = [w for w in self._workers if w.sock is not None and not w.dead]
            if live and all(w.busy for w in live):
                self._cond.wait(timeout=0.1)
            return bool(live)

    def _checkin(self, worker: WorkerAddress, dead: bool = False) -> None:
        with self._cond:
            worker.busy = False
            if dead:
                worker.dead = True
                if worker.sock is not None:
                    try:
                        worker.sock.close()
                    except OSError:
                        pass
                    worker.sock = None
            self._cond.notify_all()

    def close(self) -> None:
        """Politely shut down worker connections (not the workers themselves
        — they return to their accept loops), release every socket, unlink
        the kept shared-memory segments, and persist the cost-model
        calibration when ``sched_state`` is set."""
        self._release_segments()
        with self._cond:
            self._closed = True
            for worker in self._workers:
                if worker.sock is not None:
                    try:
                        proto.send_msg(worker.sock, proto.MSG_BYE)
                    except OSError:
                        pass
                    try:
                        worker.sock.close()
                    except OSError:
                        pass
                    worker.sock = None
        if self.sched_state:
            try:
                self.cost_model.save(self.sched_state)
            except OSError:
                pass

    def shutdown_workers(self) -> None:
        """Ask every connected worker process to exit (used by ``repro dist``
        over workers it spawned itself)."""
        with self._cond:
            for worker in self._workers:
                if worker.sock is None or worker.dead:
                    continue
                try:
                    proto.send_msg(worker.sock, proto.MSG_SHUTDOWN)
                    proto.recv_msg(worker.sock, timeout=2.0)
                except (OSError, DistError):
                    pass
                try:
                    worker.sock.close()
                except OSError:
                    pass
                worker.sock = None

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- rendering ---------------------------------------------------------

    def render_sweep(
        self,
        *,
        ysorted,
        y_centers: np.ndarray,
        xs_scaled: np.ndarray,
        cx: float,
        bandwidth: float,
        kernel,
        engine: dict,
        sorted_weights: "np.ndarray | None" = None,
        shards: "int | None" = None,
        collect: bool = False,
    ) -> "tuple[int, np.ndarray, list[dict]]":
        """Render one sweep across the pool; the distributed twin of the
        process-pool ``run_blocks`` call inside
        :func:`repro.core.sweep.sweep_kdv`.

        All geometry arguments are exactly the precomputed state ``sweep_kdv``
        holds at dispatch time; ``engine`` is a wire spec from
        :func:`repro.dist.worker.engine_spec`.  Returns ``(num_shards,
        unscaled_grid, snapshots)`` where ``snapshots`` (populated when
        ``collect``) are per-shard recorder dumps for the caller to merge —
        mirroring ``run_blocks``'s ``(num_blocks, grid, aux)`` contract.

        Raises :class:`DistTimeout` when a shard exhausts its retry budget on
        expired deadlines, and :class:`DistError` if the render cannot
        complete at all.
        """
        if self._closed:
            raise DistError("coordinator is closed")
        render_rec = Recorder()
        t_plan = time.perf_counter()
        if shards is None:
            shards = self.default_shards
        if shards is None:
            alive = self.connect()
            shards = max(alive * self.shards_per_worker, 1)
        else:
            self.connect()
        ekey = engine_key(engine)
        refine_moves = 0
        if self.balance == "cost":
            alive_addrs = self._alive_addrs()
            capacities = (
                self.cost_model.capacities(alive_addrs)
                if alive_addrs
                else None
            )
            sp = plan_shards_cost(
                ysorted,
                y_centers,
                bandwidth,
                shards,
                model=self.cost_model,
                engine=ekey,
                capacities=capacities,
            )
            plan = sp.plan
            pairs = sp.pairs
            refine_moves = sp.refine_moves
            if refine_moves:
                render_rec.count("dist.sched.refine_moves", refine_moves)
        else:
            plan = plan_shards(
                ysorted, y_centers, bandwidth, shards, balance=self.balance
            )
            # The pair prefix prices arbitrary sub-bands for calibration and
            # steal decisions, whichever planner produced the plan.
            pairs = pairs_prefix(ysorted, y_centers, bandwidth)
        render_rec.timer("dist.plan").add(time.perf_counter() - t_plan)
        render_rec.count("dist.shards", len(plan))

        # Transport selection: the render's inputs go into a shared-memory
        # segment pair only when some connected worker can actually map it
        # — a pickle-only pool pays nothing.  The pair is the coordinator's
        # kept one, refilled in place, unless a concurrent render holds it.
        pair = None
        if self.use_shm and shm.SHM_AVAILABLE:
            with self._cond:
                any_shm = any(
                    w.sock is not None and not w.dead and self._worker_shm_ok(w)
                    for w in self._workers
                )
            if any_shm:
                pair, kept = self._segments.acquire(
                    ysorted.sorted_xy, sorted_weights, y_centers, xs_scaled
                )
                render_rec.count("dist.shm_bytes", pair.req.nbytes)

        t_dispatch = time.perf_counter()
        reuse = False
        try:
            # With shm, the output grid IS the response segment: worker band
            # writes are the merge, and local/pickle shards write into the
            # same view below.
            grid = (
                pair.resp.grid()
                if pair is not None
                else np.empty((plan.height, len(xs_scaled)), dtype=np.float64)
            )
            kernel_name = (
                kernel.name if hasattr(kernel, "name") else str(kernel)
            )
            sorted_y = ysorted.sorted_y

            def make_task(
                shard_id: int, row_start: int, row_stop: int, shared: bool
            ) -> dict:
                # The halo is recomputed from the *current* band bounds, so
                # stolen sub-bands and steal-truncated resubmissions ship
                # exactly the points their rows need.
                h0, h1 = band_halo(
                    sorted_y, y_centers, bandwidth, row_start, row_stop
                )
                if shared:
                    # Names and integer offsets only, so the TASK frame
                    # stays under a kilobyte.
                    inputs = {"halo_start": h0, "halo_stop": h1}
                else:
                    halo = slice(h0, h1)
                    inputs = {
                        "halo_xy": ysorted.sorted_xy[halo],
                        "halo_weights": None
                        if sorted_weights is None
                        else sorted_weights[halo],
                        "y_centers": y_centers[row_start:row_stop],
                        "xs_scaled": xs_scaled,
                    }
                task = {
                    "shard_id": shard_id,
                    "row_start": row_start,
                    "row_stop": row_stop,
                    **inputs,
                    "cx": cx,
                    "bandwidth": bandwidth,
                    "kernel": kernel_name,
                    "engine": engine,
                    "collect": collect,
                }
                if shared:
                    task["shm"] = {"req": pair.req.descr, "resp": pair.resp.name}
                return task

            state = _RenderState(
                self, plan, grid, pairs, ekey, make_task, pair is not None,
                render_rec,
            )
            with render_rec.span("dist.dispatch"):
                state.run()

            with render_rec.span("dist.merge"):
                # The blocks were written straight into their row bands above,
                # so the merge phase is just this (timed) validation that every
                # band got filled — kept as a span so merge overhead is
                # measurable.
                covered = sum(s.rows for s in plan)
                if covered != plan.height:
                    raise DistError(
                        f"shard plan covers {covered}/{plan.height} rows"
                    )
                if pair is not None:
                    # Detach copy: the segment serves the next render (or is
                    # unlinked below), so the caller gets ordinary
                    # process-private memory.
                    grid = np.array(grid)
            reuse = not state.abandoned
        finally:
            # Segments are strictly coordinator-owned.  A render that raised
            # or abandoned an attempt unlinks its pair — a straggler may
            # still write into it — so neither a failed render nor a
            # SIGKILL'd worker leaks a /dev/shm entry or touches a later
            # render's grid.
            if pair is not None:
                self._segments.release(pair, kept, reuse)

        counters = render_rec.snapshot().get("counters", {})
        self.last_report = RenderReport(
            balance=self.balance,
            planned_shards=len(plan),
            refine_moves=refine_moves,
            steals=int(counters.get("dist.steals", 0)),
            steal_rows=int(counters.get("dist.steal_rows", 0)),
            discarded_rows=int(counters.get("dist.steal_discarded_rows", 0)),
            makespan_s=time.perf_counter() - t_dispatch,
            records=list(state.records),
        )
        self.recorder.merge(render_rec)
        out_snapshots = list(state.snapshots)
        out_snapshots.append(render_rec.snapshot())
        return len(plan), grid, out_snapshots

    # -- transport ---------------------------------------------------------

    def _worker_shm_ok(self, worker: WorkerAddress) -> bool:
        """Can this worker take shared-memory tasks?  Requires the HELLO
        capability, the same machine (``node`` token), and no prior runtime
        demotion."""
        hello = worker.hello or {}
        caps = hello.get("caps") or {}
        return (
            worker.shm_ok
            and bool(caps.get("shm"))
            and hello.get("node") == self._node
        )


# -- default-coordinator resolution ---------------------------------------

_default_lock = threading.Lock()
_default: "Coordinator | None" = None
_env_coordinator: "Coordinator | None" = None
_env_value: "str | None" = None


def set_default_coordinator(coordinator: "Coordinator | None") -> None:
    """Install the coordinator ``backend="dist"`` uses when none is passed."""
    global _default
    with _default_lock:
        _default = coordinator


def get_default_coordinator() -> "Coordinator | None":
    with _default_lock:
        return _default


def resolve_coordinator(
    coordinator: "Coordinator | None" = None,
) -> Coordinator:
    """The coordinator a ``backend="dist"`` compute should use.

    Resolution order: the explicit argument, then the process default
    (:func:`set_default_coordinator`), then a coordinator built from the
    ``REPRO_DIST_WORKERS`` environment variable (cached per value), then a
    fresh worker-less coordinator — so ``backend="dist"`` always works,
    degrading to sharded in-process compute when no pool is configured.
    """
    global _env_coordinator, _env_value
    if coordinator is not None:
        return coordinator
    with _default_lock:
        if _default is not None:
            return _default
        env = os.environ.get(WORKERS_ENV)
        if env:
            if _env_coordinator is None or env != _env_value:
                _env_coordinator = Coordinator(parse_worker_addrs(env))
                _env_value = env
            return _env_coordinator
        return Coordinator()
