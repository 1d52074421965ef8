"""Coordinator: dispatches shard plans to a worker pool and merges results.

The coordinator owns the fault-tolerance and scheduling policy; the workers
stay dumb:

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
import socket
import threading
import time

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
        #: Checked out by a dispatcher thread (one in-flight shard per worker).
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
    """Mutable scheduling state for one unit of work during a render.

    ``stop`` is the job's current exclusive end row; work stealing shrinks
    it (never grows it), and only the job's own dispatch thread mutates it,
    so readers just need the lock for a consistent snapshot.  Thief jobs
    minted by steals carry ``depth=1`` and are never stolen from again.
    """

    __slots__ = (
        "shard_id",
        "row_start",
        "stop",
        "depth",
        "steals",
        "stolen_from",
        "lock",
        "thieves",
        "thief_errors",
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
        self.lock = threading.Lock()
        self.thieves: list[threading.Thread] = []
        self.thief_errors: list[BaseException] = []

    def current_stop(self) -> int:
        with self.lock:
            return self.stop


class _RenderState:
    """Shared per-render context: the output grid, task builders, pricing
    state, and the thread-safe result collections."""

    def __init__(
        self,
        grid: np.ndarray,
        pairs: np.ndarray,
        ekey: str,
        model: CostModel,
        make_task,
        make_task_shm,
        rec: Recorder,
        next_shard_id: int,
    ):
        self.grid = grid
        self.pairs = pairs
        self.ekey = ekey
        self.model = model
        self.make_task = make_task
        self.make_task_shm = make_task_shm
        self.rec = rec
        self.lock = threading.Lock()
        self.snapshots: list[dict] = []
        self.records: list[ShardRecord] = []
        self._next_shard_id = next_shard_id

    def new_shard_id(self) -> int:
        with self.lock:
            sid = self._next_shard_id
            self._next_shard_id += 1
            return sid

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

    def add_snapshot(self, snapshot: dict) -> None:
        with self.lock:
            self.snapshots.append(snapshot)

    def add_record(self, record: ShardRecord) -> None:
        with self.lock:
            self.records.append(record)


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
        the life of the pool.  See :mod:`repro.dist.shm`.
    recorder:
        Long-lived recorder accumulating across renders (e.g. the tile
        service's).  Each render *also* gets its counters merged into the
        per-call recorder passed to :meth:`render_sweep`.

    Thread safety: multiple threads may call :meth:`render_sweep`
    concurrently (the tile service's render pool does); workers are checked
    out under a condition variable so one shard is in flight per worker.
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

    def _checkout(self) -> "WorkerAddress | None":
        """Grab an idle live worker, or ``None`` when none can ever come:
        blocks only while busy workers might free up.  When several workers
        are idle, the highest-capacity one wins, so big bands land on fast
        machines first."""
        with self._cond:
            while True:
                idle = [
                    w
                    for w in self._workers
                    if w.sock is not None and not w.dead and not w.busy
                ]
                if idle:
                    if len(idle) > 1:
                        caps = self.cost_model.capacities(
                            [w.addr for w in idle]
                        )
                        worker = idle[
                            max(range(len(idle)), key=lambda i: caps[i])
                        ]
                    else:
                        worker = idle[0]
                    worker.busy = True
                    return worker
                if not any(
                    w.busy for w in self._workers
                ):  # nobody to wait for
                    return None
                self._cond.wait(timeout=0.1)

    def _any_idle(self) -> bool:
        with self._cond:
            return any(
                w.sock is not None and not w.dead and not w.busy
                for w in self._workers
            )

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
        — they return to their accept loops), release every socket, and
        persist the cost-model calibration when ``sched_state`` is set."""
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

        # Transport selection: the shared-memory segments are created once
        # per render (the "generation"), and only when some connected worker
        # can actually map them — a pickle-only pool pays nothing.
        req_seg = resp_seg = None
        if self.use_shm and shm.SHM_AVAILABLE:
            with self._cond:
                any_shm = any(
                    w.sock is not None and not w.dead and self._worker_shm_ok(w)
                    for w in self._workers
                )
            if any_shm:
                req_seg = shm.RequestSegment(
                    ysorted.sorted_xy, sorted_weights, y_centers, xs_scaled
                )
                resp_seg = shm.ResponseSegment(plan.height, len(xs_scaled))
                render_rec.count("dist.shm_bytes", req_seg.nbytes)

        t_dispatch = time.perf_counter()
        try:
            # With shm, the output grid IS the response segment: worker band
            # writes are the merge, and local/pickle shards write into the
            # same view below.
            grid = (
                resp_seg.grid()
                if resp_seg is not None
                else np.empty((plan.height, len(xs_scaled)), dtype=np.float64)
            )
            kernel_name = (
                kernel.name if hasattr(kernel, "name") else str(kernel)
            )
            sorted_y = ysorted.sorted_y

            def make_task(shard_id: int, row_start: int, row_stop: int) -> dict:
                # The halo is recomputed from the *current* band bounds, so
                # stolen sub-bands and steal-truncated resubmissions ship
                # exactly the points their rows need.
                h0, h1 = band_halo(
                    sorted_y, y_centers, bandwidth, row_start, row_stop
                )
                halo = slice(h0, h1)
                return {
                    "shard_id": shard_id,
                    "row_start": row_start,
                    "row_stop": row_stop,
                    "halo_xy": ysorted.sorted_xy[halo],
                    "halo_weights": None
                    if sorted_weights is None
                    else sorted_weights[halo],
                    "y_centers": y_centers[row_start:row_stop],
                    "xs_scaled": xs_scaled,
                    "cx": cx,
                    "bandwidth": bandwidth,
                    "kernel": kernel_name,
                    "engine": engine,
                    "collect": collect,
                }

            make_task_shm = None
            if resp_seg is not None:
                req_descr = req_seg.descr
                resp_name = resp_seg.name

                def make_task_shm(
                    shard_id: int, row_start: int, row_stop: int
                ) -> dict:
                    # Same schema minus the arrays: names + integer offsets
                    # only, so the TASK frame stays under a kilobyte.
                    h0, h1 = band_halo(
                        sorted_y, y_centers, bandwidth, row_start, row_stop
                    )
                    return {
                        "shard_id": shard_id,
                        "row_start": row_start,
                        "row_stop": row_stop,
                        "halo_start": h0,
                        "halo_stop": h1,
                        "cx": cx,
                        "bandwidth": bandwidth,
                        "kernel": kernel_name,
                        "engine": engine,
                        "collect": collect,
                        "shm": {"req": req_descr, "resp": resp_name},
                    }

            state = _RenderState(
                grid,
                pairs,
                ekey,
                self.cost_model,
                make_task,
                make_task_shm,
                render_rec,
                next_shard_id=len(plan),
            )
            errors: "list[BaseException]" = []
            errors_lock = threading.Lock()

            work = [s for s in plan if s.rows > 0]
            # Widest predicted band first: the longest-processing-time order
            # pairs expensive bands with the fastest idle workers at
            # dispatch (the capacity-aware _checkout picks them).
            work.sort(
                key=lambda s: -state.band_pairs(s.row_start, s.row_stop)
            )
            jobs = [
                _ShardJob(s.shard_id, s.row_start, s.row_stop) for s in work
            ]

            def run_job(job: _ShardJob) -> None:
                try:
                    self._run_shard(job, state)
                except BaseException as exc:
                    with errors_lock:
                        errors.append(exc)

            with render_rec.span("dist.dispatch"):
                if len(jobs) <= 1 or self.num_alive() == 0:
                    # Nothing to overlap: run shards inline (covers the
                    # worker-less coordinator and the single-shard plan).
                    for job in jobs:
                        run_job(job)
                        if errors:
                            break
                else:
                    threads = [
                        threading.Thread(
                            target=run_job,
                            name=f"dist-shard-{job.shard_id}",
                            args=(job,),
                            daemon=True,
                        )
                        for job in jobs
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join()
            if errors:
                raise errors[0]

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
                if resp_seg is not None:
                    # Detach copy: the segment is unlinked below, so the
                    # caller gets ordinary process-private memory.
                    grid = np.array(grid)
        finally:
            # Segments are strictly coordinator-owned: unlink on every exit,
            # so neither a failed render nor a SIGKILL'd worker leaks a
            # /dev/shm entry.
            if req_seg is not None:
                req_seg.unlink()
            if resp_seg is not None:
                resp_seg.unlink()

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

    # -- per-shard dispatch ------------------------------------------------

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

    def _run_shard(self, job: _ShardJob, state: _RenderState) -> None:
        """Run one job (and any thieves it spawns) to completion."""
        try:
            self._run_shard_primary(job, state)
        finally:
            # Thieves write their own disjoint rows; join them so the render
            # never returns with a band still being filled.
            for thief in job.thieves:
                thief.join()
        if job.thief_errors:
            raise job.thief_errors[0]

    def _run_shard_primary(self, job: _ShardJob, state: _RenderState) -> None:
        """Run one job's own band to completion: try workers, retry on death
        or deadline, fall back to in-process compute when the pool is gone.

        The transport is picked per checkout: an shm-capable worker gets the
        offsets-only task, everyone else (and the in-process fallback, which
        has the arrays already) gets the pickle task.  The band may shrink
        between attempts — steals move its tail to a thief job — so bounds
        are re-read each pass.
        """
        render_rec = state.rec
        timeouts = 0
        attempt = 0
        while True:
            r0 = job.row_start
            r1 = job.current_stop()
            if r1 <= r0:
                return  # the whole band was stolen away; nothing left to run
            predicted = state.predict(r0, r1)
            worker = self._checkout()
            if worker is None:
                render_rec.count("dist.local_shards", 1)
                t0 = time.perf_counter()
                block, snapshot = compute_shard(
                    state.make_task(job.shard_id, r0, r1)
                )
                elapsed = time.perf_counter() - t0
                self._finish_attempt(
                    job, state, "local", r0, r1, block, snapshot,
                    elapsed, predicted,
                )
                return
            use_shm = state.make_task_shm is not None and self._worker_shm_ok(
                worker
            )
            builder = state.make_task_shm if use_shm else state.make_task
            task = builder(job.shard_id, r0, r1)
            t0 = time.perf_counter()
            try:
                block, snapshot, result_stop = self._run_on(
                    worker, task, job, state
                )
            except _ShmFailed:
                # The worker could not map the segments (stale namespace,
                # permissions, ...): demote it to pickle for the life of the
                # pool and resubmit — degrade the transport, not the render.
                worker.shm_ok = False
                render_rec.count("dist.shm_demotions", 1)
                render_rec.count("dist.retries", 1)
                self._checkin(worker)
                continue
            except _WorkerDied:
                render_rec.count("dist.worker_deaths", 1)
                render_rec.count("dist.retries", 1)
                self._checkin(worker, dead=True)
                attempt += 1
                continue  # deaths never exhaust the budget; the pool shrinks
            except _AttemptTimedOut:
                # The worker may still be computing the stale shard; its
                # eventual result would desynchronize the stream, so the
                # connection is abandoned like a death (the worker process
                # itself survives and will accept a fresh connection).
                render_rec.count("dist.retries", 1)
                self._checkin(worker, dead=True)
                timeouts += 1
                attempt += 1
                if timeouts > self.max_retries:
                    raise DistTimeout(
                        f"shard {task['shard_id']} timed out "
                        f"{timeouts}x (deadline_s={self.deadline_s}, "
                        f"max_retries={self.max_retries})"
                    ) from None
                time.sleep(
                    min(
                        self.backoff_base_s * (2.0 ** (attempt - 1)),
                        self.backoff_max_s,
                    )
                )
                continue
            except BaseException:
                # Task-level failure (the worker is healthy; the shard is
                # poisoned, e.g. an unknown engine spec): release the worker
                # before propagating.
                self._checkin(worker)
                raise
            else:
                elapsed = time.perf_counter() - t0
                self._checkin(worker)
                self._finish_attempt(
                    job, state, worker.addr, r0, result_stop, block,
                    snapshot, elapsed, predicted,
                )
                return

    def _finish_attempt(
        self,
        job: _ShardJob,
        state: _RenderState,
        worker_key: str,
        row_start: int,
        result_stop: int,
        block: "np.ndarray | None",
        snapshot: "dict | None",
        elapsed: float,
        predicted: "float | None",
    ) -> None:
        """Commit one successful attempt: write the rows this job still owns
        (steals may have shrunk it since dispatch — the thief always wins
        the overlap), feed the calibration, and record the outcome."""
        final_stop = job.current_stop()
        use_stop = min(result_stop, final_stop)
        if block is not None and use_stop > row_start:
            state.grid[row_start:use_stop] = block[: use_stop - row_start]
        if result_stop > use_stop:
            # Double-completion race: the straggler outran its CANCEL and
            # computed rows a thief owns.  Both computed identical bytes
            # (same rows, same halo contract), and the thief's copy is the
            # one merged — the discard is deterministic by construction.
            state.rec.count("dist.steal_discarded_rows", result_stop - use_stop)
        if result_stop > row_start:
            state.model.observe(
                state.ekey,
                worker_key,
                result_stop - row_start,
                state.band_pairs(row_start, result_stop),
                elapsed,
            )
        state.add_record(
            ShardRecord(
                shard_id=job.shard_id,
                row_start=row_start,
                row_stop=use_stop,
                computed_rows=max(result_stop - row_start, 0),
                pairs=state.band_pairs(row_start, result_stop),
                worker=worker_key,
                elapsed_s=elapsed,
                predicted_s=predicted,
                stolen_from=job.stolen_from,
            )
        )
        if snapshot is not None:
            state.add_snapshot(snapshot)

    # -- work stealing -----------------------------------------------------

    def _maybe_steal(
        self,
        sock: socket.socket,
        task: dict,
        job: _ShardJob,
        state: _RenderState,
        rows_done: int,
        elapsed: float,
    ) -> None:
        """Evaluate the steal trigger for an in-flight shard; fires at most
        one steal per call.

        A steal requires: stealing enabled, a primary (depth-0) job under
        its donation cap, at least ``steal_min_s`` on the clock, a
        calibrated prediction exceeded ``steal_factor`` times *pool-normal*
        (so a slow worker is late by the pool's standards, not its own), an
        idle worker to do the stealing, and a worthwhile tail.  The stolen
        tail is the unstarted half of the remaining band — except for a
        repeat steal from a shard that has made zero progress (a wedged or
        napping worker), which donates everything left.
        """
        if (
            not self.steal
            or job.depth >= 1
            or job.steals >= self.max_steals_per_shard
            or elapsed < self.steal_min_s
        ):
            return
        stop = job.current_stop()
        started = job.row_start + rows_done
        remaining = stop - started
        if remaining <= 0:
            return
        predicted = state.predict(job.row_start, stop)
        if predicted is None:
            return
        if elapsed <= self.steal_factor * max(predicted, 1e-6):
            return
        if not self._any_idle():
            return
        if rows_done == 0 and job.steals >= 1:
            steal_rows = remaining  # wedged straggler: take everything left
        else:
            steal_rows = remaining // 2
            if steal_rows < self.min_steal_rows:
                return
        steal_start = stop - steal_rows
        with job.lock:
            job.stop = steal_start
            job.steals += 1
        try:
            state.rec.count(
                "dist.bytes_tx",
                proto.send_msg(
                    sock,
                    proto.MSG_CANCEL,
                    {"shard_id": task["shard_id"], "row_stop": steal_start},
                ),
            )
            state.rec.count("dist.cancels", 1)
        except OSError:
            # The straggler is probably dead; the recv loop will notice.
            # The steal stands either way — the thief owns the tail now.
            pass
        state.rec.count("dist.steals", 1)
        state.rec.count("dist.steal_rows", stop - steal_start)
        self._spawn_thief(job, state, steal_start, stop)

    def _spawn_thief(
        self,
        victim: _ShardJob,
        state: _RenderState,
        row_start: int,
        row_stop: int,
    ) -> None:
        """Mint a thief job for a stolen tail and dispatch it concurrently.
        The victim's dispatch thread joins it before returning."""
        thief = _ShardJob(
            state.new_shard_id(),
            row_start,
            row_stop,
            depth=victim.depth + 1,
            stolen_from=victim.shard_id,
        )

        def run() -> None:
            try:
                self._run_shard(thief, state)
            except BaseException as exc:
                victim.thief_errors.append(exc)

        t = threading.Thread(
            target=run, name=f"dist-steal-{thief.shard_id}", daemon=True
        )
        victim.thieves.append(t)
        t.start()

    def _run_on(
        self,
        worker: WorkerAddress,
        task: dict,
        job: _ShardJob,
        state: _RenderState,
    ) -> "tuple[np.ndarray | None, dict | None, int]":
        """One dispatch attempt on one worker; raises the private control-flow
        exceptions on death or deadline expiry.  Returns ``(block, snapshot,
        result_stop)`` where ``result_stop`` is the exclusive end row the
        worker actually computed (shorter than the task band when a CANCEL
        truncated it)."""
        render_rec = state.rec
        sock = worker.sock
        try:
            render_rec.count(
                "dist.bytes_tx", proto.send_msg(sock, proto.MSG_TASK, task)
            )
        except OSError:
            raise _WorkerDied() from None
        dispatched = time.monotonic()
        last_alive = dispatched
        rows_done = 0
        while True:
            if self.deadline_s is not None:
                remaining = self.deadline_s - (time.monotonic() - last_alive)
                if remaining <= 0:
                    raise _AttemptTimedOut()
                slice_s = min(0.2, remaining)
            else:
                slice_s = 0.5
            try:
                msg_type, payload, nbytes = proto.recv_msg(sock, timeout=slice_s)
            except socket.timeout:
                self._maybe_steal(
                    sock, task, job, state, rows_done,
                    time.monotonic() - dispatched,
                )
                continue
            except (ConnectionClosed, ProtocolError, OSError):
                raise _WorkerDied() from None
            render_rec.count("dist.bytes_rx", nbytes)
            if msg_type == proto.MSG_HEARTBEAT:
                render_rec.count("dist.heartbeats", 1)
                last_alive = time.monotonic()
                if (
                    isinstance(payload, dict)
                    and payload.get("shard_id") == task["shard_id"]
                ):
                    rows_done = max(
                        rows_done, int(payload.get("rows_done") or 0)
                    )
                self._maybe_steal(
                    sock, task, job, state, rows_done,
                    time.monotonic() - dispatched,
                )
            elif msg_type == proto.MSG_RESULT:
                if payload.get("shard_id") != task["shard_id"]:
                    # A stale result from a previous (timed-out) dispatch on
                    # a reused connection — cannot happen because timed-out
                    # connections are abandoned, so treat it as corruption.
                    raise _WorkerDied()
                result_stop = int(payload.get("row_stop", task["row_stop"]))
                if payload.get("shm"):
                    # The band is already in the response segment.
                    render_rec.count(
                        "dist.shm_bytes", int(payload.get("shm_bytes") or 0)
                    )
                    return None, payload.get("snapshot"), result_stop
                return payload["block"], payload.get("snapshot"), result_stop
            elif msg_type == proto.MSG_ERROR:
                if payload.get("shm_failed"):
                    raise _ShmFailed()
                raise DistError(
                    f"worker {worker.addr} failed shard "
                    f"{payload.get('shard_id')}: {payload.get('error')}"
                )
            # other frame types (PONG from an earlier probe) are ignored


class _WorkerDied(Exception):
    """Private control flow: the connection broke during an attempt."""


class _ShmFailed(Exception):
    """Private control flow: the worker could not map the shm segments."""


class _AttemptTimedOut(Exception):
    """Private control flow: one attempt exceeded ``deadline_s``."""


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
