"""Shard-computing worker process for distributed KDV rendering.

A worker is a small TCP server built on :mod:`repro.dist.proto`: it accepts
one coordinator connection at a time, performs the version handshake, then
loops — receive a TASK frame describing one shard (halo point slice, the row
band's y-centers, sweep configuration), compute the partial grid with the
requested engine's ``sweep_block`` — the *same* call the serial sweep makes —
and stream the block back as a RESULT frame.

Compute is *chunked and cancellable*: the band is swept a few rows at a
time (:func:`compute_shard_incremental`) on the thread that serves the
connection, and between chunks that thread answers it.  A HEARTBEAT
carrying ``rows_done`` leaves when one is due, so the coordinator can tell
a slow shard from a dead worker and price how much of a straggler's band
is still worth stealing; a CANCEL frame truncates the shard at the next
row boundary.  The worker then returns a normal, shorter RESULT whose
``row_stop`` reflects what it actually computed; the stolen tail is
recomputed bit-identically elsewhere (see ``docs/scheduling.md``).  Chunk
boundaries never change the numbers — each chunk is the same
``sweep_block`` call over the same per-row envelopes the serial sweep makes.

The RESULT leaves the moment the last chunk is written.  Over the
shared-memory transport the chunks go straight into the worker's view of
its band in the response segment, and the segments stay mapped for the
life of the connection (:class:`repro.dist.shm.Mappings`).

:func:`compute_shard` is deliberately a standalone pure function: the
coordinator calls the identical code in-process for graceful degradation
when no workers are reachable, so the local fallback is bit-identical to the
remote path by construction.

Engines cross the wire as small declarative *specs* — their registry name
and thread count, ``{"name": "slam_bucket.native", "threads": 2}``
(:func:`engine_spec` / :func:`resolve_engine`) — rather than pickled
callables, so a worker only ever executes code from its own installed
package.

Two fault-injection knobs model degraded workers deterministically:
``delay_s`` naps before computing each shard, widening the window in which
a worker can be killed or stolen from "mid-shard"; ``slow_factor``
stretches compute itself by pausing between row chunks (a
``slow_factor=4`` worker takes ~4x the wall time but computes the
identical bytes) — the honest way to emulate a throttled machine for
scheduler tests and the CI ``sched-smoke`` job.  Heartbeats keep flowing
through both waits.  The
``ignore_cancel`` knob makes the worker finish a stolen band anyway,
forcing the double-completion race the steal exactness tests cover.
"""

from __future__ import annotations

import os
import select
import socket
import sys
import threading
import time
from collections import deque

import numpy as np

from ..core.engines import ENGINES, get_engine
from ..core.envelope import YSortedIndex
from ..core.kernels import get_kernel
from ..obs import Recorder
from . import proto, shm
from .errors import ConnectionClosed, DistError, ProtocolError

__all__ = [
    "engine_spec",
    "resolve_engine",
    "compute_shard",
    "compute_shard_incremental",
    "WorkerServer",
    "format_ready_line",
    "parse_ready_line",
]


def engine_spec(engine) -> dict:
    """The wire spec of a sweep engine (reverse of :func:`resolve_engine`):
    its registry name and thread count."""
    return {"name": engine.name, "threads": engine.threads}


def resolve_engine(spec):
    """The registered engine a wire spec names.

    Only names in :data:`repro.core.engines.ENGINES` resolve — workers never
    unpickle callables, so a coordinator cannot make a worker run arbitrary
    code.  A malformed spec raises :class:`ProtocolError`.  A
    ``slam_bucket.native`` spec on a worker without the compiled extension
    runs the per-row ``slam_bucket.numpy`` engine, which computes the same
    bits.
    """
    if not isinstance(spec, dict):
        raise ProtocolError(f"engine spec must be a dict, got {spec!r}")
    name = spec.get("name")
    threads = spec.get("threads", 1)
    if not isinstance(name, str):
        raise ProtocolError(f"engine spec has no string name: {spec!r}")
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ProtocolError(
            f"engine spec threads must be an int >= 1, got {threads!r}"
        )
    try:
        return get_engine(name, threads)
    except KeyError:
        raise ProtocolError(
            f"unknown engine {name!r}; registered: {sorted(ENGINES)}"
        ) from None


def compute_shard_incremental(
    task: dict,
    chunk_rows: "int | None" = None,
    progress=None,
    mappings: "shm.Mappings | None" = None,
) -> "tuple[np.ndarray | None, int, dict | None]":
    """Compute one shard's row block a chunk of rows at a time.

    Returns ``(block, rows_computed, snapshot_or_None)`` where ``block``
    holds the first ``rows_computed`` rows of the band.  ``task`` is the
    payload of a TASK frame (see
    :meth:`repro.dist.coordinator.Coordinator.render_sweep` for the schema).
    The halo slice arrives already in ascending-y order, so its
    :class:`YSortedIndex` is built as already sorted (an identity
    permutation, no argsort) — every row's envelope slice has exactly the
    content and order the serial sweep would see, which is what makes the
    merged grid bit-identical.  Chunking only changes *when* rows are
    computed, never *what*: the engines are row-independent, so ``N``
    chunked calls fill the band exactly as one call would (and the recorder
    counters they emit are additive over chunks, so snapshots stay
    serial-equal too).

    ``progress(rows_done)`` is called before the first chunk and after each
    one, and returns the band-relative row to stop at (rows at or beyond it
    are skipped — the cooperative CANCEL path).  Without it, the band is
    computed in one chunk, which is the plain :func:`compute_shard`.

    A shared-memory task (one carrying an ``shm`` descriptor instead of
    inline arrays) reads its halo and geometry as zero-copy views of the
    request segment, and — when the descriptor names a response segment —
    writes each chunk straight into its band there and returns ``None`` as
    the block.  The numbers are bit-identical either way: the views hold
    exactly the bytes the pickle path would have shipped.  ``mappings``
    keeps the segments attached across tasks (a worker connection's
    cache); without it they are attached for this call only.
    """
    descr = task.get("shm")
    if descr is None:
        return _sweep_band(task, None, chunk_rows, progress)
    own = mappings is None
    if own:
        mappings = shm.Mappings()
    try:
        return _sweep_shm_band(task, descr, mappings, chunk_rows, progress)
    finally:
        if own:
            mappings.close()


def _sweep_shm_band(task, descr, mappings, chunk_rows, progress):
    """:func:`_sweep_band` over views of the task's segments.  The views
    live only in this frame, so they are gone before any mapping closes."""
    req = descr["req"]
    xy, w, ys_all, xs = shm.map_request(mappings.get(req["name"]), req)
    halo = slice(int(task["halo_start"]), int(task["halo_stop"]))
    row_start = int(task["row_start"])
    y_centers = ys_all[row_start:int(task["row_stop"])]
    task = task | {
        "halo_xy": xy[halo],
        "halo_weights": None if w is None else w[halo],
        "y_centers": y_centers,
        "xs_scaled": xs,
    }
    out = None
    if descr.get("resp") is not None:
        out = shm.map_band(
            mappings.get(descr["resp"]), req, row_start, len(y_centers)
        )
    return _sweep_band(task, out, chunk_rows, progress)


def _sweep_band(task, out, chunk_rows, progress):
    """Sweep the task's band chunk by chunk into ``out`` (a response-segment
    view; the block is then ``None``) or into a fresh array."""
    kernel = get_kernel(task["kernel"])
    engine = resolve_engine(task["engine"])
    ysorted = YSortedIndex.presorted(
        np.asarray(task["halo_xy"], dtype=np.float64)
    )
    y_centers = np.asarray(task["y_centers"], dtype=np.float64)
    xs_scaled = np.asarray(task["xs_scaled"], dtype=np.float64)
    recorder = Recorder() if task.get("collect") else None
    total = len(y_centers)
    band = out
    if band is None:
        band = np.empty((total, len(xs_scaled)), dtype=np.float64)
    step = total if not chunk_rows or chunk_rows <= 0 else int(chunk_rows)
    done = 0
    stop = total
    while True:
        if progress is not None:
            stop = max(done, min(total, int(progress(done))))
        if done >= stop:
            break
        hi = min(done + step, stop)
        band[done:hi] = engine.sweep_block(
            done,
            hi,
            y_centers,
            xs_scaled,
            ysorted,
            float(task["cx"]),
            float(task["bandwidth"]),
            kernel,
            sorted_weights=task.get("halo_weights"),
            recorder=recorder,
        )
        done = hi
    block = None if out is not None else band[:done]
    if recorder is not None:
        recorder.count("dist.shards_computed", 1)
        return block, done, recorder.snapshot()
    return block, done, None


def compute_shard(task: dict) -> "tuple[np.ndarray | None, dict | None]":
    """Compute one full shard in a single chunk; returns
    ``(block, snapshot_or_None)`` (``block`` is ``None`` when a
    shared-memory task wrote it into its response segment).

    The coordinator calls this identical code in-process for graceful
    degradation when no workers are reachable, so the local fallback is
    bit-identical to the remote path by construction.
    """
    block, _, snapshot = compute_shard_incremental(task)
    return block, snapshot


def format_ready_line(host: str, port: int) -> str:
    """The machine-readable startup line ``repro dist-worker`` prints."""
    return f"REPRO-DIST-WORKER READY {host}:{port} pid={os.getpid()} proto={proto.PROTO_VERSION}"


def parse_ready_line(line: str) -> "tuple[str, int] | None":
    """Parse :func:`format_ready_line` output; ``None`` if it is not one."""
    parts = line.strip().split()
    if len(parts) < 3 or parts[0] != "REPRO-DIST-WORKER" or parts[1] != "READY":
        return None
    host, _, port = parts[2].rpartition(":")
    try:
        return host, int(port)
    except ValueError:
        return None


class WorkerServer:
    """One worker process's serve loop.

    Serves coordinator connections sequentially, each on the thread that
    accepted it, which also computes its shards (a worker computes one
    shard at a time by design — process-level parallelism comes from
    running more workers).  The loop survives coordinator disconnects: a
    closed or broken connection just returns it to ``accept``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = 0.5,
        delay_s: float = 0.0,
        slow_factor: float = 1.0,
        chunk_rows: int = 16,
        ignore_cancel: bool = False,
        verbose: bool = False,
    ):
        self.host = host
        self.heartbeat_s = float(heartbeat_s)
        self.delay_s = float(delay_s)
        #: Stretch compute by pausing ``(slow_factor - 1) x`` each chunk's
        #: wall time between chunks — emulates a throttled machine without
        #: changing a single computed byte.
        self.slow_factor = max(float(slow_factor), 1.0)
        #: Rows per compute chunk: the cancellation (and fault-injection)
        #: granularity.  Chunking never changes the computed bytes.
        self.chunk_rows = max(int(chunk_rows), 1)
        #: Test knob: drop CANCEL frames and finish stolen bands anyway,
        #: forcing the double-completion race the coordinator must resolve
        #: deterministically.
        self.ignore_cancel = bool(ignore_cancel)
        self.verbose = verbose
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        #: The bound port (the OS picks one when constructed with ``port=0``).
        self.port = self._listener.getsockname()[1]
        #: Shards computed since startup (visible to in-thread tests).
        self.tasks_done = 0

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Ask the serve loop to exit; safe to call from any thread."""
        self._stop.set()

    def start_in_thread(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (test helper)."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"dist-worker:{self.port}", daemon=True
        )
        thread.start()
        return thread

    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[dist-worker:{self.port}] {msg}", file=sys.stderr, flush=True)

    # -- serve loop --------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept coordinator connections until :meth:`stop` is called."""
        self._listener.settimeout(0.2)
        try:
            while not self._stop.is_set():
                try:
                    conn, addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                try:
                    self._serve_connection(conn, addr)
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
        finally:
            try:
                self._listener.close()
            except OSError:
                pass

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            proto.server_handshake(conn)
        except (DistError, OSError) as exc:
            self._log(f"handshake with {addr} failed: {exc}")
            return
        self._log(f"coordinator connected from {addr}")
        # The segments this coordinator's tasks name stay mapped until it
        # disconnects; every task has dropped its views by then.
        mappings = shm.Mappings()
        try:
            self._serve_frames(conn, mappings)
        finally:
            mappings.close()

    def _serve_frames(
        self, conn: socket.socket, mappings: "shm.Mappings"
    ) -> None:
        # Frames that arrived while a shard computed and that only this loop
        # handles (a SHUTDOWN, say), in arrival order.
        deferred: "deque[tuple[int, object]]" = deque()
        while not self._stop.is_set():
            if deferred:
                msg_type, payload = deferred.popleft()
            else:
                try:
                    msg_type, payload, _ = proto.recv_msg(conn, timeout=0.5)
                except socket.timeout:
                    continue
                except (ConnectionClosed, OSError):
                    self._log("coordinator disconnected")
                    return
                except ProtocolError as exc:
                    self._log(f"protocol error: {exc}")
                    return
            if msg_type == proto.MSG_PING:
                proto.send_msg(conn, proto.MSG_PONG)
            elif msg_type == proto.MSG_TASK:
                try:
                    self._handle_task(conn, payload, mappings, deferred)
                except ConnectionClosed as exc:
                    # The coordinator dropped the connection mid-shard (it
                    # abandoned the attempt, or died); the worker lives on
                    # and goes back to accept.
                    self._log(str(exc))
                    return
            elif msg_type == proto.MSG_CANCEL:
                # A CANCEL that arrives between tasks lost its race with our
                # RESULT frame: the shard already completed in full, and the
                # coordinator discards the overlap deterministically.
                self._log(
                    f"stale CANCEL for shard {payload.get('shard_id') if isinstance(payload, dict) else payload!r}"
                )
            elif msg_type == proto.MSG_SHUTDOWN:
                self._log("shutdown requested")
                try:
                    proto.send_msg(conn, proto.MSG_BYE)
                except OSError:
                    pass
                self._stop.set()
                return
            elif msg_type == proto.MSG_BYE:
                return
            else:
                self._log(
                    f"ignoring unexpected "
                    f"{proto.MSG_NAMES.get(msg_type, msg_type)} frame"
                )

    def _handle_task(
        self,
        conn: socket.socket,
        task: dict,
        mappings: "shm.Mappings",
        deferred: "deque[tuple[int, object]]",
    ) -> None:
        """Compute one shard on this thread, answering the connection
        between row chunks.

        The sweep runs ``chunk_rows`` rows at a time.  After each chunk a
        heartbeat carrying ``rows_done`` leaves if one is due, and every
        frame that has arrived is handled: a CANCEL truncates the shard, a
        PING gets its PONG, a BYE or EOF stops the shard at the next chunk
        and drops the connection, and anything else waits in ``deferred``
        for the serve loop, which sees it after the RESULT.  The RESULT
        leaves as soon as the last chunk is written.
        """
        shard_id = task.get("shard_id")
        row_start = int(task.get("row_start") or 0)
        total_rows = int(task.get("row_stop") or 0) - row_start
        # Band-relative: rows computed so far, and the truncation target,
        # which only ever shrinks (CANCELs from repeated steals are
        # monotone).
        rows_done = 0
        stop_row = max(total_rows, 0)
        gone = False  # the coordinator said BYE or dropped the connection
        next_beat = time.monotonic() + self.heartbeat_s

        def answer(timeout: float) -> None:
            """Send a heartbeat if one is due, then handle every frame that
            has arrived, waiting up to ``timeout`` for the first."""
            nonlocal stop_row, gone, next_beat
            now = time.monotonic()
            if self.heartbeat_s > 0 and now >= next_beat and not gone:
                next_beat = now + self.heartbeat_s
                try:
                    proto.send_msg(
                        conn,
                        proto.MSG_HEARTBEAT,
                        {"shard_id": shard_id, "rows_done": rows_done},
                    )
                except OSError:
                    gone = True
            while not gone and select.select([conn], [], [], timeout)[0]:
                timeout = 0.0
                try:
                    msg_type, payload, _ = proto.recv_msg(conn, timeout=0.5)
                except (ConnectionClosed, ProtocolError, OSError):
                    gone = True
                    break
                if msg_type == proto.MSG_PING:
                    try:
                        proto.send_msg(conn, proto.MSG_PONG)
                    except OSError:
                        pass
                elif msg_type == proto.MSG_CANCEL and isinstance(payload, dict):
                    if payload.get("shard_id") == shard_id and not self.ignore_cancel:
                        target = int(payload.get("row_stop", row_start)) - row_start
                        stop_row = min(stop_row, max(target, 0))
                        self._log(
                            f"shard {shard_id} truncated at band row "
                            f"{max(target, 0)} (tail stolen)"
                        )
                elif msg_type == proto.MSG_BYE:
                    gone = True
                else:
                    deferred.append((msg_type, payload))
                    self._log(
                        f"deferring {proto.MSG_NAMES.get(msg_type, msg_type)} "
                        f"frame until shard {shard_id} completes"
                    )
            if gone:
                # Nobody will read this result; stop at the next chunk
                # boundary instead of finishing a band for no one.
                stop_row = min(stop_row, rows_done)

        def nap(seconds: float) -> None:
            """A fault-injection pause that keeps answering the connection;
            a truncate-to-zero (the whole band was stolen from a wedged
            worker), a dropped connection or :meth:`stop` ends it early."""
            deadline = time.monotonic() + seconds
            while stop_row > 0 and not gone and not self._stop.is_set():
                now = time.monotonic()
                if now >= deadline:
                    return
                answer(min(deadline - now, 0.05))

        def on_progress(done: int) -> int:
            nonlocal rows_done, chunk_t0
            if self.slow_factor > 1.0:
                # Stretch each chunk's wall time by the throttle factor
                # without touching the computed bytes.
                nap((time.perf_counter() - chunk_t0) * (self.slow_factor - 1.0))
            rows_done = done
            answer(0.0)
            chunk_t0 = time.perf_counter()
            return stop_row

        error = None
        try:
            if self.delay_s > 0:
                nap(self.delay_s)
            chunk_t0 = time.perf_counter()
            block, rows, snapshot = compute_shard_incremental(
                task,
                chunk_rows=self.chunk_rows,
                progress=on_progress,
                mappings=mappings,
            )
        except Exception as exc:
            # Keep the message, not the exception: its traceback would
            # hold the frames' shared-memory views past this task.
            error = f"{type(exc).__name__}: {exc}"
            # Lets the coordinator tell a broken shm mapping (demote to
            # pickle and resubmit) from a poisoned shard (propagate).
            shm_failed = isinstance(exc, shm.ShmError)
        if gone:
            raise ConnectionClosed("coordinator went away mid-shard")
        if error is None:
            reply_type = proto.MSG_RESULT
            reply = {
                "shard_id": shard_id,
                "row_start": row_start,
                # What this worker actually computed — shorter than the task
                # band when a CANCEL truncated it.
                "row_stop": row_start + rows,
                "snapshot": snapshot,
                "pid": os.getpid(),
            }
            if block is None:
                # Zero-copy return: the band is already in the response
                # segment; the RESULT frame stays tiny.
                width = int(task["shm"]["req"]["width"])
                reply["shm_bytes"] = rows * width * np.dtype(np.float64).itemsize
                reply["shm"] = True
            else:
                reply["block"] = block
        else:
            reply_type = proto.MSG_ERROR
            reply = {
                "shard_id": shard_id,
                "error": error,
                "shm_failed": shm_failed,
            }
            self._log(f"shard {shard_id} failed: {error}")
        try:
            proto.send_msg(conn, reply_type, reply)
        except OSError:
            self._log(f"could not return shard {shard_id}; coordinator gone")
            raise ConnectionClosed("coordinator went away mid-result") from None
        if reply_type == proto.MSG_RESULT:
            self.tasks_done += 1
            self._log(
                f"shard {shard_id} done ({rows}/{max(total_rows, 0)} rows)"
            )
