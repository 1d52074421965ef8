"""Shard-computing worker process for distributed KDV rendering.

A worker is a small TCP server built on :mod:`repro.dist.proto`: it accepts
one coordinator connection at a time, performs the version handshake, then
loops — receive a TASK frame describing one shard (halo point slice, the row
band's y-centers, sweep configuration), compute the partial grid with the
requested engine's ``sweep_block`` — the *same* call the serial sweep makes —
and stream the block back as a RESULT frame.  While a shard is computing, a
side thread emits HEARTBEAT frames carrying ``rows_done`` progress so the
coordinator can tell a slow shard from a dead worker — and price how much
of a straggler's band is still worth stealing.

Compute is *chunked and cancellable*: the band is swept a few rows at a
time (:func:`compute_shard_incremental`), and the receive loop stays live
during compute, so a CANCEL frame can truncate the shard at a row boundary
mid-flight.  The worker then returns a normal, shorter RESULT whose
``row_stop`` reflects what it actually computed; the stolen tail is
recomputed bit-identically elsewhere (see ``docs/scheduling.md``).  Chunk
boundaries never change the numbers — each chunk is the same
``sweep_block`` call over the same per-row envelopes the serial sweep makes.

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
``delay_s`` sleeps before computing each shard (heartbeats still flow),
widening the window in which a worker can be killed or stolen from
"mid-shard"; ``slow_factor`` stretches compute itself by sleeping between
row chunks (a ``slow_factor=4`` worker takes ~4x the wall time but
computes the identical bytes) — the honest way to emulate a throttled
machine for scheduler tests and the CI ``sched-smoke`` job.  The
``ignore_cancel`` knob makes the worker finish a stolen band anyway,
forcing the double-completion race the steal exactness tests cover.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time

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
    stop_fn=None,
) -> "tuple[np.ndarray, int, dict | None]":
    """Compute one shard's row block a chunk of rows at a time.

    Returns ``(block, rows_computed, snapshot_or_None)`` where ``block``
    holds the first ``rows_computed`` rows of the band.  ``task`` is the
    payload of a TASK frame (see
    :meth:`repro.dist.coordinator.Coordinator.render_sweep` for the schema).
    The halo slice arrives already in ascending-y order, so rebuilding the
    :class:`YSortedIndex` here is an identity permutation — every row's
    envelope slice has exactly the content and order the serial sweep would
    see, which is what makes the merged grid bit-identical.  Chunking only
    changes *when* rows are computed, never *what*: the engines are
    row-independent, so ``N`` chunked calls concatenate to the single-call
    block byte for byte (and the recorder counters they emit are additive
    over chunks, so snapshots stay serial-equal too).

    ``progress(rows_done)`` is called after each chunk; ``stop_fn()``
    returns the current band-relative truncation target (rows at or beyond
    it are skipped — the cooperative CANCEL path).  With neither, the band
    is computed in one chunk, which is the plain :func:`compute_shard`.

    A shared-memory task (one carrying an ``shm`` descriptor instead of
    inline arrays) is materialized first: the request segment is mapped and
    the halo/geometry arrays become zero-copy views over it for the duration
    of the compute.  The numbers that come out are bit-identical either way
    — the views hold exactly the bytes the pickle path would have shipped.
    """
    descr = task.get("shm")
    if descr is not None:
        seg = shm.attach(descr["req"]["name"])
        try:
            xy, w, ys_all, xs = shm.map_request(seg, descr["req"])
            halo = slice(int(task["halo_start"]), int(task["halo_stop"]))
            rows = slice(int(task["row_start"]), int(task["row_stop"]))
            task = dict(task)
            task["halo_xy"] = xy[halo]
            task["halo_weights"] = None if w is None else w[halo]
            task["y_centers"] = ys_all[rows]
            task["xs_scaled"] = xs
            return compute_shard_incremental(
                task | {"shm": None},
                chunk_rows=chunk_rows,
                progress=progress,
                stop_fn=stop_fn,
            )
        finally:
            shm.detach(seg)
    kernel = get_kernel(task["kernel"])
    engine = resolve_engine(task["engine"])
    ysorted = YSortedIndex(np.asarray(task["halo_xy"], dtype=np.float64))
    y_centers = np.asarray(task["y_centers"], dtype=np.float64)
    xs_scaled = np.asarray(task["xs_scaled"], dtype=np.float64)
    recorder = Recorder() if task.get("collect") else None
    total = len(y_centers)
    step = total if not chunk_rows or chunk_rows <= 0 else int(chunk_rows)
    parts: list[np.ndarray] = []
    done = 0
    while done < total:
        stop = total
        if stop_fn is not None:
            stop = max(done, min(total, int(stop_fn())))
        if done >= stop:
            break
        hi = min(done + step, stop)
        parts.append(
            engine.sweep_block(
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
        )
        done = hi
        if progress is not None:
            progress(done)
    if not parts:
        block = np.zeros((0, len(xs_scaled)), dtype=np.float64)
    elif len(parts) == 1:
        block = parts[0]
    else:
        block = np.concatenate(parts, axis=0)
    if recorder is not None:
        recorder.count("dist.shards_computed", 1)
        return block, done, recorder.snapshot()
    return block, done, None


def compute_shard(task: dict) -> "tuple[np.ndarray, dict | None]":
    """Compute one full shard in a single chunk; returns
    ``(block, snapshot_or_None)``.

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


class _ShardRun:
    """Progress and cancellation state for one in-flight shard.

    ``rows_done`` / ``_stop_row`` are band-relative row counts.  The stop
    row only ever shrinks (CANCELs from repeated steals are monotone), so
    the compute loop's ``stop_fn`` is race-free without holding the lock
    across chunks.
    """

    __slots__ = ("total", "rows_done", "_stop_row", "finished", "_lock", "chunk_t0")

    def __init__(self, total_rows: int) -> None:
        self.total = max(int(total_rows), 0)
        self.rows_done = 0
        self._stop_row = self.total
        self.finished = threading.Event()
        self._lock = threading.Lock()
        self.chunk_t0 = 0.0

    def get_stop(self) -> int:
        with self._lock:
            return self._stop_row

    def truncate(self, row_stop: int) -> None:
        with self._lock:
            self._stop_row = min(self._stop_row, max(int(row_stop), 0))

    def wait_delay(self, delay_s: float, stop: threading.Event) -> None:
        """Interruptible fault-injection nap: a truncate-to-zero (the whole
        band was stolen from a wedged worker) or server stop ends it early."""
        deadline = time.monotonic() + delay_s
        while time.monotonic() < deadline:
            if stop.is_set() or self.get_stop() <= 0:
                return
            time.sleep(min(0.05, max(deadline - time.monotonic(), 0.0)))


class WorkerServer:
    """One worker process's serve loop.

    Serves coordinator connections sequentially (a worker computes one shard
    at a time by design — process-level parallelism comes from running more
    workers).  The loop survives coordinator disconnects: a closed or broken
    connection just returns it to ``accept``.
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
        #: Stretch compute by sleeping ``(slow_factor - 1) x`` each chunk's
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
        send_lock = threading.Lock()
        while not self._stop.is_set():
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
                proto.send_msg(conn, proto.MSG_PONG, lock=send_lock)
            elif msg_type == proto.MSG_TASK:
                self._handle_task(conn, send_lock, payload)
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
                    proto.send_msg(conn, proto.MSG_BYE, lock=send_lock)
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
        self, conn: socket.socket, send_lock: threading.Lock, task: dict
    ) -> None:
        """Compute one shard while keeping the receive loop live.

        The sweep runs on a side thread in ``chunk_rows`` slices; this
        thread keeps servicing frames so a CANCEL can truncate the shard
        mid-compute and PINGs stay answered.  Heartbeats carry ``rows_done``
        so the coordinator can price the remaining work.
        """
        shard_id = task.get("shard_id")
        row_start = int(task.get("row_start") or 0)
        total_rows = int(task.get("row_stop") or 0) - row_start
        run = _ShardRun(total_rows)
        outcome: dict = {}

        def on_progress(rows_done: int) -> None:
            if self.slow_factor > 1.0:
                # Fault injection: stretch each chunk's wall time by the
                # throttle factor without touching the computed bytes.
                elapsed = time.perf_counter() - run.chunk_t0
                self._stop.wait(elapsed * (self.slow_factor - 1.0))
            run.rows_done = rows_done
            run.chunk_t0 = time.perf_counter()

        def compute() -> None:
            try:
                if self.delay_s > 0:
                    # Testing knob: widen the compute window (heartbeats
                    # flow; a truncate-to-zero ends the nap early).
                    run.wait_delay(self.delay_s, self._stop)
                run.chunk_t0 = time.perf_counter()
                block, rows, snapshot = compute_shard_incremental(
                    task,
                    chunk_rows=self.chunk_rows,
                    progress=on_progress,
                    stop_fn=run.get_stop,
                )
                outcome["block"] = block
                outcome["rows"] = rows
                outcome["snapshot"] = snapshot
            except Exception as exc:
                outcome["error"] = exc
            finally:
                run.finished.set()

        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(conn, send_lock, shard_id, run),
            daemon=True,
        )
        heartbeat.start()
        worker = threading.Thread(
            target=compute, name=f"dist-compute:{shard_id}", daemon=True
        )
        worker.start()
        conn_ok = True
        while not run.finished.is_set():
            try:
                # A short poll slice: nothing interrupts a blocked recv when
                # compute finishes, so this bounds the latency between the
                # sweep completing and the RESULT frame hitting the wire.
                msg_type, payload, _ = proto.recv_msg(conn, timeout=0.02)
            except socket.timeout:
                continue
            except (ConnectionClosed, ProtocolError, OSError):
                # Nobody will read this result; stop at the next chunk
                # boundary instead of finishing a band for no one.
                conn_ok = False
                run.truncate(run.rows_done)
                break
            if msg_type == proto.MSG_PING:
                try:
                    proto.send_msg(conn, proto.MSG_PONG, lock=send_lock)
                except OSError:
                    pass
            elif msg_type == proto.MSG_CANCEL and isinstance(payload, dict):
                if payload.get("shard_id") == shard_id and not self.ignore_cancel:
                    target = int(payload.get("row_stop", row_start)) - row_start
                    run.truncate(target)
                    self._log(
                        f"shard {shard_id} truncated at band row "
                        f"{max(target, 0)} (tail stolen)"
                    )
            elif msg_type == proto.MSG_BYE:
                conn_ok = False
                run.truncate(run.rows_done)
                break
            else:
                # SHUTDOWN and anything else waits until the shard returns;
                # the outer serve loop owns those transitions.
                self._log(
                    f"deferring {proto.MSG_NAMES.get(msg_type, msg_type)} "
                    f"frame until shard {shard_id} completes"
                )
        worker.join()
        run.finished.set()
        heartbeat.join()
        if not conn_ok:
            raise ConnectionClosed("coordinator went away mid-shard")
        error = outcome.get("error")
        if error is None:
            block = outcome["block"]
            rows = int(outcome["rows"])
            reply_type = proto.MSG_RESULT
            reply = {
                "shard_id": shard_id,
                "row_start": row_start,
                # What this worker actually computed — shorter than the task
                # band when a CANCEL truncated it.
                "row_stop": row_start + rows,
                "snapshot": outcome["snapshot"],
                "pid": os.getpid(),
            }
            descr = task.get("shm")
            if descr is not None:
                try:
                    # Zero-copy return: the band goes straight into the
                    # response segment; the RESULT frame stays tiny.
                    reply["shm_bytes"] = shm.write_band(
                        descr["resp"], descr["req"], row_start, block
                    )
                    reply["shm"] = True
                except shm.ShmError as exc:
                    error = exc
            else:
                reply["block"] = block
        if error is not None:
            reply_type = proto.MSG_ERROR
            reply = {
                "shard_id": shard_id,
                "error": f"{type(error).__name__}: {error}",
                # Lets the coordinator tell a broken shm mapping (demote to
                # pickle and resubmit) from a poisoned shard (propagate).
                "shm_failed": isinstance(error, shm.ShmError),
            }
            self._log(f"shard {shard_id} failed: {error}")
        try:
            proto.send_msg(conn, reply_type, reply, lock=send_lock)
        except OSError:
            self._log(f"could not return shard {shard_id}; coordinator gone")
            raise ConnectionClosed("coordinator went away mid-result") from None
        if reply_type == proto.MSG_RESULT:
            self.tasks_done += 1
            self._log(
                f"shard {shard_id} done ({rows}/{max(total_rows, 0)} rows)"
            )

    def _heartbeat_loop(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        shard_id,
        run: "_ShardRun",
    ) -> None:
        if self.heartbeat_s <= 0:
            return
        while not run.finished.wait(self.heartbeat_s):
            try:
                proto.send_msg(
                    conn,
                    proto.MSG_HEARTBEAT,
                    {"shard_id": shard_id, "rows_done": run.rows_done},
                    lock=send_lock,
                )
            except OSError:
                return
