"""Spawn and manage local worker processes (tests, CI, ``repro dist --spawn``).

These helpers run ``python -m repro dist-worker --port 0`` as real child
processes — not threads — so fault-injection tests can SIGKILL one and
exercise exactly the failure the coordinator must survive in production.
Each worker prints one machine-readable ready line
(:func:`repro.dist.worker.format_ready_line`) on stdout; the launcher parses
it to learn the OS-assigned port.

:meth:`LocalWorkerPool.shutdown` is deliberately belt-and-braces (SIGTERM,
wait, SIGKILL, reap) because the CI smoke job asserts no orphan processes
survive a run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

from .errors import WorkerLaunchError
from .worker import parse_ready_line

__all__ = ["LocalWorker", "LocalWorkerPool", "launch_local_workers"]


class LocalWorker:
    """One spawned ``repro dist-worker`` child process."""

    def __init__(self, process: subprocess.Popen, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    @property
    def addr(self) -> "tuple[str, int]":
        return (self.host, self.port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL the worker — the fault-injection hammer."""
        if self.alive():
            self.process.kill()
        self.reap()

    def reap(self) -> None:
        """Wait for the process to exit, then close its stdout pipe."""
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def terminate(self) -> None:
        if self.alive():
            self.process.terminate()


class LocalWorkerPool:
    """A set of spawned workers that is guaranteed to be cleaned up."""

    def __init__(self, workers: "list[LocalWorker]"):
        self.workers = workers

    @property
    def addrs(self) -> "list[tuple[str, int]]":
        return [w.addr for w in self.workers]

    def __len__(self) -> int:
        return len(self.workers)

    def __iter__(self):
        return iter(self.workers)

    def __getitem__(self, i: int) -> LocalWorker:
        return self.workers[i]

    def shutdown(self, grace_s: float = 3.0) -> None:
        """Terminate and reap every worker: SIGTERM, wait up to ``grace_s``,
        SIGKILL whatever remains, then ``wait()`` all so nothing is left as a
        zombie for the CI orphan check to find, and close their pipes."""
        for w in self.workers:
            w.terminate()
        deadline = time.monotonic() + grace_s
        for w in self.workers:
            remaining = deadline - time.monotonic()
            try:
                w.process.wait(timeout=max(remaining, 0.1))
            except subprocess.TimeoutExpired:
                w.process.kill()
        for w in self.workers:
            w.reap()

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def _read_ready_line(
    proc: subprocess.Popen, timeout_s: float
) -> "tuple[str, int] | None":
    """Read stdout lines until the ready line appears, with a hard timeout
    (a reader thread, because ``readline`` on a pipe cannot be timed out)."""
    result: "list[tuple[str, int] | None]" = [None]

    def reader() -> None:
        while True:
            line = proc.stdout.readline()
            if not line:
                return
            parsed = parse_ready_line(line)
            if parsed is not None:
                result[0] = parsed
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout_s)
    return result[0]


def launch_local_workers(
    n: int,
    *,
    host: str = "127.0.0.1",
    heartbeat_s: float = 0.25,
    delay_s: float = 0.0,
    slow_factor: float = 1.0,
    startup_timeout_s: float = 20.0,
    python: "str | None" = None,
) -> LocalWorkerPool:
    """Spawn ``n`` local worker processes and wait for all to be ready.

    ``delay_s`` and ``slow_factor`` are fault-injection knobs applied to
    *every* worker in the pool (spawn a second pool to build a
    heterogeneous cluster, as the sched smoke test does).

    Raises :class:`WorkerLaunchError` (after cleaning up any workers that
    did start) if a child dies or fails to print its ready line in time.
    """
    if n < 1:
        raise ValueError(f"need at least one worker, got {n}")
    env = dict(os.environ)
    # Children must import this very package even when it runs from a source
    # tree that is not installed.
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    cmd = [
        python or sys.executable,
        "-m",
        "repro",
        "dist-worker",
        "--host",
        host,
        "--port",
        "0",
        "--heartbeat",
        str(heartbeat_s),
    ]
    if delay_s > 0:
        cmd += ["--delay-s", str(delay_s)]
    if slow_factor > 1.0:
        cmd += ["--slow-factor", str(slow_factor)]
    workers: "list[LocalWorker]" = []
    procs: "list[subprocess.Popen]" = []
    try:
        procs = [
            subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env=env,
                start_new_session=True,  # isolate from our signal group
            )
            for _ in range(n)
        ]
        for proc in procs:
            ready = _read_ready_line(proc, startup_timeout_s)
            if ready is None:
                raise WorkerLaunchError(
                    f"worker pid {proc.pid} did not become ready within "
                    f"{startup_timeout_s}s (exit code {proc.poll()})"
                )
            workers.append(LocalWorker(proc, ready[0], ready[1]))
        return LocalWorkerPool(workers)
    except BaseException:
        leftovers = [
            LocalWorker(p, host, 0)
            for p in procs
            if all(w.process is not p for w in workers)
        ]
        LocalWorkerPool(workers + leftovers).shutdown(grace_s=1.0)
        raise
