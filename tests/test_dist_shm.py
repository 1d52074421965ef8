"""The same-machine shard round trip: an event-driven worker and the
coordinator's kept shared-memory segments.

* A worker sends its RESULT the moment the sweep ends, not at the next tick
  of a receive poll.
* A coordinator keeps one request/response segment pair between renders,
  refills it in place, and unlinks it on ``close()``; a render that
  abandoned an attempt retires its pair, so a straggler can never write
  into a later render's grid.
* Concurrent renders through one coordinator each get a pair of their own.

Workers are in-thread :class:`~repro.dist.WorkerServer` instances (real TCP
sockets, one process), so ``/dev/shm`` holds only the coordinators'
segments.
"""

from __future__ import annotations

import glob
import socket
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro import compute_kdv
from repro.core.engines import ENGINES
from repro.dist import Coordinator, WorkerServer, engine_spec, proto, shm
from repro.dist.worker import compute_shard

pytestmark = pytest.mark.skipif(
    not shm.SHM_AVAILABLE, reason="no shared memory here"
)

KW = dict(bandwidth=9.0, method="slam_bucket")


@pytest.fixture(scope="module")
def xy() -> np.ndarray:
    rng = np.random.default_rng(2023)
    centers = rng.uniform((0.0, 0.0), (100.0, 80.0), (6, 2))
    return centers[rng.integers(0, 6, 3000)] + rng.normal(0.0, 7.0, (3000, 2))


def _segments() -> "list[str]":
    return sorted(glob.glob("/dev/shm/rkdv-*"))


def _serve(*servers):
    return [srv.start_in_thread() for srv in servers]


def _stop(servers, threads):
    for srv in servers:
        srv.stop()
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_result_leaves_when_the_sweep_ends():
    """Over 20 TASK -> RESULT trips of a one-row shard the median stays
    under 10 ms (about 1 ms on a 2-vCPU host).  A receive loop that polls
    for frames every 20 ms while the compute thread runs takes a poll slice
    per trip: the 2,000-point row takes long enough that its sweep is still
    running when the loop first looks."""
    srv = WorkerServer(port=0)
    threads = _serve(srv)
    sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    rng = np.random.default_rng(5)
    halo = rng.uniform((0.0, -1.0), (10.0, 1.0), (2000, 2))
    try:
        proto.client_handshake(sock)
        task = {
            "row_start": 0, "row_stop": 1,
            "halo_xy": halo[np.argsort(halo[:, 1], kind="stable")],
            "halo_weights": None, "y_centers": np.array([0.0]),
            "xs_scaled": np.linspace(-1.0, 11.0, 256), "cx": 0.0,
            "bandwidth": 1.0, "kernel": "epanechnikov",
            "engine": engine_spec(ENGINES["slam_bucket.numpy"]),
            "collect": False,
        }
        expected, _ = compute_shard(task)
        trips = []
        for shard_id in range(20):
            t0 = time.perf_counter()
            proto.send_msg(sock, proto.MSG_TASK, task | {"shard_id": shard_id})
            msg_type, payload, _ = proto.recv_msg(sock, timeout=5.0)
            while msg_type == proto.MSG_HEARTBEAT:
                msg_type, payload, _ = proto.recv_msg(sock, timeout=5.0)
            trips.append(time.perf_counter() - t0)
            assert msg_type == proto.MSG_RESULT
            assert payload["shard_id"] == shard_id
            assert np.array_equal(payload["block"], expected)
        assert statistics.median(trips) < 0.010, trips
        proto.send_msg(sock, proto.MSG_BYE)
    finally:
        sock.close()
        _stop([srv], threads)


def test_straggler_cannot_reach_the_next_render(xy):
    """A worker whose attempt hits ``deadline_s`` is abandoned mid-shard.
    The render that abandoned it retires its segment pair instead of
    keeping it, so whatever the straggler still writes lands in segments no
    later render maps.  The worker goes back to accepting connections, and
    the next render — another kernel, started at once — runs on the pool
    and equals serial."""
    fast = WorkerServer(port=0, heartbeat_s=0.05)
    # No heartbeat inside the deadline: the nap reads as a wedged worker.
    napper = WorkerServer(port=0, heartbeat_s=30.0, delay_s=30.0)
    # Listed first, the napper wins the first checkout of equal capacities.
    servers = [napper, fast]
    threads = _serve(*servers)
    size = (160, 120)
    try:
        with Coordinator(
            [("127.0.0.1", s.port) for s in servers],
            deadline_s=0.3, max_retries=2, shards=4, steal=False,
        ) as coord:
            first = compute_kdv(xy, size=size, kernel="epanechnikov",
                                backend="dist", coordinator=coord, **KW)
            assert np.array_equal(
                first.grid,
                compute_kdv(xy, size=size, kernel="epanechnikov", **KW).grid,
            )
            assert coord.recorder.counter_value("dist.retries") >= 1
            # The abandoned render kept nothing.
            assert _segments() == []
            assert napper.tasks_done == 0

            napper.delay_s = 0.0
            start = time.monotonic()
            # The straggler survived its abandoned shard and takes the
            # coordinator back.
            assert coord.connect() == 2
            second = compute_kdv(xy, size=size, kernel="quartic",
                                 backend="dist", coordinator=coord, **KW)
            assert time.monotonic() - start < 5.0
            assert np.array_equal(
                second.grid,
                compute_kdv(xy, size=size, kernel="quartic", **KW).grid,
            )
            assert coord.recorder.counter_value("dist.local_shards") == 0
            # A clean render keeps its pair for the next one.
            assert len(_segments()) == 2
        assert _segments() == []
    finally:
        _stop(servers, threads)


def test_concurrent_renders_stay_exact(xy):
    """Four threads (more than the cores of a small host, with a short
    switch interval) render two grid sizes through one coordinator: one at
    a time holds the kept pair, the others render into pairs of their own,
    and every grid equals serial."""
    servers = [WorkerServer(port=0) for _ in range(2)]
    threads = _serve(*servers)
    sizes = ((160, 120), (96, 64)) * 2
    refs = {
        size: compute_kdv(xy, size=size, kernel="quartic", **KW).grid
        for size in sizes
    }
    results: "list[tuple]" = []
    errors: "list[BaseException]" = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Coordinator([("127.0.0.1", s.port) for s in servers]) as coord:
            barrier = threading.Barrier(len(sizes))

            def render(size):
                try:
                    barrier.wait(timeout=10.0)
                    for _ in range(4):
                        grid = compute_kdv(
                            xy, size=size, kernel="quartic", backend="dist",
                            coordinator=coord, **KW,
                        ).grid
                        results.append((size, np.array_equal(grid, refs[size])))
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            clients = [
                threading.Thread(target=render, args=(size,)) for size in sizes
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=60.0)
                assert not client.is_alive()
            assert not errors, errors
            assert len(results) == 16
            assert all(equal for _, equal in results), results
            assert coord.recorder.counter_value("dist.local_shards") == 0
            # Private pairs were unlinked; at most the kept pair remains.
            assert len(_segments()) <= 2
        assert _segments() == []
    finally:
        sys.setswitchinterval(interval)
        _stop(servers, threads)


def test_segment_lifecycle_over_mixed_renders(xy):
    """Across 50 renders of mixed sizes only the kept pair stays in
    ``/dev/shm`` between renders.  It is refilled in place while renders fit
    and replaced once when a larger one arrives, and ``close()`` unlinks
    it."""
    srv = WorkerServer(port=0)
    threads = _serve(srv)
    sizes = ((64, 48), (160, 120), (96, 72))
    refs = {
        size: compute_kdv(xy, size=size, kernel="epanechnikov", **KW).grid
        for size in sizes
    }
    seen: "list[list[str]]" = []
    try:
        with Coordinator([("127.0.0.1", srv.port)], shards=3) as coord:
            for i in range(50):
                size = sizes[i % len(sizes)]
                grid = compute_kdv(
                    xy, size=size, kernel="epanechnikov", backend="dist",
                    coordinator=coord, **KW,
                ).grid
                assert np.array_equal(grid, refs[size]), (i, size)
                after = _segments()
                assert len(after) == 2, after
                seen.append(after)
            assert coord.recorder.counter_value("dist.local_shards") == 0
        assert _segments() == []
    finally:
        _stop([srv], threads)
    # The first pair fits only the smallest grid; the second serves the rest.
    assert seen[1] != seen[0]
    assert all(names == seen[1] for names in seen[1:])
