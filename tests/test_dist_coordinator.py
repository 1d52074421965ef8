"""Coordinator behavior over real workers: socket parity, fault injection,
typed deadlines, graceful degradation, and clean shutdown.

Fast tests use in-thread :class:`~repro.dist.WorkerServer` instances (real
TCP sockets, one process).  The fault-injection tests spawn actual worker
*processes* via :func:`~repro.dist.launch_local_workers` so a SIGKILL is a
genuine process death, and assert the pool leaves no orphans behind.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import compute_kdv
from repro.core.engines import ENGINES
from repro.core.native import NATIVE_AVAILABLE, NativeEngine
from repro.dist import (
    Coordinator,
    DistError,
    DistTimeout,
    WorkerServer,
    engine_spec,
    launch_local_workers,
    resolve_engine,
)
from repro.serve import TileService


@pytest.fixture(scope="module")
def xy() -> np.ndarray:
    rng = np.random.default_rng(77)
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (200, 2))


KW = dict(size=(16, 12), bandwidth=9.0, method="slam_bucket")


class TestEngineSpec:
    def test_row_engine_roundtrip(self):
        for name in ("slam_bucket.python", "slam_bucket.numpy",
                     "slam_sort.python", "slam_sort.numpy"):
            spec = engine_spec(ENGINES[name])
            assert spec == {"name": name, "threads": 1}
            assert resolve_engine(spec) is ENGINES[name]

    @pytest.mark.skipif(not NATIVE_AVAILABLE,
                        reason="native sweep extension did not load")
    def test_batch_engine_roundtrip(self):
        spec = engine_spec(NativeEngine(threads=2))
        assert spec == {"name": "slam_bucket.native", "threads": 2}
        engine = resolve_engine(spec)
        assert isinstance(engine, NativeEngine) and engine.threads == 2

    def test_unknown_engine_rejected(self):
        with pytest.raises(DistError, match="engine"):
            resolve_engine({"name": "no.such.engine", "threads": 1})


class TestSocketParity:
    """Two in-thread socket workers produce the exact serial grid."""

    @pytest.fixture()
    def workers(self):
        servers = [WorkerServer(port=0, heartbeat_s=0.2) for _ in range(2)]
        threads = [srv.start_in_thread() for srv in servers]
        yield servers
        for srv in servers:
            srv.stop()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    @pytest.mark.parametrize("engine", ("numpy", "auto"))
    def test_bit_identical_over_sockets(self, xy, workers, engine):
        serial = compute_kdv(xy, engine=engine, **KW)
        with Coordinator([("127.0.0.1", s.port) for s in workers]) as coord:
            assert coord.connect() == 2
            dist = compute_kdv(
                xy, engine=engine, backend="dist", coordinator=coord, **KW
            )
            rec = coord.recorder
            assert np.array_equal(serial.grid, dist.grid)
            # shards really crossed the wire, none fell back to local
            assert rec.counter_value("dist.bytes_tx") > 0
            assert rec.counter_value("dist.bytes_rx") > 0
            assert rec.counter_value("dist.local_shards") == 0
            assert rec.counter_value("dist.shards") >= 2
        # workers bump tasks_done after the result frame is already on the
        # wire, so give the last increment a moment to land
        expected = rec.counter_value("dist.shards")
        deadline = time.monotonic() + 5.0
        while (
            sum(s.tasks_done for s in workers) != expected
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert sum(s.tasks_done for s in workers) == expected

    def test_worker_survives_coordinator_churn(self, xy, workers):
        """A worker outlives its coordinator: disconnect, then serve again."""
        addrs = [("127.0.0.1", s.port) for s in workers]
        serial = compute_kdv(xy, **KW)
        for _ in range(2):
            with Coordinator(addrs) as coord:
                dist = compute_kdv(
                    xy, backend="dist", coordinator=coord, **KW
                )
                assert np.array_equal(serial.grid, dist.grid)

    def test_explicit_shard_count_honored(self, xy, workers):
        with Coordinator(
            [("127.0.0.1", s.port) for s in workers], shards=5
        ) as coord:
            dist = compute_kdv(xy, backend="dist", coordinator=coord, **KW)
            assert coord.recorder.counter_value("dist.shards") == 5
            assert np.array_equal(compute_kdv(xy, **KW).grid, dist.grid)


class TestGracefulDegradation:
    def test_unreachable_workers_fall_back_to_local(self, xy):
        serial = compute_kdv(xy, **KW)
        # nothing listens on this port; connect fails fast and every shard
        # runs in-process
        with Coordinator(
            [("127.0.0.1", 1)], connect_timeout_s=0.2, shards=3
        ) as coord:
            dist = compute_kdv(xy, backend="dist", coordinator=coord, **KW)
            assert np.array_equal(serial.grid, dist.grid)
            assert coord.recorder.counter_value("dist.local_shards") == 3

    def test_workerless_coordinator_is_fully_local(self, xy):
        with Coordinator(shards=4) as coord:
            dist = compute_kdv(xy, backend="dist", coordinator=coord, **KW)
            assert np.array_equal(compute_kdv(xy, **KW).grid, dist.grid)
            assert coord.recorder.counter_value("dist.local_shards") == 4
            assert coord.recorder.counter_value("dist.bytes_tx") == 0


class TestFaultInjection:
    """Real worker processes, real SIGKILL."""

    def test_kill_worker_mid_shard_retries_on_survivor(self, xy):
        serial = compute_kdv(xy, **KW)
        pool = launch_local_workers(2, delay_s=0.5)
        try:
            with Coordinator(pool.addrs) as coord:
                assert coord.connect() == 2
                victim = pool[0]
                killer = threading.Timer(0.25, victim.kill)
                killer.start()
                try:
                    dist = compute_kdv(
                        xy, backend="dist", coordinator=coord, **KW
                    )
                finally:
                    killer.cancel()
                killer.join(timeout=5.0)
                rec = coord.recorder
                assert np.array_equal(serial.grid, dist.grid)
                assert rec.counter_value("dist.worker_deaths") >= 1
                assert rec.counter_value("dist.retries") >= 1
                assert rec.counter_value("dist.heartbeats") >= 1
                assert not victim.alive()
                # kill() reaps the worker and closes its stdout pipe
                assert victim.process.stdout.closed
        finally:
            pool.shutdown()
        assert all(not w.alive() for w in pool)
        assert all(w.process.stdout.closed for w in pool)

    def test_deadline_expiry_raises_typed_timeout(self, xy):
        """An unresponsive worker trips DistTimeout — a typed error, not a
        hang.  ``deadline_s`` is a *liveness* deadline (heartbeats reset it),
        so the worker is launched with its heartbeat effectively disabled to
        model a wedged process."""
        pool = launch_local_workers(1, delay_s=30.0, heartbeat_s=30.0)
        try:
            with Coordinator(
                pool.addrs, deadline_s=0.3, max_retries=0, shards=1
            ) as coord:
                assert coord.connect() == 1
                start = time.monotonic()
                with pytest.raises(DistTimeout, match="timed out"):
                    compute_kdv(xy, backend="dist", coordinator=coord, **KW)
                assert time.monotonic() - start < 10.0
        finally:
            pool.shutdown()
        assert all(not w.alive() for w in pool)

    def test_shutdown_workers_terminates_processes(self, xy):
        pool = launch_local_workers(2)
        try:
            with Coordinator(pool.addrs) as coord:
                assert coord.connect() == 2
                dist = compute_kdv(xy, backend="dist", coordinator=coord, **KW)
                assert np.array_equal(compute_kdv(xy, **KW).grid, dist.grid)
                coord.shutdown_workers()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(w.alive() for w in pool):
                time.sleep(0.05)
            assert all(not w.alive() for w in pool)
        finally:
            pool.shutdown()


class TestTileServiceCoordinator:
    def test_distributed_tiles_match_local(self, xy):
        kwargs = dict(
            tile_size=16, bandwidth=20.0, method="slam_bucket",
            workers=2, max_zoom=2,
        )
        plain = TileService(xy, **kwargs)
        coord = Coordinator(shards=3)
        dist = TileService(xy, coordinator=coord, **kwargs)
        try:
            for key in ((0, 0, 0), (1, 0, 1), (1, 1, 0)):
                assert np.array_equal(dist.get_tile(*key), plain.get_tile(*key))
            counters = dist.stats()["recorder"]["counters"]
            assert counters["dist.shards"] > 0
            # repeated stats() snapshots must not double-count the coordinator
            again = dist.stats()["recorder"]["counters"]
            assert again["dist.shards"] == counters["dist.shards"]
        finally:
            plain.close()
            dist.close()
            coord.close()

    def test_coordinator_requires_slam_method(self, xy):
        coord = Coordinator()
        try:
            with pytest.raises(ValueError, match="SLAM method"):
                TileService(xy, coordinator=coord, method="scan")
        finally:
            coord.close()
