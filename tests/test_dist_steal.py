"""Work-stealing exactness and protocol behavior (repro.dist coordinator +
workers).

The core claim under test: a steal mid-render never changes a single output
byte.  The straggler is truncated at the steal row, the thief computes the
tail with its own recomputed halo, and when the straggler loses the CANCEL
race and computes stolen rows anyway (forced here with ``ignore_cancel``),
the overlap bytes are identical and the thief's copy wins deterministically.

Workers are in-thread :class:`~repro.dist.WorkerServer` instances (real TCP
sockets) with the fault-injection knobs: ``delay_s`` (a nap before compute —
a wedged worker), ``slow_factor`` (compute stretched per row chunk — a slow
machine), ``ignore_cancel`` (the double-completion race).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compute_kdv
from repro.dist import Coordinator, WorkerServer

KW = dict(size=(96, 128), bandwidth=12.0, method="slam_bucket", engine="numpy")

#: Aggressive steal knobs so sub-second test renders actually steal.
STEAL_KW = dict(
    steal=True,
    steal_factor=1.5,
    steal_min_s=0.04,
    min_steal_rows=2,
    shards=4,
)


def _dataset(n=4000, seed=77):
    rng = np.random.default_rng(seed)
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (n, 2))


def _serve(*servers):
    threads = [srv.start_in_thread() for srv in servers]
    return threads


def _stop(servers, threads):
    for srv in servers:
        srv.stop()
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestStealFires:
    def test_steal_from_throttled_worker_is_exact(self):
        """One 40x-throttled worker: the fast one must steal its tail, and
        the merged grid must still be bit-identical to serial."""
        xy = _dataset()
        serial = compute_kdv(xy, **KW)
        fast = WorkerServer(port=0, heartbeat_s=0.05)
        slow = WorkerServer(
            port=0, heartbeat_s=0.05, slow_factor=40.0, chunk_rows=1
        )
        threads = _serve(fast, slow)
        try:
            with Coordinator(
                [("127.0.0.1", fast.port), ("127.0.0.1", slow.port)],
                **STEAL_KW,
            ) as coord:
                assert coord.connect() == 2
                dist = compute_kdv(
                    xy, backend="dist", coordinator=coord, **KW
                )
                assert np.array_equal(serial.grid, dist.grid)
                rec = coord.recorder
                assert rec.counter_value("dist.steals") >= 1
                assert rec.counter_value("dist.steal_rows") >= 1
                assert rec.counter_value("dist.cancels") >= 1
                report = coord.last_report
                assert report is not None
                assert report.steals >= 1
                stolen = [
                    r for r in report.records if r.stolen_from is not None
                ]
                assert stolen, "no thief record in the report"
                # thief units cover disjoint tails of planned bands
                for r in stolen:
                    assert r.row_stop > r.row_start
        finally:
            _stop((fast, slow), threads)

    def test_wedged_worker_loses_everything(self):
        """A worker that naps before computing (rows_done stays 0) first
        donates half, then — still at zero progress — everything left.  Its
        nap is interrupted and it contributes nothing."""
        xy = _dataset(seed=5)
        serial = compute_kdv(xy, **KW)
        fast = WorkerServer(port=0, heartbeat_s=0.05)
        napper = WorkerServer(port=0, heartbeat_s=0.05, delay_s=30.0)
        threads = _serve(fast, napper)
        try:
            with Coordinator(
                [("127.0.0.1", fast.port), ("127.0.0.1", napper.port)],
                **STEAL_KW,
            ) as coord:
                assert coord.connect() == 2
                dist = compute_kdv(
                    xy, backend="dist", coordinator=coord, **KW
                )
                assert np.array_equal(serial.grid, dist.grid)
                rec = coord.recorder
                assert rec.counter_value("dist.steals") >= 2
                report = coord.last_report
                napper_addr = f"127.0.0.1:{napper.port}"
                napper_rows = sum(
                    r.rows for r in report.records if r.worker == napper_addr
                )
                assert napper_rows == 0
        finally:
            _stop((fast, napper), threads)

    def test_double_completion_race_discards_deterministically(self):
        """``ignore_cancel`` forces the race: the straggler computes the
        stolen rows anyway.  The thief's identical bytes win; the discard is
        counted; the grid is exact."""
        xy = _dataset(seed=11)
        serial = compute_kdv(xy, **KW)
        fast = WorkerServer(port=0, heartbeat_s=0.05)
        stubborn = WorkerServer(
            port=0,
            heartbeat_s=0.05,
            slow_factor=20.0,
            chunk_rows=1,
            ignore_cancel=True,
        )
        threads = _serve(fast, stubborn)
        try:
            with Coordinator(
                [("127.0.0.1", fast.port), ("127.0.0.1", stubborn.port)],
                **STEAL_KW,
            ) as coord:
                assert coord.connect() == 2
                dist = compute_kdv(
                    xy, backend="dist", coordinator=coord, **KW
                )
                assert np.array_equal(serial.grid, dist.grid)
                rec = coord.recorder
                assert rec.counter_value("dist.steals") >= 1
                assert rec.counter_value("dist.steal_discarded_rows") >= 1
                report = coord.last_report
                assert report.discarded_rows >= 1
                # the stubborn worker computed more rows than it contributed
                overshoot = [
                    r
                    for r in report.records
                    if r.computed_rows > r.rows
                ]
                assert overshoot
        finally:
            _stop((fast, stubborn), threads)

    def test_no_steal_when_disabled(self):
        xy = _dataset(seed=3)
        serial = compute_kdv(xy, **KW)
        fast = WorkerServer(port=0, heartbeat_s=0.05)
        slow = WorkerServer(
            port=0, heartbeat_s=0.05, slow_factor=8.0, chunk_rows=2
        )
        threads = _serve(fast, slow)
        try:
            with Coordinator(
                [("127.0.0.1", fast.port), ("127.0.0.1", slow.port)],
                **{**STEAL_KW, "steal": False},
            ) as coord:
                dist = compute_kdv(
                    xy, backend="dist", coordinator=coord, **KW
                )
                assert np.array_equal(serial.grid, dist.grid)
                assert coord.recorder.counter_value("dist.steals") == 0
                assert coord.recorder.counter_value("dist.cancels") == 0
        finally:
            _stop((fast, slow), threads)


def test_dist_render_starts_no_thread(monkeypatch):
    """The coordinator drives a render's shards, steals included, from the
    calling thread, and a worker computes on the thread serving its
    connection: three stealing renders start no thread at all."""
    xy = _dataset(seed=13)
    serial = compute_kdv(xy, **KW)
    fast = WorkerServer(port=0, heartbeat_s=0.05)
    slow = WorkerServer(
        port=0, heartbeat_s=0.05, slow_factor=20.0, chunk_rows=1
    )
    threads = _serve(fast, slow)
    started = []
    real_start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        real_start(thread)

    try:
        with Coordinator(
            [("127.0.0.1", fast.port), ("127.0.0.1", slow.port)],
            **STEAL_KW,
        ) as coord:
            assert coord.connect() == 2
            # From a fresh cost model: the first render calibrates it and
            # steals within the render.
            monkeypatch.setattr(threading.Thread, "start", spy)
            grids = [
                compute_kdv(xy, backend="dist", coordinator=coord, **KW).grid
                for _ in range(3)
            ]
            monkeypatch.undo()
            steals = coord.recorder.counter_value("dist.steals")
        assert started == []
        assert steals > 0
        for grid in grids:
            assert np.array_equal(serial.grid, grid)
    finally:
        monkeypatch.undo()
        _stop((fast, slow), threads)


@pytest.fixture(scope="module")
def steal_pool():
    """A heterogeneous pool shared by the hypothesis examples below: one
    native-speed worker and one heavily throttled one."""
    fast = WorkerServer(port=0, heartbeat_s=0.05)
    slow = WorkerServer(
        port=0, heartbeat_s=0.05, slow_factor=25.0, chunk_rows=1
    )
    threads = _serve(fast, slow)
    yield (fast, slow)
    _stop((fast, slow), threads)


class TestStealExactnessProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(50, 600),
        shards=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        skew=st.booleans(),
    )
    def test_grids_bit_identical_whatever_steals_fire(
        self, steal_pool, n, shards, seed, skew
    ):
        """For any dataset / shard count, with a straggler in the pool and
        aggressive steal knobs, the distributed grid equals serial exactly —
        whether or not steals actually fired for that example."""
        rng = np.random.default_rng(seed)
        if skew:
            hot = rng.normal((50, 20), (15, 3.0), (n, 2))
            xy = np.clip(hot, 0.0, (100.0, 80.0))
        else:
            xy = rng.uniform((0.0, 0.0), (100.0, 80.0), (n, 2))
        fast, slow = steal_pool
        serial = compute_kdv(xy, **KW)
        with Coordinator(
            [("127.0.0.1", fast.port), ("127.0.0.1", slow.port)],
            **{**STEAL_KW, "shards": shards},
        ) as coord:
            dist = compute_kdv(xy, backend="dist", coordinator=coord, **KW)
        assert np.array_equal(serial.grid, dist.grid)
