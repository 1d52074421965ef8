"""Distributed sweep benchmark: speedup vs workers, merge overhead, and
recovery latency after an injected worker kill.

Each distributed cell spawns real worker processes
(:func:`repro.dist.launch_local_workers`), renders the workload through a
:class:`repro.dist.Coordinator`, and tears the pool down again, so the
numbers include connection setup and result shipping — the honest cost of
the socket path.  Four questions the report answers:

* **speedup** — wall time at 1/2/4 workers against the in-process serial
  sweep (the ``serial`` row);
* **merge overhead** — the coordinator's ``dist.plan`` + ``dist.merge``
  phase seconds as a fraction of the render, i.e. what sharding itself
  costs beyond the sweeps;
* **transport bytes** — TCP bytes shipped per shard under the zero-copy
  shared-memory transport (the local-pool default) versus forced pickle
  (``Coordinator(..., shm=False)``), plus the ``dist.shm_bytes`` volume
  that moved through shared memory instead (see ``docs/native.md``);
* **recovery latency** — extra wall time when one of two workers is
  SIGKILLed mid-render versus the same throttled render undisturbed;
* **round trip** — the fixed cost of one shard: the median
  dispatch-to-RESULT time of a one-row shard over a 1-worker pool;
* **skew & scheduling** — a skewed-dataset matrix (Gaussian hotspot, Zipf
  y-bands) comparing the cost-model planner (``balance="cost"`` + work
  stealing) against the points-balanced baseline: per-shard time spread,
  p99 tail latency, and the ``balance_ratio`` (max/mean shard seconds) from
  ``Coordinator.last_report`` — plus a straggler cell where one of two
  workers runs 4x throttled (see ``docs/scheduling.md``).

Knobs (environment variables, all optional):

``REPRO_BENCH_DIST_RESOLUTION``
    Base resolution ``X`` (default 640; ``Y = 3 X / 4`` -> 640x480).
``REPRO_BENCH_DIST_N``
    Point count (default 50_000).
``REPRO_BENCH_DIST_WORKERS``
    Comma-separated worker counts (default ``1,2,4``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_distributed.py -q -s
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np
import pytest

from _common import emit_json, write_report
from repro.bench.harness import format_table
from repro.core.api import compute_kdv
from repro.dist import Coordinator, launch_local_workers
from repro.viz.region import Region

_cells: dict[tuple[str, ...], float] = {}
_meta: dict[str, dict] = {}
#: label -> max/mean per-shard seconds; surfaces as top-level meta field.
_balance_ratios: dict[str, float] = {}
_STARTED = time.perf_counter()

METHOD = "slam_bucket"
ENGINE = "auto"
BANDWIDTH = 250.0


def _resolution() -> tuple[int, int]:
    x = int(os.environ.get("REPRO_BENCH_DIST_RESOLUTION", "640"))
    return x, max(1, (x * 3) // 4)


def _num_points() -> int:
    return int(os.environ.get("REPRO_BENCH_DIST_N", "50000"))


def _worker_counts() -> tuple[int, ...]:
    spec = os.environ.get("REPRO_BENCH_DIST_WORKERS", "1,2,4")
    return tuple(int(w) for w in spec.split(","))


def _build_workload() -> np.ndarray:
    n = _num_points()
    rng = np.random.default_rng(20220613)
    centers = rng.uniform((0.0, 0.0), (10_000.0, 7_500.0), (32, 2))
    assignments = rng.integers(0, len(centers), n)
    return centers[assignments] + rng.normal(0.0, 400.0, (n, 2))


def _kdv_kwargs() -> dict:
    width, height = _resolution()
    return dict(
        region=Region(0.0, 0.0, 10_000.0, 7_500.0),
        size=(width, height),
        kernel="epanechnikov",
        bandwidth=BANDWIDTH,
        method=METHOD,
        engine=ENGINE,
    )


@pytest.fixture(scope="module")
def workload():
    return _build_workload()


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if not _cells:
        return
    width, height = _resolution()
    serial = _cells.get(("serial",))
    headers = ["cell", "seconds", "speedup", "plan+merge overhead"]
    rows = []
    for key in sorted(_cells):
        elapsed = _cells[key]
        label = ":".join(str(k) for k in key)
        meta = _meta.get(label, {})
        speedup = f"{serial / elapsed:.2f}x" if serial and elapsed else "-"
        overhead = meta.get("overhead_fraction")
        rows.append([
            label,
            f"{elapsed:.3f}",
            speedup if key != ("serial",) else "1.00x",
            f"{overhead * 100:.1f}%" if overhead is not None else "-",
        ])
    title = (
        f"Distributed sweep, {width}x{height}, n={_num_points():,}, "
        f"method={METHOD}/{ENGINE}, cpus={os.cpu_count()}"
    )
    text = format_table(headers, rows, title=title)
    recovery = _meta.get("recovery", {})
    lines = [
        f"{label}: " + ", ".join(f"{k}={v}" for k, v in sorted(info.items()))
        for label, info in sorted(_meta.items())
        if info
    ]
    if recovery:
        lines.append(
            "recovery latency (killed vs throttled baseline): "
            f"{recovery.get('latency_s', float('nan')):.3f}s"
        )
    write_report("distributed", text + "\n\n" + "\n".join(lines))
    emit_json(
        "distributed",
        _cells,
        title=title,
        key_fields=["cell"],
        meta={
            "resolution": list(_resolution()),
            "n_points": _num_points(),
            "method": METHOD,
            "engine": ENGINE,
            "worker_counts": list(_worker_counts()),
            "cpu_count": os.cpu_count(),
            "balance_ratio": _balance_ratios or None,
            "cells": _meta,
        },
        started=_STARTED,
    )


def _overhead_fraction(snapshot: dict, elapsed: float) -> "float | None":
    phases = snapshot.get("phases", {})
    cost = sum(
        phases.get(name, {}).get("total_s", 0.0)
        for name in ("dist.plan", "dist.merge")
    )
    return cost / elapsed if elapsed > 0 else None


def test_serial_baseline(benchmark, workload):
    benchmark.pedantic(
        lambda: compute_kdv(workload, workers=1, **_kdv_kwargs()),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    _cells[("serial",)] = float(benchmark.stats.stats.mean)


@pytest.mark.parametrize("workers", _worker_counts())
def test_speedup_vs_workers(benchmark, workload, workers):
    pool = launch_local_workers(workers)
    try:
        with Coordinator(pool.addrs) as coord:
            assert coord.connect() == workers

            def call():
                return compute_kdv(
                    workload, backend="dist", coordinator=coord,
                    **_kdv_kwargs(),
                )

            benchmark.pedantic(call, rounds=1, iterations=1, warmup_rounds=0)
            elapsed = float(benchmark.stats.stats.mean)
            snapshot = coord.recorder.snapshot()
    finally:
        pool.shutdown()
    label = f"dist:w={workers}"
    _cells[("dist", f"w={workers}")] = elapsed
    counters = snapshot.get("counters", {})
    _meta[label] = {
        "shards": counters.get("dist.shards"),
        "bytes_tx": counters.get("dist.bytes_tx"),
        "bytes_rx": counters.get("dist.bytes_rx"),
        "overhead_fraction": _overhead_fraction(snapshot, elapsed),
    }


@pytest.mark.parametrize("transport", ("shm", "pickle"))
def test_transport_bytes(benchmark, workload, transport):
    """Same render, two local workers, shared-memory transport on vs forced
    pickle — the wire-byte delta is what the zero-copy path saves."""
    pool = launch_local_workers(2)
    try:
        with Coordinator(pool.addrs, shm=(transport == "shm")) as coord:
            assert coord.connect() == 2

            def call():
                return compute_kdv(
                    workload, backend="dist", coordinator=coord,
                    **_kdv_kwargs(),
                )

            benchmark.pedantic(call, rounds=1, iterations=1, warmup_rounds=0)
            elapsed = float(benchmark.stats.stats.mean)
            counters = coord.recorder.snapshot().get("counters", {})
    finally:
        pool.shutdown()
    _cells[("transport", transport)] = elapsed
    shards = counters.get("dist.shards") or 0
    bytes_tx = counters.get("dist.bytes_tx", 0)
    _meta[f"transport:{transport}"] = {
        "shards": shards,
        "bytes_tx": bytes_tx,
        "bytes_rx": counters.get("dist.bytes_rx"),
        "shm_bytes": counters.get("dist.shm_bytes", 0),
        "tcp_bytes_per_shard": round(bytes_tx / shards) if shards else None,
    }


def test_recovery_after_kill(benchmark, workload):
    """Two throttled workers; one is SIGKILLed mid-render.  The extra wall
    time over the undisturbed throttled render is the recovery latency
    (detection + resubmission to the survivor)."""
    delay_s = 0.2

    def throttled_render(kill: bool) -> float:
        pool = launch_local_workers(2, delay_s=delay_s)
        try:
            with Coordinator(pool.addrs) as coord:
                assert coord.connect() == 2
                killer = threading.Timer(delay_s / 2, pool[0].kill)
                if kill:
                    killer.start()
                start = time.perf_counter()
                try:
                    compute_kdv(
                        workload, backend="dist", coordinator=coord,
                        **_kdv_kwargs(),
                    )
                finally:
                    killer.cancel()
                elapsed = time.perf_counter() - start
                if kill:
                    counters = coord.recorder.snapshot()["counters"]
                    assert counters.get("dist.worker_deaths", 0) >= 1
        finally:
            pool.shutdown()
        return elapsed

    baseline = throttled_render(kill=False)

    def call():
        return throttled_render(kill=True)

    benchmark.pedantic(call, rounds=1, iterations=1, warmup_rounds=0)
    killed = float(benchmark.stats.stats.mean)
    _cells[("recovery", "killed")] = killed
    _cells[("recovery", "baseline")] = baseline
    _meta["recovery"] = {"latency_s": max(killed - baseline, 0.0)}


#: Renders the round-trip cell times, after a first that maps the segments.
ROUND_TRIPS = 20


def test_round_trip(workload):
    """The fixed cost of one shard: the median dispatch-to-RESULT time
    (``ShardRecord.elapsed_s``) of a one-row, one-shard render over a
    1-worker pool with the shared-memory transport.  Sweeping one row takes
    a fraction of a millisecond, so the cell is the per-shard overhead."""
    width, _ = _resolution()
    kwargs = _kdv_kwargs() | {"size": (width, 1)}
    pool = launch_local_workers(1)
    try:
        with Coordinator(pool.addrs, shards=1) as coord:
            assert coord.connect() == 1
            trips = []
            for _ in range(ROUND_TRIPS + 1):
                compute_kdv(
                    workload, backend="dist", coordinator=coord, **kwargs
                )
                (record,) = coord.last_report.records
                trips.append(record.elapsed_s)
    finally:
        pool.shutdown()
    trips = trips[1:]
    _cells[("round_trip",)] = statistics.median(trips)
    _meta["round_trip"] = {"renders": len(trips), "max_s": max(trips)}


def _skewed_workload(kind: str) -> np.ndarray:
    """Workloads whose per-row cost is very unevenly distributed in y —
    exactly where point- or row-balanced planning falls apart."""
    n = _num_points()
    rng = np.random.default_rng(20260808)
    if kind == "hotspot":
        # 80% of the mass in one Gaussian blob spanning a thin y band.
        hot = rng.normal((5_000.0, 1_500.0), (2_500.0, 250.0), (n * 4 // 5, 2))
        cold = rng.uniform((0.0, 0.0), (10_000.0, 7_500.0), (n - len(hot), 2))
        xy = np.vstack([hot, cold])
    else:
        # Zipf-distributed y bands: a few of 16 horizontal stripes hold
        # nearly all points.
        band = (rng.zipf(1.5, n) - 1) % 16
        step = 7_500.0 / 16
        y = band * step + rng.uniform(0.0, step, n)
        x = rng.uniform(0.0, 10_000.0, n)
        xy = np.column_stack([x, y])
    return np.clip(xy, 0.0, (10_000.0, 7_500.0))


def _record_sched_cell(key: tuple, label: str, elapsed: float, coord) -> None:
    report = coord.last_report
    _cells[key] = elapsed
    seconds = report.shard_seconds() if report else []
    ratio = report.balance_ratio() if report else None
    meta = {
        "balance": getattr(report, "balance", None),
        "shards": len(seconds),
        "balance_ratio": ratio,
        "p99_s": report.p99_seconds() if report else None,
        "shard_spread_s": (
            float(max(seconds) - min(seconds)) if seconds else None
        ),
        "steals": getattr(report, "steals", 0),
        "steal_rows": getattr(report, "steal_rows", 0),
        "refine_moves": getattr(report, "refine_moves", 0),
    }
    _meta[label] = meta
    if ratio is not None:
        _balance_ratios[label] = ratio


@pytest.mark.parametrize("dataset", ("hotspot", "zipf"))
@pytest.mark.parametrize("mode", ("points", "cost"))
def test_skewed_balance(benchmark, dataset, mode):
    """Skewed datasets, two workers: points-balanced planning (stealing off,
    the pre-scheduler baseline) vs cost planning with stealing on."""
    xy = _skewed_workload(dataset)
    pool = launch_local_workers(2)
    try:
        with Coordinator(
            pool.addrs,
            balance=mode,
            steal=(mode == "cost"),
            steal_factor=2.0,
            steal_min_s=0.2,
        ) as coord:
            assert coord.connect() == 2

            def call():
                return compute_kdv(
                    xy, backend="dist", coordinator=coord, **_kdv_kwargs()
                )

            benchmark.pedantic(call, rounds=1, iterations=1, warmup_rounds=0)
            elapsed = float(benchmark.stats.stats.mean)
            _record_sched_cell(
                ("skew", dataset, mode), f"skew:{dataset}:{mode}",
                elapsed, coord,
            )
    finally:
        pool.shutdown()


@pytest.mark.parametrize("mode", ("points", "cost"))
def test_straggler_modes(benchmark, workload, mode):
    """One of two workers runs 4x throttled.  Points-balanced planning with
    no stealing rides the straggler's clock; cost planning plus stealing
    should land near the balanced ideal."""
    # Heartbeats every 50ms: steal triggers are only evaluated on signs of
    # life, so they must tick several times within one throttled shard.
    fast = launch_local_workers(1, heartbeat_s=0.05)
    slow = launch_local_workers(1, heartbeat_s=0.05, slow_factor=4.0)
    try:
        with Coordinator(
            fast.addrs + slow.addrs,
            balance=mode,
            steal=(mode == "cost"),
            steal_factor=1.5,
            steal_min_s=0.1,
            min_steal_rows=4,
            shards=4,
        ) as coord:
            assert coord.connect() == 2

            def call():
                return compute_kdv(
                    workload, backend="dist", coordinator=coord,
                    **_kdv_kwargs(),
                )

            benchmark.pedantic(call, rounds=1, iterations=1, warmup_rounds=0)
            elapsed = float(benchmark.stats.stats.mean)
            _record_sched_cell(
                ("straggler", mode), f"straggler:{mode}", elapsed, coord
            )
    finally:
        fast.shutdown()
        slow.shutdown()


def main(argv: "list[str] | None" = None) -> int:
    """Script mode (delegates to pytest so the report fixture runs)::

        PYTHONPATH=src python benchmarks/bench_distributed.py --json out/
    """
    from _common import pytest_script_main

    return pytest_script_main(__file__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
