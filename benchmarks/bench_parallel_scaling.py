"""Parallel row-block sweep scaling: speedup at 1/2/4/8 workers.

Measures the four SLAM variants on the paper's default workload
(1280x960 pixels, 100k points) across worker counts on the ``process``
backend, and reports per-cell wall time, rows/sec, and speedup relative to
the serial sweep.  The headline acceptance number is SLAM_BUCKET^(RAO) at
4 workers, which should reach >= 2x on a machine with >= 4 usable cores;
on fewer cores the table documents the (lack of) scaling honestly.

Knobs (environment variables, all optional):

``REPRO_BENCH_PARALLEL_RESOLUTION``
    Base resolution ``X`` (default 1280; ``Y = 3 X / 4`` -> 1280x960).
``REPRO_BENCH_PARALLEL_N``
    Point count (default 100_000).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py -q -s
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _common import emit_json, write_report
from repro.bench.harness import format_table
from repro.core.api import METHODS, PARALLEL_METHODS
from repro.core.kernels import get_kernel
from repro.viz.region import Raster, Region

WORKER_COUNTS = (1, 2, 4, 8)
BENCH_METHODS = PARALLEL_METHODS  # slam_sort, slam_bucket, + RAO variants

_cells: dict[tuple[str, int], float] = {}
_stats: dict[tuple[str, int], dict] = {}
_STARTED = time.perf_counter()


def _resolution() -> tuple[int, int]:
    x = int(os.environ.get("REPRO_BENCH_PARALLEL_RESOLUTION", "1280"))
    return x, max(1, (x * 3) // 4)


def _num_points() -> int:
    return int(os.environ.get("REPRO_BENCH_PARALLEL_N", "100000"))


@pytest.fixture(scope="module")
def workload():
    """The default parallel-scaling workload: uniform-ish clustered points
    over a 1280x960 raster, Epanechnikov kernel, fixed bandwidth."""
    return _build_workload()


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if not _cells:
        return
    width, height = _resolution()
    headers = ["method"] + [f"w={w}" for w in WORKER_COUNTS] + [
        f"speedup@{w}" for w in WORKER_COUNTS[1:]
    ]
    rows = []
    for method in BENCH_METHODS:
        serial = _cells.get((method, 1))
        row: list = [method]
        for w in WORKER_COUNTS:
            t = _cells.get((method, w))
            row.append(f"{t:.3f}" if t is not None else "-")
        for w in WORKER_COUNTS[1:]:
            t = _cells.get((method, w))
            row.append(f"{serial / t:.2f}x" if serial and t else "-")
        rows.append(row)
    lines = [
        f"{m} w={w}: {s['blocks']} blocks, {s.get('orientation', 'rows')}, "
        f"{s['rows_per_sec']:,.0f} rows/s"
        for (m, w), s in sorted(_stats.items())
        if "rows_per_sec" in s
    ]
    title = (
        f"Parallel row-block sweep scaling, {width}x{height}, "
        f"n={_num_points():,}, backend=process, cpus={os.cpu_count()}"
    )
    text = format_table(headers, rows, title=title)
    write_report("parallel_scaling", text + "\n\n" + "\n".join(lines))
    emit_json(
        "parallel_scaling",
        _cells,
        title=title,
        key_fields=["method", "workers"],
        meta={
            "resolution": list(_resolution()),
            "n_points": _num_points(),
            "backend": "process",
            "cpu_count": os.cpu_count(),
            "rows_per_sec": {
                f"{m}@w={w}": s["rows_per_sec"]
                for (m, w), s in sorted(_stats.items())
                if "rows_per_sec" in s
            },
        },
        started=_STARTED,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("method", BENCH_METHODS)
def test_scaling(benchmark, method, workers, workload):
    xy, raster, kernel, bandwidth = workload
    fn, _exact = METHODS[method]
    stats: dict = {}
    kwargs = {"stats": stats}
    if workers > 1:
        kwargs.update(workers=workers, backend="process")

    def call():
        return fn(xy, raster, kernel, bandwidth, **kwargs)

    benchmark.pedantic(call, rounds=1, iterations=1, warmup_rounds=0)
    _cells[(method, workers)] = float(benchmark.stats.stats.mean)
    _stats[(method, workers)] = stats


def _build_workload():
    width, height = _resolution()
    n = _num_points()
    rng = np.random.default_rng(20220613)
    centers = rng.uniform((0.0, 0.0), (10_000.0, 7_500.0), (32, 2))
    assignments = rng.integers(0, len(centers), n)
    xy = centers[assignments] + rng.normal(0.0, 400.0, (n, 2))
    raster = Raster(Region(0.0, 0.0, 10_000.0, 7_500.0), width, height)
    return xy, raster, get_kernel("epanechnikov"), 250.0


def main(argv: "list[str] | None" = None) -> int:
    """Script mode: run the scaling sweep directly (no pytest) with an
    attached recorder and write ``BENCH_parallel_scaling.json``::

        PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --json out/
    """
    import argparse

    from _common import json_dir
    from repro.bench.harness import time_call
    from repro.bench.report import BenchReport
    from repro.obs import Recorder

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="output directory for BENCH_parallel_scaling.json "
        "(default: benchmarks/out)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts (default: 1,2,4,8)",
    )
    ns = parser.parse_args(argv)
    if ns.json:
        os.environ["REPRO_BENCH_JSON"] = ns.json
    worker_counts = (
        tuple(int(w) for w in ns.workers.split(",")) if ns.workers else WORKER_COUNTS
    )

    xy, raster, kernel, bandwidth = _build_workload()
    width, height = _resolution()
    title = (
        f"Parallel row-block sweep scaling, {width}x{height}, "
        f"n={_num_points():,}, backend=process, cpus={os.cpu_count()}"
    )
    recorder = Recorder()
    report = BenchReport(
        "parallel_scaling", title=title, key_fields=["method", "workers"]
    )
    report.meta.update(
        resolution=[width, height],
        n_points=_num_points(),
        backend="process",
        cpu_count=os.cpu_count(),
    )
    for method in BENCH_METHODS:
        fn, _exact = METHODS[method]
        for workers in worker_counts:
            stats: dict = {}
            kwargs = {"stats": stats, "recorder": recorder}
            if workers > 1:
                kwargs.update(workers=workers, backend="process")
            elapsed, _ = time_call(
                lambda: fn(xy, raster, kernel, bandwidth, **kwargs)
            )
            report.add_cell(
                (method, workers),
                elapsed,
                rows_per_sec=stats.get("rows_per_sec"),
                blocks=stats.get("blocks"),
            )
            print(
                f"{method:16s} w={workers}  {elapsed:7.3f}s  "
                f"{stats.get('rows_per_sec', 0):,.0f} rows/s"
            )
    print()
    print(recorder.summary())
    report.attach_recorder(recorder)
    path = report.write(json_dir())
    print(f"\n[bench report: {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
