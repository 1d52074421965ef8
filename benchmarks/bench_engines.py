"""SLAM engine shootout: python vs numpy vs native.

Measures the ``slam_bucket`` engines over a grid of resolutions and
dataset sizes on the clustered benchmark workload, serial, with the y-sorted
index prebuilt outside the timed region — so each cell times exactly the
sweep the engine owns.  ``numpy`` is the per-row vectorized Algorithm 2
(``slam_bucket_row_numpy``, the oracle ``native`` is pinned to) driven by
the per-row sweep loop.  Every cell reports min-of-repeats wall clock and
rows/sec, and the speedup relative to ``numpy``.

Where the extension loaded (it compiles on first import), the fused-C
``native`` engine joins the grid: serial, ``native@default`` with
``workers`` unset (the team ``compute_kdv`` picks by default: every usable
CPU once a cell's envelope pairs reach ``TEAM_MIN_PAIRS``, one thread
below), plus an OpenMP ``native@<T>T`` cell when the machine has more than
one CPU — see ``docs/native.md``; hosts without it simply skip it.

The headline cell is ``native`` vs ``numpy`` at 1280x960, n = 100k,
Epanechnikov, bandwidth 15 (a sharp-hotspot bandwidth, ~4 px, where the
per-row loop's interpreter overhead dominates ``numpy``).

The per-engine timings are directly comparable because the engines are
bit-identical (numpy, native) or float-close (python): they do the same
work, only dispatched differently.

Knobs (environment variables, all optional):

``REPRO_BENCH_ENGINES_RESOLUTIONS``
    Comma-separated base resolutions ``X`` (default ``320,1280``;
    ``Y = 3 X / 4``).
``REPRO_BENCH_ENGINES_N``
    Comma-separated point counts (default ``10000,100000``).
``REPRO_BENCH_ENGINES_BANDWIDTH``
    Bandwidth in world units (default ``15``).
``REPRO_BENCH_ENGINES_REPEATS``
    Timing repeats per cell; the minimum is reported (default ``3``).
``REPRO_BENCH_ENGINES_NATIVE_THREADS``
    OpenMP thread count for the extra ``native@<T>T`` cell (default: the
    CPUs this process may run on; the cell only appears when the count is
    > 1 and the extension compiled).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engines.py -q -s

or script mode (no pytest)::

    PYTHONPATH=src python benchmarks/bench_engines.py --json out/
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _common import MAX_CELL_COST, emit_json, write_report
from repro.bench.harness import format_table
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.engines import slam_bucket_grid
from repro.core.native import NATIVE_AVAILABLE
from repro.core.parallel import usable_cpus
from repro.viz.region import Raster, Region

ENGINES = ("python", "numpy") + (("native",) if NATIVE_AVAILABLE else ())
#: Timed grid functions by cell label.
GRIDS = {engine: slam_bucket_grid[engine] for engine in ENGINES}

#: Interpreter-overhead multiplier for the python engine's cost estimate
#: (pure-Python per-point loops vs vectorized passes), used only for the
#: budget skip that stands in for the paper's timeout.
_PYTHON_OVERHEAD = 50.0

_cells: dict[tuple[str, int, int], float] = {}
_rows_per_sec: dict[tuple[str, int, int], float] = {}
_STARTED = time.perf_counter()


def _resolutions() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_ENGINES_RESOLUTIONS", "320,1280")
    return tuple(int(x) for x in raw.split(","))


def _point_counts() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_ENGINES_N", "10000,100000")
    return tuple(int(n) for n in raw.split(","))


def _bandwidth() -> float:
    return float(os.environ.get("REPRO_BENCH_ENGINES_BANDWIDTH", "15"))


def _repeats() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_ENGINES_REPEATS", "3")))


def _native_threads() -> int:
    raw = os.environ.get("REPRO_BENCH_ENGINES_NATIVE_THREADS", "")
    return max(1, int(raw)) if raw else usable_cpus()


def _engine_cells() -> "tuple[tuple[str, int | None], ...]":
    """(engine, threads) pairs: every engine serial, ``native`` at the
    default (``threads`` ``None``), plus an OpenMP cell for ``native`` when
    the machine can actually parallelize."""
    cells = [(engine, 1) for engine in ENGINES]
    if NATIVE_AVAILABLE:
        cells.append(("native", None))
        if _native_threads() > 1:
            cells.append(("native", _native_threads()))
    return tuple(cells)


def _cell_label(engine: str, threads: "int | None") -> str:
    if threads is None:
        return f"{engine}@default"
    return engine if threads == 1 else f"{engine}@{threads}T"


def _engine_cost(engine: str, width: int, height: int, n: int) -> float:
    cost = height * (width + n)
    return cost * _PYTHON_OVERHEAD if engine == "python" else cost


def build_workload(width: int, n: int):
    """Clustered points over the paper-shaped region, index prebuilt."""
    height = max(1, (width * 3) // 4)
    rng = np.random.default_rng(20220613)
    centers = rng.uniform((0.0, 0.0), (10_000.0, 7_500.0), (32, 2))
    xy = centers[rng.integers(0, 32, n)] + rng.normal(0.0, 400.0, (n, 2))
    raster = Raster(Region(0.0, 0.0, 10_000.0, 7_500.0), width, height)
    return xy, raster, YSortedIndex(xy)


def timed_cell(
    engine: str, width: int, n: int, repeats: int, threads: "int | None" = 1,
) -> tuple[float, float]:
    """(min wall seconds, rows/sec) for one engine cell.

    ``threads`` other than 1 is only meaningful for ``native``, where it
    becomes the OpenMP thread count (``None``: the engine's own choice);
    the other engines are always timed serial.
    """
    xy, raster, ysorted = build_workload(width, n)
    kernel = get_kernel("epanechnikov")
    fn = GRIDS[engine]
    bandwidth = _bandwidth()
    kwargs = {"workers": threads} if engine == "native" and threads != 1 else {}
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(xy, raster, kernel, bandwidth, ysorted=ysorted, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, raster.height / best


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if not _cells:
        return
    headers = ["X x Y", "n", "engine", "seconds", "rows/s", "vs numpy"]
    rows = []
    for width in _resolutions():
        height = max(1, (width * 3) // 4)
        for n in _point_counts():
            numpy_t = _cells.get(("numpy", width, n))
            for engine, threads in _engine_cells():
                label = _cell_label(engine, threads)
                t = _cells.get((label, width, n))
                if t is None:
                    continue
                rel = f"{numpy_t / t:.2f}x" if numpy_t else "-"
                rows.append([
                    f"{width}x{height}", f"{n:,}", label, f"{t:.3f}",
                    f"{_rows_per_sec[(label, width, n)]:,.0f}", rel,
                ])
    title = (
        f"SLAM engine comparison (slam_bucket, serial, epanechnikov, "
        f"b={_bandwidth():g}, min of {_repeats()})"
    )
    write_report("engines", format_table(headers, rows, title=title))
    emit_json(
        "engines",
        _cells,
        title=title,
        key_fields=["engine", "resolution", "n"],
        meta=_report_meta(),
        started=_STARTED,
    )


def _report_meta() -> dict:
    meta = {
        "bandwidth": _bandwidth(),
        "repeats": _repeats(),
        "resolutions": list(_resolutions()),
        "n_points": list(_point_counts()),
        "rows_per_sec": {
            f"{e}@{w}x{max(1, (w * 3) // 4)},n={n}": rps
            for (e, w, n), rps in sorted(_rows_per_sec.items())
        },
    }
    # headline speedups at the largest cell (on compiled checkouts):
    # native vs numpy, and OpenMP vs serial native
    width, n = max(_resolutions()), max(_point_counts())
    numpy_t = _cells.get(("numpy", width, n))
    native_t = _cells.get(("native", width, n))
    if numpy_t and native_t:
        meta["headline_cell"] = {
            "resolution": width, "n": n,
            "speedup_native_vs_numpy": numpy_t / native_t,
        }
        omp_t = _cells.get(
            (_cell_label("native", _native_threads()), width, n)
        )
        if omp_t and _native_threads() > 1:
            meta["headline_cell"]["speedup_native_omp_vs_serial"] = (
                native_t / omp_t
            )
    return meta


@pytest.mark.parametrize("n", _point_counts())
@pytest.mark.parametrize("width", _resolutions())
@pytest.mark.parametrize(
    "engine,threads", _engine_cells(),
    ids=[_cell_label(e, t) for e, t in _engine_cells()],
)
def test_engine_cell(benchmark, engine, threads, width, n):
    height = max(1, (width * 3) // 4)
    if _engine_cost(engine, width, height, n) > MAX_CELL_COST:
        pytest.skip(
            f"{engine} at {width}x{height}, n={n}: predicted cost exceeds "
            "the bench budget (the paper's timeout analog)"
        )
    result = {}

    def call():
        result["cell"] = timed_cell(engine, width, n, _repeats(), threads)

    benchmark.pedantic(call, rounds=1, iterations=1, warmup_rounds=0)
    seconds, rps = result["cell"]
    label = _cell_label(engine, threads)
    _cells[(label, width, n)] = seconds
    _rows_per_sec[(label, width, n)] = rps


def main(argv: "list[str] | None" = None) -> int:
    """Script mode: run the engine grid directly (no pytest) and write
    ``BENCH_engines.json``::

        PYTHONPATH=src python benchmarks/bench_engines.py --json out/
    """
    import argparse

    from _common import json_dir
    from repro.bench.report import BenchReport
    from repro.obs import Recorder

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="output directory for BENCH_engines.json (default: benchmarks/out)",
    )
    parser.add_argument(
        "--engines",
        default=None,
        help="comma-separated engines (default: python,numpy, plus native "
        "on compiled checkouts)",
    )
    ns = parser.parse_args(argv)
    if ns.json:
        os.environ["REPRO_BENCH_JSON"] = ns.json
    for engine in ns.engines.split(",") if ns.engines else ():
        if engine not in GRIDS:
            parser.error(
                f"unknown engine {engine!r}; choose from {sorted(GRIDS)}"
            )
    if ns.engines:
        cells = tuple((engine, 1) for engine in ns.engines.split(","))
    else:
        cells = _engine_cells()

    title = (
        f"SLAM engine comparison (slam_bucket, serial, epanechnikov, "
        f"b={_bandwidth():g}, min of {_repeats()})"
    )
    report = BenchReport("engines", title=title,
                         key_fields=["engine", "resolution", "n"])
    for width in _resolutions():
        height = max(1, (width * 3) // 4)
        for n in _point_counts():
            for engine, threads in cells:
                label = _cell_label(engine, threads)
                if _engine_cost(engine, width, height, n) > MAX_CELL_COST:
                    print(f"{label:14s} {width}x{height} n={n:,}: skipped "
                          "(over budget)")
                    continue
                seconds, rps = timed_cell(engine, width, n, _repeats(),
                                          threads)
                _cells[(label, width, n)] = seconds
                _rows_per_sec[(label, width, n)] = rps
                report.add_cell((label, width, n), seconds, rows_per_sec=rps)
                print(f"{label:14s} {width}x{height} n={n:,}: "
                      f"{seconds:7.3f}s  {rps:,.0f} rows/s")
    report.meta.update(_report_meta())
    headline = report.meta.get("headline_cell") or {}
    if "speedup_native_vs_numpy" in headline:
        print(f"\nnative speedup over numpy at the headline cell: "
              f"{headline['speedup_native_vs_numpy']:.2f}x")
    # one instrumented run of the default engine so the report carries a
    # phase profile
    recorder = Recorder()
    width, n = max(_resolutions()), max(_point_counts())
    xy, raster, ysorted = build_workload(width, n)
    slam_bucket_grid["auto"](
        xy, raster, get_kernel("epanechnikov"), _bandwidth(),
        ysorted=ysorted, recorder=recorder,
    )
    report.attach_recorder(recorder)
    path = report.write(json_dir())
    print(f"[bench report: {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
