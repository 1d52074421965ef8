"""Shared plumbing for the per-table/figure benchmark modules.

Each ``bench_*.py`` module reproduces one table or figure of the paper's
evaluation section.  Cells run once each (``rounds=1`` — the methods are
deterministic and multi-second), record their wall time into a module-local
results dict, and a trailing ``test_zz_report_*`` writes the paper-shaped
table/series to ``benchmarks/out/<name>.txt`` (and stdout, visible with
``pytest -s``).

Cost-based skipping stands in for the paper's 4-hour timeout: cells whose
predicted work exceeds ``REPRO_BENCH_MAX_CELL`` elementary operations are
skipped and reported as ``timeout``, exactly like the "> 14400" entries in
the paper's Table 7.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.harness import TIMEOUT, format_series, format_table
from repro.bench.report import BenchReport
from repro.core.api import METHODS

OUT_DIR = Path(__file__).parent / "out"


def json_dir() -> Path:
    """Where ``BENCH_*.json`` reports go: ``REPRO_BENCH_JSON`` or the
    default text-report directory."""
    return Path(os.environ.get("REPRO_BENCH_JSON", str(OUT_DIR)))

#: Elementary-operation budget per benchmark cell (the timeout analog).
MAX_CELL_COST = float(os.environ.get("REPRO_BENCH_MAX_CELL", "3e9"))


def predicted_cost(method: str, width: int, height: int, n: int) -> float:
    """Rough elementary-operation count of one KDV computation.

    Mirrors Table 1: O(XYn) for the scan-complexity methods, O(Y(X+n)) for
    the sweeps.  Used only to decide timeout skips, so constants are crude.
    """
    pixels = width * height
    if method in ("scan", "akde"):
        return pixels * n
    if method == "akde_dual":
        return (pixels + n) * 100
    if method == "binned_fft":
        return n + pixels * 40
    if method in ("rqs_kd", "rqs_ball", "rqs_rtree"):
        # per-pixel queries with Python-level traversal overhead
        return pixels * max(n**0.5, 64.0) * 50
    if method == "zorder":
        return pixels * min(n, 400)
    if method == "quad":
        return pixels * max(n**0.5, 64.0)
    if method in ("slam_sort", "slam_bucket"):
        return height * (width + n)
    if method in ("slam_sort_rao", "slam_bucket_rao"):
        return min(width, height) * (max(width, height) + n)
    raise ValueError(f"unknown method {method!r}")


def skip_if_over_budget(method: str, width: int, height: int, n: int) -> None:
    if predicted_cost(method, width, height, n) > MAX_CELL_COST:
        pytest.skip(
            f"{method} at {width}x{height}, n={n}: predicted cost exceeds the "
            "bench budget (the paper's '> 14400 s' timeout analog)"
        )


def run_cell(benchmark, fn) -> float:
    """Benchmark one cell once and return its wall time in seconds."""
    benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
    return float(benchmark.stats.stats.mean)


#: Method options used throughout the benches.  Z-order's epsilon follows the
#: original paper's tighter guarantee (sample of ~1/eps^2 = 10k points), which
#: places it between QUAD and SLAM as in the paper's Table 7 ordering.
BENCH_KWARGS: dict[str, dict] = {"zorder": {"epsilon": 0.01}}


def grid_fn(method: str, xy, raster, kernel, bandwidth, **kwargs):
    """Zero-arg callable computing one raw KDV grid.

    It calls the method's grid function, not ``compute_kdv``: unless
    ``kwargs`` passes ``workers``, the SLAM sweeps run on one thread (the
    grid functions' default is 1), like the paper's C++.
    """
    fn, _exact = METHODS[method]
    options = {**BENCH_KWARGS.get(method, {}), **kwargs}

    def call():
        return fn(xy, raster, kernel, bandwidth, **options)

    return call


def write_report(name: str, text: str) -> None:
    """Persist a paper-shaped report and echo it to stdout."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def emit_json(
    name: str,
    cells: dict,
    *,
    title: str = "",
    unit: str = "seconds",
    key_fields: "list[str] | None" = None,
    meta: "dict | None" = None,
    recorder=None,
    peak_memory_bytes: "int | None" = None,
    started: "float | None" = None,
) -> Path:
    """Write the machine-readable twin of a text report:
    ``BENCH_<name>.json`` (see :mod:`repro.bench.report` and
    ``docs/benchmarks.md``).  Every bench module calls this from its report
    fixture so JSON is produced on both the pytest and script paths."""
    report = BenchReport(name, title=title, unit=unit, key_fields=key_fields)
    if started is not None:
        report._start = started
    report.add_cells(cells)
    if meta:
        report.meta.update(meta)
    report.attach_recorder(recorder)
    report.peak_memory_bytes = peak_memory_bytes
    path = report.write(json_dir())
    print(f"[bench report: {path}]")
    return path


def pytest_script_main(path: str, argv: "list[str] | None" = None) -> int:
    """``python benchmarks/bench_<x>.py [--json DIR] [pytest args...]``.

    Runs the module's cells through pytest (the fixtures need it) with the
    JSON output directory redirected; used by every bench module's
    ``__main__`` block and by the ``repro bench`` CLI subcommand.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Run one benchmark module and write its text + JSON reports."
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="directory for the BENCH_<name>.json report "
        "(default: benchmarks/out)",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (e.g. -k slam)",
    )
    ns = parser.parse_args(argv)
    if ns.json:
        os.environ["REPRO_BENCH_JSON"] = ns.json
    return int(
        pytest.main([str(path), "-q", "-s", "-p", "no:cacheprovider", *ns.pytest_args])
    )


def series_report(
    name: str,
    title: str,
    x_label: str,
    x_values: list,
    cells: dict,
    methods: list[str],
) -> None:
    """Format ``cells[(method, x)] -> seconds`` as a figure-style series."""
    series = {}
    for method in methods:
        row = []
        for x in x_values:
            row.append(cells.get((method, x), TIMEOUT))
        series[method] = row
    write_report(name, format_series(x_label, x_values, series, title=title))


def table_report(
    name: str, title: str, headers: list[str], rows: list[list]
) -> None:
    write_report(name, format_table(headers, rows, title=title))
