"""Sliding-window maintenance cost: O(Δ) ticks vs full re-render.

Drives :class:`repro.extensions.streaming.StreamingKDV` as the tile server's
window machinery does: a fixed-size window of events slides forward in event
time, and each *tick* ingests a fresh batch and expires the batch that aged
out — two signed grid updates, each one sweep of only the changed points.
The bench measures, per churn fraction (batch size / window size):

* mean tick latency (insert + expire);
* the wall time of recomputing the same grid from the full live window
  (what a server without incremental maintenance would pay per change);
* the speedup between the two — the paper's real-time claim in one number;
* the float-cancellation drift trajectory (maintained grid vs fresh
  recompute) sampled along the run, plus the drift erased by one explicit
  rebuild at the end.

Writes the paper-shaped text table and the machine-readable
``BENCH_streaming_window.json``.

Knobs (environment variables, all optional):

``REPRO_BENCH_SWIN_N``           window size in points (default 100_000)
``REPRO_BENCH_SWIN_SIZE``        raster as XxY (default 640x480)
``REPRO_BENCH_SWIN_TICKS``       ticks per churn level (default 20)
``REPRO_BENCH_SWIN_CHURN``       comma-separated churn fractions
                                 (default 0.001,0.01,0.05)
``REPRO_BENCH_SWIN_DRIFT_EVERY`` drift checkpoint cadence in ticks (default 5)

Run with::

    PYTHONPATH=src python benchmarks/bench_streaming_window.py --json out/
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.extensions.streaming import StreamingKDV
from repro.viz.region import Region

REGION = Region(0.0, 0.0, 10_000.0, 8_000.0)
BANDWIDTH = 400.0
METHOD = "slam_bucket_rao"
ENGINE = "auto"


def _knob(name: str, default: str) -> str:
    return os.environ.get(name, default)


def _parse_size(text: str) -> tuple[int, int]:
    w, h = text.lower().split("x")
    return int(w), int(h)


def _make_engine(size: tuple[int, int]) -> StreamingKDV:
    # rebuild_every=None: the run measures the *unbounded* drift trajectory;
    # the explicit rebuild at the end shows what the policy would erase
    return StreamingKDV(
        REGION,
        size=size,
        bandwidth=BANDWIDTH,
        method=METHOD,
        engine=ENGINE,
        rebuild_every=None,
        require_timestamps=True,
    )


def _batch(rng: np.random.Generator, k: int, t0: float) -> tuple:
    xy = rng.uniform((0.0, 0.0), (10_000.0, 8_000.0), (k, 2))
    return xy, t0 + np.arange(k, dtype=np.float64)


def _full_render_s(engine: StreamingKDV, repeats: int = 2) -> float:
    """Wall time of one from-scratch sweep of the live window (best of
    ``repeats``) — the per-change cost without incremental maintenance."""
    pts = engine.points()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        engine._delta(pts)
        best = min(best, time.perf_counter() - start)
    return best


def run_window_bench(
    n: int,
    size: tuple[int, int],
    ticks: int,
    churn_fractions: list[float],
    drift_every: int,
) -> dict:
    """Run the workload; returns ``{"cells": ..., "rows": ...}``."""
    cells: dict = {}
    rows: list[list] = []
    for churn in churn_fractions:
        k = max(int(round(churn * n)), 1)
        rng = np.random.default_rng(20220613)
        engine = _make_engine(size)
        xy, t = _batch(rng, n, 0.0)
        engine.insert(xy, t)
        next_t = float(n)

        full_s = _full_render_s(engine)
        cells[("full_render_ms", f"{churn:g}", "-")] = full_s * 1e3

        tick_times: list[float] = []
        for i in range(1, ticks + 1):
            xy, t = _batch(rng, k, next_t)
            next_t += k
            start = time.perf_counter()
            engine.insert(xy, t)
            removed = engine.expire_before(next_t - n)
            tick_times.append(time.perf_counter() - start)
            assert removed == k and len(engine) == n  # the window truly slides
            if drift_every and i % drift_every == 0:
                cells[("drift", f"{churn:g}", str(i))] = engine.drift()

        tick_ms = float(np.mean(tick_times)) * 1e3
        speedup = (full_s * 1e3) / tick_ms if tick_ms > 0 else float("inf")
        drift_final = engine.drift()
        drift_erased = engine.rebuild()
        cells[("tick_ms", f"{churn:g}", "-")] = tick_ms
        cells[("speedup", f"{churn:g}", "-")] = speedup
        cells[("drift_final", f"{churn:g}", "-")] = drift_final
        cells[("rebuild_drift_erased", f"{churn:g}", "-")] = drift_erased
        cells[("drift_after_rebuild", f"{churn:g}", "-")] = engine.drift()
        rows.append(
            [
                f"{churn:g}",
                k,
                f"{tick_ms:.2f}",
                f"{full_s * 1e3:.1f}",
                f"{speedup:.1f}x",
                f"{drift_final:.2e}",
            ]
        )
    return {"cells": cells, "rows": rows}


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    from _common import json_dir, table_report
    from repro.bench.report import BenchReport

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="output directory for BENCH_streaming_window.json "
                             "(default: benchmarks/out)")
    parser.add_argument("--points", type=int,
                        default=int(_knob("REPRO_BENCH_SWIN_N", "100000")))
    parser.add_argument("--size", type=_parse_size,
                        default=_parse_size(_knob("REPRO_BENCH_SWIN_SIZE",
                                                  "640x480")))
    parser.add_argument("--ticks", type=int,
                        default=int(_knob("REPRO_BENCH_SWIN_TICKS", "20")))
    parser.add_argument("--churn", default=_knob("REPRO_BENCH_SWIN_CHURN",
                                                 "0.001,0.01,0.05"),
                        help="comma-separated churn fractions")
    parser.add_argument("--drift-every", type=int,
                        default=int(_knob("REPRO_BENCH_SWIN_DRIFT_EVERY", "5")))
    ns = parser.parse_args(argv)
    if ns.json:
        os.environ["REPRO_BENCH_JSON"] = ns.json
    churn_fractions = [float(c) for c in ns.churn.split(",") if c]

    outcome = run_window_bench(
        ns.points, ns.size, ns.ticks, churn_fractions, ns.drift_every
    )
    title = (
        f"Sliding-window ticks vs full re-render: {ns.points:,}-point window, "
        f"{ns.size[0]}x{ns.size[1]}, {METHOD}/{ENGINE}, {ns.ticks} ticks"
    )
    table_report(
        "streaming_window",
        title,
        ["churn", "batch", "tick (ms)", "full (ms)", "speedup", "drift"],
        outcome["rows"],
    )

    report = BenchReport(
        "streaming_window",
        title=title,
        unit="mixed",
        key_fields=["metric", "churn", "tick"],
    )
    report.meta.update(
        n_points=ns.points,
        size=list(ns.size),
        ticks=ns.ticks,
        churn=churn_fractions,
        drift_every=ns.drift_every,
        bandwidth=BANDWIDTH,
        method=METHOD,
        engine=ENGINE,
    )
    report.add_cells(outcome["cells"])
    path = report.write(json_dir())
    print(f"\n[bench report: {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
