"""The in-process workloads: ``paper_render`` and ``dist_render``.

Both run the paper's headline cell in a closed loop, one caller calling
``compute_kdv`` back to back with the defaults a user gets (method
``slam_bucket_rao``, the default engine) on 100k seeded synthetic-city
points at 1280x960, cycling through the three SLAM kernels at 0.25x and 1x
Scott's bandwidth.  ``dist_render`` sends the same cells through
``backend="dist"`` to a :class:`repro.dist.Coordinator` over two local
worker processes with the default shared-memory transport.

Every grid must be ``np.array_equal`` to a reference made once after
set-up by the serial ``numpy_batch`` engine, a second code path that is
bit-identical to the default engine.
"""

from __future__ import annotations

import inspect
import statistics
import time
from dataclasses import dataclass

import numpy as np

import common
import tracing
from repro.core.api import compute_kdv
from repro.dist import Coordinator, launch_local_workers
from repro.viz.bandwidth import resolve_bandwidth

WORKLOADS = ("paper_render", "dist_render")
KERNELS = ("uniform", "epanechnikov", "quartic")
#: multiples of Scott's bandwidth: at 0.25x per-row overhead dominates, at
#: 1x the envelope pair stream does, so an engine change that helps one
#: regime and hurts the other shows
BANDWIDTH_FACTORS = (0.25, 1.0)
DIST_WORKERS = 2
SETUP_REPS = 3
#: what a user's program imports: ``from repro import compute_kdv``, and the
#: coordinator for ``backend="dist"``
IMPORTS = {False: ("repro",), True: ("repro", "repro.dist")}
_DEFAULTS = inspect.signature(compute_kdv).parameters


@dataclass(frozen=True)
class Config:
    points: int
    size: tuple


FULL = Config(100_000, (1280, 960))
TINY = Config(4_000, (160, 120))


class Renderer:
    """The points, the cell mix and, for ``dist_render``, the worker pool."""

    def __init__(self, points, size, cells):
        self.points = points
        self.size = size
        self.cells = cells
        self.pool = None
        self.coordinator = None

    def render(self, cell, collect: bool = False):
        kernel, bandwidth = cell
        extra = {}
        if self.coordinator is not None:
            extra = {"backend": "dist", "coordinator": self.coordinator}
        return compute_kdv(self.points, size=self.size, kernel=kernel,
                           bandwidth=bandwidth, collect_stats=collect, **extra)

    def peak_rss_mb(self) -> float:
        workers = [] if self.pool is None else [w.pid for w in self.pool]
        return common.peak_rss_mb() + sum(common.peak_rss_mb(p) for p in workers)

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
        if self.pool is not None:
            self.pool.shutdown()


def set_up(cfg: Config, seed: int, dist: bool):
    """Import the program in a fresh interpreter, generate the points,
    launch the workers (``dist_render``) and render one warm-up cell;
    returns the renderer and the seconds it all took."""
    import_s = common.import_seconds(*IMPORTS[dist])
    start = time.monotonic()
    points = common.city_points(cfg.points, seed)
    scott = resolve_bandwidth("scott", points.xy)
    cells = [(k, f * scott) for k in KERNELS for f in BANDWIDTH_FACTORS]
    renderer = Renderer(points, cfg.size, cells)
    try:
        if dist:
            renderer.pool = launch_local_workers(DIST_WORKERS)
            renderer.coordinator = Coordinator(renderer.pool.addrs)
            alive = renderer.coordinator.connect()
            if alive != DIST_WORKERS:
                raise RuntimeError(f"{alive} of {DIST_WORKERS} workers reachable")
        renderer.render(cells[0])
    except BaseException:
        renderer.close()
        raise
    return renderer, import_s + time.monotonic() - start


def references(renderer: Renderer) -> list:
    return [
        compute_kdv(renderer.points, size=renderer.size, kernel=k,
                    bandwidth=b, engine="numpy_batch").grid
        for k, b in renderer.cells
    ]


def closed_loop(renderer: Renderer, refs: list, seconds: float,
                collect: bool = False):
    """Render the cell mix back to back, in whole cycles, until ``seconds``
    have passed; returns latencies, per-render correctness, the traced
    samples and the elapsed seconds."""
    latencies, correct, samples = [], [], []
    start = time.monotonic()
    while True:
        for cell, ref in zip(renderer.cells, refs):
            t0 = time.monotonic()
            result = renderer.render(cell, collect)
            latencies.append(time.monotonic() - t0)
            correct.append(bool(np.array_equal(result.grid, ref)))
            if collect:
                coordinator = renderer.coordinator
                samples.append((result.stats, None if coordinator is None
                                else coordinator.last_report))
        if time.monotonic() - start >= seconds:
            return latencies, correct, samples, time.monotonic() - start


def mix_percentile(latencies: list, cells: int, q: float) -> float:
    """The ``q``-th percentile of each cell's latencies, averaged over the
    cells.  Cells differ in cost several-fold, so a percentile of the
    pooled latencies would fall between two cells and jump between them
    from run to run; per cell, each distribution has one mode."""
    per_cell = [latencies[i::cells] for i in range(cells)]
    return common.mean([common.percentile(c, q) for c in per_cell])


def _ms(values) -> float:
    return 1e3 * common.mean(values)


def layer_metrics(samples: list, spans: list) -> dict:
    """Per-render means of the recorder phases and counters of
    ``compute_kdv(collect_stats=True)``, plus the coordinator's reports."""

    def phase(name):
        return [stats.phases.get(name, 0.0) for stats, _ in samples]

    def count(name):
        return [stats.counters.get(name, 0) for stats, _ in samples]

    sweep_s = sum(phase("sweep"))
    layers = {
        "core.index_build_ms": _ms(phase("index_build")),
        "core.sweep_ms": _ms(phase("sweep")),
        "core.envelope_ms": _ms(phase("sweep.envelope_update")),
        "core.bucket_ms": _ms(phase("sweep.endpoint_bucket")),
        "core.prefix_ms": _ms(phase("sweep.prefix_sweep")),
        "core.envelope_pairs": common.mean(count("sweep.envelope_points")),
        "core.pairs_per_s": sum(count("sweep.envelope_points")) / sweep_s
        if sweep_s > 0 else 0.0,
    }
    reports = [report for _, report in samples if report is not None]
    if reports:
        layers.update({
            "dist.plan_ms": _ms(phase("dist.plan")),
            "dist.dispatch_ms": _ms(phase("dist.dispatch")),
            "dist.merge_ms": _ms(phase("dist.merge")),
            "dist.makespan_ms": _ms([r.makespan_s for r in reports]),
            "dist.render_sweep_ms": _ms([s["end"] - s["start"] for s in spans
                                         if s["name"] == "dist.render_sweep"]),
            "dist.balance_ratio": common.mean(
                [r.balance_ratio() or 1.0 for r in reports]),
            "dist.shards": common.mean(count("dist.shards")),
            "dist.bytes_tx": common.mean(count("dist.bytes_tx")),
            "dist.bytes_rx": common.mean(count("dist.bytes_rx")),
            "dist.shm_bytes": common.mean(count("dist.shm_bytes")),
            "dist.steals": common.mean(count("dist.steals")),
            "dist.retries": common.mean(count("dist.retries")),
        })
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool) -> dict:
    cfg = TINY if tiny else FULL
    dist = workload == "dist_render"
    # a traced run splits its time between the untraced and the traced pass
    span = seconds / 2 if trace else seconds
    setups, renderer = [], None
    try:
        for _ in range(1 if trace else SETUP_REPS):
            if renderer is not None:
                renderer.close()
            renderer, took = set_up(cfg, seed, dist)
            setups.append(took)
        refs = references(renderer)
        latencies, correct, _, elapsed = closed_loop(renderer, refs, span)
        good = sum(correct)
        layers = {}
        if trace:
            log = tracing.SpanLog()
            tracing.install_dist_wrappers(log)
            traced, traced_ok, samples, _ = closed_loop(
                renderer, refs, span, collect=True)
            layers = layer_metrics(samples, log.spans)
            cells = len(renderer.cells)
            layers["trace.overhead_ratio"] = (
                mix_percentile(traced, cells, 50)
                / mix_percentile(latencies, cells, 50))
            correct = correct + traced_ok
        rss = renderer.peak_rss_mb()
    finally:
        if renderer is not None:
            renderer.close()
    e2e = {
        "p50_ms": 1e3 * mix_percentile(latencies, len(renderer.cells), 50),
        "p90_ms": 1e3 * mix_percentile(latencies, len(renderer.cells), 90),
        "goodput_per_s": good / elapsed,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    info = {
        "points": cfg.points,
        "size": list(cfg.size),
        "method": _DEFAULTS["method"].default,
        "engine": _DEFAULTS["engine"].default,
        "backend": "dist" if dist else "serial",
        "dist_workers": DIST_WORKERS if dist else 0,
        "cells": [[k, b] for k, b in renderer.cells],
        "renders": len(latencies),
        "latencies_s": latencies,
        "setup_runs_s": setups,
    }
    return {"attempted": len(correct), "failed": len(correct) - sum(correct),
            "e2e": e2e, "layers": layers, "info": info}
