"""Tile-serving throughput/latency under concurrent clients.

Drives :class:`repro.serve.TileService` in-process (no sockets, so the
numbers measure the service, not the TCP stack) with a pool of client
threads replaying a pan/zoom-shaped request mix: tile popularity is skewed
the way map traffic is, most requests land on a hot neighborhood, the tail
wanders.  Reports offered vs. achieved throughput (open-loop honesty: the
rate clients asked for and the rate of successful answers are different
numbers once the service sheds), p50/p99 latency, the single-flight
coalescing ratio, and the cache hit rate, and writes the machine-readable
``BENCH_serving.json`` through :class:`repro.bench.report.BenchReport`.

The ``png`` cells time the ``.png`` layer offline: every tile the run
left cached is coloured (``TileService.colorize_tile``) and deflated
(``encode_png``) as the HTTP path does, after one untimed call that builds
the colormap's table.  They report per-tile means: ``colorize_ms``,
``deflate_ms`` and the PNG's ``bytes``.

Knobs (environment variables, all optional):

``REPRO_BENCH_SERVE_N``         dataset size (default 20_000 points)
``REPRO_BENCH_SERVE_REQUESTS``  total requests (default 2_000)
``REPRO_BENCH_SERVE_CLIENTS``   concurrent client threads (default 16)
``REPRO_BENCH_SERVE_TILE``      tile resolution in pixels (default 128)
``REPRO_BENCH_SERVE_SEED``      request-mix RNG seed (default 99)

Run with::

    PYTHONPATH=src python benchmarks/bench_serving.py --json out/
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.obs import Recorder
from repro.serve import ServiceOverloaded, ServiceTimeout, TileService
from repro.viz.image import encode_png

MAX_ZOOM = 3  # 1 + 4 + 16 + 64 = 85 distinct tiles


def _knob(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _build_points(n: int) -> np.ndarray:
    rng = np.random.default_rng(20220613)
    centers = rng.uniform((0.0, 0.0), (10_000.0, 10_000.0), (24, 2))
    assignments = rng.integers(0, len(centers), n)
    return centers[assignments] + rng.normal(0.0, 350.0, (n, 2))


def _request_mix(requests: int, seed: int = 99) -> list[tuple[int, int, int]]:
    """A skewed (zoom, tx, ty) sequence: hot tiles dominate, as on real maps."""
    rng = np.random.default_rng(seed)
    keys: list[tuple[int, int, int]] = []
    for _ in range(requests):
        zoom = int(rng.choice([0, 1, 2, 2, 3, 3, 3]))
        per_axis = 1 << zoom
        if rng.random() < 0.7:  # the hot neighborhood: low tile indices
            tx = int(rng.integers(0, max(per_axis // 2, 1)))
            ty = int(rng.integers(0, max(per_axis // 2, 1)))
        else:
            tx = int(rng.integers(0, per_axis))
            ty = int(rng.integers(0, per_axis))
        keys.append((zoom, tx, ty))
    return keys


def run_serving_bench(
    n_points: int,
    requests: int,
    clients: int,
    tile_size: int,
    workers: int = 4,
    cache_tiles: int = 64,
    seed: int = 99,
) -> dict:
    """Run the workload; returns the metric dict the report cells mirror."""
    recorder = Recorder()
    service = TileService(
        _build_points(n_points),
        tile_size=tile_size,
        bandwidth=400.0,
        max_zoom=MAX_ZOOM,
        workers=workers,
        queue_limit=max(4 * workers, 16),
        cache_tiles=cache_tiles,
        recorder=recorder,
    )
    mix = _request_mix(requests, seed=seed)
    latencies: list[float] = []
    outcomes = {"ok": 0, "overload": 0, "deadline": 0}

    def client(keys: list[tuple[int, int, int]]) -> list[float]:
        times = []
        for key in keys:
            start = time.perf_counter()
            try:
                service.get_tile(*key)
                outcomes["ok"] += 1  # GIL-atomic int bump
            except ServiceOverloaded:
                outcomes["overload"] += 1
                continue
            except ServiceTimeout:
                outcomes["deadline"] += 1
                continue
            times.append(time.perf_counter() - start)
        return times

    shards = [mix[i::clients] for i in range(clients)]
    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for result in pool.map(client, shards):
            latencies.extend(result)
    wall = time.perf_counter() - wall_start
    png = time_png_layer(service)
    service.close()

    lat_ms = np.sort(np.array(latencies)) * 1e3
    leaders = recorder.counter_value("serve.coalesce.leaders")
    joined = recorder.counter_value("serve.coalesce.joined")
    hits = recorder.counter_value("tiles.cache.hits")
    misses = recorder.counter_value("tiles.cache.misses")
    return {
        "metrics": {
            "requests": float(requests),
            "completed": float(outcomes["ok"]),
            "rejected_overload": float(outcomes["overload"]),
            "rejected_deadline": float(outcomes["deadline"]),
            # open-loop honesty: the rate the clients pushed vs. the rate of
            # successful answers — one number hides shedding
            "offered_rps": requests / wall if wall > 0 else 0.0,
            "achieved_rps": outcomes["ok"] / wall if wall > 0 else 0.0,
            "latency_p50_ms": float(np.percentile(lat_ms, 50)) if len(lat_ms) else 0.0,
            "latency_p99_ms": float(np.percentile(lat_ms, 99)) if len(lat_ms) else 0.0,
            "latency_mean_ms": float(lat_ms.mean()) if len(lat_ms) else 0.0,
            "coalescing_ratio": joined / (joined + leaders) if joined + leaders else 0.0,
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "renders": float(recorder.timer("tiles.render").calls),
            "wall_s": wall,
        },
        "png": png,
        "recorder": recorder,
    }


def time_png_layer(service: TileService) -> dict:
    """Per-tile means of colouring and deflating every cached tile."""
    grids = [service._cache.get(key, count=False) for key in service._cache.keys()]
    grids = [grid for grid in grids if grid is not None]
    if not grids:
        return {"colorize_ms": 0.0, "deflate_ms": 0.0, "bytes": 0.0}
    service.colorize_tile(grids[0])  # builds the colormap's table
    colorize_s = deflate_s = 0.0
    size = 0
    for grid in grids:
        start = time.perf_counter()
        rgb = service.colorize_tile(grid)
        middle = time.perf_counter()
        size += len(encode_png(rgb))
        deflate_s += time.perf_counter() - middle
        colorize_s += middle - start
    return {
        "colorize_ms": colorize_s / len(grids) * 1e3,
        "deflate_ms": deflate_s / len(grids) * 1e3,
        "bytes": size / len(grids),
    }


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    from _common import json_dir, write_report
    from repro.bench.report import BenchReport

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="output directory for BENCH_serving.json "
                             "(default: benchmarks/out)")
    parser.add_argument("--points", type=int,
                        default=_knob("REPRO_BENCH_SERVE_N", 20_000))
    parser.add_argument("--requests", type=int,
                        default=_knob("REPRO_BENCH_SERVE_REQUESTS", 2_000))
    parser.add_argument("--clients", type=int,
                        default=_knob("REPRO_BENCH_SERVE_CLIENTS", 16))
    parser.add_argument("--tile-size", type=int,
                        default=_knob("REPRO_BENCH_SERVE_TILE", 128))
    parser.add_argument("--workers", type=int, default=4,
                        help="render pool threads (default 4)")
    parser.add_argument("--seed", type=int,
                        default=_knob("REPRO_BENCH_SERVE_SEED", 99),
                        help="request-mix RNG seed (default 99)")
    ns = parser.parse_args(argv)
    if ns.json:
        os.environ["REPRO_BENCH_JSON"] = ns.json

    outcome = run_serving_bench(
        ns.points, ns.requests, ns.clients, ns.tile_size, workers=ns.workers,
        seed=ns.seed,
    )
    metrics = outcome["metrics"]
    png = outcome["png"]
    title = (
        f"Tile serving: {ns.requests} requests from {ns.clients} clients, "
        f"{ns.points:,} points, {ns.tile_size}px tiles, {ns.workers} workers"
    )
    lines = [title, "-" * len(title)]
    for name, value in metrics.items():
        lines.append(f"{name:20s} {value:12.3f}")
    for name, value in png.items():
        lines.append(f"{'png.' + name:20s} {value:12.3f}")
    write_report("serving", "\n".join(lines))

    report = BenchReport("serving", title=title, unit="mixed", key_fields=["metric"])
    report.meta.update(
        n_points=ns.points,
        requests=ns.requests,
        clients=ns.clients,
        tile_size=ns.tile_size,
        workers=ns.workers,
        seed=ns.seed,
        max_zoom=MAX_ZOOM,
    )
    for name, value in metrics.items():
        report.add_cell((name,), value)
    for name, value in png.items():
        report.add_cell(("png", name), value)
    report.attach_recorder(outcome["recorder"])
    path = report.write(json_dir())
    print(f"\n[bench report: {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
