"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``compute``
    Compute a KDV from a CSV dataset (or a built-in synthetic city) and
    write a heat-map image plus an optional ASCII preview.
``datasets``
    List the built-in synthetic datasets and their Table-5 scales.
``methods``
    List the registered KDV methods with complexity and exactness.
``generate``
    Generate a synthetic city dataset and save it as CSV.
``hotspots``
    Extract discrete hotspots (location, area, peak) from a dataset.
``stkdv``
    Render a spatio-temporal KDV frame sequence to numbered PPM files.
``nkdv``
    Network KDV over a synthetic street grid, rendered to PPM.
``bench``
    Run one benchmark module from ``benchmarks/`` and write its text table
    plus the machine-readable ``BENCH_<name>.json`` report.
``serve``
    Run the concurrent KDV tile server (``repro.serve``) over a CSV or
    built-in dataset: ``GET /tiles/{z}/{tx}/{ty}[.npy|.png]``,
    ``POST /ingest``, ``GET /healthz``, ``GET /metricz``.
``dist-worker``
    Run one distributed-rendering worker process (``repro.dist``): binds a
    TCP port, prints a machine-readable ready line, and serves shard
    computations until stopped.
``dist``
    Render a KDV across a pool of distributed workers — connect to running
    ``dist-worker`` processes (``--connect``) and/or spawn local ones
    (``--spawn``), then compute with ``backend="dist"`` and report the
    distributed counters.
``simload``
    Replay a deterministic simulated workload (``repro.simload``) against
    an in-process tile service on a virtual clock: run one scenario and
    print its metric block, or ``--sweep`` stepped offered-load levels to
    find the max-sustainable-QPS knee.

Examples
--------
::

    python -m repro datasets
    python -m repro generate seattle --scale 0.01 -o seattle.csv
    python -m repro compute seattle.csv -o hotspots.ppm --size 640x480
    python -m repro compute --dataset new_york --scale 0.005 --kernel quartic \
        --method slam_bucket_rao --preview
    python -m repro compute --dataset seattle --stats
    python -m repro bench table7_default --json benchmarks/out
    python -m repro serve --dataset seattle --port 8711 --workers 4
    python -m repro dist-worker --port 8801
    python -m repro dist --dataset seattle --connect 127.0.0.1:8801 --stats
    python -m repro dist --dataset seattle --spawn 2 --shards 8 -o out.ppm
    python -m repro simload --list
    python -m repro simload --scenario flashcrowd --seed 7 --json out/
    python -m repro simload --scenario default --sweep --json out/
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .core.api import METHODS, PARALLEL_METHODS, compute_kdv, method_names
from .core.parallel import BACKENDS
from .data.datasets import DATASETS, dataset_names, full_size, load_dataset
from .data.io import load_csv, save_csv
from .viz.image import ascii_preview

__all__ = ["main", "build_parser"]

_COMPLEXITY = {
    "scan": "O(XYn)",
    "rqs_kd": "O(XYn)",
    "rqs_ball": "O(XYn)",
    "rqs_rtree": "O(XYn)",
    "zorder": "O(XYm), m = sample size",
    "akde": "O(XYn) worst case",
    "akde_dual": "O((XY + n) polylog) typical",
    "binned_fft": "O(n + XY log XY), binning error",
    "quad": "O(XYn) worst case",
    "slam_sort": "O(Y(X + n log n))",
    "slam_bucket": "O(Y(X + n))",
    "slam_sort_rao": "O(min(X,Y)(max(X,Y) + n log n))",
    "slam_bucket_rao": "O(min(X,Y)(max(X,Y) + n))",
}


def _parse_workers(text: str) -> "int | str":
    if text == "auto":
        return "auto"
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive integer or 'auto', got {text!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive integer or 'auto', got {text!r}"
        )
    return workers


def _parse_bandwidth(text: str) -> "float | str | None":
    """A numeric bandwidth in meters, a selector name (``scott``,
    ``silverman``, ``lcv``), or ``None`` when the text is neither."""
    from .viz.bandwidth import BANDWIDTH_SELECTORS

    if text in BANDWIDTH_SELECTORS:
        return text
    try:
        return float(text)
    except ValueError:
        return None


def _bandwidth_or_error(text: str) -> "float | str | None":
    """Parse a ``--bandwidth`` value, printing the CLI error on failure."""
    from .viz.bandwidth import BANDWIDTH_SELECTORS

    bandwidth = _parse_bandwidth(text)
    if bandwidth is None:
        print(
            f"error: bad bandwidth {text!r}; use meters or one of "
            f"{sorted(BANDWIDTH_SELECTORS)}",
            file=sys.stderr,
        )
    return bandwidth


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        size = (int(w), int(h))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"size must look like 1280x960, got {text!r}"
        ) from None
    if size[0] < 1 or size[1] < 1:
        raise argparse.ArgumentTypeError("size must be at least 1x1")
    return size


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLAM: efficient sweep line algorithms for KDV (SIGMOD 2022)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a KDV heat map")
    p_compute.add_argument("csv", nargs="?", help="input CSV with x,y[,t][,category]")
    p_compute.add_argument(
        "--dataset", choices=dataset_names(), help="use a built-in synthetic dataset"
    )
    p_compute.add_argument("--scale", type=float, default=0.01,
                           help="built-in dataset scale (default 0.01)")
    p_compute.add_argument("-o", "--output", default="kdv.ppm",
                           help="output PPM path (default kdv.ppm)")
    p_compute.add_argument("--size", type=_parse_size, default=(640, 480),
                           help="resolution XxY (default 640x480)")
    p_compute.add_argument("--kernel", default="epanechnikov",
                           choices=("uniform", "epanechnikov", "quartic"))
    p_compute.add_argument("--bandwidth", default="scott",
                           help="bandwidth in meters, or a selector: "
                                "scott (default), silverman, lcv")
    p_compute.add_argument("--method", default="slam_bucket_rao",
                           choices=method_names())
    # "native" stays in the choices even where the extension did not load:
    # selecting it then raises the unknown-engine error naming the engines
    # that ARE available (tested by tests/test_native.py).
    p_compute.add_argument("--engine", default="auto",
                           choices=("auto", "python", "numpy", "native"),
                           help="SLAM sweep engine: auto (default; native "
                                "where the extension loaded, else numpy), "
                                "python (pseudocode), numpy (per-row "
                                "vectorized), or native (fused C loop + "
                                "OpenMP, compiled on first import -- see "
                                "docs/native.md)")
    p_compute.add_argument("--workers", type=_parse_workers, default=None,
                           help="row-sweep workers for SLAM methods: a count "
                                "or 'auto' (default: unset; the native "
                                "engine runs every usable CPU on renders "
                                "big enough to gain and one thread below, "
                                "other engines run serially)")
    p_compute.add_argument("--backend", default=None, choices=BACKENDS,
                           help="parallel backend for SLAM methods: process "
                                "(default; a local process pool when "
                                "--workers > 1) or dist (distributed worker "
                                "pool; see --dist-workers)")
    p_compute.add_argument("--dist-workers", default=None, metavar="ADDRS",
                           help="comma-separated host:port worker addresses "
                                "for --backend dist (default: the "
                                "REPRO_DIST_WORKERS environment variable, "
                                "else in-process shards)")
    p_compute.add_argument("--colormap", default="heat",
                           choices=("heat", "viridis", "gray"))
    p_compute.add_argument("--preview", action="store_true",
                           help="print an ASCII preview to stdout")
    p_compute.add_argument("--stats", action="store_true",
                           help="collect per-phase timings and counters "
                                "(repro.obs recorder) and print the summary")

    sub.add_parser("datasets", help="list built-in synthetic datasets")
    sub.add_parser("methods", help="list KDV methods")

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    p_gen.add_argument("dataset", choices=dataset_names())
    p_gen.add_argument("--scale", type=float, default=0.01)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("-o", "--output", required=True, help="output CSV path")

    p_hot = sub.add_parser("hotspots", help="extract discrete hotspots")
    p_hot.add_argument("csv", nargs="?", help="input CSV with x,y columns")
    p_hot.add_argument("--dataset", choices=dataset_names())
    p_hot.add_argument("--scale", type=float, default=0.01)
    p_hot.add_argument("--size", type=_parse_size, default=(320, 240))
    p_hot.add_argument("--bandwidth", default="scott",
                       help="bandwidth in meters, or a selector: "
                            "scott (default), silverman, lcv")
    p_hot.add_argument("--quantile", type=float, default=0.99,
                       help="density quantile defining hotspots (default 0.99)")
    p_hot.add_argument("--top", type=int, default=10,
                       help="print at most this many hotspots")

    p_st = sub.add_parser("stkdv", help="spatio-temporal KDV frame sequence")
    p_st.add_argument("csv", nargs="?", help="input CSV with x,y,t columns")
    p_st.add_argument("--dataset", choices=dataset_names())
    p_st.add_argument("--scale", type=float, default=0.01)
    p_st.add_argument("--frames", type=int, default=12)
    p_st.add_argument("--size", type=_parse_size, default=(320, 240))
    p_st.add_argument("--temporal-kernel", default="epanechnikov",
                      choices=("box", "triangular", "epanechnikov"))
    p_st.add_argument("-o", "--output-prefix", default="stkdv",
                      help="frames are written as <prefix>_0000.ppm ...")

    p_net = sub.add_parser("nkdv", help="network KDV on a synthetic street grid")
    p_net.add_argument("csv", nargs="?", help="input CSV with x,y columns")
    p_net.add_argument("--dataset", choices=dataset_names())
    p_net.add_argument("--scale", type=float, default=0.005)
    p_net.add_argument("--grid", type=_parse_size, default=(20, 15),
                       help="street grid intersections as CxR (default 20x15)")
    p_net.add_argument("--lixel", type=float, default=30.0,
                       help="lixel length in meters (default 30)")
    p_net.add_argument("--bandwidth", type=float, default=400.0,
                       help="network-distance bandwidth in meters")
    p_net.add_argument("-o", "--output", default="nkdv.ppm")

    p_serve = sub.add_parser(
        "serve", help="run the concurrent KDV tile server (repro.serve)"
    )
    p_serve.add_argument("csv", nargs="?", help="input CSV with x,y[,t] columns")
    p_serve.add_argument("--dataset", choices=dataset_names(),
                         help="use a built-in synthetic dataset")
    p_serve.add_argument("--scale", type=float, default=0.01,
                         help="built-in dataset scale (default 0.01)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8711,
                         help="TCP port (default 8711; 0 picks a free port)")
    p_serve.add_argument("--tile-size", type=int, default=256,
                         help="tile resolution in pixels (default 256)")
    p_serve.add_argument("--kernel", default="epanechnikov",
                         choices=("uniform", "epanechnikov", "quartic"))
    p_serve.add_argument("--bandwidth", default="scott",
                         help="bandwidth in meters, or a selector: "
                              "scott (default), silverman, lcv")
    p_serve.add_argument("--method", default="slam_bucket_rao",
                         choices=method_names())
    p_serve.add_argument("--max-zoom", type=int, default=8,
                         help="deepest zoom level served (default 8)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="render pool threads (default 2)")
    p_serve.add_argument("--queue-limit", type=int, default=None,
                         help="max in-flight renders before 503 "
                              "(default 4x workers)")
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="per-request render deadline in seconds "
                              "(504 when exceeded; default: wait)")
    p_serve.add_argument("--cache-tiles", type=int, default=256,
                         help="tile cache capacity (default 256)")
    p_serve.add_argument("--cache-ttl", type=float, default=None,
                         help="tile cache TTL in seconds (default: no expiry)")
    p_serve.add_argument("--window", type=float, default=None, metavar="SECONDS",
                         help="pre-warm a sliding time window of this many "
                              "seconds (requires timestamped events; tiles "
                              "over it via ?window=SECONDS)")
    p_serve.add_argument("--tick-s", type=float, default=None, metavar="SECONDS",
                         help="advance the sliding windows at this cadence, "
                              "piggybacked on request traffic (default: "
                              "explicit POST /tick only)")
    p_serve.add_argument("--quality-policy", choices=("off", "degrade"),
                         default="off",
                         help="off (default): exact tiles only, shed load "
                              "with 503 when the queue fills; degrade: step "
                              "down the pyramid/coreset quality ladder "
                              "before any 503 (tiles carry X-KDV-Quality / "
                              "X-KDV-Error-Bound headers)")
    p_serve.add_argument("--max-error", type=float, default=None,
                         metavar="EPS",
                         help="server-side cap on the advertised error "
                              "bound of served tiers (requires "
                              "--quality-policy degrade; requests may "
                              "tighten it per call via ?max_error=)")
    p_serve.add_argument("--render-delay", type=float, default=None,
                         metavar="SECONDS",
                         help="inject a fixed delay into every exact tile "
                              "render (fault injection for smoke tests: "
                              "saturates the pool deterministically)")
    p_serve.add_argument("--allow-shutdown", action="store_true",
                         help="enable POST /shutdown (for smoke tests/CI)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each HTTP request to stderr")

    p_serve.add_argument("--dist-workers", default=None, metavar="ADDRS",
                         help="comma-separated host:port addresses of "
                              "dist-worker processes; cold-tile renders fan "
                              "out to this pool (repro.dist coordinator)")

    p_worker = sub.add_parser(
        "dist-worker", help="run one distributed-rendering worker (repro.dist)"
    )
    p_worker.add_argument("--host", default="127.0.0.1",
                          help="interface to bind (default 127.0.0.1)")
    p_worker.add_argument("--port", type=int, default=0,
                          help="TCP port (default 0: OS-assigned, reported "
                               "on the ready line)")
    p_worker.add_argument("--heartbeat", type=float, default=0.5,
                          help="heartbeat interval while computing, seconds "
                               "(default 0.5; 0 disables)")
    p_worker.add_argument("--delay-s", type=float, default=0.0,
                          help="artificial pre-compute delay per shard "
                               "(testing knob for fault injection)")
    p_worker.add_argument("--slow-factor", type=float, default=1.0,
                          help="throttle compute to 1/N of native speed "
                               "(testing knob: models a slow machine for "
                               "work-stealing experiments; default 1.0)")
    p_worker.add_argument("--verbose", action="store_true",
                          help="log connections and shards to stderr")

    p_dist = sub.add_parser(
        "dist", help="render a KDV across a distributed worker pool"
    )
    p_dist.add_argument("csv", nargs="?", help="input CSV with x,y columns")
    p_dist.add_argument("--dataset", choices=dataset_names(),
                        help="use a built-in synthetic dataset")
    p_dist.add_argument("--scale", type=float, default=0.01,
                        help="built-in dataset scale (default 0.01)")
    p_dist.add_argument("--connect", default=None, metavar="ADDRS",
                        help="comma-separated host:port addresses of running "
                             "dist-worker processes")
    p_dist.add_argument("--spawn", type=int, default=0, metavar="N",
                        help="spawn N local worker processes for this render "
                             "(shut down afterwards)")
    p_dist.add_argument("--shards", type=int, default=None,
                        help="shard count (default: 2 per connected worker)")
    p_dist.add_argument("--deadline", type=float, default=None,
                        help="per-shard deadline in seconds (straggler "
                             "detection; default: wait)")
    p_dist.add_argument("--balance", default="cost",
                        choices=("cost", "points", "rows"),
                        help="shard balance mode (default cost: the "
                             "calibrated allocate-then-refine planner; see "
                             "docs/scheduling.md)")
    p_dist.add_argument("--no-steal", action="store_true",
                        help="disable coordinator-side work stealing")
    p_dist.add_argument("--steal-factor", type=float, default=3.0,
                        help="steal when a shard's elapsed exceeds its "
                             "prediction by this factor (default 3.0)")
    p_dist.add_argument("--sched-state", default=None, metavar="PATH",
                        help="JSON file to warm-start the shard cost model "
                             "from and persist calibration back to")
    p_dist.add_argument("-o", "--output", default="kdv.ppm",
                        help="output PPM path (default kdv.ppm)")
    p_dist.add_argument("--size", type=_parse_size, default=(640, 480),
                        help="resolution XxY (default 640x480)")
    p_dist.add_argument("--kernel", default="epanechnikov",
                        choices=("uniform", "epanechnikov", "quartic"))
    p_dist.add_argument("--bandwidth", default="scott",
                        help="bandwidth in meters, or a selector: "
                             "scott (default), silverman, lcv")
    p_dist.add_argument("--method", default="slam_bucket_rao",
                        choices=PARALLEL_METHODS,
                        help="SLAM method (the distributable ones)")
    p_dist.add_argument("--engine", default="auto",
                        choices=("auto", "python", "numpy", "native"))
    p_dist.add_argument("--colormap", default="heat",
                        choices=("heat", "viridis", "gray"))
    p_dist.add_argument("--stats", action="store_true",
                        help="print the merged distributed counters and "
                             "phase timings")

    p_sim = sub.add_parser(
        "simload",
        help="replay a deterministic simulated workload (repro.simload)",
    )
    p_sim.add_argument("--scenario", default="default",
                       help="scenario name (see --list; default: default)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="workload seed; one (scenario, seed) pair "
                            "reproduces byte-for-byte (default 0)")
    p_sim.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="override the scenario's virtual duration")
    p_sim.add_argument("--rate", type=float, default=None, metavar="RPS",
                       help="override the scenario's base offered rate "
                            "(requests per virtual second)")
    p_sim.add_argument("--sweep", action="store_true",
                       help="run stepped offered-load levels instead of one "
                            "run and report the max-sustainable-QPS knee")
    p_sim.add_argument("--json", metavar="DIR", default=None,
                       help="write the run's trace + metric block (or the "
                            "sweep summary) as deterministic JSON into DIR")
    p_sim.add_argument("--trace", action="store_true",
                       help="print the canonical per-request trace lines")
    p_sim.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")

    p_bench = sub.add_parser(
        "bench", help="run one benchmark module and write its reports"
    )
    p_bench.add_argument(
        "name",
        nargs="?",
        help="benchmark name, e.g. table7_default or bench_fig13_resolution.py "
             "(omit with --list)",
    )
    p_bench.add_argument("--json", metavar="DIR", default=None,
                         help="directory for the BENCH_<name>.json report "
                              "(default: benchmarks/out)")
    p_bench.add_argument("--list", action="store_true",
                         help="list available benchmark modules and exit")
    p_bench.add_argument("bench_args", nargs=argparse.REMAINDER,
                         help="extra arguments forwarded to the benchmark "
                              "(precede with --)")
    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    if bool(args.csv) == bool(args.dataset):
        print("error: provide either a CSV path or --dataset (not both)",
              file=sys.stderr)
        return 2
    if args.dataset:
        points = load_dataset(args.dataset, scale=args.scale)
    else:
        points = load_csv(args.csv)
    if len(points) == 0:
        print("error: dataset is empty", file=sys.stderr)
        return 2
    bandwidth = _bandwidth_or_error(args.bandwidth)
    if bandwidth is None:
        return 2

    extra: dict = {}
    if args.backend is not None:
        if args.method not in PARALLEL_METHODS:
            print(f"error: --backend applies to the SLAM methods "
                  f"{PARALLEL_METHODS}, not {args.method!r}", file=sys.stderr)
            return 2
        extra["backend"] = args.backend
        if args.backend == "dist" and args.dist_workers:
            from .dist import Coordinator

            extra["coordinator"] = Coordinator(args.dist_workers)
    elif args.dist_workers:
        print("error: --dist-workers requires --backend dist", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        result = compute_kdv(
            points,
            size=args.size,
            kernel=args.kernel,
            bandwidth=bandwidth,
            method=args.method,
            engine=args.engine,
            workers=args.workers,
            collect_stats=args.stats,
            **extra,
        )
    except ValueError as exc:
        if "unknown engine" not in str(exc):
            raise
        # e.g. --engine native where the extension did not load: the
        # message names the engines that ARE registered.
        print(f"error: {exc}", file=sys.stderr)
        if args.engine == "native":
            from .core.native import NATIVE_ERROR

            print(
                f"hint: the native extension is unavailable ({NATIVE_ERROR}); "
                "it compiles on first import when a C compiler is on PATH "
                "(see docs/native.md)",
                file=sys.stderr,
            )
        return 2
    elapsed = time.perf_counter() - start
    coordinator = extra.get("coordinator")
    if coordinator is not None:
        coordinator.close()
    result.save_ppm(args.output, colormap=args.colormap)
    print(
        f"n={len(points):,}  {args.size[0]}x{args.size[1]}  "
        f"kernel={result.kernel}  b={result.bandwidth:,.1f}  "
        f"method={result.method}  {elapsed:.3f}s"
    )
    if result.stats is not None:
        s = result.stats
        print(
            f"sweep: {s.orientation}, {s.workers} worker(s) [{s.backend}], "
            f"{s.blocks} block(s), {s.rows_per_sec:,.0f} rows/s"
        )
    if result.recorder is not None:
        print(result.recorder.summary())
    print(f"wrote {args.output}")
    if args.preview:
        print(ascii_preview(result.grid_image()))
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    print(f"{'name':15s} {'full size':>12s}  category")
    for name in dataset_names():
        model, _n, _seed = DATASETS[name]
        kind = {"seattle": "crime events", "los_angeles": "crime events",
                "new_york": "traffic accidents", "san_francisco": "311 calls"}[name]
        print(f"{name:15s} {full_size(name):>12,}  {kind}")
    return 0


def _cmd_methods(_args: argparse.Namespace) -> int:
    print(f"{'method':17s} {'exact':6s} complexity")
    for name in method_names():
        _fn, exact = METHODS[name]
        print(f"{name:17s} {'yes' if exact else 'no':6s} {_COMPLEXITY[name]}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    points = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_csv(points, args.output)
    print(f"wrote {len(points):,} events to {args.output}")
    return 0


def _load_points(args: argparse.Namespace):
    """Shared CSV-or-builtin dataset resolution; returns points or None."""
    if bool(args.csv) == bool(args.dataset):
        print("error: provide either a CSV path or --dataset (not both)",
              file=sys.stderr)
        return None
    points = (
        load_dataset(args.dataset, scale=args.scale)
        if args.dataset
        else load_csv(args.csv)
    )
    if len(points) == 0:
        print("error: dataset is empty", file=sys.stderr)
        return None
    return points


def _cmd_hotspots(args: argparse.Namespace) -> int:
    from .analysis import extract_hotspots

    points = _load_points(args)
    if points is None:
        return 2
    bandwidth = _bandwidth_or_error(args.bandwidth)
    if bandwidth is None:
        return 2
    result = compute_kdv(points, size=args.size, bandwidth=bandwidth)
    spots = extract_hotspots(result, quantile=args.quantile)
    print(f"n={len(points):,}  b={result.bandwidth:,.1f}  "
          f"{len(spots)} hotspot(s) at quantile {args.quantile}")
    print(f"{'rank':>4s} {'peak density':>14s} {'pixels':>7s} "
          f"{'area (km^2)':>12s}  peak at (m)")
    for rank, spot in enumerate(spots[: args.top], start=1):
        px, py = spot.peak_xy
        print(f"{rank:4d} {spot.peak_density:14.4e} {spot.pixel_area:7d} "
              f"{spot.world_area / 1e6:12.4f}  ({px:,.0f}, {py:,.0f})")
    return 0


def _cmd_stkdv(args: argparse.Namespace) -> int:
    from .extensions.temporal import compute_stkdv

    points = _load_points(args)
    if points is None:
        return 2
    if points.t is None:
        print("error: dataset has no 't' column (timestamps required)",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    st = compute_stkdv(
        points,
        times=args.frames,
        temporal_kernel=args.temporal_kernel,
        size=args.size,
    )
    paths = st.save_ppm_sequence(args.output_prefix)
    elapsed = time.perf_counter() - start
    print(f"n={len(points):,}  {args.frames} frames  "
          f"b_t={st.temporal_bandwidth:,.0f}s  {elapsed:.3f}s total")
    print(f"wrote {paths[0]} .. {paths[-1]}")
    print(f"peak activity in frame {st.peak_frame()}")
    return 0


def _cmd_nkdv(args: argparse.Namespace) -> int:
    from .network import compute_nkdv, street_grid
    from .viz.image import write_ppm

    points = _load_points(args)
    if points is None:
        return 2
    # fit a street grid over the data's extent
    xmin, ymin, xmax, ymax = points.bounds()
    cols, rows = args.grid
    spacing = max((xmax - xmin) / max(cols - 1, 1), (ymax - ymin) / max(rows - 1, 1))
    spacing = max(spacing, 1.0)
    network = street_grid(cols, rows, spacing=spacing, origin=(xmin, ymin))
    start = time.perf_counter()
    result = compute_nkdv(
        network, points, lixel_length=args.lixel, bandwidth=args.bandwidth
    )
    elapsed = time.perf_counter() - start
    write_ppm(args.output, result.to_image((960, 720)))
    print(f"n={len(points):,}  {network.num_edges} road segments  "
          f"{len(result):,} lixels  b={args.bandwidth:,.0f} m  {elapsed:.3f}s")
    print(f"wrote {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import TileService, start_server
    from .viz.bandwidth import resolve_bandwidth

    points = _load_points(args)
    if points is None:
        return 2
    bandwidth = _bandwidth_or_error(args.bandwidth)
    if bandwidth is None:
        return 2
    # the service wants a resolved number (one fixed bandwidth per layer)
    bandwidth = resolve_bandwidth(bandwidth, points.xy)
    quality = None
    if args.quality_policy == "degrade":
        from .serve import QualityPolicy

        quality = QualityPolicy(default_max_error=args.max_error)
        print("quality ladder: "
              + " -> ".join(quality.describe()["ladder"])
              + (f" (max_error={args.max_error:g})"
                 if args.max_error is not None else ""),
              flush=True)
    elif args.max_error is not None:
        print("error: --max-error requires --quality-policy degrade",
              file=sys.stderr)
        return 2
    executor = None
    if args.render_delay is not None:
        if args.dist_workers:
            print("error: --render-delay and --dist-workers are mutually "
                  "exclusive", file=sys.stderr)
            return 2
        from concurrent.futures import ThreadPoolExecutor

        delay_s = float(args.render_delay)

        class DelayedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *fn_args):
                def delayed():
                    time.sleep(delay_s)
                    return fn(*fn_args)

                return super().submit(delayed)

        # sized like the default pool; a bad --workers is the service's to
        # reject, with its own message
        executor = DelayedPool(max(args.workers, 1), "kdv-render")

    coordinator = None
    if args.dist_workers:
        from .dist import Coordinator

        coordinator = Coordinator(args.dist_workers)
        alive = coordinator.connect()
        print(f"distributed rendering: {alive} worker(s) reachable "
              f"of {args.dist_workers}", flush=True)
    try:
        service = TileService(
            points,
            tile_size=args.tile_size,
            bandwidth=bandwidth,
            kernel=args.kernel,
            method=args.method,
            max_zoom=args.max_zoom,
            workers=args.workers,
            queue_limit=args.queue_limit,
            deadline_s=args.deadline,
            cache_tiles=args.cache_tiles,
            cache_ttl_s=args.cache_ttl,
            window_s=args.window,
            tick_s=args.tick_s,
            quality=quality,
            executor=executor,
            coordinator=coordinator,
        )
    except ValueError as exc:
        if coordinator is not None:
            coordinator.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = start_server(
        service,
        host=args.host,
        port=args.port,
        allow_shutdown=args.allow_shutdown,
        quiet=not args.verbose,
        background=True,
    )
    print(
        f"serving {len(points):,} events at {server.url}  "
        f"(b={bandwidth:,.1f} m, {args.tile_size}px tiles, "
        f"method={args.method}, {args.workers} worker(s))",
        flush=True,
    )
    if args.window is not None:
        print(
            f"sliding window: {args.window:g}s "
            f"(?window={args.window:g} on tile requests"
            + (f", auto-tick every {args.tick_s:g}s" if args.tick_s else "")
            + ")",
            flush=True,
        )
    print(
        f"endpoints: {server.url}/tiles/{{z}}/{{tx}}/{{ty}}[.npy|.png]  "
        f"/ingest  /tick  /healthz  /metricz — Ctrl-C to stop",
        flush=True,
    )
    try:
        # park until the accept loop ends (Ctrl-C here, or POST /shutdown)
        while server._serve_thread is not None and server._serve_thread.is_alive():
            server._serve_thread.join(timeout=0.5)
    except KeyboardInterrupt:
        print("\nshutting down (draining in-flight renders)...", flush=True)
    server.shutdown_gracefully()
    if coordinator is not None:
        coordinator.close()
    print("server stopped", flush=True)
    return 0


def _cmd_dist_worker(args: argparse.Namespace) -> int:
    from .dist.worker import WorkerServer, format_ready_line

    server = WorkerServer(
        host=args.host,
        port=args.port,
        heartbeat_s=args.heartbeat,
        delay_s=args.delay_s,
        slow_factor=args.slow_factor,
        verbose=args.verbose,
    )
    # Machine-readable ready line first: launchers block on it to learn the
    # OS-assigned port (see repro.dist.launch).
    print(format_ready_line(server.host, server.port), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(f"worker stopped after {server.tasks_done} shard(s)", flush=True)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    from .dist import Coordinator, launch_local_workers, parse_worker_addrs

    points = _load_points(args)
    if points is None:
        return 2
    bandwidth = _bandwidth_or_error(args.bandwidth)
    if bandwidth is None:
        return 2
    addrs: list = []
    if args.connect:
        try:
            addrs.extend(parse_worker_addrs(args.connect))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    pool = None
    try:
        if args.spawn > 0:
            pool = launch_local_workers(args.spawn)
            addrs.extend(pool.addrs)
        coordinator = Coordinator(
            addrs,
            deadline_s=args.deadline,
            shards=args.shards,
            balance=args.balance,
            steal=not args.no_steal,
            steal_factor=args.steal_factor,
            sched_state=args.sched_state,
        )
        alive = coordinator.connect()
        print(f"{alive}/{len(addrs)} worker(s) reachable"
              + ("" if alive else "; rendering in-process"), flush=True)
        start = time.perf_counter()
        result = compute_kdv(
            points,
            size=args.size,
            kernel=args.kernel,
            bandwidth=bandwidth,
            method=args.method,
            engine=args.engine,
            backend="dist",
            coordinator=coordinator,
            collect_stats=True,
        )
        elapsed = time.perf_counter() - start
        result.save_ppm(args.output, colormap=args.colormap)
        snap = result.recorder.snapshot()
        shards = snap["counters"].get("dist.shards", 0)
        print(
            f"n={len(points):,}  {args.size[0]}x{args.size[1]}  "
            f"kernel={result.kernel}  b={result.bandwidth:,.1f}  "
            f"method={result.method}  {shards} shard(s)  {elapsed:.3f}s"
        )
        if args.stats:
            print(result.recorder.summary())
            if coordinator.last_report is not None:
                print(coordinator.last_report.describe())
        print(f"wrote {args.output}")
        if pool is not None:
            coordinator.shutdown_workers()
        coordinator.close()
        return 0
    finally:
        if pool is not None:
            pool.shutdown()


def _cmd_simload(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    from pathlib import Path

    from .simload import get_scenario, list_scenarios, run_scenario, sweep

    if args.list:
        print(f"{'scenario':12s} {'duration':>9s} {'base rps':>9s}  description")
        for sc in list_scenarios():
            print(f"{sc.name:12s} {sc.duration_s:8.0f}s {sc.arrivals.rate:9.1f}"
                  f"  {sc.description}")
        return 0
    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.duration is not None:
        scenario = dataclasses.replace(scenario, duration_s=args.duration)
    if args.rate is not None:
        scenario = scenario.at_rate(args.rate)

    out_dir = None
    if args.json:
        out_dir = Path(args.json)
        out_dir.mkdir(parents=True, exist_ok=True)

    if args.sweep:
        summary = sweep(scenario, seed=args.seed)
        print(f"scenario={scenario.name} seed={args.seed} "
              f"(sweep, virtual time only)")
        print(f"{'offered':>9s} {'achieved':>9s} {'shed':>8s} "
              f"{'p50':>8s} {'p99':>8s} {'hit rate':>9s}")
        for rate, block in summary["levels"]:
            print(f"{rate:9.2f} {block['achieved_rps']:9.2f} "
                  f"{block['shed_fraction']:8.4f} "
                  f"{block['latency_p50_s']:8.3f} {block['latency_p99_s']:8.3f} "
                  f"{block['cache_hit_rate']:9.3f}")
        knee = summary["knee"]
        if knee is None:
            print("knee: none — every level shed above the threshold")
        else:
            print(f"knee: max sustainable {knee['max_sustainable_qps']:g} qps "
                  f"(shed <= {knee['shed_threshold']:g})")
        if out_dir is not None:
            path = out_dir / f"simload_sweep_{scenario.name}.json"
            path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
            print(f"wrote {path}")
        return 0

    result = run_scenario(scenario, seed=args.seed)
    m = result.metrics
    print(f"scenario={scenario.name} seed={args.seed} "
          f"requests={m['requests']} events={result.events_processed} "
          f"(virtual time only)")
    print(f"offered {m['offered_rps']:g} rps, achieved {m['achieved_rps']:g} "
          f"rps, shed {m['shed_fraction']:.4f} "
          f"(503: {m['shed_503']}, 504: {m['shed_504']})")
    print(f"latency p50 {m['latency_p50_s']:.3f}s  p99 {m['latency_p99_s']:.3f}s"
          f"  cache hit rate {m['cache_hit_rate']:.3f}"
          f"  coalesce rate {m['coalesce_rate']:.3f}")
    print(f"tiers: {m['tiers']}  renders: {m['renders']}  "
          f"window ticks: {m['window_ticks']}")
    print(f"trace digest: {result.digest}")
    if args.trace:
        for line in result.trace:
            print(line)
    if out_dir is not None:
        path = out_dir / f"simload_{scenario.name}_seed{args.seed}.json"
        payload = {
            "scenario": scenario.name,
            "seed": args.seed,
            "digest": result.digest,
            "metrics": m,
            "trace": result.trace,
        }
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _benchmarks_dir():
    """Locate the repository's ``benchmarks/`` directory (source checkouts
    only — the modules are not shipped inside the package)."""
    from pathlib import Path

    candidate = Path(__file__).resolve().parent.parent.parent / "benchmarks"
    return candidate if candidate.is_dir() else None


def _cmd_bench(args: argparse.Namespace) -> int:
    import os
    import runpy

    bench_dir = _benchmarks_dir()
    if bench_dir is None:
        print("error: benchmarks/ directory not found (requires a source "
              "checkout)", file=sys.stderr)
        return 2
    names = sorted(
        p.stem.removeprefix("bench_") for p in bench_dir.glob("bench_*.py")
    )
    if args.list or not args.name:
        for name in names:
            print(name)
        return 0 if args.list else 2
    name = args.name.removeprefix("bench_").removesuffix(".py")
    script = bench_dir / f"bench_{name}.py"
    if not script.is_file():
        print(f"error: unknown benchmark {args.name!r}; available: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    # argparse's REMAINDER grabs everything after the name, including our own
    # --json when it follows the positional; the bench modules accept the
    # same flag, so forwarding verbatim (minus bare `--` separators) works
    # for both orderings.
    extra = [token for token in args.bench_args if token != "--"]
    if args.json:
        os.environ["REPRO_BENCH_JSON"] = args.json
    # Hand over to the module's own __main__ (argparse inside); sys.path gets
    # the benchmarks dir so the modules' `from _common import ...` resolves.
    old_argv = sys.argv
    sys.path.insert(0, str(bench_dir))
    try:
        sys.argv = [str(script)] + extra
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exc:
            return int(exc.code or 0)
        return 0
    finally:
        sys.argv = old_argv
        sys.path.remove(str(bench_dir))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "datasets": _cmd_datasets,
        "methods": _cmd_methods,
        "generate": _cmd_generate,
        "hotspots": _cmd_hotspots,
        "stkdv": _cmd_stkdv,
        "nkdv": _cmd_nkdv,
        "serve": _cmd_serve,
        "dist-worker": _cmd_dist_worker,
        "dist": _cmd_dist,
        "simload": _cmd_simload,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
