"""Run one benchmark workload for one seed and print its result.

    python3 perfbench/run.py --workload live_window --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``.  With ``--trace 1`` the workload runs twice, half of
``--seconds`` each, untraced and then with timing wrappers around each
layer's public entry points, and the per-layer metrics are printed.  The whole result, with its provenance
stamp and the per-layer breakdown, is written under ``perfbench/out``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

#: the module that runs each workload; only that one is imported, so one
#: workload's imports never weigh on another's set-up
WORKLOADS = {
    "paper_render": "inproc",
    "dist_render": "inproc",
    "tile_serve": "served",
    "live_window": "served",
}
END_TO_END = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "goodput_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "core.index_build_ms": "ms",
    "core.sweep_ms": "ms",
    "core.envelope_ms": "ms",
    "core.bucket_ms": "ms",
    "core.prefix_ms": "ms",
    "core.envelope_pairs": "count",
    "core.pairs_per_s": "1/s",
    "viz.render_tile_ms": "ms",
    "viz.colorize_ms": "ms",
    "viz.encode_png_ms": "ms",
    "viz.png_bytes": "bytes",
    "serve.request_tile_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesce_ratio": "ratio",
    "serve.renders": "count",
    "serve.rejected": "count",
    "serve.ingest_ms": "ms",
    "serve.tick_ms": "ms",
    "serve.invalidated_per_ingest": "count",
    "serve.ysorted_builds": "count",
    "serve.ysorted_build_ms": "ms",
    "streaming.insert_ms": "ms",
    "streaming.expire_ms": "ms",
    "streaming.rebuilds": "count",
    "http.unattributed_ms": "ms",
    "http.ingest_unattributed_ms": "ms",
    "http.bytes_out": "bytes",
    "warm_png.client_ms": "ms",
    "warm_png.http_ms": "ms",
    "dist.plan_ms": "ms",
    "dist.dispatch_ms": "ms",
    "dist.merge_ms": "ms",
    "dist.makespan_ms": "ms",
    "dist.render_sweep_ms": "ms",
    "dist.balance_ratio": "ratio",
    "dist.shards": "count",
    "dist.bytes_tx": "bytes",
    "dist.bytes_rx": "bytes",
    "dist.shm_bytes": "bytes",
    "dist.steals": "count",
    "dist.retries": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.ingest_p50_ms": "ms",
    "loadgen.ingest_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: tiny data, same code paths")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_source_tree()
    common.adopt_orphans()
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        result = module.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.tiny)
    finally:
        common.reap_children()
    names = PER_LAYER if args.trace else END_TO_END
    values = result["layers"] if args.trace else result["e2e"]
    metrics, finite = {}, True
    for name, unit in names.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            finite, value = False, 0.0
        metrics[name] = {"value": value, "unit": unit}
    line = {
        "correct": result["failed"] == 0 and finite,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    path = common.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        dict(line, workload=args.workload, seed=args.seed,
             seconds=args.seconds, trace=args.trace, tiny=args.tiny,
             stamp=common.stamp(), info=result["info"]),
    )
    for name, metric in metrics.items():
        print(f"{name:30s} {metric['value']:16.4f} {metric['unit']}",
              file=sys.stderr)
    print(f"result written to {path}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
