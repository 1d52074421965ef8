"""Sweep the offered load of a served workload to find its knee.

    python3 perfbench/knee.py --workload live_window --seed 1 --seconds 15 \\
        --scales 1,2,3,4,6

Each level runs the workload once, untraced and with one set-up, with
every offered rate of its configuration (tile reads, and ``/ingest``
batches on ``live_window``) multiplied by the level's scale.  A level is
sustained when the correct operations per second stay within 5% of the
offered rate and the 99th percentile lag (how late requests left because
their connection was still busy) stays under half a second.  The knee is
the last sustained scale before the first one that is not; the gated
rates in ``served.FULL`` sit at a stated fraction of it.  The table is
printed and written to ``perfbench/out/knee-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

#: the ``served.Config`` fields a level scales, per workload
RATES = {"tile_serve": ("tile_rate",), "live_window": ("live_rate", "ingest_rate")}
MIN_GOODPUT_SHARE = 0.95
MAX_LAG_P99_S = 0.5


def level(served, base, workload: str, seed: int, seconds: float,
          scale: float, work: Path) -> dict:
    cfg = dataclasses.replace(
        base, **{f: scale * getattr(base, f) for f in RATES[workload]})
    p = served.one_pass(served.SPECS[workload], cfg, seed, seconds, work, 1)
    e2e = served.end_to_end(p)
    offered = len(p.outcomes) / seconds
    lag_p99 = common.percentile([o.lag for o in p.outcomes], 99)
    row = {
        "scale": scale,
        "rates": {f: getattr(cfg, f) for f in RATES[workload]},
        "offered_per_s": offered,
        "goodput_per_s": e2e["goodput_per_s"],
        "lag_p99_ms": 1e3 * lag_p99,
        "failed": p.failed,
        "sustained": (e2e["goodput_per_s"] >= MIN_GOODPUT_SHARE * offered
                      and lag_p99 <= MAX_LAG_P99_S),
    }
    for kind in sorted({o.request.kind for o in p.outcomes}):
        ok = [o.latency for o in p.outcomes if o.ok and o.request.kind == kind]
        row[f"{kind}_p50_ms"] = 1e3 * common.percentile(ok, 50)
        row[f"{kind}_p90_ms"] = 1e3 * common.percentile(ok, 90)
    return row


def knee(rows: list) -> "float | None":
    """The last sustained scale before the first unsustained one."""
    last = None
    for row in rows:
        if not row["sustained"]:
            break
        last = row["scale"]
    return last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--scales", default="1,2,3,4,6",
                        help="comma-separated multiples of the gated rates")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: tiny data, same code paths")
    args = parser.parse_args(argv)
    common.require_source_tree()
    common.adopt_orphans()
    import served

    base = served.TINY if args.tiny else served.FULL
    scales = sorted(float(s) for s in args.scales.split(","))
    work = common.OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for scale in scales:
            row = level(served, base, args.workload, args.seed,
                        args.seconds, scale, work)
            rows.append(row)
            cells = " ".join(f"{k}={v:.1f}" for k, v in row.items()
                             if isinstance(v, float) and k != "scale")
            print(f"scale {scale:g}: {cells} failed={row['failed']} "
                  f"sustained={row['sustained']}", flush=True)
            if not row["sustained"]:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        common.reap_children()
    found = knee(rows)
    path = common.write_result(
        f"knee-{args.workload}-seed{args.seed}",
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "knee_scale": found, "levels": rows, "stamp": common.stamp()},
    )
    rates = {f: getattr(base, f) for f in RATES[args.workload]}
    print(f"knee at scale {found} of {rates} "
          f"(result in {path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
