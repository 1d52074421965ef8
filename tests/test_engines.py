"""Registry-wide engine tests (repro.core.engines + the dist wire specs).

Every registered engine — ``slam_bucket.native`` too, when the extension is
compiled — must round-trip through its wire spec, produce the serial grid
bit for bit when sharded across dist workers, and (for the bucket engines)
equal the per-row Algorithm 2 oracle bit for bit.  A new engine is covered
by registering it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Raster, Region
from repro.core.engines import ENGINES, NATIVE
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import RowSweep
from repro.dist import ProtocolError, compute_shard, engine_spec, resolve_engine
from repro.dist.plan import plan_shards

ORACLE = RowSweep("slam_bucket_row_numpy", slam_bucket_row_numpy)
BANDWIDTH = 9.0

#: Bucket engines pinned to the oracle bit for bit; the literal
#: transcription ``slam_bucket.python`` sums in another order.
PINNED = sorted(
    name for name in ENGINES
    if name.startswith("slam_bucket.") and name != "slam_bucket.python"
)


@pytest.fixture(scope="module")
def sweep():
    """The shared sweep geometry of a small weighted quartic render."""
    rng = np.random.default_rng(2022)
    xy = rng.uniform((0.0, 0.0), (100.0, 80.0), (400, 2))
    weights = rng.uniform(0.5, 2.0, len(xy))
    raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 24, 18)
    ysorted = YSortedIndex(xy)
    cx = (raster.region.xmin + raster.region.xmax) / 2.0
    return dict(
        ysorted=ysorted,
        y_centers=raster.y_centers(),
        xs_scaled=(raster.x_centers() - cx) / BANDWIDTH,
        cx=cx,
        sorted_weights=weights[ysorted.order],
        kernel=get_kernel("quartic"),
    )


def _serial(engine, s) -> np.ndarray:
    return engine.sweep_block(
        0, len(s["y_centers"]), s["y_centers"], s["xs_scaled"], s["ysorted"],
        s["cx"], BANDWIDTH, s["kernel"], sorted_weights=s["sorted_weights"],
    )


@pytest.mark.parametrize("name", sorted(ENGINES))
class TestRegisteredEngine:
    def test_wire_spec_round_trip(self, name):
        engine = ENGINES[name]
        assert engine.name == name
        assert resolve_engine(engine_spec(engine)).name == name

    def test_two_shard_plan_equals_serial(self, name, sweep):
        engine = ENGINES[name]
        plan = plan_shards(sweep["ysorted"], sweep["y_centers"], BANDWIDTH, 2)
        assert len(plan) == 2
        blocks = []
        for shard in plan:
            halo = slice(shard.halo_start, shard.halo_stop)
            block, _ = compute_shard({
                "shard_id": shard.shard_id,
                "row_start": shard.row_start,
                "row_stop": shard.row_stop,
                "halo_xy": sweep["ysorted"].sorted_xy[halo],
                "halo_weights": sweep["sorted_weights"][halo],
                "y_centers": sweep["y_centers"][shard.row_start:shard.row_stop],
                "xs_scaled": sweep["xs_scaled"],
                "cx": sweep["cx"],
                "bandwidth": BANDWIDTH,
                "kernel": "quartic",
                "engine": engine_spec(engine),
                "collect": False,
            })
            blocks.append(block)
        assert np.array_equal(np.concatenate(blocks), _serial(engine, sweep))


@pytest.mark.parametrize("name", PINNED)
def test_bucket_engine_equals_row_oracle(name, sweep):
    assert np.array_equal(_serial(ENGINES[name], sweep), _serial(ORACLE, sweep))


@pytest.mark.parametrize(
    "spec",
    [
        "slam_bucket.numpy",
        ["slam_bucket.numpy", 1],
        None,
        {},
        {"threads": 1},
        {"name": [], "threads": 1},
        {"name": 7, "threads": 1},
        {"name": "no.such.engine", "threads": 1},
        {"name": "slam_bucket.numpy", "threads": "abc"},
        {"name": "slam_bucket.numpy", "threads": 2.0},
        {"name": "slam_bucket.numpy", "threads": True},
        {"name": "slam_bucket.numpy", "threads": 0},
        {"name": "slam_bucket.numpy", "threads": -3},
        {"name": NATIVE, "threads": "abc"},
    ],
    ids=repr,
)
def test_malformed_spec_is_protocol_error(spec):
    """Anything but a dict with a registered string name and an int
    ``threads >= 1`` fails typed, never as a TypeError or ValueError."""
    with pytest.raises(ProtocolError):
        resolve_engine(spec)


def test_threads_default_to_one():
    assert resolve_engine({"name": "slam_sort.numpy"}) is ENGINES["slam_sort.numpy"]
