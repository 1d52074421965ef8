"""Design-choice ablations (DESIGN.md §5) and extension benchmarks.

Not a paper artifact — these quantify the implementation decisions the
reproduction makes and the extensions it adds:

* envelope extraction: Lemma 1's O(n) scan vs the y-sorted binary search;
* kernel channel width: SLAM with 1 (uniform) / 4 (Epanechnikov) /
  10 (quartic) aggregate channels;
* RQS index choice: kd-tree vs ball tree vs STR R-tree (all O(XYn));
* single-tree vs dual-tree aKDE at equal tolerance;
* multi-bandwidth batch vs independent per-bandwidth runs;
* STKDV per-frame cost vs an equivalent standalone weighted KDV.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _common import emit_json, run_cell, write_report
from repro.bench.harness import format_table
from repro.baselines.akde import akde_grid
from repro.baselines.akde_dual import akde_dual_grid
from repro.baselines.rqs import rqs_grid
from repro.core.envelope import YSortedIndex, envelope_scan
from repro.core.kernels import get_kernel
from repro.core.engines import slam_bucket_grid
from repro.data.points import PointSet
from repro.extensions.multiband import compute_multiband
from repro.extensions.temporal import compute_stkdv
from repro.viz.region import Raster, Region

_RNG = np.random.default_rng(21)
_N = 40_000
_XY = np.column_stack([_RNG.uniform(0, 10_000, _N), _RNG.uniform(0, 8_000, _N)])
_REGION = Region(0.0, 0.0, 10_000.0, 8_000.0)
_RASTER = Raster(_REGION, 160, 120)
_B = 300.0

_times: dict[str, float] = {}
_STARTED = time.perf_counter()


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if not _times:
        return
    rows = [[name, seconds] for name, seconds in sorted(_times.items())]
    write_report(
        "ablations",
        format_table(["variant", "seconds"], rows, title="Design-choice ablations"),
    )
    emit_json(
        "ablations",
        _times,
        title="Design-choice ablations",
        key_fields=["variant"],
        started=_STARTED,
    )


@pytest.mark.parametrize("strategy", ["scan", "ysorted"])
def test_envelope_extraction(benchmark, strategy):
    """Lemma 1 scan vs sorted binary search, over all raster rows."""
    ys = _RASTER.y_centers()
    if strategy == "scan":
        fn = lambda: [envelope_scan(_XY, float(k), _B) for k in ys]
    else:
        index = YSortedIndex(_XY)
        fn = lambda: [index.envelope_points(float(k), _B) for k in ys]
    benchmark.group = "ablation envelope"
    _times[f"envelope_{strategy}"] = run_cell(benchmark, fn)


@pytest.mark.parametrize("kernel_name", ["uniform", "epanechnikov", "quartic"])
def test_channel_width(benchmark, kernel_name):
    """Aggregate channel count (1 / 4 / 10) overhead in SLAM_BUCKET."""
    kernel = get_kernel(kernel_name)
    fn = lambda: slam_bucket_grid["numpy"](_XY, _RASTER, kernel, _B)
    benchmark.group = "ablation channels"
    _times[f"channels_{kernel.num_channels}_{kernel_name}"] = run_cell(benchmark, fn)


@pytest.mark.parametrize("index", ["kd", "ball", "rtree"])
def test_rqs_index_choice(benchmark, index):
    """Three range-query indexes, same O(XYn) complexity class."""
    small_raster = Raster(_REGION, 48, 36)  # RQS is slow; keep the cell small
    kernel = get_kernel("epanechnikov")
    fn = lambda: rqs_grid(_XY, small_raster, kernel, _B, index=index)
    benchmark.group = "ablation rqs index"
    _times[f"rqs_{index}"] = run_cell(benchmark, fn)


@pytest.mark.parametrize("variant", ["single", "dual"])
def test_akde_single_vs_dual(benchmark, variant):
    """Gray & Moore single-tree vs dual-tree at the same tolerance."""
    kernel = get_kernel("epanechnikov")
    if variant == "single":
        fn = lambda: akde_grid(_XY, _RASTER, kernel, _B, tolerance=1e-3)
    else:
        fn = lambda: akde_dual_grid(_XY, _RASTER, kernel, _B, tolerance=1e-3)
    benchmark.group = "ablation akde"
    _times[f"akde_{variant}"] = run_cell(benchmark, fn)


@pytest.mark.parametrize("mode", ["batched", "separate"])
def test_multiband_sharing(benchmark, mode):
    """Shared y-sort across five bandwidths vs independent runs."""
    bands = [_B * r for r in (0.25, 0.5, 1.0, 2.0, 4.0)]
    kernel = get_kernel("epanechnikov")
    if mode == "batched":
        fn = lambda: compute_multiband(
            _XY, bands, region=_REGION, size=(160, 120), normalization="none"
        )
    else:
        def fn():
            for b in bands:
                slam_bucket_grid["numpy"](_XY, _RASTER, kernel, b)
    benchmark.group = "ablation multiband"
    _times[f"multiband_{mode}"] = run_cell(benchmark, fn)


def test_stkdv_frames(benchmark):
    """Eight STKDV frames: per-frame cost stays near one weighted KDV."""
    t = _RNG.uniform(0.0, 100.0, _N)
    ps = PointSet(_XY, t=t)
    fn = lambda: compute_stkdv(
        ps, times=8, region=_REGION, size=(160, 120), bandwidth=_B,
        temporal_bandwidth=20.0,
    )
    benchmark.group = "ablation stkdv"
    _times["stkdv_8_frames"] = run_cell(benchmark, fn)


def test_weighted_vs_unweighted_overhead(benchmark):
    """Per-point weights scale the channels; the overhead should be small."""
    w = _RNG.uniform(0.0, 2.0, _N)
    kernel = get_kernel("epanechnikov")
    fn = lambda: slam_bucket_grid["numpy"](_XY, _RASTER, kernel, _B, weights=w)
    benchmark.group = "ablation weights"
    _times["weighted_slam_bucket"] = run_cell(benchmark, fn)


if __name__ == "__main__":
    from _common import pytest_script_main

    raise SystemExit(pytest_script_main(__file__))
