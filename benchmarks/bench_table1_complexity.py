"""Paper Table 1: empirical verification of the complexity claims + ablations.

Table 1 is theory; this bench checks that the *measured* scaling exponents
match it, and quantifies the design ablations DESIGN.md calls out:

* time vs n at fixed resolution: SCAN and SLAM should both be ~linear in n,
  but with constants orders of magnitude apart;
* time vs resolution at fixed n: SCAN grows ~linearly in the pixel count XY
  (exponent ~1 in XY), SLAM_BUCKET^(RAO) grows ~0.5 in XY (linear in one
  axis only) once n no longer dominates;
* RAO ablation: portrait rasters (Y >> X) with RAO vs without;
* engine ablation: literal-Python vs vectorized SLAM_BUCKET (same
  asymptotics, large constant gap).

Exponents are least-squares slopes in log-log space, printed in the report.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _common import emit_json, run_cell, write_report
from repro.bench.harness import format_table
from repro.core.kernels import get_kernel
from repro.core.rao import with_rao
from repro.core.engines import slam_bucket_grid
from repro.baselines.scan import scan_grid
from repro.viz.region import Raster, Region

N_LADDER = [4000, 8000, 16000, 32000]
X_LADDER = [64, 128, 256, 512]
FIXED_N = 16000
FIXED_SIZE = (128, 96)
PORTRAIT = (48, 640)  # Y >> X: the case RAO exists for

_times: dict[tuple[str, str, int], float] = {}
_STARTED = time.perf_counter()

_rng = np.random.default_rng(7)
_POINTS = {
    n: np.column_stack(
        [_rng.uniform(0, 10_000, n), _rng.uniform(0, 8_000, n)]
    )
    for n in set(N_LADDER) | {FIXED_N}
}
_REGION = Region(0.0, 0.0, 10_000.0, 8_000.0)
_BANDWIDTH = 400.0
_KERNEL = get_kernel("epanechnikov")


def _slope(xs: list[float], ys: list[float]) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if not _times:
        return
    rows = []

    def ladder(series: str, axis: str, values: list[int]):
        times = [_times.get((series, axis, v)) for v in values]
        if all(t is not None for t in times):
            rows.append(
                [series, axis, _slope([float(v) for v in values], times)]
                + times
            )

    ladder("scan", "n", N_LADDER)
    ladder("slam_bucket_rao", "n", N_LADDER)
    ladder("scan", "X", X_LADDER)
    ladder("slam_bucket_rao", "X", X_LADDER)
    text = format_table(
        ["series", "axis", "log-log slope", "t1", "t2", "t3", "t4"],
        rows,
        title=(
            "Table 1 empirical scaling check (slopes: SCAN ~1 in n and ~2 in X "
            "[XY grows as X^2]; SLAM ~<=1 in n and ~1 in X)"
        ),
    )
    extra = []
    rao_on = _times.get(("rao_on", "portrait", PORTRAIT[1]))
    rao_off = _times.get(("rao_off", "portrait", PORTRAIT[1]))
    if rao_on and rao_off:
        extra.append(
            f"RAO ablation on {PORTRAIT[0]}x{PORTRAIT[1]} portrait raster: "
            f"without {rao_off:.3f}s, with {rao_on:.3f}s "
            f"({rao_off / rao_on:.2f}x, Theorem 3)"
        )
    eng_py = _times.get(("engine_python", "n", FIXED_N))
    eng_np = _times.get(("engine_numpy", "n", FIXED_N))
    if eng_py and eng_np:
        extra.append(
            f"engine ablation (SLAM_BUCKET, n={FIXED_N}): literal Python "
            f"{eng_py:.3f}s vs vectorized {eng_np:.3f}s "
            f"({eng_py / eng_np:.1f}x constant-factor gap, same asymptotics)"
        )
    write_report("table1_complexity", text + "\n" + "\n".join(extra))
    emit_json(
        "table1_complexity",
        {(s, a, str(v)): t for (s, a, v), t in _times.items()},
        title="Table 1 empirical scaling check + ablations",
        key_fields=["series", "axis", "value"],
        started=_STARTED,
    )


@pytest.mark.parametrize("n", N_LADDER)
@pytest.mark.parametrize("series", ["scan", "slam_bucket_rao"])
def test_scaling_in_n(benchmark, series, n):
    raster = Raster(_REGION, *FIXED_SIZE)
    xy = _POINTS[n]
    benchmark.group = "table1 scaling in n"
    if series == "scan":
        fn = lambda: scan_grid(xy, raster, _KERNEL, _BANDWIDTH)
    else:
        fn = lambda: with_rao(slam_bucket_grid["numpy"])(xy, raster, _KERNEL, _BANDWIDTH)
    _times[(series, "n", n)] = run_cell(benchmark, fn)


@pytest.mark.parametrize("x", X_LADDER)
@pytest.mark.parametrize("series", ["scan", "slam_bucket_rao"])
def test_scaling_in_resolution(benchmark, series, x):
    raster = Raster(_REGION, x, (x * 3) // 4)
    xy = _POINTS[FIXED_N]
    benchmark.group = "table1 scaling in X"
    if series == "scan":
        fn = lambda: scan_grid(xy, raster, _KERNEL, _BANDWIDTH)
    else:
        fn = lambda: with_rao(slam_bucket_grid["numpy"])(xy, raster, _KERNEL, _BANDWIDTH)
    _times[(series, "X", x)] = run_cell(benchmark, fn)


@pytest.mark.parametrize("mode", ["rao_off", "rao_on"])
def test_rao_ablation_portrait(benchmark, mode):
    raster = Raster(Region(0, 0, 1_000.0, 13_000.0), *PORTRAIT)
    xy = np.column_stack(
        [_rng.uniform(0, 1_000, FIXED_N), _rng.uniform(0, 13_000, FIXED_N)]
    )
    base = slam_bucket_grid["numpy"]
    fn_grid = with_rao(base) if mode == "rao_on" else base
    benchmark.group = "table1 RAO ablation"
    fn = lambda: fn_grid(xy, raster, _KERNEL, 100.0)
    _times[(mode, "portrait", PORTRAIT[1])] = run_cell(benchmark, fn)


@pytest.mark.parametrize("engine", ["python", "numpy"])
def test_engine_ablation(benchmark, engine):
    raster = Raster(_REGION, 64, 48)
    xy = _POINTS[FIXED_N]
    benchmark.group = "table1 engine ablation"
    fn = lambda: slam_bucket_grid[engine](xy, raster, _KERNEL, _BANDWIDTH)
    _times[(f"engine_{engine}", "n", FIXED_N)] = run_cell(benchmark, fn)


if __name__ == "__main__":
    from _common import pytest_script_main

    raise SystemExit(pytest_script_main(__file__))
