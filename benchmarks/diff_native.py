"""Differential fuzz of the native sweep: a git revision's C against the
working tree's, byte for byte.

    PYTHONPATH=src python benchmarks/diff_native.py --base HEAD~1 --cells 1500

Both versions of ``src/repro/core/_native_sweep.c`` (``git show
REV:src/repro/core/_native_sweep.c`` and the file in the working tree)
compile with the build's own flags (``repro.core.native._compile``) into a
temporary directory and load side by side in this process.  Each seeded
random cell is then swept by both builds for every kernel, on 1 and 2
threads, from the same inputs.  The script prints the number of sweeps and
of sweeps whose output bytes differ, and exits 1 if any differ.

A cell is one block of pixel rows the way ``sweep_kdv`` hands it to the
engine (pixel centres scaled by the bandwidth, row centres and points in
world units).  The generator covers:

- rasters 1-299 pixels wide and 1-8 rows;
- region offsets up to 1e12 and bandwidths from 0.03 to 300 pixel gaps;
- points snapped onto pixel centres (so interval endpoints land on or one
  ulp off a centre) or onto a coarse grid, the rest anywhere near the row;
- weights in half the cells;
- coordinates of +-inf, +-1e300 and +-1e19 in a tenth of the cells;
- uneven pixel centres in a tenth of the cells, which make every pair take
  the slow path.

A change to the C that claims the same bits runs this against its parent
(docs/native.md).
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from repro.core import native

ROOT = Path(__file__).resolve().parents[1]
SOURCE = Path("src", "repro", "core", "_native_sweep.c")
KERNELS = (0, 1, 2)  # uniform, Epanechnikov, quartic (native._KERNEL_IDS)
THREADS = (1, 2)
SPECIALS = (np.inf, -np.inf, 1e300, -1e300, 1e19, -1e19)


def build(source: Path, directory: Path, label: str):
    """Compile ``source`` into ``directory`` and load it as
    ``<label>._native_sweep``."""
    target = directory / f"_native_sweep{sysconfig.get_config_var('EXT_SUFFIX')}"
    native._compile(target, source=source)
    spec = importlib.util.spec_from_file_location(f"{label}._native_sweep", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_cell(rng: np.random.Generator) -> dict:
    """One random sweep input: ``sweep``'s arguments minus the output,
    kernel and thread count."""
    width = int(rng.integers(1, 300))
    rows = int(rng.integers(1, 9))
    gap = 10.0 ** rng.uniform(-3.0, 3.0)
    xmin = float(rng.choice([0.0, 1.0, -1.0])) * 10.0 ** rng.uniform(0.0, 12.0)
    bandwidth = gap * 10.0 ** rng.uniform(np.log10(0.03), np.log10(300.0))
    x_centers = xmin + gap * (np.arange(width) + 0.5)
    cx = xmin + gap * width / 2.0
    xs = (x_centers - cx) / bandwidth
    if rng.random() < 0.1 and width > 1:
        xs = xs[0] + np.cumsum(np.r_[0.0, rng.uniform(0.05, 3.0, width - 1)])
    ks = rng.uniform(-2.0, 2.0, rows) * bandwidth

    n = int(rng.integers(0, 120))
    x = rng.uniform(xmin - 2.0 * bandwidth, xmin + gap * width + 2.0 * bandwidth, n)
    y = ks[rng.integers(0, rows, n)] + rng.uniform(-1.2, 1.2, n) * bandwidth
    centred = rng.random(n) < 0.3  # an endpoint on (or an ulp off) a centre
    j = rng.integers(0, width, n)
    row = ks[rng.integers(0, rows, n)]
    v = rng.choice([-1.0, 0.0, 1.0], n)  # half-width 0 or 1 (scaled)
    centre = cx + xs[j] * bandwidth
    x[centred] = (centre + np.where(v == 0.0, rng.choice([-1.0, 1.0], n), 0.0)
                  * bandwidth)[centred]
    y[centred] = (row + v * bandwidth)[centred]
    ulp = centred & (rng.random(n) < 0.5)
    x[ulp] = np.nextafter(x[ulp], rng.choice([-np.inf, np.inf], n)[ulp])
    gridded = ~centred & (rng.random(n) < 0.3)
    step = gap * float(rng.choice([0.5, 1.0, 2.0]))
    x[gridded] = np.round(x[gridded] / step) * step
    xy = np.column_stack([x, y])
    if rng.random() < 0.1 and n:
        hit = rng.random(xy.shape) < 0.1
        xy[hit] = rng.choice(SPECIALS, int(hit.sum()))

    weights = rng.uniform(0.0, 2.0, n) if rng.random() < 0.5 else None
    order = np.argsort(xy[:, 1], kind="stable")
    return {
        "ks": np.ascontiguousarray(ks),
        "xs": np.ascontiguousarray(xs),
        "xy": np.ascontiguousarray(xy[order]),
        "weights": None if weights is None else np.ascontiguousarray(weights[order]),
        "cx": float(cx),
        "bandwidth": float(bandwidth),
    }


def sweep(module, cell: dict, kernel_id: int, threads: int) -> bytes:
    out = np.empty((len(cell["ks"]), len(cell["xs"])))
    module.sweep(out, cell["ks"], cell["xs"], cell["xy"], cell["weights"],
                 cell["cx"], cell["bandwidth"], kernel_id, threads)
    return out.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision whose C source is the baseline")
    parser.add_argument("--cells", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    base_source = subprocess.run(
        ["git", "show", f"{args.base}:{SOURCE.as_posix()}"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory(prefix="diff-native-") as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        (tmp / "head").mkdir()
        (tmp / "base" / SOURCE.name).write_bytes(base_source)
        base = build(tmp / "base" / SOURCE.name, tmp / "base", "base")
        head = build(ROOT / SOURCE, tmp / "head", "head")

        rng = np.random.default_rng(args.seed)
        sweeps = differing = 0
        for index in range(args.cells):
            cell = random_cell(rng)
            for kernel_id in KERNELS:
                for threads in THREADS:
                    sweeps += 1
                    if (sweep(base, cell, kernel_id, threads)
                            != sweep(head, cell, kernel_id, threads)):
                        differing += 1
                        if differing <= 5:
                            print(f"differs: cell {index}, kernel {kernel_id}, "
                                  f"{threads} thread(s)")
    print(f"base {args.base}: {sweeps} sweeps, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
