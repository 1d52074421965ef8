"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointSet, Raster, Region
from repro.core.kernels import get_kernel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def region() -> Region:
    return Region(0.0, 0.0, 100.0, 80.0)


@pytest.fixture
def raster(region: Region) -> Raster:
    return Raster(region, 37, 23)


@pytest.fixture
def small_xy(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (300, 2))


@pytest.fixture
def small_points(rng: np.random.Generator) -> PointSet:
    n = 400
    xy = rng.uniform((0.0, 0.0), (100.0, 80.0), (n, 2))
    t = rng.uniform(0.0, 1000.0, n)
    category = rng.integers(0, 5, n)
    return PointSet(xy, t=t, category=category, name="fixture")


@pytest.fixture
def sorts(monkeypatch) -> list:
    """The lengths of every y-sort (``YSortedIndex`` build) run while the
    test runs."""
    from repro.core import envelope

    calls = []
    real = envelope._stable_argsort

    def counting(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(envelope, "_stable_argsort", counting)
    return calls


def reference_grid(
    xy: np.ndarray, raster: Raster, kernel_name: str, bandwidth: float
) -> np.ndarray:
    """Independent O(XYn) reference: direct kernel evaluation, no chunking,
    no shared code path with the methods under test beyond the kernel's
    ``evaluate`` (which is itself verified against hand values)."""
    kernel = get_kernel(kernel_name)
    xs = raster.x_centers()
    ys = raster.y_centers()
    xy = np.asarray(xy, dtype=np.float64)
    grid = np.zeros(raster.shape)
    for j, k in enumerate(ys):
        for i, qx in enumerate(xs):
            d_sq = (xy[:, 0] - qx) ** 2 + (xy[:, 1] - k) ** 2
            grid[j, i] = kernel.evaluate(d_sq, bandwidth).sum()
    return grid
