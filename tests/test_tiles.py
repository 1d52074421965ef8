"""Tests for slippy-map tile addressing and rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Region, compute_kdv
from repro.viz.tiles import TileScheme, render_tile


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(17)
    return np.vstack(
        [
            rng.normal((300.0, 300.0), 40.0, (500, 2)),
            rng.uniform((0, 0), (1000, 1000), (500, 2)),
        ]
    )


@pytest.fixture(scope="module")
def scheme():
    return TileScheme(Region(0.0, 0.0, 1000.0, 1000.0))


class TestTileScheme:
    def test_level0_is_world(self, scheme):
        assert scheme.tile_region(0, 0, 0) == scheme.world

    def test_children_tile_the_world(self, scheme):
        regions = [scheme.tile_region(1, tx, ty) for tx in (0, 1) for ty in (0, 1)]
        total_area = sum(r.width * r.height for r in regions)
        assert total_area == pytest.approx(1000.0 * 1000.0)
        # adjacency: tile (1,0) starts where (0,0) ends
        assert scheme.tile_region(1, 1, 0).xmin == scheme.tile_region(1, 0, 0).xmax

    def test_tile_of_point(self, scheme):
        assert scheme.tile_of_point(1, 250.0, 250.0) == (0, 0)
        assert scheme.tile_of_point(1, 750.0, 250.0) == (1, 0)
        assert scheme.tile_of_point(1, 250.0, 750.0) == (0, 1)
        # clamping outside the world
        assert scheme.tile_of_point(1, -50.0, 2000.0) == (0, 1)

    def test_out_of_range_tile(self, scheme):
        with pytest.raises(ValueError):
            scheme.tile_region(1, 2, 0)
        with pytest.raises(ValueError):
            scheme.tiles_per_axis(-1)

    def test_for_points_square(self, points):
        scheme = TileScheme.for_points(points)
        assert scheme.world.width == pytest.approx(scheme.world.height)
        assert scheme.world.contains(points[:, 0], points[:, 1]).all()


class TestRenderTile:
    def test_tile_matches_direct_compute(self, points, scheme):
        grid = render_tile(points, scheme, 1, 0, 0, tile_size=32, bandwidth=60.0)
        direct = compute_kdv(
            points,
            region=scheme.tile_region(1, 0, 0),
            size=(32, 32),
            bandwidth=60.0,
            normalization="none",
        ).grid
        np.testing.assert_allclose(grid, direct, rtol=1e-12)

    def test_seamless_across_tile_edges(self, points, scheme):
        """Adjacent tiles stitched together equal one double-size render:
        the proof that outside-tile points contribute correctly."""
        size = 32
        left = render_tile(points, scheme, 1, 0, 0, tile_size=size, bandwidth=60.0)
        right = render_tile(points, scheme, 1, 1, 0, tile_size=size, bandwidth=60.0)
        stitched = np.concatenate([left, right], axis=1)
        whole = compute_kdv(
            points,
            region=Region(0.0, 0.0, 1000.0, 500.0),
            size=(2 * size, size),
            bandwidth=60.0,
            normalization="none",
        ).grid
        np.testing.assert_allclose(stitched, whole, rtol=1e-9, atol=1e-12)

    def test_pyramid_mass_consistency(self, points, scheme):
        """Level-1 tiles cover the same world as level 0: their total mass
        (density * pixel area) matches the overview's, up to resolution."""
        def mass(grid, region, size):
            gx = region.width / size
            gy = region.height / size
            return grid.sum() * gx * gy

        overview = render_tile(points, scheme, 0, 0, 0, tile_size=64, bandwidth=60.0)
        m0 = mass(overview, scheme.world, 64)
        m1 = 0.0
        for tx in (0, 1):
            for ty in (0, 1):
                tile = render_tile(points, scheme, 1, tx, ty, tile_size=64, bandwidth=60.0)
                m1 += mass(tile, scheme.tile_region(1, tx, ty), 64)
        assert m1 == pytest.approx(m0, rel=0.02)

    def test_validation(self, points, scheme):
        with pytest.raises(ValueError):
            render_tile(points, scheme, 0, 0, 0, tile_size=0)


def test_service_rebuilds_index_once_per_ingest_generation(points):
    """Acceptance: the serving render path performs exactly one
    YSortedIndex build per ingest generation."""
    from repro.obs import Recorder
    from repro.serve import TileService

    rec = Recorder()
    with TileService(
        points, tile_size=8, bandwidth=60.0, workers=2, max_zoom=3,
        recorder=rec,
    ) as service:
        for key in ((0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 3, 3)):
            service.get_tile(*key)
        assert rec.counter_value("tiles.ysorted_builds") == 1
        service.ingest(np.array([[500.0, 500.0], [100.0, 900.0]]))
        for key in ((1, 0, 0), (2, 1, 1), (0, 0, 0)):
            service.get_tile(*key)
        assert rec.counter_value("tiles.ysorted_builds") == 2
        # ingest of nothing is not a new generation
        service.ingest(np.zeros((0, 2)))
        service.get_tile(2, 0, 0)
        assert rec.counter_value("tiles.ysorted_builds") == 2


class TestDegenerateWorld:
    """A zero-extent or non-finite world must fail loudly at construction
    (and in tile_of_point, which divides by the extents) instead of
    surfacing as ZeroDivisionError or silent NaN tiles downstream."""

    class _FlatWorld:
        # Region itself refuses degenerate rectangles, so the guard can only
        # be probed with a duck-typed stand-in
        def __init__(self, width, height):
            self.xmin = 0.0
            self.ymin = 0.0
            self.width = width
            self.height = height

    @pytest.mark.parametrize(
        "width,height",
        [(0.0, 10.0), (10.0, 0.0), (-5.0, 10.0), (float("nan"), 10.0),
         (float("inf"), 10.0)],
    )
    def test_constructor_rejects_degenerate_world(self, width, height):
        with pytest.raises(ValueError, match="degenerate world region"):
            TileScheme(self._FlatWorld(width, height))

    def test_tile_of_point_rechecks_the_world(self):
        # a scheme whose world degenerated after construction (e.g. a
        # mutated duck-typed region) fails with the same clear error
        scheme = TileScheme.__new__(TileScheme)
        scheme.world = self._FlatWorld(0.0, 10.0)
        with pytest.raises(ValueError, match="degenerate world region"):
            scheme.tile_of_point(1, 5.0, 5.0)

    def test_valid_world_unaffected(self, scheme):
        assert scheme.tile_of_point(0, 1.0, 1.0) == (0, 0)
