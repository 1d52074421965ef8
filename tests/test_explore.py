"""Tests for the exploratory session (zoom/pan/filter, paper Figure 2 & 16)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExplorationSession, PointSet, Region, random_pan_regions


@pytest.fixture
def session(small_points) -> ExplorationSession:
    return ExplorationSession(
        small_points, size=(16, 12), bandwidth=9.0, method="slam_bucket_rao"
    )


class TestRandomPanRegions:
    def test_count_and_size(self):
        base = Region(0.0, 0.0, 100.0, 80.0)
        regions = random_pan_regions(base, count=5, size_ratio=0.5, seed=1)
        assert len(regions) == 5
        for r in regions:
            assert r.width == pytest.approx(50.0)
            assert r.height == pytest.approx(40.0)

    def test_inside_base(self):
        base = Region(10.0, 20.0, 110.0, 100.0)
        for r in random_pan_regions(base, count=20, seed=3):
            assert r.xmin >= base.xmin and r.xmax <= base.xmax
            assert r.ymin >= base.ymin and r.ymax <= base.ymax

    def test_deterministic(self):
        base = Region(0.0, 0.0, 10.0, 10.0)
        a = random_pan_regions(base, seed=7)
        b = random_pan_regions(base, seed=7)
        assert a == b

    def test_full_ratio(self):
        base = Region(0.0, 0.0, 10.0, 10.0)
        regions = random_pan_regions(base, count=2, size_ratio=1.0)
        assert all(r == base for r in regions)

    def test_validation(self):
        base = Region(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            random_pan_regions(base, count=0)
        with pytest.raises(ValueError):
            random_pan_regions(base, size_ratio=0.0)


class TestSession:
    def test_initial_state(self, session, small_points):
        assert session.region == Region.from_points(small_points.xy)
        assert session.bandwidth == 9.0
        assert session.frames == []

    def test_render_records_frame(self, session):
        res = session.render()
        assert len(session.frames) == 1
        frame = session.frames[0]
        assert frame.operation == "render"
        assert frame.result is res
        assert frame.seconds >= 0.0
        assert frame.n_points == len(session.full_points)

    def test_zoom_shrinks_region(self, session):
        session.zoom(0.5)
        assert session.region.width == pytest.approx(session.base_region.width / 2)
        assert session.region.center == pytest.approx(session.base_region.center)

    def test_zoom_ratios_relative_to_base(self, session):
        session.zoom(0.5)
        session.zoom(0.25)  # not cumulative: always relative to the base MBR
        assert session.region.width == pytest.approx(session.base_region.width / 4)

    def test_pan_shifts_region(self, session):
        session.zoom(0.5)
        before = session.region
        session.pan(0.1, -0.2)
        assert session.region.xmin == pytest.approx(before.xmin + 0.1 * before.width)
        assert session.region.ymin == pytest.approx(before.ymin - 0.2 * before.height)

    def test_pan_to(self, session):
        target = Region(10.0, 10.0, 20.0, 20.0)
        session.pan_to(target)
        assert session.region == target

    def test_reset_view(self, session):
        session.zoom(0.25)
        session.reset_view()
        assert session.region == session.base_region

    def test_set_bandwidth(self, session):
        session.set_bandwidth(4.0)
        assert session.bandwidth == 4.0
        assert session.frames[-1].operation.startswith("bandwidth")
        with pytest.raises(ValueError):
            session.set_bandwidth(0.0)

    def test_filter_time(self, session):
        session.filter_time(0.0, 500.0)
        assert len(session.active_points) < len(session.full_points)
        assert np.all(session.active_points.t < 500.0)

    def test_filter_category(self, session):
        session.filter_category(1, 2)
        assert set(np.unique(session.active_points.category)) <= {1, 2}

    def test_filters_not_cumulative(self, session):
        """Each filter derives from the full dataset, as the paper's workflow
        (filter -> look -> different filter) implies."""
        session.filter_category(1)
        n_cat1 = len(session.active_points)
        session.filter_category(1, 2)
        assert len(session.active_points) > n_cat1

    def test_clear_filters(self, session):
        session.filter_category(1)
        session.clear_filters()
        assert session.active_points is session.full_points

    def test_empty_filter_raises(self, session):
        with pytest.raises(ValueError, match="matched no events"):
            session.filter_category(999)

    def test_filter_affects_density(self, session):
        full = session.render().grid
        filtered = session.filter_category(0).grid
        assert filtered.sum() != pytest.approx(full.sum())

    def test_zoomed_region_renders_same_as_direct_compute(self, session, small_points):
        from repro import compute_kdv

        res = session.zoom(0.5)
        direct = compute_kdv(
            small_points,
            region=session.base_region.scaled(0.5),
            size=(16, 12),
            bandwidth=9.0,
            method="slam_bucket_rao",
        )
        np.testing.assert_allclose(res.grid, direct.grid, rtol=1e-12)

    def test_frames_after_the_first_sort_nothing(self, session, small_points, sorts):
        """Zooms, pans, bandwidth changes and a cleared filter reuse the
        dataset's index; only the filtered subset sorts its own."""
        session.render()
        session.zoom(0.5)
        session.pan(0.2, -0.1)
        session.set_bandwidth(12.0)
        assert sorts == [len(small_points)]
        session.filter_category(1)
        subset = len(session.active_points)
        session.clear_filters()
        session.reset_view()
        assert sorts == [len(small_points), subset]

    def test_latency_summary(self, session):
        assert session.latency_summary()["frames"] == 0
        session.render()
        session.zoom(0.5)
        summary = session.latency_summary()
        assert summary["frames"] == 2
        assert summary["min"] <= summary["mean"] <= summary["max"]
        assert session.total_seconds() >= summary["max"]

    def test_requires_points(self):
        with pytest.raises(ValueError, match="empty"):
            ExplorationSession(PointSet(np.empty((0, 2))), bandwidth=1.0)

    def test_requires_positive_bandwidth(self, small_points):
        with pytest.raises(ValueError):
            ExplorationSession(small_points, bandwidth=-1.0)

    def test_scott_default(self, small_points):
        from repro import scott_bandwidth

        s = ExplorationSession(small_points, size=(8, 6))
        assert s.bandwidth == pytest.approx(scott_bandwidth(small_points.xy))
