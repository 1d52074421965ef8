"""Tests for the PointSet container and its filters."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PointSet


class TestConstruction:
    def test_basic(self):
        ps = PointSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert len(ps) == 2
        np.testing.assert_array_equal(ps.x, [1.0, 3.0])
        np.testing.assert_array_equal(ps.y, [2.0, 4.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="expected .n, 2."):
            PointSet(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            PointSet(np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PointSet(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            PointSet(np.array([[np.inf, 0.0]]))

    def test_coerces_dtype(self):
        ps = PointSet(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert ps.xy.dtype == np.float64

    def test_mismatched_time_length(self):
        with pytest.raises(ValueError, match="t must have shape"):
            PointSet(np.zeros((3, 2)), t=np.zeros(2))

    def test_mismatched_category_length(self):
        with pytest.raises(ValueError, match="category must have shape"):
            PointSet(np.zeros((3, 2)), category=np.zeros(4, dtype=int))

    def test_empty(self):
        ps = PointSet(np.empty((0, 2)))
        assert len(ps) == 0
        with pytest.raises(ValueError, match="empty"):
            ps.bounds()


class TestOperations:
    def test_bounds(self, small_points):
        xmin, ymin, xmax, ymax = small_points.bounds()
        assert xmin == small_points.x.min()
        assert ymax == small_points.y.max()

    def test_select_bool_mask(self, small_points):
        mask = small_points.x < 50.0
        sub = small_points.select(mask)
        assert len(sub) == mask.sum()
        assert sub.t is not None and len(sub.t) == len(sub)
        assert sub.category is not None and len(sub.category) == len(sub)

    def test_select_preserves_name(self, small_points):
        assert small_points.select(small_points.x < 50).name == small_points.name

    def test_filter_time_half_open(self):
        ps = PointSet(np.zeros((4, 2)), t=np.array([0.0, 1.0, 2.0, 3.0]))
        sub = ps.filter_time(1.0, 3.0)
        np.testing.assert_array_equal(sub.t, [1.0, 2.0])

    def test_filter_time_without_timestamps(self):
        with pytest.raises(ValueError, match="no timestamps"):
            PointSet(np.zeros((2, 2))).filter_time(0, 1)

    def test_filter_category(self):
        ps = PointSet(np.zeros((4, 2)), category=np.array([0, 1, 2, 1]))
        assert len(ps.filter_category(1)) == 2
        assert len(ps.filter_category(0, 2)) == 2
        assert len(ps.filter_category(9)) == 0

    def test_filter_category_without_categories(self):
        with pytest.raises(ValueError, match="no categories"):
            PointSet(np.zeros((2, 2))).filter_category(1)

    def test_sample(self, small_points):
        sub = small_points.sample(0.25, seed=7)
        assert len(sub) == round(len(small_points) * 0.25)

    def test_immutability(self, small_points):
        with pytest.raises(AttributeError):
            small_points.xy = np.zeros((1, 2))


class TestFrozenCoordinates:
    def test_xy_is_read_only(self, small_points):
        with pytest.raises(ValueError, match="read-only"):
            small_points.xy[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            small_points.x[0] = 0.0

    def test_source_array_is_not_aliased(self, rng):
        from repro import compute_kdv

        xy = rng.uniform((0.0, 0.0), (100.0, 80.0), (300, 2))
        original = xy.copy()
        ps = PointSet(xy)
        kw = dict(size=(24, 18), bandwidth=9.0)
        before = compute_kdv(ps, **kw).grid
        xy[:150] += 40.0
        assert np.array_equal(ps.xy, original)
        assert np.array_equal(compute_kdv(ps, **kw).grid, before)
        assert np.array_equal(compute_kdv(original, **kw).grid, before)

    def test_fresh_arrays_are_kept_without_a_copy(self):
        ps = PointSet([[1.0, 2.0], [3.0, 4.0]])
        assert ps.xy.flags.owndata and not ps.xy.flags.writeable

    def test_pickle_drops_caches_and_refreezes(self, small_points):
        import pickle

        from repro import compute_kdv

        size = len(pickle.dumps(small_points))
        first = compute_kdv(small_points, size=(24, 36), bandwidth=9.0).grid
        small_points.bounds()
        assert len(pickle.dumps(small_points)) == size
        clone = pickle.loads(pickle.dumps(small_points))
        assert not clone.xy.flags.writeable
        assert clone._ysorted is None and clone._extents is None
        again = compute_kdv(clone, size=(24, 36), bandwidth=9.0).grid
        assert np.array_equal(again, first)


class TestCachedBounds:
    @pytest.mark.parametrize(
        "xy",
        [
            np.random.default_rng(5).normal(1e6, 300.0, (500, 2)),
            np.array([[3.5, -2.0]]),
            np.column_stack([np.linspace(0.0, 9.0, 10), np.full(10, 4.0)]),
            np.column_stack([np.full(7, -1.0), np.arange(7.0)]),
        ],
        ids=("random", "single", "collinear_x", "collinear_y"),
    )
    def test_per_column_extents(self, xy):
        bounds = PointSet(xy).bounds()
        assert bounds == (
            xy[:, 0].min(), xy[:, 1].min(), xy[:, 0].max(), xy[:, 1].max()
        )
        assert all(type(v) is float for v in bounds)

    def test_computed_once(self, small_points):
        assert small_points.bounds() is small_points.bounds()

    def test_region_from_extents_matches_from_points(self, small_points):
        from repro import Region

        for xy in (small_points.xy, np.array([[3.5, -2.0]])):
            assert Region.from_extents(*PointSet(xy).bounds()) == \
                Region.from_points(xy)


class TestCachedBandwidths:
    @pytest.mark.parametrize("selector", ("scott", "silverman", "lcv"))
    def test_selector_runs_once_per_set(self, selector, rng, monkeypatch):
        """``compute_kdv`` resolves a selector string once per set: a second
        call does not run the selector, and the value is bit-equal to a
        fresh resolution.  Raw arrays still resolve on every call."""
        from repro import compute_kdv
        from repro.viz import bandwidth as bw

        real = bw.BANDWIDTH_SELECTORS[selector]
        calls = []

        def counting(xy):
            calls.append(len(xy))
            return real(xy)

        monkeypatch.setitem(bw.BANDWIDTH_SELECTORS, selector, counting)
        ps = PointSet(rng.uniform((0.0, 0.0), (100.0, 80.0), (400, 2)))
        kw = dict(size=(24, 18), bandwidth=selector)
        first = compute_kdv(ps, **kw)
        second = compute_kdv(ps, **kw)
        assert calls == [400]
        assert second.bandwidth == first.bandwidth
        assert np.array_equal(second.grid, first.grid)
        raw = compute_kdv(np.array(ps.xy), **kw)
        assert calls == [400, 400]
        assert np.float64(raw.bandwidth).tobytes() == \
            np.float64(first.bandwidth).tobytes()

    def test_unknown_selector_caches_nothing(self, small_points):
        with pytest.raises(ValueError, match="unknown bandwidth selector"):
            small_points.selector_bandwidth("nope")
        assert "nope" not in small_points._bandwidths

    def test_pickle_drops_the_cache(self, rng):
        import pickle

        ps = PointSet(rng.uniform((0.0, 0.0), (100.0, 80.0), (300, 2)))
        size = len(pickle.dumps(ps))
        value = ps.selector_bandwidth("scott")
        assert len(pickle.dumps(ps)) == size
        clone = pickle.loads(pickle.dumps(ps))
        assert clone._bandwidths == {}
        assert clone.selector_bandwidth("scott") == value


class TestSubsetIndexes:
    @pytest.mark.parametrize("how", ("select", "filter_time"))
    def test_subset_renders_equal_a_fresh_set(self, how, small_points):
        from repro import compute_kdv

        kw = dict(size=(20, 30), bandwidth=8.0)
        compute_kdv(small_points, **kw)  # the parent set's index is built
        if how == "select":
            sub = small_points.select(small_points.x < 60.0)
        else:
            sub = small_points.filter_time(100.0, 700.0)
        assert 0 < len(sub) < len(small_points)
        assert sub.ysorted_index() is not small_points.ysorted_index()
        fresh = PointSet(np.array(sub.xy), t=sub.t, category=sub.category)
        assert np.array_equal(
            compute_kdv(sub, **kw).grid, compute_kdv(fresh, **kw).grid
        )
