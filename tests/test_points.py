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
