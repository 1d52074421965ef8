"""Tests for envelope point sets (Definition 1, Lemma 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import envelope
from repro.core.envelope import YSortedIndex, envelope_scan

#: coordinates for the tie-heavy alphabets: signed zeros, infinities, NaN
_SPECIAL = (-np.inf, -1.5, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan)


@st.composite
def _tied_points(draw) -> np.ndarray:
    """``(n, 2)`` points whose columns draw from tiny alphabets (or, now
    and then, from a continuous distribution), laid out shuffled, sorted
    by y, or reversed."""
    n = draw(st.one_of(st.integers(0, 2), st.integers(3, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(2):
        alphabet = draw(
            st.one_of(
                st.lists(st.sampled_from(_SPECIAL), min_size=1, max_size=4),
                st.just(None),
            )
        )
        if alphabet is None:
            columns.append(rng.standard_normal(n))
        else:
            columns.append(np.array(alphabet)[rng.integers(0, len(alphabet), n)])
    xy = np.column_stack(columns)
    layout = draw(st.sampled_from(("shuffled", "sorted", "reversed")))
    if layout != "shuffled":
        xy = xy[np.argsort(xy[:, 1], kind="stable")]
        if layout == "reversed":
            xy = xy[::-1].copy()
    return xy


class TestEnvelopeScan:
    def test_definition(self):
        xy = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 5.0], [0.0, -2.0]])
        idx = envelope_scan(xy, k=0.0, bandwidth=2.0)
        assert set(idx) == {0, 1, 3}

    def test_boundary_inclusive(self):
        # |k - p.y| == b is inside the envelope (Equation 6 uses <=)
        xy = np.array([[0.0, 3.0]])
        assert len(envelope_scan(xy, k=0.0, bandwidth=3.0)) == 1

    def test_empty_dataset(self):
        assert len(envelope_scan(np.empty((0, 2)), 0.0, 1.0)) == 0

    def test_all_points_when_bandwidth_huge(self, small_xy):
        idx = envelope_scan(small_xy, k=40.0, bandwidth=1e6)
        assert len(idx) == len(small_xy)


class TestYSortedIndex:
    def test_sorted_by_y(self, small_xy):
        index = YSortedIndex(small_xy)
        assert np.all(np.diff(index.sorted_y) >= 0)

    def test_order_is_permutation(self, small_xy):
        index = YSortedIndex(small_xy)
        assert sorted(index.order) == list(range(len(small_xy)))
        np.testing.assert_array_equal(index.sorted_xy, small_xy[index.order])

    def test_matches_scan(self, small_xy):
        index = YSortedIndex(small_xy)
        for k in (0.0, 17.3, 40.0, 80.0, 100.0):
            from_scan = set(envelope_scan(small_xy, k, 7.0))
            from_index = set(index.envelope_indices(k, 7.0))
            assert from_scan == from_index

    def test_envelope_points_match_indices(self, small_xy):
        index = YSortedIndex(small_xy)
        pts = index.envelope_points(33.0, 5.0)
        idx = index.envelope_indices(33.0, 5.0)
        np.testing.assert_array_equal(pts, small_xy[idx])

    def test_empty_envelope(self, small_xy):
        index = YSortedIndex(small_xy)
        assert len(index.envelope_points(-1000.0, 1.0)) == 0

    def test_len(self, small_xy):
        assert len(YSortedIndex(small_xy)) == len(small_xy)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 80),
        k=st.floats(-20, 20),
        b=st.floats(0.01, 30),
    )
    def test_equivalence_property(self, seed, n, k, b):
        """Scan (Lemma 1) and sorted-slice extraction select the same set,
        including for duplicated y coordinates and boundary ties."""
        r = np.random.default_rng(seed)
        # integer coordinates force exact boundary ties
        xy = r.integers(-10, 10, (n, 2)).astype(float)
        assert set(envelope_scan(xy, k, b)) == set(
            YSortedIndex(xy).envelope_indices(k, b)
        )

    def test_duplicate_y_all_selected(self):
        xy = np.array([[float(i), 5.0] for i in range(10)])
        index = YSortedIndex(xy)
        assert len(index.envelope_points(5.0, 0.1)) == 10

    @settings(max_examples=150, deadline=None)
    @given(xy=_tied_points())
    def test_order_is_the_stable_argsort(self, xy):
        """The index's permutation is exactly ``argsort(kind="stable")``
        (ties in original order) and ``sorted_xy`` is byte-equal to the
        gather by it, in both orientations: heavy ties from tiny alphabets,
        signed zeros, infinities, NaN rows, n <= 2, and pre-sorted or
        reversed input.  City data has no y ties, so only this test runs
        the tie repair."""
        index = YSortedIndex(xy)
        for idx, coords in ((index, xy), (index.transposed(), xy[:, ::-1])):
            expected = np.argsort(coords[:, 1], kind="stable")
            np.testing.assert_array_equal(idx.order, expected)
            assert idx.sorted_xy.tobytes() == coords[expected].tobytes()
            assert idx.sorted_xy.shape == coords.shape

    @settings(max_examples=100, deadline=None)
    @given(xy=_tied_points())
    def test_presorted_matches_a_fresh_sort(self, xy):
        """``presorted`` takes points already in stable y order as they are
        (the identity permutation, the input itself as ``sorted_xy``) and
        equals a freshly sorted index bit for bit; other input (NaN rows
        included) is sorted as usual."""
        in_order = YSortedIndex(xy).sorted_xy
        for coords in (in_order, xy):
            index = YSortedIndex.presorted(coords)
            expected = YSortedIndex(coords)
            np.testing.assert_array_equal(index.order, expected.order)
            assert index.sorted_xy.tobytes() == expected.sorted_xy.tobytes()
        if not np.isnan(in_order[:, 1]).any():
            assert YSortedIndex.presorted(in_order).sorted_xy is in_order

    def test_overflowing_keys_take_the_stable_sort(self, monkeypatch):
        """An n whose composite keys would overflow int64 (n**2 > 2**63)
        sorts with the stable argsort itself; shrinking the limit runs
        that branch on a small input."""
        monkeypatch.setattr(envelope, "_MAX_KEYED_N", 3)
        xy = np.column_stack([np.arange(8.0), [2.0, 1.0, 2.0, 1.0] * 2])
        np.testing.assert_array_equal(
            YSortedIndex(xy).order, np.argsort(xy[:, 1], kind="stable")
        )


class TestRowBounds:
    def test_interval_matches_distance_condition(self, rng):
        from repro.core.bounds import row_bounds

        k, b = 10.0, 4.0
        xy = np.column_stack(
            [rng.uniform(0, 50, 200), rng.uniform(k - b, k + b, 200)]
        )
        lb, ub = row_bounds(xy, k, b)
        for qx in np.linspace(0, 50, 23):
            in_interval = (lb <= qx) & (qx <= ub)
            d_sq = (xy[:, 0] - qx) ** 2 + (xy[:, 1] - k) ** 2
            in_disc = d_sq <= b * b
            np.testing.assert_array_equal(in_interval, in_disc)

    def test_interval_centered_on_point(self):
        from repro.core.bounds import row_bounds

        lb, ub = row_bounds(np.array([[7.0, 0.0]]), k=0.0, bandwidth=2.0)
        assert lb[0] == pytest.approx(5.0)
        assert ub[0] == pytest.approx(9.0)

    def test_zero_width_interval_at_envelope_edge(self):
        from repro.core.bounds import row_bounds

        # |k - p.y| == b: the interval degenerates to the point's x.
        lb, ub = row_bounds(np.array([[3.0, 2.0]]), k=0.0, bandwidth=2.0)
        assert lb[0] == ub[0] == pytest.approx(3.0)

    def test_outside_envelope_raises(self):
        from repro.core.bounds import row_bounds

        with pytest.raises(ValueError, match="outside envelope"):
            row_bounds(np.array([[0.0, 10.0]]), k=0.0, bandwidth=2.0)

    def test_empty(self):
        from repro.core.bounds import row_bounds

        lb, ub = row_bounds(np.empty((0, 2)), 0.0, 1.0)
        assert len(lb) == len(ub) == 0
