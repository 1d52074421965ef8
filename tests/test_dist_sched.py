"""Tests for the cost-model scheduler (repro.dist.sched): envelope pricing,
online calibration, capacity weights, persistence, and the
allocate-then-refine planner's invariants.

The exactness story is structural — a refined plan is still a monotone row
partition fed through ``build_plan`` — so the properties here are about
balance quality (the refined pair-max never exceeds the seed's) and about
the model's predictions being sane (monotone, clamped, warm-startable).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import YSortedIndex
from repro.dist.plan import midpoint_row_bounds, plan_shards, refine_row_bounds
from repro.dist.sched import (
    CostModel,
    engine_key,
    envelope_profile,
    pairs_prefix,
    plan_shards_cost,
)


def _y_centers(height: int, ymin: float = 0.0, ymax: float = 80.0) -> np.ndarray:
    step = (ymax - ymin) / height
    return ymin + (np.arange(height) + 0.5) * step


class TestEnvelopeProfile:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        xy = rng.uniform((0, 0), (100, 80), (150, 2))
        ysorted = YSortedIndex(xy)
        y_centers = _y_centers(25)
        profile = envelope_profile(ysorted, y_centers, 7.5)
        for j, yc in enumerate(y_centers):
            expected = int(np.sum(np.abs(xy[:, 1] - yc) <= 7.5))
            assert profile[j] == expected

    def test_pairs_prefix_sums_profile(self):
        rng = np.random.default_rng(10)
        ysorted = YSortedIndex(rng.uniform((0, 0), (100, 80), (80, 2)))
        y_centers = _y_centers(16)
        profile = envelope_profile(ysorted, y_centers, 11.0)
        prefix = pairs_prefix(ysorted, y_centers, 11.0)
        assert prefix[0] == 0.0
        assert prefix[-1] == profile.sum()
        for r0, r1 in ((0, 16), (3, 9), (5, 5), (15, 16)):
            assert prefix[r1] - prefix[r0] == profile[r0:r1].sum()


class TestEngineKey:
    def test_distinct_pools(self):
        spec = {"name": "slam_bucket.numpy", "threads": 1}
        assert engine_key(spec) == "slam_bucket.numpy"
        assert engine_key({"name": "slam_sort.numpy"}) == "slam_sort.numpy"
        native = {"name": "slam_bucket.native", "threads": 4}
        assert engine_key(native) == "slam_bucket.native@4"


class TestCostModel:
    def test_cold_model_predicts_none(self):
        model = CostModel()
        assert model.predict_seconds("batch", 100, 5000) is None

    def test_single_sample_enables_throughput_fallback(self):
        model = CostModel()
        model.observe("batch", "w1", rows=100, pairs=900, seconds=0.1)
        # 1000 work units in 0.1s -> a 2000-unit band predicts ~0.2s
        pred = model.predict_seconds("batch", 200, 1800)
        assert pred == pytest.approx(0.2, rel=0.3)
        # other engine pools stay cold
        assert model.predict_seconds("row:x", 100, 900) is None

    def test_fit_recovers_linear_coefficients(self):
        model = CostModel()
        rng = np.random.default_rng(4)
        c0, c1, c2 = 0.01, 2e-4, 3e-6
        for _ in range(40):
            rows = float(rng.integers(10, 500))
            pairs = float(rng.integers(100, 50_000))
            model.observe("batch", "w", rows, pairs, c0 + c1 * rows + c2 * pairs)
        pred = model.predict_seconds("batch", 300, 20_000)
        truth = c0 + c1 * 300 + c2 * 20_000
        assert pred == pytest.approx(truth, rel=0.05)
        # predictions are monotone in band size (clamped coefficients)
        assert model.predict_seconds("batch", 600, 40_000) >= pred

    def test_ignores_degenerate_samples(self):
        model = CostModel()
        model.observe("batch", "w", rows=0, pairs=100, seconds=1.0)
        model.observe("batch", "w", rows=10, pairs=100, seconds=0.0)
        assert model.predict_seconds("batch", 10, 100) is None

    def test_capacity_ranks_throttled_worker(self):
        model = CostModel()
        for _ in range(5):
            model.observe("batch", "fast", 100, 900, 0.1)
            model.observe("batch", "slow", 100, 900, 0.4)  # 4x throttled
        fast, slow = model.capacities(["fast", "slow"])
        assert fast > slow
        assert slow == pytest.approx(fast / 4.0, rel=0.2)
        # worker-relative prediction: the slow worker is predicted slower
        pool = model.predict_seconds("batch", 100, 900)
        assert model.predict_seconds("batch", 100, 900, worker="slow") > pool

    def test_hello_cpus_prior_before_any_sample(self):
        model = CostModel()
        model.hello("big", 16)
        model.hello("small", 4)
        big, small = model.capacities(["big", "small"])
        assert big > 1.0 > small
        assert model.capacity("unknown") == 1.0

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "sched.json")
        model = CostModel()
        for i in range(12):
            model.observe("batch", "w1", 100 + i, 1000 + 10 * i, 0.05)
        model.hello("w1", 8)
        model.save(path)
        warm = CostModel(path)
        cold = model.predict_seconds("batch", 150, 1500)
        assert warm.predict_seconds("batch", 150, 1500) == pytest.approx(cold)
        assert warm.capacity("w1") == model.capacity("w1")

    def test_corrupt_state_file_ignored(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text("{not json")
        model = CostModel()
        assert model.load(str(path)) is False
        assert model.predict_seconds("batch", 10, 10) is None
        assert model.load(str(tmp_path / "missing.json")) is False

    def test_row_cost_units_fallback_and_fit(self):
        model = CostModel()
        profile = np.array([10.0, 0.0, 5.0])
        # cold: pairs + 1 per row
        assert np.array_equal(
            model.row_cost_units("batch", profile), profile + 1.0
        )
        for _ in range(12):
            model.observe("batch", "w", 100, 10_000, 0.1)
        units = model.row_cost_units("batch", profile)
        assert units.shape == profile.shape
        assert np.all(units >= 0)
        # still monotone in envelope size
        assert units[0] >= units[2] >= units[1]


class TestRefineRowBounds:
    @settings(max_examples=80, deadline=None)
    @given(
        height=st.integers(2, 80),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        weighted=st.booleans(),
    )
    def test_refine_never_worsens_the_weighted_max(
        self, height, k, seed, weighted
    ):
        k = min(k, height)
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.0, 10.0, height)
        prefix = np.concatenate([[0.0], np.cumsum(costs)])

        def band_cost(r0, r1):
            return float(prefix[r1] - prefix[r0])

        start = np.sort(rng.choice(np.arange(1, height), k - 1, replace=False))
        seed_bounds = [0, *map(int, start), height]
        weights = list(rng.uniform(0.5, 4.0, k)) if weighted else None

        def weighted_max(bounds):
            return max(
                band_cost(bounds[i], bounds[i + 1])
                / (weights[i] if weights else 1.0)
                for i in range(k)
            )

        bounds, moves = refine_row_bounds(
            band_cost, seed_bounds, weights=weights
        )
        # still a monotone partition with the same endpoints
        assert bounds[0] == 0 and bounds[-1] == height
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) == k + 1
        assert weighted_max(bounds) <= weighted_max(seed_bounds) + 1e-9
        assert moves >= 0
        # deterministic: same inputs, same answer
        again, again_moves = refine_row_bounds(
            band_cost, seed_bounds, weights=weights
        )
        assert again == bounds and again_moves == moves

    def test_fixes_a_pathological_seed(self):
        # all cost in the first band; refinement must spread it
        costs = np.array([100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
        prefix = np.concatenate([[0.0], np.cumsum(costs)])

        def band_cost(r0, r1):
            return float(prefix[r1] - prefix[r0])

        bounds, moves = refine_row_bounds(band_cost, [0, 4, 6, 8])
        assert moves > 0
        per_band = [band_cost(a, b) for a, b in zip(bounds, bounds[1:])]
        assert max(per_band) < band_cost(0, 4)


class TestPlanShardsCost:
    def _skewed(self, n=600, seed=2):
        """A Gaussian hotspot: most points in a thin y band."""
        rng = np.random.default_rng(seed)
        hot = rng.normal((50, 15), (20, 2.0), (int(n * 0.8), 2))
        cold = rng.uniform((0, 0), (100, 80), (n - len(hot), 2))
        return np.clip(np.vstack([hot, cold]), 0, (100, 80))

    def test_clamps_exactly_like_plan_shards(self):
        ysorted = YSortedIndex(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert len(plan_shards_cost(ysorted, _y_centers(20), 5.0, 99).plan) == 3
        assert len(plan_shards_cost(ysorted, _y_centers(2), 5.0, 99).plan) == 2

    def test_beats_rows_balance_under_skew(self):
        ysorted = YSortedIndex(self._skewed())
        y_centers = _y_centers(64)
        sp = plan_shards_cost(ysorted, y_centers, 6.0, 4)
        rows_plan = plan_shards(ysorted, y_centers, 6.0, 4, balance="rows")

        def pair_max(plan):
            return max(
                sp.band_pairs(s.row_start, s.row_stop) for s in plan
            )

        assert pair_max(sp.plan) < pair_max(rows_plan)
        assert sp.refine_moves > 0

    def test_capacity_weights_widen_fast_workers_bands(self):
        ysorted = YSortedIndex(
            np.random.default_rng(0).uniform((0, 0), (100, 80), (800, 2))
        )
        y_centers = _y_centers(64)
        flat = plan_shards_cost(ysorted, y_centers, 6.0, 2)
        tilted = plan_shards_cost(
            ysorted, y_centers, 6.0, 2, capacities=[4.0, 1.0]
        )
        assert flat.weights is None
        assert tilted.weights == (4.0, 1.0)
        costs = [
            tilted.band_cost(s.row_start, s.row_stop) for s in tilted.plan
        ]
        # the 4x band should get clearly more predicted work
        assert costs[0] > 1.5 * costs[1]

    def test_plan_is_valid_and_deterministic(self):
        xy = self._skewed(400, seed=7)
        ysorted = YSortedIndex(xy)
        y_centers = _y_centers(48)
        a = plan_shards_cost(ysorted, y_centers, 8.0, 5)
        b = plan_shards_cost(YSortedIndex(xy.copy()), y_centers.copy(), 8.0, 5)
        assert a.plan.shards == b.plan.shards
        cursor = 0
        for shard in a.plan:
            assert shard.row_start == cursor
            cursor = shard.row_stop
        assert cursor == a.plan.height

    def test_seed_matches_midpoint_split(self):
        # with a flat cost surface the refined plan equals the midpoint seed
        ysorted = YSortedIndex(
            np.random.default_rng(1).uniform((0, 0), (100, 80), (300, 2))
        )
        y_centers = _y_centers(32)
        model = CostModel()
        sp = plan_shards_cost(ysorted, y_centers, 4.0, 3, model=model)
        seed = midpoint_row_bounds(ysorted, y_centers, 3)
        got = [s.row_start for s in sp.plan] + [sp.plan.height]
        # refinement may move boundaries, but only to reduce the pair max
        def pmax(bounds):
            return max(
                sp.band_pairs(a, b) for a, b in zip(bounds, bounds[1:])
            )

        assert pmax(got) <= pmax(seed) + 1e-9
