"""Tests for the observability layer (repro.obs).

Contracts under test, mirroring docs/observability.md:

* counters/timers/spans record exactly what call sites report, thread-safely;
* ``snapshot()`` is JSON-safe and schema-tagged; ``merge()`` adds exactly;
* the no-op path allocates nothing per call (cached singletons);
* attaching a recorder never changes a computed grid, serial or parallel,
  and parallel merged counters equal the serial counts exactly.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import compute_kdv
from repro.obs import recorder as recorder_mod
from repro.obs import (
    NULL_RECORDER,
    RECORDER_SCHEMA,
    NullRecorder,
    Recorder,
    active,
    format_summary,
)


class TestCounter:
    def test_add_and_value(self):
        rec = Recorder()
        rec.count("a")
        rec.count("a", 4)
        assert rec.counter_value("a") == 5
        assert rec.counter("a").value == 5

    def test_unknown_counter_reads_zero(self):
        assert Recorder().counter_value("never") == 0

    def test_counter_identity(self):
        rec = Recorder()
        assert rec.counter("x") is rec.counter("x")


class TestPhaseTimer:
    def test_accumulates_totals_and_calls(self):
        rec = Recorder()
        rec.timer("p").add(0.5)
        rec.timer("p").add(1.5, calls=3)
        assert rec.phase_seconds("p") == pytest.approx(2.0)
        assert rec.timer("p").calls == 4

    def test_unknown_phase_reads_zero(self):
        assert Recorder().phase_seconds("never") == 0.0


class TestSpan:
    def test_span_feeds_phase_timer(self):
        rec = Recorder()
        with rec.span("work"):
            pass
        assert rec.phase_seconds("work") > 0.0
        assert rec.timer("work").calls == 1

    def test_spans_nest_with_depth(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        spans = rec.snapshot()["spans"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        # outer wall time includes the nested inner time
        assert by_name["outer"]["elapsed_s"] >= by_name["inner"]["elapsed_s"]

    def test_span_exception_still_records(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("broken"):
                raise RuntimeError("boom")
        assert rec.timer("broken").calls == 1


class TestSnapshot:
    def test_schema_tag_and_shape(self):
        rec = Recorder()
        rec.count("c", 2)
        with rec.span("p"):
            pass
        snap = rec.snapshot()
        assert snap["schema"] == RECORDER_SCHEMA
        assert snap["counters"] == {"c": 2}
        assert snap["phases"]["p"]["calls"] == 1
        assert len(snap["spans"]) == 1

    def test_snapshot_is_strict_json(self):
        rec = Recorder()
        rec.count("c")
        with rec.span("p"):
            pass
        # round-trips through strict JSON (what bench reports embed)
        restored = json.loads(json.dumps(rec.snapshot(), allow_nan=False))
        assert restored["counters"] == {"c": 1}

    def test_snapshot_is_detached(self):
        rec = Recorder()
        rec.count("c")
        snap = rec.snapshot()
        rec.count("c")
        assert snap["counters"]["c"] == 1


class TestGauge:
    def test_set_and_read(self):
        rec = Recorder()
        rec.set_gauge("queue_depth", 3)
        assert rec.gauge_value("queue_depth") == 3
        rec.set_gauge("queue_depth", 0)
        assert rec.gauge_value("queue_depth") == 0
        assert rec.gauge("queue_depth").value == 0

    def test_unknown_gauge_reads_zero(self):
        assert Recorder().gauge_value("never") == 0

    def test_moves_both_directions(self):
        rec = Recorder()
        for value in (5, 2, 7.5, 1):
            rec.set_gauge("g", value)
            assert rec.gauge_value("g") == value

    def test_snapshot_carries_gauges(self):
        rec = Recorder()
        rec.set_gauge("cache_size", 12)
        snap = rec.snapshot()
        assert snap["gauges"] == {"cache_size": 12}
        json.dumps(snap)  # stays JSON-safe

    def test_merge_takes_donor_last_value(self):
        a, b = Recorder(), Recorder()
        a.set_gauge("depth", 4)
        b.set_gauge("depth", 9)
        b.set_gauge("only_b", 1)
        a.merge(b)
        # last value wins — gauges are levels, not accumulations
        assert a.gauge_value("depth") == 9
        assert a.gauge_value("only_b") == 1

    def test_null_recorder_gauges_are_noops(self):
        NULL_RECORDER.set_gauge("g", 5)
        assert NULL_RECORDER.gauge_value("g") == 0
        assert NULL_RECORDER.gauge("g") is NULL_RECORDER.gauge("other")
        assert NULL_RECORDER.snapshot()["gauges"] == {}

    def test_summary_lists_gauges(self):
        rec = Recorder()
        rec.set_gauge("serve.queue_depth", 2)
        text = rec.summary()
        assert "gauges:" in text
        assert "serve.queue_depth" in text

    def test_thread_safety(self):
        rec = Recorder()

        def writer(value):
            for _ in range(500):
                rec.set_gauge("g", value)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.gauge_value("g") in (0, 1, 2, 3)


class TestMerge:
    def test_merge_recorder_adds_exactly(self):
        a, b = Recorder(), Recorder()
        a.count("rows", 10)
        b.count("rows", 7)
        b.count("extra", 1)
        a.timer("sweep").add(1.0, calls=2)
        b.timer("sweep").add(0.5)
        a.merge(b)
        assert a.counter_value("rows") == 17
        assert a.counter_value("extra") == 1
        assert a.phase_seconds("sweep") == pytest.approx(1.5)
        assert a.timer("sweep").calls == 3

    def test_merge_snapshot_dict(self):
        """Process-pool workers ship snapshots, not recorder objects."""
        a, b = Recorder(), Recorder()
        b.count("rows", 3)
        with b.span("sweep"):
            pass
        a.merge(b.snapshot())
        assert a.counter_value("rows") == 3
        assert a.timer("sweep").calls == 1
        assert len(a.snapshot()["spans"]) == 1

    def test_merge_is_associative_on_counters(self):
        parts = []
        for n in (1, 2, 3):
            r = Recorder()
            r.count("x", n)
            parts.append(r.snapshot())
        left, right = Recorder(), Recorder()
        for snap in parts:
            left.merge(snap)
        for snap in reversed(parts):
            right.merge(snap)
        assert left.counter_value("x") == right.counter_value("x") == 6


class TestSpanBound:
    """A long-lived recorder (a tile service's, a coordinator's) records a
    span per request or render; it keeps only the newest ones."""

    def test_keeps_newest_spans_and_exact_timers(self):
        bound = recorder_mod.MAX_SPANS
        rec = Recorder()
        for _ in range(10):
            with rec.span("old"):
                pass
        for i in range(bound):
            with rec.span("new"):
                pass
        spans = rec.snapshot()["spans"]
        assert len(spans) == bound
        assert {s["name"] for s in spans} == {"new"}
        assert rec.timer("old").calls == 10
        assert rec.timer("new").calls == bound

    def test_merge_of_full_recorders_stays_bounded(self):
        bound = recorder_mod.MAX_SPANS
        a, b = Recorder(), Recorder()
        for _ in range(bound):
            with a.span("a"):
                pass
            with b.span("b"):
                pass
        a.merge(b)
        a.merge(b.snapshot())
        spans = a.snapshot()["spans"]
        assert len(spans) == bound
        assert {s["name"] for s in spans} == {"b"}
        assert a.timer("a").calls == bound
        assert a.timer("b").calls == 2 * bound


class TestThreadSafety:
    def test_concurrent_counter_bumps_are_exact(self):
        rec = Recorder()
        n_threads, bumps = 8, 2_000

        def worker():
            for _ in range(bumps):
                rec.count("hits")

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counter_value("hits") == n_threads * bumps

    def test_concurrent_timer_adds_are_exact(self):
        rec = Recorder()
        n_threads, adds = 8, 1_000

        def worker():
            for _ in range(adds):
                rec.timer("phase").add(0.001)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.timer("phase").calls == n_threads * adds
        assert rec.phase_seconds("phase") == pytest.approx(n_threads * adds * 0.001)


class TestNullRecorder:
    def test_disabled_flag(self):
        assert NULL_RECORDER.enabled is False
        assert Recorder.enabled is True

    def test_accessors_return_cached_singletons(self):
        """The no-op path allocates nothing per call: every accessor hands
        back the same shared object regardless of the name asked for."""
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")
        assert NULL_RECORDER.counter("a") is NULL_RECORDER.counter("b")
        assert NULL_RECORDER.timer("a") is NULL_RECORDER.timer("b")

    def test_span_context_is_noop(self):
        span = NULL_RECORDER.span("x")
        with span as s:
            assert s is span
        assert NULL_RECORDER.phase_seconds("x") == 0.0

    def test_mutators_are_inert(self):
        NULL_RECORDER.count("c", 5)
        NULL_RECORDER.timer("t").add(1.0)
        donor = Recorder()
        donor.count("c", 5)
        NULL_RECORDER.merge(donor)
        snap = NULL_RECORDER.snapshot()
        assert snap["counters"] == {} and snap["phases"] == {}
        assert snap["schema"] == RECORDER_SCHEMA

    def test_active_normalization(self):
        rec = Recorder()
        assert active(rec) is rec
        assert active(None) is None
        assert active(NULL_RECORDER) is None
        assert active(NullRecorder()) is None


class TestFormatSummary:
    def test_empty(self):
        assert format_summary({}) == "(nothing recorded)"
        assert NULL_RECORDER.summary() == "(recording disabled)"

    def test_contents(self):
        rec = Recorder()
        rec.count("sweep.rows", 120)
        rec.timer("sweep").add(1.25, calls=3)
        text = rec.summary()
        assert "sweep.rows" in text
        assert "120" in text
        assert "3 calls" in text
        assert "phase breakdown:" in text


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(4242)
    return rng.uniform((0.0, 0.0), (100.0, 80.0), (400, 2))


class TestComputeIntegration:
    def test_collect_stats_populates_phases_and_counters(self, workload):
        result = compute_kdv(
            workload, size=(64, 48), bandwidth=10.0, collect_stats=True
        )
        assert result.recorder is not None
        assert result.stats is not None
        assert "sweep" in result.stats.phases
        assert result.stats.phases["sweep"] > 0.0
        # RAO may sweep either orientation; rows counted = swept lines
        assert result.stats.counters["sweep.rows"] in (48, 64)
        assert result.stats.counters["sweep.envelope_points"] > 0

    def test_grid_identical_with_and_without_recorder(self, workload):
        plain = compute_kdv(workload, size=(64, 48), bandwidth=10.0)
        stats = compute_kdv(
            workload, size=(64, 48), bandwidth=10.0, collect_stats=True
        )
        ext = compute_kdv(
            workload, size=(64, 48), bandwidth=10.0, recorder=Recorder()
        )
        assert np.array_equal(plain.grid, stats.grid)
        assert np.array_equal(plain.grid, ext.grid)
        assert plain.recorder is None and plain.stats.phases == {}

    def test_external_recorder_aggregates_across_calls(self, workload):
        rec = Recorder()
        for _ in range(3):
            compute_kdv(workload, size=(32, 24), bandwidth=10.0, recorder=rec)
        assert rec.timer("sweep").calls >= 3

    def test_baseline_method_records_compute_span(self, workload):
        result = compute_kdv(
            workload,
            size=(16, 12),
            bandwidth=10.0,
            method="scan",
            collect_stats=True,
        )
        # baselines have no sweep, hence no SweepStats — but the recorder
        # still carries the whole-call span
        assert result.recorder.phase_seconds("compute.scan") > 0.0
        assert result.recorder.timer("compute.scan").calls == 1

    @pytest.mark.parametrize("method", ["slam_sort", "slam_bucket_rao"])
    def test_parallel_merged_counters_equal_serial(self, workload, method):
        # engine="numpy": the subject is the process pool, which the
        # default engine skips for OpenMP threads where native loaded
        serial = compute_kdv(
            workload, size=(64, 48), bandwidth=10.0, method=method,
            engine="numpy", collect_stats=True,
        )
        parallel = compute_kdv(
            workload, size=(64, 48), bandwidth=10.0, method=method,
            engine="numpy", workers=2, collect_stats=True,
        )
        assert np.array_equal(serial.grid, parallel.grid)
        for name in ("sweep.rows", "sweep.envelope_points"):
            assert parallel.stats.counters[name] == serial.stats.counters[name]
        assert parallel.stats.counters["sweep.blocks"] > 1
