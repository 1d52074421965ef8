"""Tests for the ``native`` engine and the shared-memory shard transport.

Two availability regimes, both first-class:

* **Fallback checkout** (no compiled extension): the package imports
  cleanly, ``native`` is absent from the engine tables, requesting it fails
  with the standard unknown-engine error naming the engines that *are*
  available, and the CLI adds a build hint.  These tests always run.
* **Compiled checkout**: the parity suite pins the engine bit-identical to
  the default ``numpy`` block engine (and hence to the per-row
  ``slam_bucket_row_numpy`` oracle) across kernels, weights, thread counts,
  and RAO orientations; skip-marked when the extension is absent.

The shm transport tests exercise the tentpole's second layer end to end:
<1 KB of TCP per shard, bit-identical grids, pickle parity, runtime
demotion, and clean ``/dev/shm`` teardown after a SIGKILL'd worker.
"""

from __future__ import annotations

import glob
import threading
import types

import numpy as np
import pytest

from repro import PointSet, Raster, Region, compute_kdv, save_csv
from repro.cli import build_parser, main as cli_main
from repro.core.batch import NumpyBatchEngine
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.native import NATIVE_AVAILABLE, native_max_threads
from repro.dist import shm
from repro.dist.coordinator import Coordinator
from repro.dist.errors import DistError
from repro.dist.worker import (
    WorkerServer,
    compute_shard,
    engine_spec,
    resolve_engine,
)
from repro.obs import Recorder

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="native sweep extension not compiled"
)

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")


@pytest.fixture(scope="module")
def cluster_xy() -> np.ndarray:
    rng = np.random.default_rng(20220613)
    centers = rng.uniform([0.0, 0.0], [100.0, 80.0], size=(8, 2))
    return centers[rng.integers(0, 8, 3000)] + rng.normal(0.0, 6.0, (3000, 2))


@pytest.fixture(scope="module")
def cluster_weights(cluster_xy) -> np.ndarray:
    return np.random.default_rng(99).uniform(0.5, 2.0, len(cluster_xy))


def _sweep_args(xy, bandwidth=9.0, width=64, height=48, region=(100.0, 80.0)):
    ysorted = YSortedIndex(xy)
    raster = Raster(Region(0.0, 0.0, *region), width, height)
    cx = (raster.region.xmin + raster.region.xmax) / 2.0
    xs_scaled = (raster.x_centers() - cx) / bandwidth
    return ysorted, raster.y_centers(), xs_scaled, cx


# ---------------------------------------------------------------------------
# Availability matrix (always runs; the fallback half is what CI's
# pure-python jobs exercise)
# ---------------------------------------------------------------------------


class TestAvailability:
    def test_module_imports_without_extension(self):
        """repro.core.native must import on a wheel-less checkout."""
        import repro.core.native as native_mod

        assert isinstance(native_mod.NATIVE_AVAILABLE, bool)
        assert native_max_threads() >= 1

    def test_engine_tables_match_availability(self):
        from repro.core.engines import ENGINES, slam_bucket_grid, slam_sort_grid

        assert ("native" in slam_bucket_grid) == NATIVE_AVAILABLE
        assert ("slam_bucket.native" in ENGINES) == NATIVE_AVAILABLE
        # native buckets, so the sorting method never lists it
        assert "native" not in slam_sort_grid

    @pytest.mark.skipif(NATIVE_AVAILABLE, reason="extension is compiled here")
    def test_unknown_engine_error_names_available(self, cluster_xy):
        with pytest.raises(ValueError, match="unknown engine 'native'") as exc:
            compute_kdv(
                cluster_xy, size=(16, 12), bandwidth=9.0,
                method="slam_bucket", engine="native",
            )
        assert "numpy_batch" in str(exc.value)

    @pytest.mark.skipif(NATIVE_AVAILABLE, reason="extension is compiled here")
    def test_engine_constructor_raises_clean_error(self):
        from repro.core.native import NativeEngine

        with pytest.raises(RuntimeError, match="docs/native.md"):
            NativeEngine()

    def test_cli_accepts_native_choice(self):
        # ``native`` stays in the CLI choices even on a fallback checkout
        # so the error is ours (naming the build fix), not argparse's.
        args = build_parser().parse_args(
            ["compute", "x.csv", "--engine", "native"]
        )
        assert args.engine == "native"

    @pytest.mark.skipif(NATIVE_AVAILABLE, reason="extension is compiled here")
    def test_cli_error_message_names_available_engines(
        self, cluster_xy, tmp_path, capsys
    ):
        """`repro compute --engine native` on a fallback checkout: exit 2
        plus an error naming the registered engines and a build hint."""
        csv = tmp_path / "pts.csv"
        save_csv(PointSet(cluster_xy), csv)
        code = cli_main([
            "compute", str(csv), "-o", str(tmp_path / "o.ppm"),
            "--size", "16x12", "--engine", "native",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'native'" in err
        assert "numpy_batch" in err
        assert "docs/native.md" in err


# ---------------------------------------------------------------------------
# Parity suite (compiled checkouts only)
# ---------------------------------------------------------------------------


@needs_native
class TestNativeParity:
    """native == the numpy block engine == the per-row oracle, bit for bit."""

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize("weighted", (False, True))
    @pytest.mark.parametrize("threads", (1, 3))
    def test_kernels_weights_threads(
        self, kernel_name, weighted, threads, cluster_xy, cluster_weights
    ):
        from repro.core.native import NativeEngine

        ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
        kernel = get_kernel(kernel_name)
        sw = cluster_weights[ysorted.order] if weighted else None
        ref = NumpyBatchEngine().sweep_block(
            0, len(y_centers), y_centers, xs_scaled, ysorted, cx, 9.0,
            kernel, sorted_weights=sw,
        )
        got = NativeEngine(threads=threads).sweep_block(
            0, len(y_centers), y_centers, xs_scaled, ysorted, cx, 9.0,
            kernel, sorted_weights=sw,
        )
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("size", ((48, 36), (36, 48)))
    def test_rao_both_orientations(self, size, cluster_xy):
        kw = dict(
            region=Region(0.0, 0.0, 100.0, 80.0), size=size, bandwidth=9.0,
            method="slam_bucket_rao", normalization="none",
        )
        a = compute_kdv(cluster_xy, engine="numpy", **kw).grid
        b = compute_kdv(cluster_xy, engine="native", **kw).grid
        assert np.array_equal(a, b)

    def test_workers_kwarg_is_thread_count(self, cluster_xy):
        """``workers`` maps to OpenMP threads; any count is bit-identical,
        and the stats report the realized parallelism."""
        kw = dict(
            region=Region(0.0, 0.0, 100.0, 80.0), size=(40, 30),
            bandwidth=9.0, method="slam_bucket", normalization="none",
            collect_stats=True,
        )
        a = compute_kdv(cluster_xy, engine="native", workers=1, **kw)
        b = compute_kdv(cluster_xy, engine="native", workers=4, **kw)
        assert np.array_equal(a.grid, b.grid)
        assert a.stats.backend == "serial"
        assert b.stats.workers == 4
        assert b.stats.backend == "openmp"

    def test_empty_and_degenerate(self):
        from repro.core.native import NativeEngine

        for n, width, height in ((0, 8, 6), (1, 1, 5), (7, 5, 1)):
            xy = np.random.default_rng(n).uniform((0, 0), (50, 40), (n, 2))
            ysorted, y_centers, xs_scaled, cx = _sweep_args(
                xy, bandwidth=3.0, width=width, height=height,
                region=(50.0, 40.0),
            )
            kernel = get_kernel("epanechnikov")
            ref = NumpyBatchEngine().sweep_block(
                0, height, y_centers, xs_scaled, ysorted, cx, 3.0, kernel
            )
            got = NativeEngine().sweep_block(
                0, height, y_centers, xs_scaled, ysorted, cx, 3.0, kernel
            )
            assert np.array_equal(ref, got)

    def test_recorder_counters_match_batch(self, cluster_xy):
        from repro.core.native import NativeEngine

        ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
        kernel = get_kernel("epanechnikov")
        snaps = []
        for engine in (NumpyBatchEngine(), NativeEngine()):
            rec = Recorder()
            engine.sweep_block(
                0, len(y_centers), y_centers, xs_scaled, ysorted, cx, 9.0,
                kernel, recorder=rec,
            )
            snaps.append(rec.snapshot()["counters"])
        for key in ("sweep.rows", "sweep.empty_rows", "sweep.envelope_points"):
            assert snaps[0][key] == snaps[1][key]

    def test_dist_engine_spec_round_trip(self):
        from repro.core.native import NativeEngine

        spec = engine_spec(NativeEngine(threads=3))
        assert spec == {"name": "slam_bucket.native", "threads": 3}
        engine = resolve_engine(spec)
        assert isinstance(engine, NativeEngine)
        assert engine.threads == 3

    def test_unknown_kernel_rejected(self, cluster_xy):
        from repro.core.native import NativeEngine

        ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
        fake = types.SimpleNamespace(name="triangular", num_channels=1)
        with pytest.raises(ValueError, match="triangular"):
            NativeEngine().sweep_block(
                0, 4, y_centers, xs_scaled, ysorted, cx, 9.0, fake
            )


def test_native_spec_falls_back_to_batch_when_absent(monkeypatch):
    """A worker without the extension resolves a native spec to the
    bit-identical numpy_batch engine instead of erroring the shard."""
    import repro.core.engines as engines_mod

    monkeypatch.setattr(engines_mod, "NATIVE_AVAILABLE", False)
    engine = resolve_engine({"name": "slam_bucket.native", "threads": 2})
    assert isinstance(engine, NumpyBatchEngine)


# ---------------------------------------------------------------------------
# Shared-memory transport
# ---------------------------------------------------------------------------


def _leftover_segments() -> "list[str]":
    return glob.glob("/dev/shm/rkdv-*")


def _render(coord, xy, *, weights=None, shards=4, height=120, width=160):
    ysorted, y_centers, xs_scaled, cx = _sweep_args(
        xy, width=width, height=height
    )
    sw = None if weights is None else weights[ysorted.order]
    return coord.render_sweep(
        ysorted=ysorted,
        y_centers=y_centers,
        xs_scaled=xs_scaled,
        cx=cx,
        bandwidth=9.0,
        kernel=get_kernel("epanechnikov"),
        engine=engine_spec(NumpyBatchEngine()),
        sorted_weights=sw,
        shards=shards,
    )


@pytest.mark.skipif(not shm.SHM_AVAILABLE, reason="no shared memory here")
class TestShmTransport:
    def test_round_trip_bit_identical_and_tiny_frames(
        self, cluster_xy, cluster_weights
    ):
        """Acceptance criterion: a local pool ships < 1 KB of TCP per shard
        for a 160x120 grid, with grids bit-identical to the pickle path."""
        srv = WorkerServer(port=0)
        srv.start_in_thread()
        try:
            rec = Recorder()
            with Coordinator([("127.0.0.1", srv.port)], recorder=rec) as coord:
                _, grid, _ = _render(
                    coord, cluster_xy, weights=cluster_weights, shards=4
                )
            with Coordinator([]) as local:
                _, ref, _ = _render(
                    local, cluster_xy, weights=cluster_weights, shards=4
                )
            assert np.array_equal(grid, ref)
            shards = rec.counter_value("dist.shards")
            tx = rec.counter_value("dist.bytes_tx")
            assert shards >= 4
            assert tx > 0 and tx / shards < 1024
            # Inputs were published once plus each band written back.
            assert rec.counter_value("dist.shm_bytes") > grid.nbytes
            assert rec.counter_value("dist.local_shards") == 0
            assert not _leftover_segments()
        finally:
            srv.stop()

    def test_shm_disabled_knob_uses_pickle(self, cluster_xy):
        srv = WorkerServer(port=0)
        srv.start_in_thread()
        try:
            rec = Recorder()
            with Coordinator(
                [("127.0.0.1", srv.port)], shm=False, recorder=rec
            ) as coord:
                _, grid, _ = _render(coord, cluster_xy, shards=2)
            with Coordinator([]) as local:
                _, ref, _ = _render(local, cluster_xy, shards=2)
            assert np.array_equal(grid, ref)
            assert rec.counter_value("dist.shm_bytes") == 0
            # Pickle frames carry the halo arrays: far over 1 KB per shard.
            assert rec.counter_value("dist.bytes_tx") > 10 * 1024
            assert not _leftover_segments()
        finally:
            srv.stop()

    def test_worker_shm_failure_demotes_to_pickle(self, cluster_xy, monkeypatch):
        """A worker that cannot map the segments is demoted, the shard is
        resubmitted over pickle, and the render still completes."""
        def broken_attach(name):
            raise shm.ShmError(f"injected mapping failure for {name!r}")

        monkeypatch.setattr(shm, "attach", broken_attach)
        srv = WorkerServer(port=0)
        srv.start_in_thread()
        try:
            rec = Recorder()
            with Coordinator([("127.0.0.1", srv.port)], recorder=rec) as coord:
                _, grid, _ = _render(coord, cluster_xy, shards=2)
            monkeypatch.undo()
            with Coordinator([]) as local:
                _, ref, _ = _render(local, cluster_xy, shards=2)
            assert np.array_equal(grid, ref)
            assert rec.counter_value("dist.shm_demotions") >= 1
            assert not _leftover_segments()
        finally:
            srv.stop()

    def test_hello_advertises_caps_and_node(self):
        from repro.dist import proto

        hello = proto.hello_payload()
        assert hello["caps"]["shm"] == shm.SHM_AVAILABLE
        assert hello["node"] == proto.node_id()

    def test_segments_unlinked_after_failed_render(self, cluster_xy):
        """try/finally: a poisoned shard (bad engine spec) must not leak
        segments."""
        srv = WorkerServer(port=0)
        srv.start_in_thread()
        try:
            with Coordinator([("127.0.0.1", srv.port)]) as coord:
                ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
                with pytest.raises(DistError):
                    coord.render_sweep(
                        ysorted=ysorted, y_centers=y_centers,
                        xs_scaled=xs_scaled, cx=cx, bandwidth=9.0,
                        kernel=get_kernel("epanechnikov"),
                        engine={"name": "no-such-engine", "threads": 1},
                        shards=2,
                    )
            assert not _leftover_segments()
        finally:
            srv.stop()

    def test_compute_shard_materializes_shm_task(self, cluster_xy):
        """The worker-side zero-copy materialization equals the inline-array
        task bit for bit."""
        ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
        req = shm.RequestSegment(ysorted.sorted_xy, None, y_centers, xs_scaled)
        try:
            base = {
                "shard_id": 0, "row_start": 10, "row_stop": 30,
                "cx": cx, "bandwidth": 9.0, "kernel": "epanechnikov",
                "engine": engine_spec(NumpyBatchEngine()),
                "collect": False,
            }
            shm_task = dict(base)
            shm_task.update({
                "halo_start": 0, "halo_stop": len(ysorted.sorted_xy),
                "shm": {"req": req.descr, "resp": None},
            })
            pickle_task = dict(base)
            pickle_task.update({
                "halo_xy": ysorted.sorted_xy,
                "halo_weights": None,
                "y_centers": y_centers[10:30],
                "xs_scaled": xs_scaled,
            })
            a, _ = compute_shard(shm_task)
            b, _ = compute_shard(pickle_task)
            assert np.array_equal(a, b)
        finally:
            req.unlink()
        assert not _leftover_segments()


@pytest.mark.skipif(not shm.SHM_AVAILABLE, reason="no shared memory here")
def test_sigkill_mid_shard_recovers_and_cleans_up(cluster_xy):
    """The CI smoke scenario in-process: SIGKILL a real worker process
    mid-shard; the render completes bit-identically on the survivor and no
    segment survives in /dev/shm."""
    from repro.dist.launch import launch_local_workers

    pool = launch_local_workers(2, delay_s=0.5)
    rec = Recorder()
    try:
        with Coordinator(pool.addrs, recorder=rec) as coord:
            assert coord.connect() == 2
            victim = pool[0]
            killer = threading.Timer(0.25, victim.kill)
            killer.start()
            try:
                _, grid, _ = _render(coord, cluster_xy, shards=4)
            finally:
                killer.cancel()
            assert not victim.alive()
    finally:
        pool.shutdown()
    with Coordinator([]) as local:
        _, ref, _ = _render(local, cluster_xy, shards=4)
    assert np.array_equal(grid, ref)
    assert rec.counter_value("dist.worker_deaths") >= 1
    assert not _leftover_segments()
