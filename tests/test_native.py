"""Tests for the ``native`` engine and the shared-memory shard transport.

Two availability regimes, both first-class:

* **Fallback** (the extension did not load): the package imports cleanly,
  ``native`` is absent from the engine tables, ``auto`` runs the per-row
  ``numpy`` engine, requesting ``native`` fails with the standard
  unknown-engine error naming the engines that *are* available, and the
  CLI adds a hint naming the reason.  These tests always run, against a
  monkeypatched registry or a ``REPRO_BUILD_NATIVE=0`` subprocess.
* **Loaded** (a C compiler built it on first import): the parity suite pins
  the engine bit-identical to the per-row ``slam_bucket_row_numpy`` oracle
  (the ``numpy`` engine) across kernels, weights, thread counts, and RAO
  orientations; every default path reaches the C
  loop with the same bits; and the build cache is keyed, atomic and
  compiler-free when warm.  Skip-marked where the extension did not load.

The shm transport tests exercise the tentpole's second layer end to end:
<1 KB of TCP per shard, bit-identical grids, pickle parity, runtime
demotion, and clean ``/dev/shm`` teardown after a SIGKILL'd worker.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import sysconfig
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import PointSet, Raster, Region, compute_kdv, save_csv
from repro.cli import build_parser, main as cli_main
from repro.core import native
from repro.core.engines import ENGINES
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.native import (
    NATIVE_AVAILABLE,
    TEAM_MIN_PAIRS,
    NativeEngine,
    native_max_threads,
)
from repro.core.parallel import usable_cpus
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import RowSweep
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
    not NATIVE_AVAILABLE, reason="native sweep extension did not load"
)

SRC = Path(__file__).resolve().parents[1] / "src"

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")

#: The per-row Algorithm 2 oracle the compiled engine is pinned to.
ORACLE = RowSweep("slam_bucket_row_numpy", slam_bucket_row_numpy)


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
# Availability matrix (always runs; the fallback half runs against the
# registry a host without the extension builds)
# ---------------------------------------------------------------------------


def _fall_back(mp: pytest.MonkeyPatch) -> None:
    """Shape the engine registry as :mod:`repro.core.engines` builds it
    where the extension did not load (pinned to the real thing by
    ``test_build_native_0_falls_back_to_the_same_bits``)."""
    import repro.core.engines as engines_mod
    import repro.core.native as native_mod

    mp.setattr(native_mod, "NATIVE_AVAILABLE", False)
    mp.setattr(native_mod, "NATIVE_ERROR", "REPRO_BUILD_NATIVE=0")
    mp.setattr(engines_mod, "NATIVE_AVAILABLE", False)
    mp.delitem(engines_mod.ENGINES, engines_mod.NATIVE, raising=False)
    table = engines_mod.slam_bucket_grid
    mp.delitem(table, "native", raising=False)
    mp.setitem(table, "auto", table["numpy"])


@pytest.fixture
def fallback(monkeypatch):
    _fall_back(monkeypatch)


class TestAvailability:
    def test_module_imports_without_extension(self):
        """repro.core.native imports whether or not the extension loaded."""
        import repro.core.native as native_mod

        assert isinstance(native_mod.NATIVE_AVAILABLE, bool)
        assert native_max_threads() >= 1

    def test_engine_tables_match_availability(self):
        from repro.core.engines import ENGINES, slam_bucket_grid, slam_sort_grid

        assert ("native" in slam_bucket_grid) == NATIVE_AVAILABLE
        assert ("slam_bucket.native" in ENGINES) == NATIVE_AVAILABLE
        # native buckets, so the sorting method never lists it
        assert "native" not in slam_sort_grid

    def test_unknown_engine_error_names_available(self, cluster_xy, fallback):
        with pytest.raises(ValueError, match="unknown engine 'native'") as exc:
            compute_kdv(
                cluster_xy, size=(16, 12), bandwidth=9.0,
                method="slam_bucket", engine="native",
            )
        assert "'numpy'" in str(exc.value)

    def test_engine_constructor_raises_clean_error(self, fallback):
        with pytest.raises(RuntimeError, match="REPRO_BUILD_NATIVE=0") as exc:
            NativeEngine()
        assert "docs/native.md" in str(exc.value)

    def test_cli_accepts_native_choice(self):
        # ``native`` stays in the CLI choices even where it did not load,
        # so the error is ours (naming the reason), not argparse's.
        args = build_parser().parse_args(
            ["compute", "x.csv", "--engine", "native"]
        )
        assert args.engine == "native"

    def test_cli_error_message_names_available_engines(
        self, cluster_xy, tmp_path, capsys, fallback
    ):
        """`repro compute --engine native` where the extension did not load:
        exit 2, plus an error naming the registered engines and a hint
        naming the reason."""
        csv = tmp_path / "pts.csv"
        save_csv(PointSet(cluster_xy), csv)
        code = cli_main([
            "compute", str(csv), "-o", str(tmp_path / "o.ppm"),
            "--size", "16x12", "--engine", "native",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'native'" in err
        assert "'numpy'" in err
        assert "REPRO_BUILD_NATIVE=0" in err
        assert "docs/native.md" in err


# ---------------------------------------------------------------------------
# Parity suite (where the extension loaded)
# ---------------------------------------------------------------------------


@needs_native
class TestNativeParity:
    """native == the per-row oracle, bit for bit."""

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize("weighted", (False, True))
    @pytest.mark.parametrize("threads", (None, 1, 3))
    def test_kernels_weights_threads(
        self, kernel_name, weighted, threads, cluster_xy, cluster_weights
    ):
        ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
        kernel = get_kernel(kernel_name)
        sw = cluster_weights[ysorted.order] if weighted else None
        ref = ORACLE.sweep_block(
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
        for n, width, height in ((0, 8, 6), (1, 1, 5), (7, 5, 1)):
            xy = np.random.default_rng(n).uniform((0, 0), (50, 40), (n, 2))
            ysorted, y_centers, xs_scaled, cx = _sweep_args(
                xy, bandwidth=3.0, width=width, height=height,
                region=(50.0, 40.0),
            )
            kernel = get_kernel("epanechnikov")
            ref = ORACLE.sweep_block(
                0, height, y_centers, xs_scaled, ysorted, cx, 3.0, kernel
            )
            got = NativeEngine().sweep_block(
                0, height, y_centers, xs_scaled, ysorted, cx, 3.0, kernel
            )
            assert np.array_equal(ref, got)

    def test_recorder_counters_match_batch(self, cluster_xy):
        ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
        kernel = get_kernel("epanechnikov")
        snaps = []
        for engine in (ORACLE, NativeEngine()):
            rec = Recorder()
            engine.sweep_block(
                0, len(y_centers), y_centers, xs_scaled, ysorted, cx, 9.0,
                kernel, recorder=rec,
            )
            snaps.append(rec.snapshot()["counters"])
        for key in ("sweep.rows", "sweep.empty_rows", "sweep.envelope_points"):
            assert snaps[0][key] == snaps[1][key]

    def test_dist_engine_spec_round_trip(self):
        spec = engine_spec(NativeEngine(threads=3))
        assert spec == {"name": "slam_bucket.native", "threads": 3}
        engine = resolve_engine(spec)
        assert isinstance(engine, NativeEngine)
        assert engine.threads == 3

    def test_unknown_kernel_rejected(self, cluster_xy):
        ysorted, y_centers, xs_scaled, cx = _sweep_args(cluster_xy)
        fake = types.SimpleNamespace(name="triangular", num_channels=1)
        with pytest.raises(ValueError, match="triangular"):
            NativeEngine().sweep_block(
                0, 4, y_centers, xs_scaled, ysorted, cx, 9.0, fake
            )


#: ``compute_kdv`` keywords for ``cluster_xy``: two renders whose sweeps
#: total more envelope pairs than ``TEAM_MIN_PAIRS`` (480 sweeps over most of
#: the 3000 points), one per RAO orientation, and two far below it.
_TEAM_CASES = {
    "above-rows": dict(size=(640, 480), bandwidth=80.0),
    "above-columns": dict(size=(480, 640), bandwidth=80.0),
    "below-rows": dict(size=(48, 36), bandwidth=9.0),
    "below-columns": dict(size=(36, 48), bandwidth=9.0),
}
_TEAM_REGION = Region(0.0, 0.0, 100.0, 80.0)

#: Uniform points under which every one of 480 rows holds all 3000 points
#: in its envelope: 1.44M pairs, above ``TEAM_MIN_PAIRS``.
_ABOVE_FLOOR = """
import json, os, signal
import numpy as np
import repro
from repro.core.parallel import resolve_workers
xy = np.random.default_rng(5).uniform((0.0, 0.0), (100.0, 80.0), (3000, 2))
kw = dict(region=repro.Region(0.0, 0.0, 100.0, 80.0), size=(640, 480),
          bandwidth=80.0)
"""

#: Pinned to one CPU after OpenMP read the wider mask at load time.
_ONE_CPU = """
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
s = repro.compute_kdv(xy, collect_stats=True, **kw).stats
print(json.dumps([resolve_workers("auto"), s.workers, s.backend,
                  s.counters["sweep.envelope_points"]]))
"""

#: A team in the parent (at the default where 2 CPUs are usable, and at
#: workers=2 anywhere), then a fork.  SIGALRM's default action ends a child
#: that hangs in libgomp.
_FORK_AFTER_TEAM = """
ref = repro.compute_kdv(xy, **kw).grid
assert np.array_equal(repro.compute_kdv(xy, workers=2, **kw).grid, ref)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    default = repro.compute_kdv(xy, **kw).grid
    two = repro.compute_kdv(xy, workers=2, collect_stats=True, **kw)
    ok = (np.array_equal(default, ref) and np.array_equal(two.grid, ref)
          and two.stats.workers == 1)
    os._exit(0 if ok else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@needs_native
class TestDefaultTeam:
    """``workers`` unset: the engine sizes its own OpenMP team by the
    render's envelope pairs, with the bits of one thread."""

    @pytest.mark.parametrize("case", list(_TEAM_CASES))
    @pytest.mark.parametrize("weighted", (False, True))
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_default_equals_one_thread(
        self, case, weighted, kernel_name, cluster_xy, cluster_weights
    ):
        kw = dict(
            _TEAM_CASES[case], region=_TEAM_REGION, kernel=kernel_name,
            normalization="none",
            weights=cluster_weights if weighted else None,
        )
        default = compute_kdv(cluster_xy, **kw)
        serial = compute_kdv(cluster_xy, workers=1, collect_stats=True, **kw)
        assert default.grid.tobytes() == serial.grid.tobytes()
        pairs = serial.stats.counters["sweep.envelope_points"]
        assert (pairs >= TEAM_MIN_PAIRS) == case.startswith("above")
        assert serial.stats.orientation == case.split("-")[1]

    def test_stats_report_the_team_that_ran(self, cluster_xy):
        below = compute_kdv(cluster_xy, region=_TEAM_REGION,
                            collect_stats=True, **_TEAM_CASES["below-rows"])
        assert (below.stats.backend, below.stats.workers) == ("serial", 1)
        team = min(native_max_threads(), usable_cpus())
        if team < 2:
            pytest.skip("fewer than 2 usable CPUs: no team to start")
        above = compute_kdv(cluster_xy, region=_TEAM_REGION,
                            collect_stats=True, **_TEAM_CASES["above-rows"])
        assert (above.stats.backend, above.stats.workers) == ("openmp", team)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_one_usable_cpu_renders_on_one_thread(self):
        """Pinned to one CPU (as under ``taskset -c 0``), an above-floor
        render runs one thread and ``"auto"`` resolves to 1, although
        OpenMP read the wider mask when it loaded."""
        script = _ABOVE_FLOOR + _ONE_CPU
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        auto, workers, backend, pairs = json.loads(done.stdout)
        assert (auto, workers, backend) == (1, 1, "serial")
        assert pairs >= TEAM_MIN_PAIRS

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
    def test_child_forked_after_a_team_renders(self):
        """libgomp's pool does not survive ``fork``: a child forked after
        its parent ran a team renders on one thread, at the default and at
        ``workers=2``, with the parent's bits."""
        script = _ABOVE_FLOOR + _FORK_AFTER_TEAM
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


#: A one-row sweep 20 M pixels wide needs (X + 1) * 16 doubles of scratch
#: per thread, 2.56 GB, past a 2 GiB address-space limit; the sweep's other
#: buffers (about 0.6 GB) fit under it.  Afterwards a small sweep in the same
#: process must still equal the per-row oracle.
_SCRATCH_OOM = """
import json, resource
import numpy as np
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.native import NativeEngine
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import RowSweep

resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
kernel = get_kernel("epanechnikov")
ysorted = YSortedIndex(np.array([[10.0, 0.0], [20.5, 0.25]]))
wide = np.arange(20_000_000, dtype=np.float64)
errors = []
for threads in (1, 2):
    try:
        NativeEngine(threads).sweep_block(
            0, 1, np.zeros(1), wide, ysorted, 0.0, 4.0, kernel)
    except MemoryError as exc:
        errors.append(str(exc))
del wide
args = (0, 1, np.zeros(1), np.linspace(0.0, 31.0, 32), ysorted, 0.0, 4.0,
        kernel)
got = NativeEngine(2).sweep_block(*args)
oracle = RowSweep("slam_bucket_row_numpy", slam_bucket_row_numpy)
print(json.dumps({"errors": errors,
                  "equal": got.tobytes() == oracle.sweep_block(*args).tobytes()}))
"""


@needs_native
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS is enforced on Linux")
def test_scratch_allocation_failure_raises_memory_error():
    """A sweep whose scratch cannot be allocated raises a ``MemoryError``
    that says so and names the size, with one thread and with two, and
    leaves the extension usable."""
    done = subprocess.run(
        [sys.executable, "-c", _SCRATCH_OOM],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    scratch_bytes = 20_000_001 * 16 * 8
    message = (f"the native sweep could not allocate its scratch "
               f"({scratch_bytes} bytes)")
    assert report["errors"] == [message, message]
    assert report["equal"]


def test_native_spec_falls_back_to_batch_when_absent(fallback):
    """A worker without the extension resolves a native spec to the
    bit-identical per-row numpy engine instead of erroring the shard."""
    engine = resolve_engine({"name": "slam_bucket.native", "threads": 2})
    assert engine is ENGINES["slam_bucket.numpy"]
    assert engine.row_fn is slam_bucket_row_numpy


# ---------------------------------------------------------------------------
# Build on demand: the fallback for real, and the content-keyed cache
# ---------------------------------------------------------------------------

#: What a fresh interpreter reports after ``import repro``.
_REPORT = """
import json, sys
import repro
from repro.core import engines, native
print(json.dumps({
    "available": native.NATIVE_AVAILABLE,
    "error": native.NATIVE_ERROR,
    "file": getattr(native._impl, "__file__", None),
    "module": getattr(sys.modules.get("repro.core._native_sweep"),
                      "__file__", None),
    "auto_is_numpy": engines.slam_bucket_grid["auto"]
                     is engines.slam_bucket_grid["numpy"],
    "build_modules": sorted(m for m in ("setuptools", "distutils")
                            if m in sys.modules),
}))
"""


def _fresh_env(cache: Path, src: Path = SRC, **env) -> dict:
    return {
        **os.environ,
        "PYTHONPATH": str(src),
        "XDG_CACHE_HOME": str(cache),
        "REPRO_BUILD_NATIVE": "1",
        **env,
    }


def _report(cache: Path, src: Path = SRC, **env) -> dict:
    """Import repro in a fresh interpreter caching builds under ``cache``."""
    done = subprocess.run(
        [sys.executable, "-c", _REPORT], env=_fresh_env(cache, src, **env),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _cache_files(cache: Path) -> "list[str]":
    root = cache / "repro"
    return sorted(os.listdir(root)) if root.is_dir() else []


def _package_copy(dest: Path) -> Path:
    """A copy of the ``repro`` package whose files a test may change."""
    shutil.copytree(
        SRC / "repro", dest / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    return dest


@needs_native
def test_build_native_0_falls_back_to_the_same_bits(cluster_xy, tmp_path):
    """``REPRO_BUILD_NATIVE=0``: no extension, ``auto`` is the numpy block
    engine, and the default grid equals this process's native grid."""
    kw = dict(size=(48, 36), bandwidth=9.0, kernel="quartic")
    np.save(tmp_path / "xy.npy", cluster_xy)
    script = _REPORT + (
        "import numpy as np\n"
        f"xy = np.load({str(tmp_path / 'xy.npy')!r})\n"
        f"grid = repro.compute_kdv(xy, **{kw!r}).grid\n"
        f"np.save({str(tmp_path / 'grid.npy')!r}, grid)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=_fresh_env(tmp_path / "cache", REPRO_BUILD_NATIVE="0"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["available"] is False
    assert report["error"] == "REPRO_BUILD_NATIVE=0"
    assert report["auto_is_numpy"]
    assert _cache_files(tmp_path / "cache") == []
    native = compute_kdv(cluster_xy, engine="native", **kw).grid
    assert np.array_equal(np.load(tmp_path / "grid.npy"), native)


@pytest.mark.parametrize("user, expected",
                         [(None, "passive"), ("active", "active")])
def test_openmp_wait_policy_defaults_to_passive(user, expected):
    """Importing the engine makes idle OpenMP threads sleep between calls
    (``OMP_WAIT_POLICY=passive``, set before libgomp loads and reads it); a
    value the user set is kept."""
    env = {k: v for k, v in os.environ.items() if k != "OMP_WAIT_POLICY"}
    if user is not None:
        env["OMP_WAIT_POLICY"] = user
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, repro.core.native; print(os.environ['OMP_WAIT_POLICY'])"],
        env={**env, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory) -> Path:
    """A build cache holding one build of this checkout's source."""
    cache = tmp_path_factory.mktemp("cache")
    assert _report(cache)["available"]
    return cache


@needs_native
class TestBuildCache:
    def test_changed_source_gets_a_new_key_and_a_rebuild(
        self, warm_cache, tmp_path
    ):
        cache = tmp_path / "cache"
        shutil.copytree(warm_cache, cache)
        src = _package_copy(tmp_path / "src")
        first = _report(cache, src)
        assert first["available"] and len(_cache_files(cache)) == 1
        with open(src / "repro" / "core" / "_native_sweep.c", "a") as fh:
            fh.write("/* changed */\n")
        second = _report(cache, src)
        assert second["available"]
        assert second["file"] != first["file"]
        assert len(_cache_files(cache)) == 2

    def test_stale_inplace_build_is_never_imported(self, warm_cache, tmp_path):
        """A ``_native_sweep*.so`` beside native.py (an old in-place build)
        loses to the keyed cache entry, even under its own import name."""
        src = _package_copy(tmp_path / "src")
        (built,) = _cache_files(warm_cache)
        stale = src / "repro" / "core" / (
            "_native_sweep" + sysconfig.get_config_var("EXT_SUFFIX")
        )
        shutil.copy(warm_cache / "repro" / built, stale)
        report = _report(warm_cache, src)
        assert report["available"]
        assert report["file"] == str(warm_cache / "repro" / built)
        assert report["module"] == report["file"]

    def test_concurrent_cold_imports_both_load(self, tmp_path):
        cache = tmp_path / "cache"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _REPORT], env=_fresh_env(cache),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))
        assert all(r["available"] for r in reports)
        assert reports[0]["file"] == reports[1]["file"]
        # one build in place, no temporary file left behind
        assert _cache_files(cache) == [Path(reports[0]["file"]).name]

    def test_warm_import_starts_no_compiler_and_no_setuptools(
        self, warm_cache
    ):
        # A compile would fail with either of these, so loading proves the
        # warm path ran no compiler.
        report = _report(warm_cache, CC="false", PATH="")
        assert report["available"], report["error"]
        assert report["build_modules"] == []


@pytest.mark.parametrize("env", ({"CC": "false"}, {"CC": "cc", "PATH": ""}),
                         ids=("failing-compiler", "no-compiler"))
def test_unusable_compiler_falls_back_quietly(env, tmp_path):
    cache = tmp_path / "cache"
    report = _report(cache, **env)
    assert report["available"] is False
    assert report["error"]
    assert report["auto_is_numpy"]
    assert _cache_files(cache) == []  # no partial build


def test_unwritable_cache_falls_back_quietly(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("")  # a file where the cache directory belongs
    report = _report(blocker)
    assert report["available"] is False
    assert "Error" in report["error"]
    assert report["auto_is_numpy"]


#: The comments on the lines before the loops gcc must vectorize.
_VECTORIZED_MARKER = "/* vectorized: the floating-point sub-loop"
_ROUNDING_MARKER = "/* vectorized with AVX-512DQ: the rounding sub-loop"


def _compiler_is_gcc() -> bool:
    compiler = native._compile_argv(output=os.devnull)[0]
    try:
        done = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, timeout=60)
    except OSError:
        return False
    return done.returncode == 0 and "Free Software Foundation" in done.stdout


def _assert_loop_vectorized(marker: str, tmp_path, *flags: str) -> None:
    """gcc reports the loop after ``marker`` vectorized when it compiles
    the source with the build's own flags plus ``flags``."""
    source = native._SOURCE
    lines = source.read_text().splitlines()
    (line,) = [i for i, text in enumerate(lines, 1) if marker in text]
    loop = line + 1
    assert lines[loop - 1].lstrip().startswith("for ("), lines[loop - 1]
    argv = native._compile_argv(*flags, "-fopt-info-vec-optimized",
                                output=str(tmp_path / "vec.so"))
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = re.compile(
        rf"{re.escape(source.name)}:{loop}:\d+: optimized: loop vectorized"
    )
    assert report.search(done.stderr), done.stderr


needs_gcc = pytest.mark.skipif(not _compiler_is_gcc(),
                               reason="the configured C compiler is not gcc")


@needs_gcc
def test_pair_phase_float_loop_is_vectorized(tmp_path):
    """gcc vectorizes the pair phase's floating-point sub-loop under the
    build's own flags.  A ceil/floor call in that loop keeps it scalar, so
    this fails if one comes back."""
    _assert_loop_vectorized(_VECTORIZED_MARKER, tmp_path)


@needs_gcc
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="x86-64-v4 is an x86-64 target")
def test_pair_phase_rounding_loop_is_vectorized(tmp_path):
    """gcc vectorizes the rounding sub-loop (truncating casts, the
    fast-pair flag and the clamp) for x86-64-v4, whatever the host: its
    double <-> int64 conversions need AVX-512DQ, so ``-march=native`` on an
    AVX2 host would keep it scalar and prove nothing.  A ceil/floor call in
    that loop keeps it scalar."""
    _assert_loop_vectorized(_ROUNDING_MARKER, tmp_path, "-march=x86-64-v4")


def _git_tracks_the_source() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(
        ["git", "cat-file", "-e", "HEAD:src/repro/core/_native_sweep.c"],
        cwd=SRC.parent, capture_output=True,
    )
    return done.returncode == 0


@pytest.mark.skipif(not _git_tracks_the_source(),
                    reason="not a git checkout, or no git")
@pytest.mark.skipif(
    shutil.which(native._compile_argv(output=os.devnull)[0]) is None,
    reason="no C compiler",
)
def test_diff_native_runs_a_against_a():
    """``benchmarks/diff_native.py`` builds HEAD's C and the working
    tree's side by side and finds no differing byte in a few cells."""
    done = subprocess.run(
        [sys.executable, str(SRC.parent / "benchmarks" / "diff_native.py"),
         "--base", "HEAD", "--cells", "5"],
        cwd=SRC.parent, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("30 sweeps, 0 differing")


# ---------------------------------------------------------------------------
# Every default path reaches the C loop
# ---------------------------------------------------------------------------


def _default_path_cases():
    """``name -> (setup, action)``: ``action(setup(xy, tmp))`` sweeps through
    the default engine and returns what it rendered; the work of ``setup``
    (seeding a service, building a stream) is not counted."""
    from repro.extensions.multiband import compute_multiband
    from repro.extensions.streaming import StreamingKDV
    from repro.serve.quality import coreset_grid, pyramid_grid
    from repro.serve.service import TileService
    from repro.viz.explore import ExplorationSession
    from repro.viz.tiles import TileScheme, render_tile

    region = Region(0.0, 0.0, 100.0, 80.0)
    size = (32, 24)

    def service(xy, **kw):
        t = np.linspace(0.0, 100.0, len(xy))
        return TileService(PointSet(xy, t=t), tile_size=32, bandwidth=9.0,
                           max_zoom=2, **kw)

    def tile(svc, **kw):
        try:
            return svc.get_tile(1, 0, 0, **kw)
        finally:
            svc.close()

    def insert(args):
        stream, xy = args
        stream.insert(xy)
        return stream.grid

    def cli_args(xy, tmp):
        save_csv(PointSet(xy), tmp / "pts.csv")
        return ["compute", str(tmp / "pts.csv"), "-o", str(tmp / "o.ppm"),
                "--size", "32x24", "--bandwidth", "9"]

    def cli(argv):
        assert cli_main(argv) == 0
        return np.frombuffer(Path(argv[3]).read_bytes(), dtype=np.uint8)

    def data(xy, tmp):
        return xy

    return {
        "compute_kdv": (
            data, lambda xy: compute_kdv(xy, size=size, bandwidth=9.0).grid,
        ),
        "render_tile": (
            data,
            lambda xy: render_tile(xy, TileScheme.for_points(xy), 1, 0, 0,
                                   tile_size=32, bandwidth=9.0),
        ),
        "TileService": (lambda xy, tmp: service(xy), tile),
        "window_tile": (
            lambda xy, tmp: service(xy, window_s=50.0),
            lambda svc: tile(svc, window=50.0),
        ),
        "StreamingKDV.insert": (
            lambda xy, tmp: (StreamingKDV(region, size=size, bandwidth=9.0), xy),
            insert,
        ),
        "pyramid_grid": (
            data,
            lambda xy: pyramid_grid(xy, region, size, level=1, bandwidth=9.0),
        ),
        "coreset_grid": (
            data,
            lambda xy: coreset_grid(xy, region, size, sample_size=500,
                                    bandwidth=9.0),
        ),
        "ExplorationSession.render": (
            lambda xy, tmp: ExplorationSession(PointSet(xy), size=size,
                                               bandwidth=9.0),
            lambda session: session.render().grid,
        ),
        "compute_multiband": (
            data,
            lambda xy: np.stack([
                r.grid for r in compute_multiband(xy, [5.0, 9.0], size=size)
            ]),
        ),
        "repro compute": (cli_args, cli),
    }


@needs_native
@pytest.mark.parametrize("path", list(_default_path_cases()))
def test_default_path_runs_the_c_loop(path, cluster_xy, tmp_path, monkeypatch):
    """Each default path calls the C loop, and renders the same bits as
    where the extension did not load (``auto`` = the per-row numpy
    engine)."""
    setup, action = _default_path_cases()[path]
    calls = []
    real = NativeEngine.sweep_block

    def spy(self, *args, **kwargs):
        calls.append(self.threads)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NativeEngine, "sweep_block", spy)
    (tmp_path / "numpy").mkdir()
    (tmp_path / "auto").mkdir()
    with pytest.MonkeyPatch.context() as mp:
        _fall_back(mp)
        ref = action(setup(cluster_xy, tmp_path / "numpy"))
    assert not calls
    state = setup(cluster_xy, tmp_path / "auto")
    calls.clear()
    got = action(state)
    assert calls, f"{path} never called NativeEngine.sweep_block"
    assert np.array_equal(got, ref)


@needs_native
def test_default_dist_render_ships_the_native_spec(cluster_xy, monkeypatch):
    specs = []
    real = Coordinator.render_sweep

    def spy(self, **kwargs):
        specs.append(kwargs["engine"])
        return real(self, **kwargs)

    monkeypatch.setattr(Coordinator, "render_sweep", spy)
    kw = dict(size=(32, 24), bandwidth=9.0)
    with Coordinator([]) as coord:
        dist = compute_kdv(cluster_xy, backend="dist", coordinator=coord, **kw)
    assert specs == [{"name": "slam_bucket.native", "threads": 1}]
    assert np.array_equal(dist.grid, compute_kdv(cluster_xy, **kw).grid)


@needs_native
def test_dist_shards_run_one_thread(cluster_xy, monkeypatch):
    """``workers`` counts dist shards, and each shard's engine runs one
    OpenMP thread, so a pool's shards never oversubscribe its CPUs."""
    import repro.dist.worker as worker_mod

    specs = []
    real = worker_mod.resolve_engine

    def spy(spec):
        specs.append(dict(spec))
        return real(spec)

    monkeypatch.setattr(worker_mod, "resolve_engine", spy)
    kw = dict(size=(32, 24), bandwidth=9.0)
    server = WorkerServer(port=0, heartbeat_s=0.2)
    thread = server.start_in_thread()
    try:
        with Coordinator([("127.0.0.1", server.port)]) as coord:
            assert coord.connect() == 1
            dist = compute_kdv(cluster_xy, backend="dist", coordinator=coord,
                               workers=4, **kw)
    finally:
        server.stop()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert specs == [{"name": "slam_bucket.native", "threads": 1}] * 4
    assert np.array_equal(dist.grid, compute_kdv(cluster_xy, **kw).grid)


def test_concurrent_service_renders_equal_serial_numpy(cluster_xy):
    """``repro serve`` runs the C loop on several render threads at once
    (the loop releases the GIL): every tile still equals a serial numpy
    render."""
    from repro.serve.service import TileService
    from repro.viz.tiles import TileScheme

    scheme = TileScheme.for_points(cluster_xy)
    tiles = [(2, tx, ty) for tx in range(4) for ty in range(4)]
    with TileService(cluster_xy, scheme, tile_size=64, bandwidth=9.0,
                     max_zoom=2, workers=4,
                     queue_limit=len(tiles)) as service:
        with ThreadPoolExecutor(max_workers=len(tiles)) as clients:
            got = list(clients.map(lambda t: service.get_tile(*t), tiles))
    for (zoom, tx, ty), grid in zip(tiles, got):
        ref = compute_kdv(
            cluster_xy, region=scheme.tile_region(zoom, tx, ty),
            size=(64, 64), bandwidth=9.0, normalization="none",
            engine="numpy",
        ).grid
        assert np.array_equal(grid, ref), (zoom, tx, ty)


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
        engine=engine_spec(ENGINES["slam_bucket.numpy"]),
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
                "engine": engine_spec(ENGINES["slam_bucket.numpy"]),
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
