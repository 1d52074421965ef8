"""Shared helpers: the seeded dataset, statistics, process memory, PNG
decoding and the provenance stamp every result carries."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: the city preset every workload samples; its layout is fixed across seeds,
#: so a seed changes which events are drawn, not the shape of the city
CITY = "seattle"
#: size of the event pool the seeded sample is drawn from, as a multiple of
#: the sample size
POOL_FACTOR = 2


def require_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit with code 2
    when the program under test is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def import_seconds(*modules: str) -> float:
    """Seconds a fresh interpreter takes to import ``modules`` from the
    checkout: the import cost a user's process pays, which the benchmark
    process, having imported them already, cannot time again itself."""
    code = ("import sys, time\n"
            "start = time.perf_counter()\n"
            f"for name in {list(modules)!r}:\n"
            "    __import__(name)\n"
            "print(time.perf_counter() - start)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def rngs(seed: int, count: int) -> list:
    """``count`` independent generators derived from ``seed``, one per
    concern, so drawing more of one stream never shifts another."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(count)]


def city_points(n: int, seed: int):
    """``n`` events drawn by ``seed`` from a fixed synthetic-city pool.

    The pool is the ``CITY`` preset generated with its own default seed, so
    every benchmark seed sees the same hotspots and street grid (costs stay
    comparable across seeds) while the events themselves differ.
    """
    from repro.data.datasets import DATASETS
    from repro.data.generators import generate_city
    from repro.data.points import PointSet

    model, _n_full, city_seed = DATASETS[CITY]
    pool = generate_city(model, POOL_FACTOR * n, seed=city_seed)
    pick = np.sort(np.random.default_rng(seed).choice(len(pool), n, replace=False))
    return PointSet(pool.xy[pick], t=pool.t[pick], category=pool.category[pick],
                    name=CITY)


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); ``nan`` when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- process memory --------------------------------------------------------


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    try:
        for line in path.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


# -- child processes -------------------------------------------------------

#: ``prctl`` option that makes orphaned descendants children of this process
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    The program's processes start helpers the benchmark never sees: every
    worker that maps a shared-memory segment starts a ``multiprocessing``
    resource tracker, which outlives the worker for a moment.  Adopted, such
    helpers become children here, and :func:`reap_children` waits for them.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list:
    me = str(os.getpid())
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the fields after the parenthesised command name: state, ppid, ...
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(int(entry.name))
    return pids


def reap_children(grace_s: float = 10.0) -> None:
    """Stop this process's resource tracker, if it started one, and wait
    until every child has ended; kill those still running after
    ``grace_s`` seconds."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except (AttributeError, OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


# -- PNG -------------------------------------------------------------------


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit truecolor, non-interlaced PNG whose scanlines all use
    filter 0 (what ``repro.viz.image.encode_png`` writes) to ``(H, W, 3)``.

    Raises ``ValueError`` for anything else, so a malformed body counts as a
    wrong output instead of crashing the run.
    """
    try:
        return _decode_png(data)
    except (struct.error, zlib.error) as exc:
        raise ValueError(f"corrupt PNG: {exc}") from None


def _decode_png(data: bytes) -> np.ndarray:
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG signature")
    pos, idat, header = 8, [], None
    while pos + 12 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != crc:
            raise ValueError(f"bad CRC in {tag!r} chunk")
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if header is None:
        raise ValueError("missing IHDR chunk")
    width, height, depth, color, _compression, _filter, interlace = header
    if (depth, color, interlace) != (8, 2, 0):
        raise ValueError(f"unsupported PNG format {header}")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if raw.size != height * (1 + 3 * width):
        raise ValueError("IDAT size does not match the header")
    rows = raw.reshape(height, 1 + 3 * width)
    if np.any(rows[:, 0] != 0):
        raise ValueError("unsupported scanline filter")
    return rows[:, 1:].reshape(height, width, 3)


# -- provenance ------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp() -> dict:
    """Provenance of a run: code version, host, interpreter, native engine."""
    from repro.bench.report import git_revision, host_info
    from repro.core.native import NATIVE_AVAILABLE

    revision = git_revision(ROOT)
    return {
        "git_sha": revision["sha"],
        "git_dirty": revision["dirty"],
        **host_info(),
        "cpu_model": cpu_model(),
        "numpy": np.__version__,
        "native_available": bool(NATIVE_AVAILABLE),
    }


def write_result(name: str, payload: dict) -> Path:
    """Write the full result document to ``perfbench/out/<name>.json``."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
