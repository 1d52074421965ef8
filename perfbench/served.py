"""The HTTP workloads: ``tile_serve`` and ``live_window``.

Each drives a ``repro serve`` subprocess, launched from the CLI with its
defaults over a CSV of seeded synthetic-city events, through
:mod:`loadgen`: one process, at most two keep-alive connections, an
open-loop schedule of Poisson arrivals and Zipf pan/zoom sessions from
:mod:`repro.simload`.

Outputs are checked against tiles computed here from the points the server
holds.  In ``tile_serve`` every response for one path must carry the same
bytes, and a seeded sample of paths is compared with ``render_tile``
(``.npy``) and ``colorize_tile`` of that grid (``.png``).  In
``live_window`` the data change under the reads, so every read is checked
for form while the load runs, every ingest reply for the exact number of
events held, and a seeded sample of tiles exactly once the load has
stopped and a final tick has run.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from pathlib import Path

import numpy as np

import common
import loadgen
import tracing
from repro.core.envelope import YSortedIndex
from repro.data.io import save_csv
from repro.serve import TileService
from repro.simload.arrivals import ArrivalSpec, arrival_times
from repro.simload.sessions import SessionSpec, SessionWalk
from repro.viz.bandwidth import resolve_bandwidth
from repro.viz.tiles import TileScheme, render_tile

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tile_serve", "live_window")
#: ``repro serve``'s default tile edge, in pixels
TILE = 256
SETUP_REPS = 3
#: share of ``.png`` among ``tile_serve`` requests; the rest are ``.npy``
PNG_SHARE = 0.8
#: at most this many sampled ``tile_serve`` paths are re-rendered here
MAX_VERIFIED = 24
#: ``live_window`` tiles fetched and checked exactly after the final tick
FINAL_CHECKS = 8
#: spread of one ingest batch around its centre event, in metres: a local
#: incident cluster that almost always falls inside one tile per zoom level
#: (the city spans about 20 x 30 km), so an ingest invalidates few tiles
BATCH_SPREAD_M = 150.0
#: event-time steps per window length: each batch advances the watermark
#: by ``window_s / EVENT_STEPS_PER_WINDOW``, so a 30-second run at 4
#: batches/s moves the window by 30% of its length, and every tick expires
#: some seed events
EVENT_STEPS_PER_WINDOW = 400
REJECTED = ("ServiceOverloaded", "ServiceTimeout")
_READY = re.compile(r"serving .* at http://([^\s:/]+):(\d+)")


@dataclass(frozen=True)
class Config:
    """Sizes and offered rates of the served workloads.

    The rates sit at most at two-thirds of the knee that ``knee.py`` finds
    (the highest offered rate at which goodput keeps within 5% of it and
    the lag p99 under 0.5 s), measured on two seeds: ``tile_serve`` at
    half of its lower knee of 4 requests/s, ``live_window`` at two-thirds
    of its lower knee of 1.5 times the rates below.
    """

    points: int
    #: ``tile_serve``: tile requests per second, the deepest zoom its
    #: sessions visit (21 tiles at 2) and ``--cache-tiles``, far below that
    #: working set, so warm hits and cold renders both occur
    tile_rate: float
    max_zoom: int
    cache_tiles: int
    #: ``live_window``: tile reads per second and the deepest zoom they
    #: visit (5 tiles at 1, whose window renders cost about the same)
    live_rate: float
    live_max_zoom: int
    #: ``/ingest`` batches per second and events per batch: 50 events, one
    #: burst of incident reports, keep an ingest (about 15 ms at the median)
    #: well below a window render (about 80 ms)
    ingest_rate: float
    batch_size: int
    #: ``--window`` (event seconds: 25,000,000 s, about 290 days, holds a
    #: fifth of the seed events, which span four years) and ``--tick-s``
    #: (wall seconds)
    window_s: int
    tick_s: float


FULL = Config(points=100_000, tile_rate=2.0, max_zoom=2, cache_tiles=2,
              live_rate=3.0, live_max_zoom=1, ingest_rate=4.0, batch_size=50,
              window_s=25_000_000, tick_s=0.5)
TINY = Config(points=4_000, tile_rate=10.0, max_zoom=2, cache_tiles=2,
              live_rate=5.0, live_max_zoom=1, ingest_rate=4.0, batch_size=20,
              window_s=25_000_000, tick_s=0.5)


# -- the server process ------------------------------------------------------


class Server:
    """One ``repro serve`` process; with ``spans`` it runs under the traced
    launcher, which writes its spans there when it exits."""

    def __init__(self, cli_args: list, log_path: Path, spans=None):
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", *cli_args]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(spans),
                   "serve", *cli_args]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
            text=True, encoding="utf-8", errors="replace",
        )
        self.address = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._ready.wait(120) or self.address is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start; see {log_path}")

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            match = _READY.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    def fetch(self, method: str, path: str, body: bytes = b""):
        """One request on a fresh connection: ``(status, body)``."""
        conn = HTTPConnection(*self.address, timeout=loadgen.REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=body or None,
                         headers=loadgen.JSON_HEADERS if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if self.fetch("GET", "/healthz")[0] == 200:
                    return
            except (OSError, HTTPException):
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's graceful shutdown), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


def set_up(cfg: Config, seed: int, cli_args: list, work: Path, spans=None):
    """One set-up: generate the events, write them as CSV, launch the server,
    wait for its first healthy reply and make one warm-up request."""
    start = time.monotonic()
    points = common.city_points(cfg.points, seed)
    csv = work / "events.csv"
    save_csv(points, csv)
    server = Server([str(csv), "--port", "0", *cli_args],
                    work / "server.log", spans)
    try:
        server.wait_healthy()
        status, _ = server.fetch("GET", "/tiles/0/0/0.png")
        if status != 200:
            raise RuntimeError(f"warm-up tile answered HTTP {status}")
    except BaseException:
        server.stop()
        raise
    return points, server, time.monotonic() - start


# -- schedules ---------------------------------------------------------------


def tile_path(key, kind: str, window=None) -> str:
    zoom, tx, ty = key
    path = f"/tiles/{zoom}/{tx}/{ty}.{kind}"
    return path if window is None else f"{path}?window={window}"


def poisson_arrivals(rate: float, seconds: float, rng) -> np.ndarray:
    """``round(rate * seconds)`` arrivals of simload's Poisson process,
    rescaled to fall in ``[0, seconds)``: the process conditioned on its
    count, so every seed offers the same load."""
    count = max(1, round(rate * seconds))
    times = arrival_times(ArrivalSpec("steady", rate=rate), 3 * seconds, rng)
    if len(times) <= count:
        raise RuntimeError("too few arrivals drawn; raise the horizon")
    return times[:count] * (seconds / times[count])


def tile_schedule(seed: int, seconds: float, points, scheme, cfg: Config):
    """``tile_serve``: one queue for both connections, Zipf pan/zoom
    sessions over the pyramid down to ``cfg.max_zoom``, four in five
    requests as ``.png``."""
    arrivals, sessions, formats = common.rngs(seed, 3)
    walk = SessionWalk(SessionSpec(max_zoom=cfg.max_zoom), scheme, sessions)
    schedule = []
    for due in poisson_arrivals(cfg.tile_rate, seconds, arrivals):
        key = walk.next_tile()
        kind = "png" if formats.random() < PNG_SHARE else "npy"
        schedule.append(loadgen.Request(float(due), 0, "GET",
                                        tile_path(key, kind), kind=kind, key=key))
    return schedule


def live_schedule(seed: int, seconds: float, points, scheme, cfg: Config):
    """``live_window``: queue 0 POSTs one batch every ``1/ingest_rate`` s,
    each a tight cluster around a seeded event, timestamped past the newest
    seed event; queue 1 reads ``window=`` tiles as ``.png``.

    Every tick expires events all over the map and so invalidates every
    window tile: the reads are renders of the current window, one latency
    mode.  All-time tiles are read by the exact check after the run.
    """
    ingest, arrivals, sessions = common.rngs(seed, 3)
    newest = float(points.t.max())
    step = cfg.window_s / EVENT_STEPS_PER_WINDOW
    schedule = []
    period = 1.0 / cfg.ingest_rate
    i = 0
    while (due := (i + 0.5) * period) < seconds:
        center = points.xy[ingest.integers(len(points))]
        xy = center + ingest.normal(0.0, BATCH_SPREAD_M, (cfg.batch_size, 2))
        t = newest + (i + np.sort(ingest.random(cfg.batch_size))) * step
        body = json.dumps({"points": xy.tolist(), "t": t.tolist()}).encode()
        schedule.append(loadgen.Request(due, 0, "POST", "/ingest", body,
                                        kind="ingest"))
        i += 1
    walk = SessionWalk(SessionSpec(max_zoom=cfg.live_max_zoom), scheme, sessions)
    for due in poisson_arrivals(cfg.live_rate, seconds, arrivals):
        key = walk.next_tile()
        schedule.append(loadgen.Request(
            float(due), 1, "GET", tile_path(key, "png", cfg.window_s),
            kind="png", key=key, window=cfg.window_s))
    return sorted(schedule, key=lambda r: (r.due_s, r.queue))


# -- checks ------------------------------------------------------------------


class Reference:
    """Expected tiles computed here from the points the server holds; a
    replica service supplies the ``.png`` colour scale."""

    def __init__(self, points, bandwidth: float):
        self.bandwidth = bandwidth
        self.replica = TileService(points, bandwidth=bandwidth, workers=1)
        self.scheme = self.replica.scheme

    def grid(self, xy, key, ysorted=None):
        return render_tile(xy, self.scheme, *key, tile_size=TILE,
                           bandwidth=self.bandwidth, ysorted=ysorted)

    def matches(self, kind: str, grid, body: bytes) -> bool:
        try:
            if kind == "npy":
                got = np.load(io.BytesIO(body), allow_pickle=False)
                return got.dtype == grid.dtype and np.array_equal(got, grid)
            return np.array_equal(common.decode_png(body),
                                  self.replica.colorize_tile(grid))
        except (ValueError, EOFError):
            return False

    def close(self) -> None:
        self.replica.close()


def well_formed(kind: str, body: bytes) -> bool:
    try:
        if kind == "npy":
            grid = np.load(io.BytesIO(body), allow_pickle=False)
            # no sign check: the sweep's recombined aggregates may leave
            # round-off just below zero where the density is zero
            return (grid.shape == (TILE, TILE) and grid.dtype == np.float64
                    and bool(np.all(np.isfinite(grid))))
        return common.decode_png(body).shape == (TILE, TILE, 3)
    except (ValueError, EOFError):
        return False


class TileCheck:
    """``tile_serve``: one body per path, and a seeded third of the paths
    (at most ``MAX_VERIFIED``) equal to tiles computed here."""

    def __init__(self, seed, points, reference, schedule, cfg):
        self.seed = seed
        self.points = points
        self.reference = reference
        self.kept: dict = {}
        self.bodies: dict = defaultdict(Counter)
        self.verified = 0
        self._lock = threading.Lock()

    def _sampled(self, path: str) -> bool:
        return int(common.digest(f"{self.seed}:{path}".encode())[:8], 16) % 3 == 0

    def inspect(self, out, body: bytes) -> None:
        out.ok = out.status == 200 and out.quality == "exact"
        if not out.ok:
            return
        out.digest = common.digest(body)
        path = out.request.path
        with self._lock:
            self.bodies[path][out.digest] += 1
            if path not in self.kept and self._sampled(path):
                self.kept[path] = body

    def finish(self, server, outcomes) -> tuple:
        """Settle every outcome's ``ok``; returns ``(extra attempted,
        extra failed)`` for checks beyond the timed requests (none here)."""
        requests = {o.request.path: o.request for o in outcomes}
        index = YSortedIndex(self.points.xy)
        good = {}
        for path in sorted(self.kept)[:MAX_VERIFIED]:
            req, body = requests[path], self.kept[path]
            grid = self.reference.grid(self.points.xy, req.key, index)
            good[path] = (common.digest(body)
                          if self.reference.matches(req.kind, grid, body) else None)
        self.verified = len(good)
        for path, counts in self.bodies.items():
            good.setdefault(path, counts.most_common(1)[0][0])
        for out in outcomes:
            if out.ok and out.digest != good.get(out.request.path):
                out.ok = False
        return 0, 0


class LiveCheck:
    """``live_window``: ingest replies count the events held, reads are
    well-formed, and after the final tick a seeded sample of tiles equals
    tiles computed from the mirrored feed."""

    def __init__(self, seed, points, reference, schedule, cfg):
        self.seed = seed
        self.points = points
        self.reference = reference
        self.cfg = cfg
        self.batches = []
        self.expected = {}
        held = len(points)
        for req in schedule:
            if req.kind == "ingest":
                payload = json.loads(req.body)
                xy = np.asarray(payload["points"], dtype=np.float64)
                t = np.asarray(payload["t"], dtype=np.float64)
                self.batches.append((xy, t))
                held += len(xy)
                self.expected[req.due_s] = (len(xy), held)
        self.reads = sorted({r.path: r for r in schedule
                             if r.kind != "ingest"}.values(),
                            key=lambda r: r.path)
        self.verified = 0

    def inspect(self, out, body: bytes) -> None:
        req = out.request
        if out.status != 200:
            out.ok = False
        elif req.kind == "ingest":
            try:
                reply = json.loads(body)
            except ValueError:
                reply = None
            out.ok = isinstance(reply, dict) and (
                (reply.get("inserted"), reply.get("points"))
                == self.expected[req.due_s])
        else:
            out.ok = out.quality == "exact" and well_formed(req.kind, body)

    def finish(self, server, outcomes) -> tuple:
        status, _ = server.fetch("POST", "/tick", b"{}")
        failed = int(status != 200)
        feed = [(self.points.xy, self.points.t), *self.batches]
        everything = np.concatenate([xy for xy, _ in feed])
        cutoff = max(float(t.max()) for _, t in feed) - self.cfg.window_s
        windowed = np.concatenate([xy[t >= cutoff] for xy, t in feed])
        for xy, t in self.batches:
            self.reference.replica.ingest(xy, t)
        # window tiles as .npy (their colour scale is the drifting window
        # overview), all-time tiles in both forms
        forms = [("npy", self.cfg.window_s, windowed), ("npy", None, everything),
                 ("png", None, everything)]
        keys = sorted({r.key for r in self.reads})
        rng = np.random.default_rng(self.seed)
        picks = sorted(rng.choice(len(keys), min(FINAL_CHECKS, len(keys)),
                                  replace=False))
        for n, i in enumerate(picks):
            kind, window, xy = forms[n % len(forms)]
            status, body = server.fetch("GET", tile_path(keys[i], kind, window))
            grid = self.reference.grid(xy, keys[i])
            if status != 200 or not self.reference.matches(kind, grid, body):
                failed += 1
        self.verified = len(picks)
        return 1 + len(picks), failed


class TileServe:
    lanes = {0: 2}
    schedule = staticmethod(tile_schedule)
    check = TileCheck

    @staticmethod
    def cli_args(cfg: Config) -> list:
        return ["--cache-tiles", str(cfg.cache_tiles)]

    @staticmethod
    def window_of(n_points: int, cfg: Config):
        return lambda span: None


class LiveWindow:
    lanes = {0: 1, 1: 1}
    schedule = staticmethod(live_schedule)
    check = LiveCheck

    @staticmethod
    def cli_args(cfg: Config) -> list:
        return ["--window", str(cfg.window_s), "--tick-s", str(cfg.tick_s)]

    @staticmethod
    def window_of(n_points: int, cfg: Config):
        # the all-time view holds every seed event; a window view far fewer
        return lambda span: None if span["points"] >= n_points else cfg.window_s


SPECS = {"tile_serve": TileServe, "live_window": LiveWindow}


def schedule_bytes(workload: str, seed: int, seconds: float,
                   tiny: bool = False) -> bytes:
    """The canonical request schedule one seed gives."""
    cfg = TINY if tiny else FULL
    points = common.city_points(cfg.points, seed)
    scheme = TileScheme.for_points(points.xy)
    return loadgen.encode(SPECS[workload].schedule(seed, seconds, points,
                                                   scheme, cfg))


# -- one pass ----------------------------------------------------------------


@dataclass
class Pass:
    outcomes: list
    attempted: int
    failed: int
    start: float
    end: float
    setups: list
    rss: float
    n_points: int
    schedule_digest: str
    verified: int
    spans: list


def one_pass(spec, cfg: Config, seed: int, seconds: float, work: Path,
             reps: int, traced: bool = False) -> Pass:
    """Set up ``reps`` times (keeping the last server), replay the seed's
    schedule, check every output and stop the server."""
    spans_path = work / "spans.json" if traced else None
    server = reference = None
    setups = []
    try:
        for _ in range(reps):
            if server is not None:
                server.stop()
            points, server, took = set_up(cfg, seed, spec.cli_args(cfg), work,
                                          spans_path)
            setups.append(took)
        reference = Reference(points, resolve_bandwidth("scott", points.xy))
        schedule = spec.schedule(seed, seconds, points, reference.scheme, cfg)
        check = spec.check(seed, points, reference, schedule, cfg)
        start = time.monotonic() + 0.05
        outcomes = loadgen.run(*server.address, schedule, spec.lanes, start,
                               check.inspect)
        end = time.monotonic()
        rss = server.peak_rss_mb()
        extra_attempted, extra_failed = check.finish(server, outcomes)
    finally:
        if server is not None:
            server.stop()
        if reference is not None:
            reference.close()
    spans = json.loads(spans_path.read_text()) if traced else []
    good = sum(o.ok for o in outcomes)
    return Pass(
        outcomes=outcomes,
        attempted=len(schedule) + extra_attempted,
        failed=len(schedule) - good + extra_failed,
        start=start, end=end, setups=setups, rss=rss, n_points=len(points),
        schedule_digest=common.digest(loadgen.encode(schedule)),
        verified=check.verified,
        spans=[s for s in spans if s["start"] >= start and s["end"] <= end],
    )


def _tiles(p: Pass) -> list:
    return [o for o in p.outcomes if o.request.kind != "ingest"]


def _tile_p50(p: Pass) -> float:
    return common.percentile([o.latency for o in _tiles(p) if o.ok], 50)


def mix_percentile(outcomes, q: float) -> float:
    """The ``q``-th percentile latency of each kind of operation (tile
    reads; ``/ingest`` posts on ``live_window``), as the geometric mean
    over the kinds.  An ingest takes milliseconds and a window render tens
    of them, so a percentile of the pooled latencies would sit between the
    two modes and jump from one to the other across seeds; per kind each
    has one mode, and either kind slowing by a factor ``f`` moves the mean
    by ``sqrt(f)``."""
    kinds = defaultdict(list)
    for o in outcomes:
        kinds[o.request.kind == "ingest"].append(o.latency)
    return float(np.exp(common.mean(
        [np.log(common.percentile(v, q)) for v in kinds.values()])))


def end_to_end(p: Pass) -> dict:
    good = [o for o in p.outcomes if o.ok]
    last = max((o.done for o in p.outcomes), default=p.end)
    return {
        "p50_ms": 1e3 * mix_percentile(good, 50),
        "p90_ms": 1e3 * mix_percentile(good, 90),
        "goodput_per_s": len(good) / (last - p.start),
        "peak_rss_mb": p.rss,
        "setup_s": statistics.median(p.setups),
    }


def _ms(values) -> float:
    return 1e3 * common.mean(values)


def _latency_ms(outcomes, q: float) -> float:
    values = [o.latency for o in outcomes if o.ok]
    return 1e3 * common.percentile(values, q) if values else 0.0


def _table(rows: list) -> dict:
    names = sorted({name for row in rows for name in row["layers"]})
    return {
        "requests": len(rows),
        "client_ms": _ms([row["client"] for row in rows]),
        "layers_ms": {n: _ms([row["layers"].get(n, 0.0) for row in rows])
                      for n in names},
    }


def layer_metrics(traced: Pass, untraced: Pass, window_of) -> tuple:
    """The per-layer metrics of a traced pass, and the per-request
    breakdown behind them."""
    spans = traced.spans
    rows = tracing.attribute(traced.outcomes, spans, window_of)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def durations(name):
        return [s["end"] - s["start"] for s in named(name)]

    tiles = [r for r in rows if r["kind"] != "ingest"]
    ingests = [r for r in rows if r["kind"] == "ingest"]
    roles = Counter(r["role"] for r in tiles)
    matched = roles["hit"] + roles["leader"] + roles["joined"]
    rendered = roles["leader"] + roles["joined"]
    warm_png = [r for r in tiles if r["role"] == "hit" and r["kind"] == "png"]
    untraced_ingests = [o for o in untraced.outcomes if o.request.kind == "ingest"]
    layers = {
        "viz.render_tile_ms": _ms(durations("viz.render_tile")),
        "viz.colorize_ms": _ms(durations("viz.colorize")),
        "viz.encode_png_ms": _ms(durations("viz.encode_png")),
        "viz.png_bytes": common.mean([o.body_len for o in traced.outcomes
                                      if o.request.kind == "png" and o.ok]),
        "serve.request_tile_ms": _ms([r["layers"].get("serve.request_tile", 0.0)
                                      for r in tiles]),
        "serve.queue_wait_ms": _ms([r["queue_wait"] for r in tiles
                                    if r["role"] == "leader"]),
        "serve.cache_hit_ratio": roles["hit"] / matched if matched else 0.0,
        "serve.coalesce_ratio": roles["joined"] / rendered if rendered else 0.0,
        "serve.renders": len(named("viz.render_tile")),
        "serve.rejected": sum(s["status"] in REJECTED
                              for s in named("serve.request_tile")),
        "serve.ingest_ms": _ms([s["self"] for s in named("serve.ingest")]),
        "serve.tick_ms": _ms([s["self"] for s in named("serve.tick")]),
        "serve.invalidated_per_ingest": common.mean(
            [s["invalidated"] for s in named("serve.ingest") if "invalidated" in s]),
        "serve.ysorted_builds": len(named("serve.ysorted_build")),
        "serve.ysorted_build_ms": _ms(durations("serve.ysorted_build")),
        "streaming.insert_ms": _ms(durations("streaming.insert")),
        "streaming.expire_ms": _ms(durations("streaming.expire")),
        "streaming.rebuilds": len(named("streaming.rebuild")),
        "http.unattributed_ms": _ms([r["layers"]["http.unattributed"]
                                     for r in tiles]),
        "http.ingest_unattributed_ms": _ms([r["layers"]["http.unattributed"]
                                            for r in ingests]),
        "http.bytes_out": sum(o.body_len for o in traced.outcomes),
        "warm_png.client_ms": _ms([r["client"] for r in warm_png]),
        "warm_png.http_ms": _ms([r["layers"]["http.unattributed"]
                                 for r in warm_png]),
        "loadgen.lag_p99_ms": 1e3 * common.percentile(
            [o.lag for o in traced.outcomes], 99),
        "loadgen.sent": len(traced.outcomes),
        "loadgen.ingest_p50_ms": _latency_ms(untraced_ingests, 50),
        "loadgen.ingest_p99_ms": _latency_ms(untraced_ingests, 99),
        "trace.overhead_ratio": _tile_p50(traced) / _tile_p50(untraced),
    }
    breakdown = {"all_tiles": _table(tiles), "warm_png": _table(warm_png),
                 "ingest": _table(ingests), "roles": dict(roles)}
    return layers, breakdown


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool) -> dict:
    cfg = TINY if tiny else FULL
    spec = SPECS[workload]
    # a traced run splits its time between the untraced and the traced pass
    span = seconds / 2 if trace else seconds
    work = common.OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        main = one_pass(spec, cfg, seed, span, work, 1 if trace else SETUP_REPS)
        passes = [main]
        layers, breakdown = {}, None
        if trace:
            traced = one_pass(spec, cfg, seed, span, work, 1, traced=True)
            passes.append(traced)
            layers, breakdown = layer_metrics(
                traced, main, spec.window_of(traced.n_points, cfg))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ingests = [o for o in main.outcomes if o.request.kind == "ingest"]
    tiles = _tiles(main)
    info = {
        "points": cfg.points,
        "server": ["repro", "serve", "<events.csv>", "--port", "0",
                   *spec.cli_args(cfg)],
        "offered_tile_rps": cfg.tile_rate if workload == "tile_serve" else cfg.live_rate,
        "offered_ingest_rps": cfg.ingest_rate if workload == "live_window" else 0.0,
        "schedule_sha256": main.schedule_digest,
        "requests": len(main.outcomes),
        "verified_exactly": main.verified,
        "tile_p50_ms": _latency_ms(tiles, 50),
        "tile_p90_ms": _latency_ms(tiles, 90),
        "ingest_p50_ms": _latency_ms(ingests, 50),
        "ingest_p90_ms": _latency_ms(ingests, 90),
        "ingest_p99_ms": _latency_ms(ingests, 99),
        "lag_p99_ms": 1e3 * common.percentile([o.lag for o in main.outcomes], 99),
        "setup_runs_s": main.setups,
        "latencies_ms": {
            kind: [round(1e3 * o.latency, 3) for o in main.outcomes
                   if o.ok and o.request.kind == kind]
            for kind in sorted({o.request.kind for o in main.outcomes})
        },
        "breakdown": breakdown,
    }
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "e2e": end_to_end(main),
        "layers": layers,
        "info": info,
    }
