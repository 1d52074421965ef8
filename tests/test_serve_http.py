"""HTTP contract tests for ``repro.serve.http`` against a live server.

Every test talks to a real :class:`~repro.serve.TileHTTPServer` bound to an
ephemeral port, so the status mapping (400/404/503/504), the payload
formats, and the graceful-shutdown behavior are exercised end to end —
including that ``/metricz`` counters reconcile with what the client
actually observed.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Region
from repro.obs import Recorder
from repro.serve import TileService, start_server
from repro.viz.tiles import TileScheme, render_tile

TILE = 8
BANDWIDTH = 60.0


def fetch(url, data=None, method=None, timeout=30.0):
    """(status, headers, body) without raising on HTTP error statuses."""
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def make_points():
    rng = np.random.default_rng(31)
    return rng.uniform((0.0, 0.0), (1000.0, 1000.0), (200, 2))


class SlowPool(ThreadPoolExecutor):
    """A one-worker render pool whose jobs wait for ``release``."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.started = threading.Event()
        self.release = threading.Event()

    def submit(self, fn, /, *args):
        def slow():
            self.started.set()
            self.release.wait(timeout=30.0)
            return fn(*args)

        return super().submit(slow)


def make_server(**service_kwargs):
    allow_shutdown = service_kwargs.pop("allow_shutdown", False)
    points = service_kwargs.pop("points", None)
    service_kwargs.setdefault("tile_size", TILE)
    service_kwargs.setdefault("bandwidth", BANDWIDTH)
    service_kwargs.setdefault("max_zoom", 2)
    service_kwargs.setdefault("recorder", Recorder())
    service = TileService(
        make_points() if points is None else points,
        TileScheme(Region(0.0, 0.0, 1000.0, 1000.0)),
        **service_kwargs,
    )
    return start_server(service, port=0, allow_shutdown=allow_shutdown)


@pytest.fixture()
def server():
    srv = make_server()
    yield srv
    srv.shutdown_gracefully()


class TestTileEndpoint:
    def test_npy_round_trip_matches_direct_render(self, server):
        status, headers, body = fetch(server.url + "/tiles/1/0/0")
        assert status == 200
        assert headers["Content-Type"] == "application/x-npy"
        grid = np.load(io.BytesIO(body))
        service = server.service
        direct = render_tile(
            service._points, service.scheme, 1, 0, 0,
            tile_size=TILE, bandwidth=BANDWIDTH,
        )
        np.testing.assert_array_equal(grid, direct)
        # explicit .npy suffix is the same resource
        status2, _, body2 = fetch(server.url + "/tiles/1/0/0.npy")
        assert status2 == 200 and body2 == body

    def test_png_magic_and_colormap_param(self, server):
        status, headers, body = fetch(server.url + "/tiles/1/0/0.png")
        assert status == 200
        assert headers["Content-Type"] == "image/png"
        assert body[:8] == b"\x89PNG\r\n\x1a\n"
        status2, _, body2 = fetch(
            server.url + "/tiles/1/0/0.png?colormap=viridis"
        )
        assert status2 == 200 and body2 != body

    def test_unknown_colormap_is_404(self, server):
        status, _, _ = fetch(server.url + "/tiles/1/0/0.png?colormap=jet")
        assert status == 404

    def test_malformed_coordinates_are_400(self, server):
        for path in ["/tiles/a/0/0", "/tiles/1/0.5/0", "/tiles/1/0", "/tiles"]:
            status, _, body = fetch(server.url + path)
            assert status == 400, path
            assert "error" in json.loads(body)

    def test_out_of_pyramid_is_404(self, server):
        for path in ["/tiles/9/0/0", "/tiles/1/2/0", "/tiles/1/0/-1"]:
            status, _, _ = fetch(server.url + path)
            assert status == 404, path

    def test_unknown_path_is_404(self, server):
        assert fetch(server.url + "/nope")[0] == 404
        assert fetch(server.url + "/ingest")[0] == 404  # GET on a POST route


class TestOpsEndpoints:
    def test_healthz(self, server):
        status, _, body = fetch(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["points"] == 200

    def test_metricz_shows_cache_hit_and_reconciles(self, server):
        fetch(server.url + "/tiles/1/1/1")
        fetch(server.url + "/tiles/1/1/1")
        status, _, body = fetch(server.url + "/metricz")
        assert status == 200
        payload = json.loads(body)
        counters = payload["recorder"]["counters"]
        # the client made exactly these requests: 2 tiles + this /metricz
        assert counters["serve.tile_requests"] == 2
        assert counters["tiles.cache.hits"] == 1
        assert counters["tiles.cache.misses"] == 1
        assert counters["serve.http.status.200"] >= 2
        assert payload["cache"]["hits"] == 1
        assert payload["queue"]["limit"] == server.service.queue_limit

    def test_metricz_times_the_png_layer(self, server):
        """One ``serve.colorize`` and one ``serve.encode`` call per ``.png``
        200, none for ``.npy`` or a failed ``.png``."""
        fetch(server.url + "/tiles/1/0/0.png")
        fetch(server.url + "/tiles/1/0/0.png?colormap=gray")  # a cache hit
        fetch(server.url + "/tiles/1/1/0.png")
        fetch(server.url + "/tiles/1/1/1")
        fetch(server.url + "/tiles/1/1/1.npy")
        assert fetch(server.url + "/tiles/1/1/1.png?colormap=jet")[0] == 404
        _, _, body = fetch(server.url + "/metricz")
        phases = json.loads(body)["recorder"]["phases"]
        for name in ("serve.colorize", "serve.encode"):
            assert phases[name]["calls"] == 3, name
            assert phases[name]["total_s"] > 0, name

    def test_http_counters_match_observed_statuses(self, server):
        observed = []
        observed.append(fetch(server.url + "/tiles/1/0/0")[0])   # 200
        observed.append(fetch(server.url + "/tiles/bad/0/0")[0])  # 400
        observed.append(fetch(server.url + "/tiles/9/0/0")[0])    # 404
        _, _, body = fetch(server.url + "/metricz")
        counters = json.loads(body)["recorder"]["counters"]
        for status in set(observed):
            assert counters[f"serve.http.status.{status}"] == observed.count(
                status
            ), status
        # the /metricz snapshot is taken before its own response is tallied,
        # so the count covers exactly the requests observed so far
        assert counters["serve.http.requests"] == len(observed)


    def test_replies_leave_without_nagle_delay(self, server, monkeypatch):
        """Headers and body leave in two writes: ``TCP_NODELAY`` on the
        accepted socket keeps a keep-alive body from waiting for the
        client's delayed ACK."""
        from repro.serve.http import TileRequestHandler

        nodelay = []
        real = TileRequestHandler.setup

        def setup(self):
            real(self)
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(TileRequestHandler, "setup", setup)
        assert fetch(server.url + "/tiles/1/0/0.png")[0] == 200
        assert nodelay and all(nodelay)


class TestIngestEndpoint:
    def test_ingest_inserts_and_invalidates(self, server):
        fetch(server.url + "/tiles/2/0/0")
        status, _, body = fetch(
            server.url + "/ingest",
            data=json.dumps({"points": [[10.0, 10.0], [20.0, 15.0]]}).encode(),
        )
        assert status == 200
        outcome = json.loads(body)
        assert outcome["inserted"] == 2
        assert outcome["invalidated"] >= 1
        assert outcome["points"] == 202
        # the next fetch re-renders against the grown dataset
        status2, _, body2 = fetch(server.url + "/tiles/2/0/0")
        assert status2 == 200
        grid = np.load(io.BytesIO(body2))
        assert grid.max() > 0.0

    def test_ingest_with_timestamps(self, server):
        status, _, body = fetch(
            server.url + "/ingest",
            data=json.dumps(
                {"points": [[500.0, 500.0]], "t": [42.0]}
            ).encode(),
        )
        assert status == 200
        assert json.loads(body)["inserted"] == 1

    @pytest.mark.parametrize(
        "data",
        [
            b"",  # no body
            b"not json",
            json.dumps({"nope": []}).encode(),
            json.dumps({"points": [[1.0, 2.0, 3.0]]}).encode(),
            json.dumps({"points": [[None, 2.0]]}).encode(),
            json.dumps({"points": "strings"}).encode(),
        ],
    )
    def test_malformed_ingest_is_400(self, server, data):
        status, _, body = fetch(server.url + "/ingest", data=data)
        assert status == 400
        assert "error" in json.loads(body)

    def test_malformed_ingest_changes_nothing(self, server):
        before = server.service.points_count
        fetch(server.url + "/ingest", data=b'{"points": [[1, 2, 3]]}')
        assert server.service.points_count == before

    @pytest.mark.parametrize("path", ["/ingest", "/tick"])
    def test_oversized_body_is_413_unread(self, server, path, capsys):
        """A ``Content-Length`` past the cap is answered 413 without
        reading (or allocating) the body, and the connection closes; the
        server logs nothing and serves the next connection."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30.0) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 1000000000000\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(65536):  # EOF: the server closed it
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert "error" in json.loads(body)
        assert fetch(server.url + "/healthz")[0] == 200
        assert server.service.points_count == 200
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out


class TestWindowAndTick:
    @pytest.fixture()
    def windowed_server(self):
        from repro.data.points import PointSet

        xy = make_points()
        t = np.arange(len(xy), dtype=np.float64)
        srv = make_server(points=PointSet(xy, t=t), window_s=100.0)
        yield srv
        srv.shutdown_gracefully()

    def test_windowed_tile_differs_from_all_time(self, windowed_server):
        url = windowed_server.url
        status, headers, base = fetch(url + "/tiles/1/0/0")
        assert status == 200
        status2, _, windowed = fetch(url + "/tiles/1/0/0?window=100")
        assert status2 == 200
        assert headers["Content-Type"] == "application/x-npy"
        assert windowed != base  # only the trailing 100 s of the feed
        # the windowed tile is cached under its own key
        status3, _, again = fetch(url + "/tiles/1/0/0?window=100")
        assert status3 == 200 and again == windowed

    def test_windowed_png_renders(self, windowed_server):
        status, headers, body = fetch(
            windowed_server.url + "/tiles/1/0/0.png?window=100"
        )
        assert status == 200
        assert headers["Content-Type"] == "image/png"
        assert body[:8] == b"\x89PNG\r\n\x1a\n"

    @pytest.mark.parametrize("bad", ["soon", "-5", "0", "nan", "inf"])
    def test_malformed_window_is_400(self, windowed_server, bad):
        status, _, body = fetch(
            windowed_server.url + f"/tiles/1/0/0?window={bad}"
        )
        assert status == 400
        assert "window" in json.loads(body)["error"]

    def test_window_on_untimestamped_history_is_400(self, server):
        status, _, body = fetch(server.url + "/tiles/1/0/0?window=10")
        assert status == 400
        assert "timestamp" in json.loads(body)["error"]

    def test_tick_endpoint_expires_and_reports(self, windowed_server):
        url = windowed_server.url
        status, _, body = fetch(
            url + "/ingest",
            data=json.dumps(
                {"points": [[500.0, 500.0]], "t": [1000.0]}
            ).encode(),
        )
        assert status == 200
        status, headers, body = fetch(url + "/tick", data=b"")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        outcome = json.loads(body)
        assert outcome["now"] == 1000.0  # the ingest watermark
        assert outcome["expired"] > 0
        assert outcome["ticks"] == 1
        _, _, metricz = fetch(url + "/metricz")
        payload = json.loads(metricz)
        assert payload["recorder"]["counters"]["window.ticks"] == 1
        assert payload["window"]["ticks"] == 1

    def test_tick_accepts_explicit_now(self, windowed_server):
        status, _, body = fetch(
            windowed_server.url + "/tick",
            data=json.dumps({"now": 250.0}).encode(),
        )
        assert status == 200
        outcome = json.loads(body)
        assert outcome["now"] == 250.0
        # the eager window held t in [99, 199]; cutoff 150 expires [99, 150)
        assert outcome["expired"] == 51

    @pytest.mark.parametrize(
        "data",
        [b"not json", json.dumps(["now"]).encode(),
         json.dumps({"now": "late"}).encode(),
         b'{"now": true}', b'{"now": false}', b'{"now": NaN}',
         b'{"now": Infinity}', b'{"now": -Infinity}',
         pytest.param(b'{"now": 1' + b"0" * 400 + b"}", id="int-past-float")],
    )
    def test_malformed_tick_is_400(self, windowed_server, data):
        status, _, body = fetch(windowed_server.url + "/tick", data=data)
        assert status == 400
        assert "error" in json.loads(body)
        assert windowed_server.service.stats()["window"]["ticks"] == 0

    def test_tick_on_get_is_404(self, windowed_server):
        assert fetch(windowed_server.url + "/tick")[0] == 404


class TestBackpressureOverHTTP:
    def test_saturated_queue_is_503_with_retry_after(self):
        pool = SlowPool()
        server = make_server(workers=1, queue_limit=1, executor=pool)
        try:
            leader = threading.Thread(
                target=fetch, args=(server.url + "/tiles/1/0/0",)
            )
            leader.start()
            assert pool.started.wait(timeout=10.0)
            status, headers, body = fetch(server.url + "/tiles/1/1/0")
            assert status == 503
            assert float(headers["Retry-After"]) > 0.0
            assert "error" in json.loads(body)
            pool.release.set()
            leader.join(timeout=30.0)
        finally:
            pool.release.set()
            server.shutdown_gracefully()

    def test_deadline_is_504(self):
        pool = SlowPool()
        server = make_server(workers=1, deadline_s=0.05, executor=pool)
        try:
            status, _, body = fetch(server.url + "/tiles/1/0/0")
            assert status == 504
            assert "error" in json.loads(body)
        finally:
            pool.release.set()
            server.shutdown_gracefully()


class TestQualityOverHTTP:
    @pytest.fixture()
    def quality_server(self):
        from repro.serve import QualityPolicy

        srv = make_server(
            quality=QualityPolicy(pyramid_levels=(1,), coreset_sizes=(64,))
        )
        yield srv
        srv.shutdown_gracefully()

    def test_exact_headers_on_npy_and_png(self, quality_server):
        url = quality_server.url
        status, headers, _ = fetch(url + "/tiles/1/0/0")
        assert status == 200
        assert headers["X-KDV-Quality"] == "exact"
        assert headers["X-KDV-Error-Bound"] == "0"
        status2, headers2, _ = fetch(url + "/tiles/1/0/0.png")
        assert status2 == 200
        assert headers2["X-KDV-Quality"] == "exact"
        assert headers2["X-KDV-Error-Bound"] == "0"

    def test_headers_present_without_policy(self, server):
        status, headers, _ = fetch(server.url + "/tiles/1/0/0")
        assert status == 200
        assert headers["X-KDV-Quality"] == "exact"
        assert headers["X-KDV-Error-Bound"] == "0"

    def test_pinned_tier_headers_and_payload(self, quality_server):
        url = quality_server.url
        status, headers, body = fetch(url + "/tiles/1/0/0?quality=coreset:64")
        assert status == 200
        assert headers["X-KDV-Quality"] == "coreset:64"
        assert float(headers["X-KDV-Error-Bound"]) > 0.0
        grid = np.load(io.BytesIO(body))
        assert grid.shape == (TILE, TILE)
        status2, headers2, _ = fetch(url + "/tiles/1/0/0?quality=pyramid:1")
        assert status2 == 200
        assert headers2["X-KDV-Quality"] == "pyramid:1"

    def test_bad_quality_and_max_error_are_400(self, quality_server):
        url = quality_server.url
        for query in ("quality=bogus", "quality=pyramid:7", "max_error=nope",
                      "max_error=-1"):
            status, _, body = fetch(url + f"/tiles/1/0/0?{query}")
            assert status == 400, query
            assert "error" in json.loads(body)

    def test_degraded_pin_without_policy_is_400(self, server):
        status, _, body = fetch(server.url + "/tiles/1/0/0?quality=coreset:64")
        assert status == 400
        assert "disabled" in json.loads(body)["error"]

    def test_metricz_exposes_quality_section(self, quality_server):
        url = quality_server.url
        fetch(url + "/tiles/1/0/0?quality=coreset:64")
        _, _, body = fetch(url + "/metricz")
        payload = json.loads(body)
        quality = payload["quality"]
        assert quality["policy"]["ladder"] == [
            "exact", "pyramid:1", "coreset:64"
        ]
        assert quality["bounds"]["all"]["coreset:64"] > 0.0
        assert payload["recorder"]["counters"]["quality.served.coreset"] >= 1

    def test_saturated_pool_degrades_before_503(self):
        from repro.serve import QualityPolicy

        pool = SlowPool()
        server = make_server(
            workers=1, queue_limit=1, executor=pool,
            quality=QualityPolicy(pyramid_levels=(1,), coreset_sizes=(64,)),
        )
        try:
            leader = threading.Thread(
                target=fetch, args=(server.url + "/tiles/1/0/0",)
            )
            leader.start()
            assert pool.started.wait(timeout=10.0)
            # where the policy-free server returned 503, the ladder serves
            # a degraded tile with honest headers instead
            status, headers, _ = fetch(server.url + "/tiles/1/1/0")
            assert status == 200
            assert headers["X-KDV-Quality"] == "pyramid:1"
            assert float(headers["X-KDV-Error-Bound"]) >= 0.0
            pool.release.set()
            leader.join(timeout=30.0)
            # once the pool drains, the same tile refines back to exact
            deadline = time.monotonic() + 10.0
            tier = None
            while time.monotonic() < deadline:
                status, headers, _ = fetch(server.url + "/tiles/1/1/0")
                tier = headers["X-KDV-Quality"]
                if status == 200 and tier == "exact":
                    break
                time.sleep(0.05)
            assert tier == "exact"
        finally:
            pool.release.set()
            server.shutdown_gracefully()


class TestShutdown:
    def test_shutdown_endpoint_disabled_by_default(self, server):
        status, _, _ = fetch(server.url + "/shutdown", data=b"{}")
        assert status == 404

    def test_shutdown_endpoint_stops_server_cleanly(self):
        before = {t for t in threading.enumerate() if not t.daemon}
        server = make_server(allow_shutdown=True)
        fetch(server.url + "/tiles/1/0/0")
        status, _, body = fetch(server.url + "/shutdown", data=b"{}")
        assert status == 200
        assert json.loads(body)["status"] == "shutting down"
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            alive = {t for t in threading.enumerate() if not t.daemon}
            if server.service.closed and alive <= before:
                break
            time.sleep(0.05)
        assert server.service.closed
        assert {t for t in threading.enumerate() if not t.daemon} <= before
        # the socket is released: connecting now fails
        with pytest.raises(OSError):
            urllib.request.urlopen(server.url + "/healthz", timeout=2.0)

    def test_requests_after_close_are_503(self):
        server = make_server()
        try:
            server.service.close()
            status, headers, _ = fetch(server.url + "/tiles/1/0/0")
            assert status == 503
            assert headers["Retry-After"] == "1"
            status2, _, _ = fetch(
                server.url + "/ingest", data=b'{"points": [[1.0, 1.0]]}'
            )
            assert status2 == 503
        finally:
            server.shutdown_gracefully()

    def test_shutdown_gracefully_is_idempotent(self):
        server = make_server()
        server.shutdown_gracefully()
        server.shutdown_gracefully()
        assert server.service.closed
