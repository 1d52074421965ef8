"""Dependency-light HTTP front end for :class:`~repro.serve.TileService`.

Built on stdlib ``http.server`` only (the repo's no-new-dependencies rule),
with one handler thread per connection (``ThreadingHTTPServer``) — the
concurrency discipline lives in the service, not here.

Endpoints
---------
``GET /tiles/{z}/{tx}/{ty}``        raw density grid, ``.npy`` bytes
``GET /tiles/{z}/{tx}/{ty}.npy``    same, explicit
``GET /tiles/{z}/{tx}/{ty}.png``    colored tile (``?colormap=heat|viridis|gray``)
``...?window=<seconds>``            any tile form over only the trailing window
``...?quality=<tier>``              pin a quality tier (``exact``,
                                    ``pyramid:<k>``, ``coreset:<m>``)
``...?max_error=<eps>``             cap the served tier's advertised error bound
``POST /ingest``                    JSON ``{"points": [[x, y], ...], "t": [...]}``
``POST /tick``                      advance the sliding windows (optional JSON
                                    body ``{"now": <event-time>}``)
``GET /healthz``                    liveness + dataset/cache/queue summary
``GET /metricz``                    recorder dump + cache/queue/window/quality
                                    stats (JSON)
``POST /shutdown``                  graceful stop (only with ``allow_shutdown=True``)

Every 200 tile response carries the quality header contract:

``X-KDV-Quality``
    The tier that produced the body (``exact`` when no policy or load
    degradation applies).
``X-KDV-Error-Bound``
    The tier's advertised L-infinity error bound relative to the global
    density peak (``0`` for exact tiles).

Status mapping (the contract the error-path tests pin down):

====  ==========================================================
400   malformed tile coordinates, malformed ingest/tick body,
      malformed or unservable ``window=``, malformed or
      unservable ``quality=`` / ``max_error=``
404   unknown path, tile outside the pyramid or beyond max zoom
413   request body larger than :data:`MAX_BODY_BYTES` (answered
      unread, and the connection is closed)
503   render queue full past the cheapest admissible quality
      tier (with ``Retry-After``), or shutting down
504   per-request deadline exceeded
====  ==========================================================
"""

from __future__ import annotations

import io
import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter

import numpy as np

from .quality import QualityError
from .service import ServiceClosed, ServiceOverloaded, ServiceTimeout, TileService
from .window import WindowError

__all__ = ["TileHTTPServer", "TileRequestHandler", "start_server"]

#: The largest request body the server reads (64 MiB, about a million
#: ingest events as JSON); a larger ``Content-Length`` gets 413 unread.
MAX_BODY_BYTES = 64 << 20

_TILE_PATH = re.compile(r"^/tiles/([^/]+)/([^/]+)/([^/]+?)(\.npy|\.png)?$")
_INT = re.compile(r"^-?\d+$")


class TileRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's :class:`TileService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # Headers and body leave in two writes; with Nagle's algorithm on, a
    # keep-alive body can wait for the client's delayed ACK (tens of ms).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> TileService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str, headers=()) -> None:
        rec = self.service.recorder
        rec.count("serve.http.requests")
        rec.count(f"serve.http.status.{status}")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _error(self, status: int, message: str, headers=()) -> None:
        self._send_json(status, {"error": message}, headers)

    def _read_body(self, length: int) -> "bytes | None":
        """The ``length``-byte body, or ``None`` after answering 413 when it
        is over :data:`MAX_BODY_BYTES`.  The oversized body is never read,
        so the connection closes after the answer."""
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body over {MAX_BODY_BYTES} bytes",
                        headers=[("Connection", "close")])
            return None
        return self.rfile.read(length)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send_json(200, self.service.health())
            return
        if path == "/metricz":
            self._send_json(200, self.service.stats())
            return
        if path.startswith("/tiles/") or path == "/tiles":
            self._get_tile(path, query)
            return
        self._error(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.partition("?")[0]
        if path == "/ingest":
            self._post_ingest()
            return
        if path == "/tick":
            self._post_tick()
            return
        if path == "/shutdown":
            self._post_shutdown()
            return
        self._error(404, f"unknown path {path!r}")

    # -- tiles -------------------------------------------------------------

    def _get_tile(self, path: str, query: str) -> None:
        rec = self.service.recorder
        start = perf_counter()
        match = _TILE_PATH.match(path)
        if not match:
            self._error(400, "tile path must look like /tiles/{z}/{tx}/{ty}[.npy|.png]")
            return
        z_s, tx_s, ty_s, suffix = match.groups()
        if not (_INT.match(z_s) and _INT.match(tx_s) and _INT.match(ty_s)):
            self._error(400, f"tile coordinates must be integers, got {path!r}")
            return
        zoom, tx, ty = int(z_s), int(tx_s), int(ty_s)
        as_png = suffix == ".png"
        window = _query_param(query, "window", None)
        quality = _query_param(query, "quality", None)
        max_error = _query_param(query, "max_error", None)
        try:
            resp = self.service.request_tile(
                zoom, tx, ty, window=window, quality=quality,
                max_error=max_error,
            )
            if as_png:
                colormap = _query_param(query, "colormap", "heat")
                from ..viz.image import encode_png

                colorize_start = perf_counter()
                rgb = self.service.colorize_tile(
                    resp.grid, colormap=colormap, window=window
                )
                encode_start = perf_counter()
                body, content_type = encode_png(rgb), "image/png"
                rec.timer("serve.colorize").add(encode_start - colorize_start)
                rec.timer("serve.encode").add(perf_counter() - encode_start)
            else:
                buf = io.BytesIO()
                np.save(buf, resp.grid, allow_pickle=False)
                body, content_type = buf.getvalue(), "application/x-npy"
        except (WindowError, QualityError) as exc:
            self._error(400, str(exc))
            return
        except ServiceOverloaded as exc:
            self._error(
                503, str(exc), headers=[("Retry-After", f"{exc.retry_after_s:.3f}")]
            )
            return
        except ServiceTimeout as exc:
            self._error(504, str(exc))
            return
        except ServiceClosed as exc:
            self._error(503, str(exc), headers=[("Retry-After", "1")])
            return
        except ValueError as exc:
            # out-of-pyramid key or unknown colormap
            self._error(404, str(exc))
            return
        finally:
            rec.timer("serve.http.tiles").add(perf_counter() - start)
        self._send(
            200,
            body,
            content_type,
            headers=[
                ("X-KDV-Quality", resp.tier),
                ("X-KDV-Error-Bound", format(resp.error_bound, ".6g")),
            ],
        )

    # -- ingest ------------------------------------------------------------

    def _post_ingest(self) -> None:
        rec = self.service.recorder
        start = perf_counter()
        try:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if length <= 0:
                self._error(400, "ingest requires a JSON body with Content-Length")
                return
            body = self._read_body(length)
            if body is None:
                return
            try:
                payload = json.loads(body)
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._error(400, "ingest body is not valid JSON")
                return
            if not isinstance(payload, dict) or "points" not in payload:
                self._error(400, 'ingest body must be {"points": [[x, y], ...]}')
                return
            try:
                xy = np.asarray(payload["points"], dtype=np.float64)
                t = payload.get("t")
                t = None if t is None else np.asarray(t, dtype=np.float64)
                outcome = self.service.ingest(xy, t)
            except (ValueError, TypeError) as exc:
                self._error(400, f"bad ingest batch: {exc}")
                return
            except ServiceClosed as exc:
                self._error(503, str(exc), headers=[("Retry-After", "1")])
                return
            self._send_json(200, outcome)
        finally:
            rec.timer("serve.http.ingest").add(perf_counter() - start)

    def _post_tick(self) -> None:
        rec = self.service.recorder
        start = perf_counter()
        try:
            now = None
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                self._error(400, "bad Content-Length")
                return
            if length > 0:
                body = self._read_body(length)
                if body is None:
                    return
                try:
                    payload = json.loads(body)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    self._error(400, "tick body is not valid JSON")
                    return
                if not isinstance(payload, dict):
                    self._error(400, 'tick body must be {} or {"now": <event-time>}')
                    return
                now = payload.get("now")
                if now is not None and not _finite_number(now):
                    self._error(400, "tick 'now' must be a finite number (event time)")
                    return
            try:
                outcome = self.service.tick(now=now)
            except ServiceClosed as exc:
                self._error(503, str(exc), headers=[("Retry-After", "1")])
                return
            self._send_json(200, outcome)
        finally:
            rec.timer("serve.http.tick").add(perf_counter() - start)

    # -- lifecycle ---------------------------------------------------------

    def _post_shutdown(self) -> None:
        if not self.server.allow_shutdown:  # type: ignore[attr-defined]
            self._error(404, "shutdown endpoint is disabled")
            return
        self._send_json(200, {"status": "shutting down"})
        # shutdown() joins the serve_forever loop, so it must not run on this
        # handler thread synchronously before the response is flushed
        threading.Thread(
            target=self.server.shutdown_gracefully,  # type: ignore[attr-defined]
            name="kdv-shutdown",
            daemon=True,
        ).start()


def _finite_number(value) -> bool:
    """A JSON number that is finite as a float; ``True``/``False`` are not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        return False


def _query_param(query: str, name: str, default: "str | None") -> "str | None":
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == name and value:
            return value
    return default


class TileHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`TileService`.

    Handler threads are daemonic (a hung client cannot block shutdown); the
    render pool inside the service is not, and is always drained explicitly
    by :meth:`shutdown_gracefully` — so a clean exit leaves no non-daemon
    thread behind.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: TileService,
        *,
        allow_shutdown: bool = False,
        quiet: bool = True,
    ):
        super().__init__(address, TileRequestHandler)
        self.service = service
        self.allow_shutdown = allow_shutdown
        self.quiet = quiet
        self._serve_thread: "threading.Thread | None" = None
        self._shutdown_once = threading.Lock()
        self._shut_down = False

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_gracefully(self, drain: bool = True) -> None:
        """Stop accepting connections, drain renders, release the socket.

        Safe to call from any thread (including handler threads) and
        idempotent; used by SIGINT handling, ``POST /shutdown``, and tests.
        """
        with self._shutdown_once:
            if self._shut_down:
                return
            self._shut_down = True
        self.shutdown()
        self.service.close(drain=drain)
        self.server_close()
        if self._serve_thread is not None and self._serve_thread is not threading.current_thread():
            self._serve_thread.join(timeout=10.0)


def start_server(
    service: TileService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    allow_shutdown: bool = False,
    quiet: bool = True,
    background: bool = True,
) -> TileHTTPServer:
    """Bind and start serving; ``port=0`` picks a free port.

    With ``background=True`` (default, what tests and benches use) the accept
    loop runs on a named daemon thread and this returns immediately; call
    :meth:`TileHTTPServer.shutdown_gracefully` to stop.  With
    ``background=False`` this blocks in ``serve_forever`` until interrupted
    (the CLI path), then shuts down gracefully.
    """
    server = TileHTTPServer(
        (host, port), service, allow_shutdown=allow_shutdown, quiet=quiet
    )
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="kdv-http-accept", daemon=True
        )
        server._serve_thread = thread
        thread.start()
        return server
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown_gracefully()
    return server
