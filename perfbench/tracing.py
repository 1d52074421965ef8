"""Timing wrappers around the program's public entry points.

The traced run records spans from the benchmark's own code, around calls
into each layer; nothing under ``src/`` changes.  A span carries its name,
its start and end on the machine-wide monotonic clock (so a server's spans
line up with the client's send and receive times), the thread it ran on,
and its self time: its duration minus the wrapped calls nested inside it on
the same thread.  Spans stay in memory until :meth:`SpanLog.dump`, so a
traced server keeps the process layout of an untraced one.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class SpanLog:
    """Spans recorded by wrapped callables; safe to share across threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span named ``name`` per call.

        ``describe(args, kwargs, result)`` returns extra span fields;
        ``result`` is ``None`` when the call raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.monotonic()
            result, status = None, "ok"
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = time.monotonic()
                nested = stack.pop()
                if stack:
                    stack[-1] += end - start
                span = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": end - start - nested,
                    "thread": threading.get_ident(),
                    "status": status,
                }
                if describe is not None:
                    span.update(describe(args, kwargs, result))
                with self._lock:
                    self.spans.append(span)

        return traced

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def dump(self, path) -> None:
        with self._lock:
            Path(path).write_text(json.dumps(self.spans))


def _as_window(value):
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        return str(value)


def _request_fields(args, kwargs, _result) -> dict:
    return {"key": list(args[1:4]), "window": _as_window(kwargs.get("window"))}


def _render_fields(args, _kwargs, _result) -> dict:
    return {"key": list(args[2:5]), "points": len(args[0])}


def _ingest_fields(_args, _kwargs, result) -> dict:
    return {} if result is None else {"invalidated": result["invalidated"]}


def install_server_wrappers(log: SpanLog) -> None:
    """Wrap the serving stack's public entry points; call before the CLI
    builds its ``TileService``."""
    import repro.serve.service as service
    import repro.serve.window as window
    import repro.viz.image as image
    from repro.extensions.streaming import StreamingKDV

    tiles = service.TileService
    # the render_fn seam: a TileService built without an override binds
    # this module global as its renderer
    service.render_tile = log.wrap(
        "viz.render_tile", service.render_tile, _render_fields
    )
    tiles.request_tile = log.wrap(
        "serve.request_tile", tiles.request_tile, _request_fields
    )
    tiles.colorize_tile = log.wrap("viz.colorize", tiles.colorize_tile)
    tiles.ingest = log.wrap("serve.ingest", tiles.ingest, _ingest_fields)
    tiles.tick = log.wrap("serve.tick", tiles.tick)
    # the HTTP handler looks encode_png up on this module for every .png
    image.encode_png = log.wrap("viz.encode_png", image.encode_png)
    StreamingKDV.insert = log.wrap("streaming.insert", StreamingKDV.insert)
    StreamingKDV.expire_before = log.wrap(
        "streaming.expire", StreamingKDV.expire_before
    )
    StreamingKDV.rebuild = log.wrap("streaming.rebuild", StreamingKDV.rebuild)
    # window views build each generation's shared index through this name
    index = window.YSortedIndex
    window.YSortedIndex = type(
        index.__name__,
        (index,),
        {"__init__": log.wrap("serve.ysorted_build", index.__init__)},
    )


def install_dist_wrappers(log: SpanLog) -> None:
    """Wrap the coordinator's sweep entry point."""
    from repro.dist.coordinator import Coordinator

    Coordinator.render_sweep = log.wrap(
        "dist.render_sweep", Coordinator.render_sweep
    )


# -- attribution -------------------------------------------------------------


def _overlap(a: dict, b: dict) -> float:
    return max(0.0, min(a["end"], b["end"]) - max(a["start"], b["start"]))


def _builds_before_renders(by_thread: dict) -> dict:
    """``id(render span) -> index build span`` for renders whose pool task
    built the generation's y-sorted index first."""
    builds = {}
    for spans in by_thread.values():
        pending = None
        for span in spans:
            if span["name"] == "serve.ysorted_build":
                pending = span
            elif span["name"] == "viz.render_tile":
                if pending is not None:
                    builds[id(span)] = pending
                pending = None
    return builds


def _anchor(anchors: list, out) -> "dict | None":
    """The server span that handled one client request."""
    req = out.request
    name = "serve.ingest" if req.kind == "ingest" else "serve.request_tile"
    for span in anchors:
        if (
            span["name"] == name
            and span["start"] >= out.sent
            and span["end"] <= out.done
            and (
                name == "serve.ingest"
                or (tuple(span["key"]) == tuple(req.key)
                    and span["window"] == req.window)
            )
        ):
            return span
    return None


def attribute(outcomes, spans: list, window_of) -> list[dict]:
    """Split each request's client-observed time, from send to last byte,
    across the layers whose spans ran for it.

    Spans on the request's handler thread inside its interval count with
    their self times.  A render, and the index build before it, runs on a
    pool thread while ``request_tile`` waits, so the part that overlaps the
    request moves from ``serve.request_tile`` to its own layer.  What is
    left is ``http.unattributed``: parsing, socket I/O and the stack in
    between.  ``window_of(render_span)`` names the view a render served
    (``None`` for the all-time view).

    Returns one row per outcome: ``kind``, ``client`` seconds, ``role``
    (``hit``, ``leader`` or ``joined`` for matched tile requests),
    ``queue_wait`` (leaders: request entry to pool start) and ``layers``.
    """
    by_thread = defaultdict(list)
    for span in sorted(spans, key=lambda s: s["start"]):
        by_thread[span["thread"]].append(span)
    builds = _builds_before_renders(by_thread)
    renders = [s for s in spans if s["name"] == "viz.render_tile"]
    anchors = [s for s in spans
               if s["name"] in ("serve.request_tile", "serve.ingest")]
    rows = []
    for out in outcomes:
        layers: dict = defaultdict(float)
        row = {"kind": out.request.kind, "client": out.done - out.sent,
               "role": None, "queue_wait": None, "layers": layers}
        anchor = _anchor(anchors, out)
        if anchor is not None:
            for span in by_thread[anchor["thread"]]:
                if span["start"] >= out.sent and span["end"] <= out.done:
                    layers[span["name"]] += span["self"]
            if anchor["name"] == "serve.request_tile":
                _attach_renders(row, anchor, renders, builds, window_of)
        layers["http.unattributed"] = row["client"] - sum(layers.values())
        rows.append(row)
    return rows


def _attach_renders(row, req, renders, builds, window_of) -> None:
    layers = row["layers"]
    role = "hit"
    for render in renders:
        if (tuple(render["key"]) != tuple(req["key"])
                or window_of(render) != req["window"]):
            continue
        parts = [render] + ([builds[id(render)]] if id(render) in builds else [])
        shares = [_overlap(part, req) for part in parts]
        if sum(shares) <= 0:
            continue
        for part, share in zip(parts, shares):
            layers[part["name"]] += share
        layers["serve.request_tile"] -= sum(shares)
        first = min(part["start"] for part in parts)
        if first >= req["start"]:
            role = "leader"
            row["queue_wait"] = first - req["start"]
        elif role == "hit":
            role = "joined"
    row["role"] = role
