"""A seeded, single-process, open-loop load generator over keep-alive HTTP.

A schedule is a list of :class:`Request`, each due at an offset from the
start of the timed window and bound to a queue.  Each queue is served by
its own persistent HTTP/1.1 connections, at most two in all, as a browser
keeps per host; every connection has one thread that takes the next
request of its queue, sleeps until it is due, sends it and reads the whole
response.  Latency runs from send to last byte and how late each request
left is kept as lag: with two connections, bursts of slow renders queue
later requests for a while, and timing from the due time would make a
run's percentiles hinge on where the seed happens to place such bursts.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from common import digest

#: connections (and sending threads) a run may open
MAX_CONNECTIONS = 2
#: seconds one request may take before it counts as failed
REQUEST_TIMEOUT_S = 60.0
JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Request:
    due_s: float
    queue: int
    method: str
    path: str
    body: bytes = b""
    #: ``"npy"``, ``"png"`` or ``"ingest"``
    kind: str = "npy"
    #: ``(zoom, tx, ty)`` of a tile request
    key: tuple = ()
    #: the ``window=`` seconds of a tile request, ``None`` for all time
    window: "int | None" = None


@dataclass
class Outcome:
    request: Request
    #: when the request was due, on the monotonic clock
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    quality: "str | None" = None
    body_len: int = 0
    digest: str = ""
    ok: bool = False
    error: str = ""

    @property
    def latency(self) -> float:
        """Send to last byte; how late the send was is :attr:`lag`."""
        return self.done - self.sent

    @property
    def lag(self) -> float:
        return self.sent - self.due


def encode(schedule) -> bytes:
    """Canonical bytes of a schedule; one seed must always give the same."""
    rows = [[repr(r.due_s), r.queue, r.method, r.path, digest(r.body)]
            for r in schedule]
    return json.dumps(rows, separators=(",", ":")).encode()


def run(host: str, port: int, schedule, lanes: dict, start: float,
        inspect) -> list:
    """Replay ``schedule`` against ``host:port`` from monotonic ``start``.

    ``lanes`` maps each queue to its number of connections.
    ``inspect(outcome, body)`` checks each response on the sending thread
    and sets ``outcome.ok``.  Returns the outcomes in due order.
    """
    if sum(lanes.values()) > MAX_CONNECTIONS:
        raise ValueError(f"at most {MAX_CONNECTIONS} connections, got {lanes}")
    queues = {q: [r for r in schedule if r.queue == q] for q in lanes}
    cursor = dict.fromkeys(lanes, 0)
    lock = threading.Lock()
    outcomes: list[Outcome] = []

    def lane(queue: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    i = cursor[queue]
                    if i == len(queues[queue]):
                        return
                    cursor[queue] = i + 1
                req = queues[queue][i]
                out = Outcome(req, start + req.due_s)
                delay = out.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                out.sent = time.monotonic()
                try:
                    conn.request(req.method, req.path, body=req.body or None,
                                 headers=JSON_HEADERS if req.body else {})
                    resp = conn.getresponse()
                    body = resp.read()
                    out.status = resp.status
                    out.quality = resp.getheader("X-KDV-Quality")
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    body, out.error = b"", repr(exc)
                out.done = time.monotonic()
                out.body_len = len(body)
                inspect(out, body)
                with lock:
                    outcomes.append(out)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=lane, args=(queue,), name=f"loadgen-{queue}-{i}")
        for queue, count in lanes.items()
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(outcomes, key=lambda o: (o.due, o.request.queue))
