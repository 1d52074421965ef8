"""Length-prefixed framed messages for the coordinator <-> worker link.

The transport is a plain TCP stream; this module gives it record boundaries
and integrity checks.  Every frame is::

    +--------+---------+----------+-------------+----------+---------+
    | magic  | version | msg_type | payload_len | crc32    | payload |
    | 4 B    | u16     | u16      | u32         | u32      | n bytes |
    +--------+---------+----------+-------------+----------+---------+

(big-endian header, :data:`HEADER` = 16 bytes).  The payload is a pickled
Python object — both endpoints are trusted processes of the same codebase
(the same trust model as :mod:`multiprocessing`), and pickle moves NumPy
blocks without copies through protocol 5 buffers.  The CRC-32 of the payload
is verified on receipt, so a torn or corrupted frame surfaces as a
:class:`~repro.dist.errors.ProtocolError` instead of a pickle crash deep in
a worker.

Versioning: the protocol version rides in *every* header, so a mismatched
peer is rejected on the first frame; the explicit :func:`client_handshake` /
:func:`server_handshake` exchange additionally carries the peer's pid,
advertised capabilities, and machine identity (``node``).  v2 added the
``caps``/``node`` fields, which the coordinator uses to negotiate the
zero-copy shared-memory shard transport with co-located workers (see
:mod:`repro.dist.shm`); capability keys are additive, so future transports
slot in without another version bump.  v3 added the CANCEL frame and
progress-bearing heartbeats for coordinator-side work stealing
(``docs/scheduling.md``), plus HELLO ``specs`` (cpu count) feeding the
scheduler's capacity priors.  v4 replaced the TASK ``engine`` spec kinds with
one registry lookup, ``{"name", "threads"}``.

All send/recv helpers return the byte count they moved, which the
coordinator feeds the ``dist.bytes_tx`` / ``dist.bytes_rx`` counters.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import zlib

from .errors import ConnectionClosed, ProtocolError

__all__ = [
    "PROTO_VERSION",
    "MAGIC",
    "HEADER",
    "MSG_HELLO",
    "MSG_PING",
    "MSG_PONG",
    "MSG_TASK",
    "MSG_RESULT",
    "MSG_ERROR",
    "MSG_HEARTBEAT",
    "MSG_SHUTDOWN",
    "MSG_BYE",
    "MSG_CANCEL",
    "MSG_NAMES",
    "send_msg",
    "recv_msg",
    "hello_payload",
    "node_id",
    "client_handshake",
    "server_handshake",
]

#: Wire protocol version; bumped on any frame or payload schema change.
#: v2: HELLO carries ``caps`` + ``node``; TASK may carry an ``shm`` descriptor
#: and RESULT may omit ``block`` when the band was written to shared memory.
#: v3: CANCEL frames truncate an in-flight shard at a row boundary (work
#: stealing), heartbeats carry ``rows_done`` progress, RESULT carries the
#: actually-computed ``row_stop``, and HELLO adds ``specs``.
#: v4: the TASK ``engine`` spec is ``{"name": <registry name>, "threads": N}``
#: (was one of the ``row``/``batch``/``native`` kinds).
PROTO_VERSION = 4

#: Frame preamble — rejects peers that are not speaking this protocol at all.
MAGIC = b"RKDV"

#: magic(4s) version(u16) msg_type(u16) payload_len(u32) crc32(u32)
HEADER = struct.Struct(">4sHHII")

MSG_HELLO = 1
MSG_PING = 2
MSG_PONG = 3
MSG_TASK = 4
MSG_RESULT = 5
MSG_ERROR = 6
MSG_HEARTBEAT = 7
MSG_SHUTDOWN = 8
MSG_BYE = 9
#: Coordinator -> worker: stop computing shard ``shard_id`` at band-relative
#: row ``row_stop`` (its tail was stolen by an idle worker).  Cooperative —
#: the worker truncates at the next chunk boundary at or after ``row_stop``
#: and replies with a normal, shorter RESULT.  A CANCEL for a shard that is
#: no longer in flight is stale and silently ignored.
MSG_CANCEL = 10

#: For diagnostics and log lines.
MSG_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_PING: "PING",
    MSG_PONG: "PONG",
    MSG_TASK: "TASK",
    MSG_RESULT: "RESULT",
    MSG_ERROR: "ERROR",
    MSG_HEARTBEAT: "HEARTBEAT",
    MSG_SHUTDOWN: "SHUTDOWN",
    MSG_BYE: "BYE",
    MSG_CANCEL: "CANCEL",
}

#: Refuse absurd frames before allocating for them (a corrupted length field
#: must not trigger a multi-gigabyte recv buffer).
MAX_PAYLOAD_BYTES = 1 << 31


def send_msg(sock: socket.socket, msg_type: int, payload: object = None) -> int:
    """Send one frame; returns the total bytes written.

    A socket has one writer at a time — the coordinator render that
    claimed the worker, the worker thread that accepted the connection —
    so frames never interleave.
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = HEADER.pack(
        MAGIC, PROTO_VERSION, msg_type, len(body), zlib.crc32(body)
    )
    data = header + body
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(
    sock: socket.socket, timeout: "float | None" = None
) -> tuple[int, object, int]:
    """Receive one frame; returns ``(msg_type, payload, bytes_read)``.

    ``timeout`` (seconds) bounds the wait for the *first* header byte;
    ``socket.timeout`` propagates to the caller, which owns deadline policy.
    Raises :class:`ProtocolError` on a bad magic, version, or checksum and
    :class:`ConnectionClosed` on EOF.
    """
    sock.settimeout(timeout)
    header = _recv_exact(sock, HEADER.size)
    # The header arrived; the body follows immediately, so the remaining
    # reads get a generous fixed bound rather than the caller's poll slice.
    sock.settimeout(60.0)
    magic, version, msg_type, length, crc = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTO_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks v{version}, "
            f"this process speaks v{PROTO_VERSION}"
        )
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"frame payload of {length} bytes exceeds the cap")
    body = _recv_exact(sock, length)
    if zlib.crc32(body) != crc:
        raise ProtocolError(
            f"payload checksum mismatch on {MSG_NAMES.get(msg_type, msg_type)} "
            f"frame ({length} bytes)"
        )
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # pragma: no cover - crc catches corruption first
        raise ProtocolError(f"undecodable payload: {exc}") from exc
    return msg_type, payload, HEADER.size + length


def node_id() -> str:
    """A same-machine identity token for the HELLO handshake.

    Two processes report the same ``node`` iff they can plausibly share a
    ``/dev/shm`` namespace: same hostname and same boot (the boot id guards
    against identically-named hosts/containers).  Shared memory is only
    negotiated between peers whose tokens match.
    """
    boot = ""
    try:  # Linux; other platforms fall back to hostname-only
        with open("/proc/sys/kernel/random/boot_id") as fh:
            boot = fh.read().strip()
    except OSError:
        pass
    return f"{socket.gethostname()}:{boot}"


def hello_payload() -> dict:
    """The handshake payload each side sends."""
    from .shm import SHM_AVAILABLE

    return {
        "proto": PROTO_VERSION,
        "pid": os.getpid(),
        "node": node_id(),
        "caps": {"shm": SHM_AVAILABLE, "steal": True},
        # Static machine specs: the scheduler's capacity prior before any
        # throughput sample lands (repro.dist.sched.CostModel.hello).
        "specs": {"cpus": os.cpu_count()},
    }


def client_handshake(sock: socket.socket, timeout: float = 10.0) -> dict:
    """Coordinator side: send HELLO, await the worker's HELLO.

    Returns the worker's hello payload; raises :class:`ProtocolError` on a
    version mismatch (also enforced per-frame by :func:`recv_msg`).
    """
    send_msg(sock, MSG_HELLO, hello_payload())
    msg_type, payload, _ = recv_msg(sock, timeout=timeout)
    if msg_type != MSG_HELLO:
        raise ProtocolError(
            f"expected HELLO, got {MSG_NAMES.get(msg_type, msg_type)}"
        )
    _check_hello(payload)
    return payload


def server_handshake(sock: socket.socket, timeout: float = 10.0) -> dict:
    """Worker side: await the coordinator's HELLO, reply with ours."""
    msg_type, payload, _ = recv_msg(sock, timeout=timeout)
    if msg_type != MSG_HELLO:
        raise ProtocolError(
            f"expected HELLO, got {MSG_NAMES.get(msg_type, msg_type)}"
        )
    _check_hello(payload)
    send_msg(sock, MSG_HELLO, hello_payload())
    return payload


def _check_hello(payload: object) -> None:
    if not isinstance(payload, dict) or "proto" not in payload:
        raise ProtocolError(f"malformed HELLO payload: {payload!r}")
    if payload["proto"] != PROTO_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks v{payload['proto']}, "
            f"this process speaks v{PROTO_VERSION}"
        )
