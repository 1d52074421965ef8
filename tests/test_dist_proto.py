"""Tests for the framed wire protocol (repro.dist.proto).

All tests run over ``socket.socketpair()`` — real sockets, no network, no
subprocesses — so corruption and truncation can be injected byte-by-byte.
"""

from __future__ import annotations

import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.dist import proto
from repro.dist.errors import ConnectionClosed, ProtocolError


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def _frame(msg_type: int, body: bytes, *, magic=proto.MAGIC,
           version=proto.PROTO_VERSION, crc=None, length=None) -> bytes:
    """Hand-build a frame, optionally with deliberate defects."""
    if crc is None:
        crc = zlib.crc32(body)
    if length is None:
        length = len(body)
    return proto.HEADER.pack(magic, version, msg_type, length, crc) + body


class TestFraming:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            {"proto": 1, "pid": 42},
            "text",
            list(range(100)),
            b"\x00" * 4096,
        ],
    )
    def test_roundtrip(self, pair, payload):
        a, b = pair
        sent = proto.send_msg(a, proto.MSG_TASK, payload)
        msg_type, received, read = proto.recv_msg(b, timeout=5.0)
        assert msg_type == proto.MSG_TASK
        assert received == payload
        assert sent == read  # both sides account the same bytes

    def test_roundtrip_numpy_payload(self, pair):
        a, b = pair
        rng = np.random.default_rng(7)
        payload = {
            "block": rng.standard_normal((13, 17)),
            "xy": rng.uniform(0, 100, (50, 2)),
        }
        proto.send_msg(a, proto.MSG_RESULT, payload)
        _, received, _ = proto.recv_msg(b, timeout=5.0)
        assert np.array_equal(received["block"], payload["block"])
        assert np.array_equal(received["xy"], payload["xy"])

    def test_bytes_include_header(self, pair):
        a, b = pair
        sent = proto.send_msg(a, proto.MSG_PING)
        assert sent >= proto.HEADER.size
        _, _, read = proto.recv_msg(b, timeout=5.0)
        assert read == sent

    def test_back_to_back_frames_keep_boundaries(self, pair):
        a, b = pair
        for i in range(5):
            proto.send_msg(a, proto.MSG_HEARTBEAT, {"seq": i})
        for i in range(5):
            msg_type, payload, _ = proto.recv_msg(b, timeout=5.0)
            assert msg_type == proto.MSG_HEARTBEAT
            assert payload == {"seq": i}


class TestCorruption:
    def test_bad_magic(self, pair):
        a, b = pair
        a.sendall(_frame(proto.MSG_PING, b"", magic=b"XXXX"))
        with pytest.raises(ProtocolError, match="magic"):
            proto.recv_msg(b, timeout=5.0)

    def test_version_mismatch(self, pair):
        a, b = pair
        a.sendall(_frame(proto.MSG_PING, b"", version=proto.PROTO_VERSION + 1))
        with pytest.raises(ProtocolError, match="version mismatch"):
            proto.recv_msg(b, timeout=5.0)

    def test_checksum_mismatch(self, pair):
        a, b = pair
        import pickle

        body = pickle.dumps({"shard_id": 0})
        a.sendall(_frame(proto.MSG_RESULT, body, crc=zlib.crc32(body) ^ 0xFF))
        with pytest.raises(ProtocolError, match="checksum"):
            proto.recv_msg(b, timeout=5.0)

    def test_oversize_length_rejected_before_alloc(self, pair):
        a, b = pair
        a.sendall(_frame(proto.MSG_TASK, b"", length=proto.MAX_PAYLOAD_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            proto.recv_msg(b, timeout=5.0)

    def test_eof_before_header(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionClosed):
            proto.recv_msg(b, timeout=5.0)

    def test_eof_mid_header(self, pair):
        a, b = pair
        a.sendall(proto.HEADER.pack(
            proto.MAGIC, proto.PROTO_VERSION, proto.MSG_PING, 0, 0)[:7])
        a.close()
        with pytest.raises(ConnectionClosed):
            proto.recv_msg(b, timeout=5.0)

    def test_eof_mid_payload(self, pair):
        a, b = pair
        import pickle

        body = pickle.dumps(list(range(1000)))
        a.sendall(_frame(proto.MSG_TASK, body)[: proto.HEADER.size + 10])
        a.close()
        with pytest.raises(ConnectionClosed):
            proto.recv_msg(b, timeout=5.0)

    def test_timeout_propagates(self, pair):
        _, b = pair
        with pytest.raises(socket.timeout):
            proto.recv_msg(b, timeout=0.05)


class TestHandshake:
    def test_handshake_exchanges_pids(self, pair):
        a, b = pair
        results = {}

        def server():
            results["server"] = proto.server_handshake(b, timeout=5.0)

        t = threading.Thread(target=server)
        t.start()
        results["client"] = proto.client_handshake(a, timeout=5.0)
        t.join()
        import os

        assert results["client"]["proto"] == proto.PROTO_VERSION
        assert results["server"]["proto"] == proto.PROTO_VERSION
        assert results["client"]["pid"] == os.getpid()
        assert results["server"]["pid"] == os.getpid()

    def test_client_rejects_non_hello(self, pair):
        a, b = pair
        proto.send_msg(b, proto.MSG_PONG)
        with pytest.raises(ProtocolError, match="HELLO"):
            proto.client_handshake(a, timeout=5.0)

    def test_server_rejects_version_skew(self, pair):
        a, b = pair
        import pickle

        body = pickle.dumps({"proto": proto.PROTO_VERSION + 1, "pid": 1})
        # header speaks the current version so the skew is caught by the
        # HELLO payload check, not the per-frame header check
        a.sendall(_frame(proto.MSG_HELLO, body))
        with pytest.raises(ProtocolError, match="version mismatch"):
            proto.server_handshake(b, timeout=5.0)

    def test_server_refuses_v3_peer(self, pair):
        """v4 changed the TASK engine spec, so a v3 coordinator (which
        sends ``kind`` specs) is refused by its first frame."""
        assert proto.PROTO_VERSION == 4
        a, b = pair
        a.sendall(_frame(proto.MSG_HELLO, b"", version=3))
        with pytest.raises(ProtocolError, match="peer speaks v3"):
            proto.server_handshake(b, timeout=5.0)

    def test_server_rejects_malformed_hello(self, pair):
        a, b = pair
        proto.send_msg(a, proto.MSG_HELLO, {"pid": 3})
        with pytest.raises(ProtocolError, match="malformed"):
            proto.server_handshake(b, timeout=5.0)

    def test_header_struct_is_sixteen_bytes(self):
        assert proto.HEADER.size == 16
        assert proto.HEADER.format == ">4sHHII"
        with pytest.raises(struct.error):
            proto.HEADER.unpack(b"short")
