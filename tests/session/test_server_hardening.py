"""Server hardening: frame limits, connection limits, health, retries.

Runs a real ``repro serve`` subprocess (with the hardening flags) and, for
the fault tests, interposes a :class:`StreamFaultProxy` so frames can be
dropped and connections reset deterministically between a real client and
the real server.
"""

import json
import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile

import pytest

from repro.faults import FaultPlan, StreamFaultProxy
from repro.session.client import ServerError, SessionClient
from repro.session.server import SessionServer, _Connection


def start_server(*extra):
    root = tempfile.mkdtemp(prefix="repro-harden-test-")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", root,
         "--fsync", "never", "--max-frame-bytes", "4096",
         "--max-connections", "8", *extra],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"unexpected server banner: {line!r}"
    return proc, root, match.group(1), int(match.group(2))


@pytest.fixture(scope="module")
def server():
    proc, root, host, port = start_server()
    yield host, port
    proc.terminate()
    proc.wait(timeout=10)
    shutil.rmtree(root, ignore_errors=True)


def raw_connection(server):
    sock = socket.create_connection(server, timeout=10)
    return sock, sock.makefile("rwb")


class TestFrameLimit:
    def test_oversized_frame_answers_and_keeps_connection(self, server):
        sock, file = raw_connection(server)
        try:
            file.write(b"x" * 10000 + b"\n")
            file.flush()
            response = json.loads(file.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
            assert "4096" in response["error"]["message"]
            # The connection survives and stays frame-aligned.
            file.write(b'{"id": 7, "cmd": "ping"}\n')
            file.flush()
            response = json.loads(file.readline())
            assert response["id"] == 7 and response["ok"] is True
        finally:
            sock.close()

    def test_oversized_frame_without_newline_yet(self, server):
        """The limit triggers while the frame is still buffering — the
        server must not buffer unboundedly waiting for the newline."""
        sock, file = raw_connection(server)
        try:
            file.write(b"y" * 9000)  # no newline: still "one frame"
            file.flush()
            response = json.loads(file.readline())
            assert response["error"]["type"] == "bad-request"
            file.write(b"tail-of-oversized-frame\n")  # now finish it
            file.write(b'{"id": 1, "cmd": "ping"}\n')
            file.flush()
            response = json.loads(file.readline())
            assert response["id"] == 1 and response["ok"] is True
        finally:
            sock.close()


def read_frames(file, count):
    return [json.loads(file.readline()) for _ in range(count)]


class TestFraming:
    def test_frames_in_one_write_answer_in_order(self, server):
        sock, file = raw_connection(server)
        try:
            sock.sendall(
                b'{"id": 1, "cmd": "make-var", "session": "burst", '
                b'"name": "x", "value": 1}\n'
                b'{"id": 2, "cmd": "assign", "session": "burst", '
                b'"var": "v:x", "value": 2}\n'
                b'{"id": 3, "cmd": "get", "session": "burst", '
                b'"var": "v:x"}\n')
            replies = read_frames(file, 3)
            assert [reply["id"] for reply in replies] == [1, 2, 3]
            assert all(reply["ok"] for reply in replies)
            assert replies[2]["result"]["value"] == 2
        finally:
            sock.close()

    def test_frame_sent_a_byte_at_a_time_gets_one_reply(self, server):
        sock, file = raw_connection(server)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in b'{"id": 5, "cmd": "ping"}\n':
                sock.sendall(bytes([byte]))
            sock.sendall(b'{"id": 6, "cmd": "ping"}\n')
            assert [reply["id"] for reply in read_frames(file, 2)] == [5, 6]
        finally:
            sock.close()

    def test_oversized_and_valid_frame_in_one_write(self, server):
        sock, file = raw_connection(server)
        try:
            sock.sendall(b"z" * 5000 + b"\n" + b'{"id": 4, "cmd": "ping"}\n')
            oversized, valid = read_frames(file, 2)
            assert oversized["id"] is None
            assert oversized["error"]["type"] == "bad-request"
            assert valid["id"] == 4 and valid["ok"] is True
        finally:
            sock.close()


class _StubTransport:
    """Records what a connection writes and whether it reads; while
    ``full``, every write fills the buffer past its high-water mark."""

    def __init__(self, connection):
        self.connection = connection
        self.written = []
        self.reading = True
        self.full = False

    def write(self, data):
        self.written.append(json.loads(data)["id"])
        if self.full:
            self.connection.pause_writing()

    def is_closing(self):
        return False

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def stub_connection(tmp_path):
    connection = _Connection(SessionServer(str(tmp_path)))
    transport = _StubTransport(connection)
    connection.connection_made(transport)
    return connection, transport


PINGS = b"".join(b'{"id": %d, "cmd": "ping"}\n' % index
                 for index in (1, 2, 3))


class TestFlowControl:
    def test_paused_connection_answers_only_after_resume(self, tmp_path):
        connection, transport = stub_connection(tmp_path)
        connection.pause_writing()
        assert transport.reading is False
        connection.data_received(PINGS)
        assert transport.written == []
        connection.resume_writing()
        assert transport.reading is True
        assert transport.written == [1, 2, 3]

    def test_pause_during_a_burst_holds_the_rest(self, tmp_path):
        """A reply that fills the write buffer stops the burst, so the
        buffer never grows past one reply over its high-water mark."""
        connection, transport = stub_connection(tmp_path)
        transport.full = True
        connection.data_received(PINGS)
        assert transport.written == [1]
        assert transport.reading is False
        transport.full = False
        connection.resume_writing()
        assert transport.written == [1, 2, 3]


class TestRidValidation:
    def test_non_string_rid_does_not_wedge_the_session(self, server):
        """A rejected rid must leave no trace: the 65th request on the
        session is served like the first."""
        sock, file = raw_connection(server)

        def call(frame):
            sock.sendall(json.dumps(frame).encode() + b"\n")
            return json.loads(file.readline())

        try:
            assert call({"id": 1, "cmd": "make-var", "session": "wedge",
                         "name": "x"})["ok"] is True
            for index in range(64):
                reply = call({"id": 2 + index, "cmd": "assign",
                              "session": "wedge", "var": "v:x",
                              "value": index, "rid": 7})
                assert reply["error"]["type"] == "bad-request"
            reply = call({"id": 100, "cmd": "assign", "session": "wedge",
                          "var": "v:x", "value": 5})
            assert reply["ok"] is True, reply
            reply = call({"id": 101, "cmd": "get", "session": "wedge",
                          "var": "v:x"})
            assert reply["ok"] is True, reply
            assert reply["result"]["value"] == 5
        finally:
            sock.close()


class TestConnectionLimit:
    def test_excess_connection_gets_graceful_overloaded_frame(self, server):
        held = [raw_connection(server) for _ in range(8)]
        # Ensure all eight are registered server-side before the ninth.
        for _sock, file in held:
            file.write(b'{"id": 1, "cmd": "ping"}\n')
            file.flush()
            assert json.loads(file.readline())["ok"] is True
        try:
            sock, file = raw_connection(server)
            try:
                response = json.loads(file.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "overloaded"
                assert file.readline() == b""  # then the server closes
            finally:
                sock.close()
        finally:
            for sock, _file in held:
                sock.close()


class TestHealth:
    def test_health_reports_status_and_load(self, server):
        host, port = server
        with SessionClient(host, port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["degraded"] == []
            assert health["connections"] >= 1
            assert health["in_flight"] >= 1  # this very request
            assert health["draining"] is False


class TestClientLifecycle:
    def test_close_is_idempotent(self, server):
        host, port = server
        client = SessionClient(host, port)
        client.close()
        client.close()  # second close must be a no-op, not a crash

    def test_close_after_connection_loss_is_safe(self, server):
        host, port = server
        plan = FaultPlan()
        plan.reset("c2s", nth=1)
        with StreamFaultProxy(host, port, plan) as proxy:
            client = SessionClient(proxy.host, proxy.port, timeout=5)
            with pytest.raises((ConnectionError, OSError)):
                client.call("ping")
            client.close()
            client.close()

    def test_failed_connect_raises_oserror_not_attributeerror(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            SessionClient("127.0.0.1", free_port, timeout=1)


class TestRetries:
    def test_dropped_response_retries_exactly_once(self, server):
        """The server applies a mutation, the response frame dies on the
        wire, the client retries — the rid cache must replay the original
        response instead of applying the mutation twice."""
        host, port = server
        plan = FaultPlan()
        # s2c frame 4 is the response to the assign
        # (1: open, 2: make-var, 3: the first fingerprint).
        plan.drop("s2c", nth=4)
        with StreamFaultProxy(host, port, plan) as proxy:
            client = SessionClient(proxy.host, proxy.port, timeout=1,
                                   retries=4, backoff=0.01, retry_seed=1)
            try:
                handle = client.session("retry-once")
                handle.make_var("x", 0)
                before = handle.fingerprint(stats=False)["position"]
                handle.assign("v:x", 5)  # response dropped, then retried
                after = handle.fingerprint(stats=False)["position"]
                assert handle.value("v:x") == 5
                assert after == before + 1, "retried mutation applied twice"
            finally:
                client.close()
        assert plan.fired("s2c") == 1

    def test_connection_reset_mid_request_retries_transparently(self, server):
        host, port = server
        plan = FaultPlan()
        plan.reset("c2s", nth=4)  # kill the link under the make-var request
        with StreamFaultProxy(host, port, plan) as proxy:
            client = SessionClient(proxy.host, proxy.port, timeout=2,
                                   retries=4, backoff=0.01, retry_seed=2)
            try:
                handle = client.session("retry-reset")
                handle.make_var("y", 1)
                handle.assign("v:y", 9)
                assert handle.value("v:y") == 9
            finally:
                client.close()

    def test_violation_is_never_retried(self, server):
        host, port = server
        with SessionClient(host, port, retries=5, backoff=0.01) as client:
            handle = client.session("retry-viol")
            handle.make_var("z")
            handle.add_constraint("upper-bound", ["v:z"],
                                  params={"bound": 10})
            with pytest.raises(ServerError) as info:
                handle.assign("v:z", 50)
            assert info.value.kind == "violation"
            # Retried violations would append duplicate violation records.
            assert len(handle.violations()) == 1


class TestShutdownDrain:
    def test_shutdown_answers_before_closing(self):
        proc, root, host, port = start_server("--drain-timeout", "2")
        try:
            with SessionClient(host, port) as client:
                handle = client.session("drain")
                handle.make_var("x", 1)
                client.shutdown()  # response must arrive, not be cut off
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)
            shutil.rmtree(root, ignore_errors=True)
