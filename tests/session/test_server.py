"""Server protocol and concurrency: ≥8 isolated clients, error frames."""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading

import pytest

from repro.session.client import ServerError, SessionClient


@pytest.fixture(scope="module")
def server():
    """One `repro serve` subprocess for the whole module (fsync=never —
    these tests exercise the protocol, not durability)."""
    root = tempfile.mkdtemp(prefix="repro-server-test-")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", root,
         "--fsync", "never"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"unexpected server banner: {line!r}"
    yield match.group(1), int(match.group(2))
    proc.terminate()
    proc.wait(timeout=10)
    shutil.rmtree(root, ignore_errors=True)


def client_of(server):
    host, port = server
    return SessionClient(host, port)


class TestProtocol:
    def test_ping(self, server):
        with client_of(server) as client:
            assert client.ping()

    def test_unknown_cmd_is_bad_request_frame(self, server):
        with client_of(server) as client:
            with pytest.raises(ServerError) as info:
                client.call("frobnicate")
            assert info.value.kind == "bad-request"

    def test_unknown_address_is_graceful(self, server):
        with client_of(server) as client:
            with pytest.raises(ServerError) as info:
                client.call("get", session="proto", var="v:nope")
            assert info.value.kind == "bad-request"

    def test_malformed_json_does_not_kill_connection(self, server):
        with client_of(server) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            import json
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "bad-request"
            assert client.ping()  # connection still usable

    def test_violation_frame_carries_detail_and_restores(self, server):
        with client_of(server) as client:
            handle = client.session("proto-viol")
            handle.make_var("x")
            handle.add_constraint("upper-bound", ["v:x"],
                                  params={"bound": 10})
            with pytest.raises(ServerError) as info:
                handle.assign("v:x", 50)
            assert info.value.kind == "violation"
            assert info.value.detail["constraint"] == "c1"
            assert handle.value("v:x") is None  # network restored

    def test_undo_redo_checkpoint_over_the_wire(self, server):
        with client_of(server) as client:
            handle = client.session("proto-undo")
            handle.make_var("x", 1)
            handle.make_var("y")
            handle.add_constraint("equality", ["v:x", "v:y"])
            handle.assign("v:x", 2)
            assert handle.undo()
            assert handle.value("v:x") == 1
            assert handle.redo()
            assert handle.value("v:x") == 2
            # a retract erases y with its source, and its undo survives
            # a reopen
            before = handle.fingerprint(stats=False)
            handle.retract("v:x")
            assert handle.value("v:y") is None
            handle.close()
            handle.open()
            assert handle.value("v:x") is None
            assert handle.undo()
            assert handle.get("v:y") == {"value": 2,
                                         "just": "propagated:c1"}
            after = handle.fingerprint(stats=False)
            assert after["variables"] == before["variables"]
            result = handle.checkpoint()
            assert result["path"]
            assert not handle.undo()  # checkpoint clears the window

    def test_structural_commands(self, server):
        with client_of(server) as client:
            handle = client.session("proto-cells")
            handle.define_cell("INV")
            handle.define_signal("INV", "a", "in")
            handle.define_signal("INV", "z", "out")
            handle.declare_delay("INV", "a", "z", estimate=5.0)
            handle.add_parameter("INV", "w", low=1, high=10, default=2)
            handle.define_cell("TOP")
            handle.instantiate("TOP", "INV", "u1")
            assert handle.value("i:TOP:u1:w") == 2
            handle.assign("i:TOP:u1:w", 7)
            assert handle.value("i:TOP:u1:w") == 7
            # a net ties TOP's input width to the instance's
            handle.define_signal("TOP", "in1", "in")
            handle.add_net("TOP", "n0")
            handle.connect("TOP", "n0", "in1")
            handle.connect("TOP", "n0", "a", instance="u1")
            handle.assign("c:INV:a.bitWidth", 8)
            assert handle.get("c:TOP:in1.bitWidth") \
                == {"value": 8, "just": "propagated:EqualityConstraint"}
            with pytest.raises(ServerError) as info:
                handle.assign("c:TOP:in1.bitWidth", 16)
            assert info.value.kind == "violation"


class TestConcurrency:
    N_CLIENTS = 10

    def test_concurrent_clients_with_per_session_isolation(self, server):
        """≥8 concurrent clients, each driving its own session through
        assigns, a violation, undo and checkpoint — no cross-session
        value leakage, every final state correct."""
        errors = []
        results = {}

        def drive(k):
            try:
                with client_of(server) as client:
                    handle = client.session(f"worker{k}")
                    handle.make_var("x")
                    handle.make_var("y")
                    handle.make_var("total")
                    handle.add_constraint(
                        "sum", ["v:total", "v:x", "v:y"])
                    for i in range(25):
                        handle.assign("v:x", i * (k + 1))
                        handle.assign("v:y", i + k)
                    handle.undo()          # y back to 23 + k
                    handle.checkpoint()
                    results[k] = (handle.value("v:x"),
                                  handle.value("v:y"),
                                  handle.value("v:total"))
            except Exception as error:  # surface in the main thread
                errors.append((k, error))

        threads = [threading.Thread(target=drive, args=(k,))
                   for k in range(self.N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(results) == self.N_CLIENTS
        for k, (x, y, total) in results.items():
            assert x == 24 * (k + 1), f"worker{k} x leaked"
            assert y == 23 + k, f"worker{k} y leaked"
            assert total == x + y

    def test_interleaved_requests_on_one_session_serialize(self, server):
        with client_of(server) as c1, client_of(server) as c2:
            h1 = c1.session("shared")
            h2 = c2.session("shared")
            h1.make_var("counter", 0)
            done = []

            def bump(handle, n):
                for _ in range(n):
                    current = handle.value("v:counter")
                    handle.assign("v:counter", current + 1)
                done.append(True)

            # Same session from two connections: the per-session lock
            # serializes each request; the final value reflects both
            # writers having been applied in *some* order.
            t1 = threading.Thread(target=bump, args=(h1, 10))
            t2 = threading.Thread(target=bump, args=(h2, 10))
            t1.start(); t2.start()
            t1.join(timeout=30); t2.join(timeout=30)
            assert len(done) == 2
            final = h1.value("v:counter")
            assert 10 <= final <= 20  # read-modify-write races are the
            # client's problem; the server guarantees per-op atomicity
