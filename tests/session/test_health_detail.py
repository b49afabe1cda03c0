"""Health frame detail: per-session degraded names and connections.

Satellite of the fleet PR: the ``health`` frame now carries which open
sessions are degraded (and why) plus the live connection count — the
fleet router keys per-session failover decisions off exactly these
fields.
"""

import pytest

from repro.faults import FaultPlan
from repro.fleet.runner import ServerThread
from repro.session.client import ServerError, SessionClient
from repro.store import FileStore


@pytest.fixture()
def faulty_server(tmp_path):
    plan = FaultPlan()
    thread = ServerThread(str(tmp_path), fsync="always",
                          store=FileStore(str(tmp_path), plan=plan))
    with thread:
        yield thread, plan


class TestHealthDetail:
    def test_healthy_frame_shape(self, faulty_server):
        thread, _plan = faulty_server
        with thread.client() as client:
            client.session("alpha").make_var("x", 1)
            health = client.health()
            assert health["status"] == "ok"
            assert health["degraded"] == []
            assert health["degraded_detail"] == {}
            assert health["open_sessions"] == ["alpha"]
            assert health["connections"] >= 1

    def test_degraded_session_is_named_with_its_error(self, faulty_server):
        thread, plan = faulty_server
        with thread.client() as client:
            alpha = client.session("alpha")
            beta = client.session("beta")
            alpha.make_var("x", 1)
            beta.make_var("x", 1)
            plan.enospc("write", pattern="*alpha*wal-*")
            with pytest.raises(ServerError) as info:
                alpha.assign("v:x", 9)
            assert info.value.kind == "degraded"
            health = client.health()
            assert health["status"] == "degraded"
            assert health["degraded"] == ["alpha"]
            assert list(health["degraded_detail"]) == ["alpha"]
            assert health["degraded_detail"]["alpha"]  # the why
            # the healthy session keeps mutating and stays unnamed
            beta.assign("v:x", 2)
            assert client.health()["degraded"] == ["alpha"]

    def test_connection_count_tracks_live_clients(self, faulty_server):
        thread, _plan = faulty_server
        with thread.client() as first:
            base = first.health()["connections"]
            extra = SessionClient(thread.host, thread.port)
            try:
                # The server registers a connection when its handler
                # starts, not at TCP accept — round-trip one request on
                # the new client so the count is observable.
                extra.health()
                assert first.health()["connections"] == base + 1
            finally:
                extra.close()

    def test_worker_identity_fields_merge_into_health(self, tmp_path):
        """A fleet worker stamps its id into ``server.info``; the base
        health command must carry such fields verbatim."""
        thread = ServerThread(str(tmp_path), fsync="never")
        thread.server.info = {"worker": "w7", "role": "worker"}
        with thread:
            with thread.client() as client:
                health = client.health()
                assert health["worker"] == "w7"
                assert health["role"] == "worker"
