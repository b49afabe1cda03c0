"""Router: sharded routing, failover, health aggregation, replication.

Uses :class:`repro.fleet.runner.LocalFleet` — real WorkerServers and a
real Router on loopback sockets, driven through the unmodified
:class:`SessionClient`.
"""

import asyncio
import threading

import pytest

from repro.fleet.router import WorkerLink
from repro.fleet.runner import LocalFleet
from repro.session.client import ServerError


@pytest.fixture()
def fleet(tmp_path):
    with LocalFleet(str(tmp_path), workers=3, repl_interval=0.05) as local:
        yield local


def spread_sessions(fleet, count=12, prefix="s"):
    """Session names guaranteed to land on at least two workers."""
    names = [f"{prefix}{index}" for index in range(count)]
    owners = {fleet.worker_of(name) for name in names}
    assert len(owners) > 1, "hash spread degenerate — widen the count"
    return names


class TestRouting:
    def test_sessions_shard_across_workers_transparently(self, fleet):
        names = spread_sessions(fleet)
        with fleet.client() as client:
            for index, name in enumerate(names):
                handle = client.session(name)
                handle.make_var("x", 1)
                handle.assign("v:x", index)
            for index, name in enumerate(names):
                assert client.session(name).value("v:x") == index
        # each session's journal lives under its owning worker's root
        for name in names:
            owner = fleet.worker_of(name)
            server = fleet.workers[owner]
            assert name in server.manager.names()

    def test_ping_answered_by_the_router_itself(self, fleet):
        with fleet.client() as client:
            pong = client.call("ping")
            assert pong["pong"] is True
            assert pong["router"] is True

    def test_sessions_listing_is_the_union(self, fleet):
        names = spread_sessions(fleet, count=8, prefix="u")
        with fleet.client() as client:
            for name in names:
                client.session(name).make_var("x", 1)
            listed = client.call("sessions")["sessions"]
            assert set(names) <= set(listed)

    def test_internal_commands_blocked_from_clients(self, fleet):
        with fleet.client() as client:
            client.session("blocked").make_var("x", 1)
            for command in ("repl-export", "repl-apply", "repl-position",
                            "handover"):
                with pytest.raises(ServerError) as info:
                    client.call(command, session="blocked")
                assert info.value.kind == "bad-request"

    def test_session_required_for_session_commands(self, fleet):
        with fleet.client() as client:
            with pytest.raises(ServerError) as info:
                client.call("assign", var="v:x", value=1, just="USER")
            assert info.value.kind == "bad-request"


class TestHealth:
    def test_fleet_health_aggregates_workers(self, fleet):
        with fleet.client() as client:
            client.session("h0").make_var("x", 1)
            health = client.health()
            assert health["status"] == "ok"
            assert health["role"] == "router"
            assert health["replication"] == "sync"
            assert sorted(health["workers"]) == ["w0", "w1", "w2"]
            for report in health["workers"].values():
                assert report["status"] == "ok"
            assert health["ring"] == ["w0", "w1", "w2"]
            assert health["down"] == []
            owner = fleet.worker_of("h0")
            assert "h0" in health["workers"][owner]["open_sessions"]

    def test_health_reports_a_killed_worker_down(self, fleet):
        with fleet.client() as client:
            client.session("h1").make_var("x", 1)
            victim = fleet.worker_of("h1")
            fleet.kill_worker(victim)
            # touching the victim's session trips failover first
            client.session("h1").value("v:x")
            health = client.health()
            assert victim in health["down"]
            assert health["status"] == "degraded"
            assert health["workers"][victim]["status"] == "down"

    def test_metrics_counters_present(self, fleet):
        with fleet.client() as client:
            client.session("m0").make_var("x", 1)
            client.session("m0").assign("v:x", 2)
            metrics = client.health()["metrics"]
            assert metrics["fleet.requests"] >= 2
            owner = fleet.worker_of("m0")
            assert metrics[f"fleet.worker.{owner}.requests"] >= 2
            assert metrics.get("fleet.repl.ships", 0) >= 1


class TestReplication:
    def test_sync_mode_ships_before_the_ack(self, fleet):
        with fleet.client() as client:
            handle = client.session("r0")
            handle.make_var("x", 1)
            handle.assign("v:x", 7)
            position = handle.fingerprint(stats=False)["position"]
        primary, follower = fleet.router.ring.lookup_pair("r0")
        replica = fleet.workers[follower].replica
        assert replica.verify("r0") == position

    def test_fleet_sync_reports_positions(self, fleet):
        with fleet.client() as client:
            handle = client.session("r1")
            handle.make_var("x", 1)
            position = handle.fingerprint(stats=False)["position"]
            synced = client.call("fleet-sync", session="r1")["synced"]
            primary, follower = fleet.router.ring.lookup_pair("r1")
            assert synced == {"r1": {"primary": primary,
                                     "follower": follower,
                                     "position": position}}

    def test_background_loop_catches_async_followers_up(self, tmp_path):
        with LocalFleet(str(tmp_path), workers=2, replication="async",
                        repl_interval=0.05) as fleet:
            import time

            with fleet.client() as client:
                handle = client.session("lazy")
                handle.make_var("x", 1)
                handle.assign("v:x", 3)
                position = handle.fingerprint(stats=False)["position"]
            primary, follower = fleet.router.ring.lookup_pair("lazy")
            replica = fleet.workers[follower].replica
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if replica.verify("lazy") == position:
                    break
                time.sleep(0.05)
            assert replica.verify("lazy") == position


class TestFailover:
    def test_sessions_resume_on_the_follower_after_kill(self, fleet):
        with fleet.client() as client:
            handle = client.session("f0")
            handle.make_var("x", 1)
            handle.assign("v:x", 11)
            fingerprint = handle.fingerprint()

            primary, follower = fleet.router.ring.lookup_pair("f0")
            fleet.kill_worker(primary)

            # same client, same handle — at most a retryable blip
            assert handle.fingerprint() == fingerprint
            handle.assign("v:x", 12)
            assert handle.value("v:x") == 12
            assert fleet.worker_of("f0") == follower
            metrics = client.health()["metrics"]
            assert metrics["fleet.failovers"] >= 1

    def test_retried_rid_replays_across_failover(self, fleet):
        """The exactly-once spine: a rid applied by the primary must
        answer ``replayed`` from the promoted follower, not re-apply."""
        with fleet.client() as client:
            handle = client.session("f1")
            handle.make_var("x", 1)
            first = client.call("assign", session="f1", var="v:x",
                                value=5, just="USER", rid="kill-rid")
            assert first["accepted"] and "replayed" not in first
            position = handle.fingerprint(stats=False)["position"]

            fleet.kill_worker(fleet.worker_of("f1"))

            replay = client.call("assign", session="f1", var="v:x",
                                 value=5, just="USER", rid="kill-rid")
            assert replay["replayed"] is True
            after = handle.fingerprint(stats=False)["position"]
            assert after == position, "rid re-applied after failover"
            metrics = client.health()["metrics"]
            assert metrics.get("fleet.rid_replays", 0) >= 1

    def test_all_sessions_of_the_dead_worker_move(self, fleet):
        names = spread_sessions(fleet, count=10, prefix="f2-")
        with fleet.client() as client:
            for name in names:
                client.session(name).make_var("x", len(name))
            victim = fleet.worker_of(names[0])
            moved = [name for name in names
                     if fleet.worker_of(name) == victim]
            fleet.kill_worker(victim)
            for name in names:
                assert client.session(name).value("v:x") == len(name)
            for name in moved:
                assert fleet.worker_of(name) != victim


class TestStop:
    def test_stop_returns_while_a_client_is_connected(self, tmp_path):
        """Since CPython 3.12.1 ``Server.wait_closed()`` waits for every
        connection; the router closes its clients first, so stopping
        does not wait on a client that stays connected."""
        local = LocalFleet(str(tmp_path), workers=2).start()
        client = local.client()
        try:
            client.session("held").make_var("x", 1)
            stopper = threading.Thread(target=local.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=10.0)
            assert not stopper.is_alive(), \
                "LocalFleet.stop() hung with a client connected"
        finally:
            client.close()


class TestWorkerLink:
    def test_cancel_in_the_pass_that_resolves_the_reply_propagates(self):
        """``Router.stop()`` cancels its replication loop while that loop
        waits on a worker; the cancellation must win even when the reply
        lands in the same loop pass, or ``stop()`` waits forever."""

        async def scenario():
            accepted = []

            async def silent(reader, writer):
                accepted.append(writer)
                await reader.read()  # never answers

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            link = WorkerLink("w0", "127.0.0.1",
                              server.sockets[0].getsockname()[1])
            try:
                await link._ensure()
                task = asyncio.ensure_future(link._exchange(
                    b'{"id":"x1","cmd":"ping"}\n', "x1"))
                await asyncio.sleep(0)  # parks on the reply
                link._futures["x1"].set_result(
                    b'{"id":"x1","ok":true,"result":{}}\n')
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            finally:
                await link.close()
                for writer in accepted:
                    writer.close()
                server.close()

        asyncio.run(scenario())
