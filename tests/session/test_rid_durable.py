"""Durable rid dedup: exactly-once across process death.

Satellite of the fleet PR: a mutation's ``rid`` now rides *inside* the
journal entry it produces, so the dedup that used to live only in the
server's in-memory response cache survives a worker kill — recovery
rebuilds the applied-rid set from the journal, and a retried mutation
replays as a reconstructed response instead of applying twice.
"""

import pytest

from repro.session.session import Session


def build(directory):
    session = Session("rids", directory=str(directory))
    session.make_variable("x", 1)
    return session


class TestRidInJournal:
    def test_assign_journals_the_rid(self, tmp_path):
        session = build(tmp_path)
        session.pending_rid = "c1:7"
        assert session.assign("v:x", 5)
        entry = session.rid_entry("c1:7")
        assert entry is not None
        assert entry["op"] == "assign"
        assert entry["rid"] == "c1:7"
        # pending_rid is consumed by exactly one journal append
        assert session.pending_rid is None
        session.assign("v:x", 6)
        assert session.rid_entry("c1:7")["seq"] == entry["seq"]
        session.close()

    def test_rid_is_in_the_journal_bytes(self, tmp_path):
        import os
        session = build(tmp_path)
        session.pending_rid = "c1:9"
        session.assign("v:x", 5)
        session.close()
        (segment,) = [os.path.join(tmp_path, name)
                      for name in os.listdir(tmp_path)
                      if name.startswith("wal-")]
        assert b'"rid":"c1:9"' in open(segment, "rb").read()

    def test_batch_journals_the_rid_once(self, tmp_path):
        session = build(tmp_path)
        session.make_variable("y")
        session.pending_rid = "c1:8"
        assert session.assign_many([("v:x", 5), ("v:y", 6)])
        entry = session.rid_entry("c1:8")
        assert entry["op"] == "batch"
        assert len(entry["entries"]) == 2
        session.close()

    def test_unjournaled_mutation_leaves_no_rid(self, tmp_path):
        session = Session("rids", directory=str(tmp_path))
        session.pending_rid = "c1:10"
        assert not session.undo()  # nothing to undo — not journaled
        assert session.rid_entry("c1:10") is None
        session.close()


class TestRecoveryRebuild:
    def test_applied_rids_survive_reopen(self, tmp_path):
        session = build(tmp_path)
        session.pending_rid = "c2:1"
        session.assign("v:x", 42)
        session.close()

        recovered = Session("rids", directory=str(tmp_path))
        entry = recovered.rid_entry("c2:1")
        assert entry is not None
        assert entry["op"] == "assign"
        assert entry["value"] == 42
        assert recovered.rid_entry("never-seen") is None
        recovered.close()

    def test_rid_cache_is_bounded(self, tmp_path):
        from repro.session.session import _RID_JOURNAL_CACHE

        session = build(tmp_path)
        for index in range(_RID_JOURNAL_CACHE + 10):
            session.pending_rid = f"c3:{index}"
            session.assign("v:x", index)
        assert session.rid_entry("c3:0") is None  # evicted, oldest first
        assert session.rid_entry(
            f"c3:{_RID_JOURNAL_CACHE + 9}") is not None
        session.close()


class TestServerReplay:
    """The server answers a replayed rid from the journal after the
    in-memory cache died (session close stands in for process death —
    chaos/fleet smokes cover the real SIGKILL)."""

    @pytest.fixture()
    def server(self, tmp_path):
        from repro.fleet.runner import ServerThread

        with ServerThread(str(tmp_path), fsync="never") as thread:
            yield thread

    def test_retried_assign_replays_not_reapplies(self, server):
        with server.client() as client:
            handle = client.session("alpha")
            handle.make_var("x", 1)
            first = client.call("assign", session="alpha", var="v:x",
                                value=5, just="USER", rid="rid-A")
            assert first["accepted"] and "replayed" not in first
            position = handle.fingerprint(stats=False)["position"]
            # forget the in-memory rid cache, keep the journal
            handle.close()
            client.call("open", session="alpha")
            replay = client.call("assign", session="alpha", var="v:x",
                                 value=5, just="USER", rid="rid-A")
            assert replay["replayed"] is True
            assert replay["accepted"] is True
            assert replay["value"] == 5
            after = client.session("alpha").fingerprint(stats=False)
            assert after["position"] == position, \
                "replayed rid must not re-apply the mutation"

    def test_retried_batch_replays_with_entry_states(self, server):
        with server.client() as client:
            handle = client.session("beta")
            handle.make_var("x")
            handle.make_var("y")
            first = client.call(
                "assign-many", session="beta",
                entries=[{"var": "v:x", "value": 1},
                         {"var": "v:y", "value": 2}],
                just="USER", rid="rid-B")
            assert first["accepted"]
            position = handle.fingerprint(stats=False)["position"]
            handle.close()
            client.call("open", session="beta")
            replay = client.call(
                "assign-many", session="beta",
                entries=[{"var": "v:x", "value": 1},
                         {"var": "v:y", "value": 2}],
                just="USER", rid="rid-B")
            assert replay["replayed"] is True
            values = {entry["var"]: entry["value"]
                      for entry in replay["entries"]}
            assert values == {"v:x": 1, "v:y": 2}
            after = client.session("beta").fingerprint(stats=False)
            assert after["position"] == position

    def test_fresh_rid_still_applies(self, server):
        with server.client() as client:
            handle = client.session("gamma")
            handle.make_var("x", 1)
            handle.close()
            client.call("open", session="gamma")
            result = client.call("assign", session="gamma", var="v:x",
                                 value=9, just="USER", rid="rid-C")
            assert "replayed" not in result
            assert client.session("gamma").value("v:x") == 9

    # -- rejected requests replay as the violation they got ---------------

    def _bounded(self, client, name):
        """A session with ``x <= 10`` and a free ``y``."""
        handle = client.session(name)
        handle.make_var("x")
        handle.make_var("y")
        handle.add_constraint("upper-bound", ["v:x"], params={"bound": 10})
        return handle

    @staticmethod
    def _error(client, cmd, **fields):
        from repro.session.client import ServerError

        with pytest.raises(ServerError) as caught:
            client.call(cmd, **fields)
        return caught.value

    @staticmethod
    def _reopen(client, handle, name):
        handle.close()
        client.call("open", session=name)

    def test_rejected_assign_replays_its_violation(self, server):
        with server.client() as client:
            handle = self._bounded(client, "delta")
            request = dict(session="delta", var="v:x", value=50,
                           just="USER", rid="rid-D")
            live = self._error(client, "assign", **request)
            assert live.kind == "violation"
            position = handle.fingerprint(stats=False)["position"]
            self._reopen(client, handle, "delta")
            replay = self._error(client, "assign", **request)
            assert (replay.kind, str(replay), replay.detail) \
                == (live.kind, str(live), live.detail)
            assert live.detail is not None
            assert handle.value("v:x") is None
            assert handle.fingerprint(stats=False)["position"] == position

    def test_rejected_batch_replays_its_violation(self, server):
        with server.client() as client:
            handle = self._bounded(client, "epsilon")
            request = dict(session="epsilon", just="USER", rid="rid-E",
                           entries=[{"var": "v:x", "value": 60},
                                    {"var": "v:y", "value": 1}])
            live = self._error(client, "assign-many", **request)
            assert live.kind == "violation"
            self._reopen(client, handle, "epsilon")
            replay = self._error(client, "assign-many", **request)
            assert (replay.kind, str(replay), replay.detail) \
                == (live.kind, str(live), live.detail)
            assert handle.value("v:y") is None

    def test_what_if_commit_replays_per_entry_acceptance(self, server):
        with server.client() as client:
            handle = self._bounded(client, "zeta")
            request = dict(session="zeta", just="USER", rid="rid-Z",
                           entries=[{"var": "v:x", "value": 5},
                                    {"var": "v:x", "value": 50},
                                    {"var": "v:y", "value": 7}])
            live = client.call("what-if-commit", **request)
            assert [entry["accepted"] for entry in live["entries"]] \
                == [True, False, True]
            self._reopen(client, handle, "zeta")
            replay = client.call("what-if-commit", **request)
            assert replay["replayed"] is True
            assert [entry["accepted"] for entry in replay["entries"]] \
                == [True, False, True]
            assert (replay["committed"], replay["coalesced"]) \
                == (live["committed"], live["coalesced"])

    def test_replayed_batch_reports_its_coalesced_count(self, server):
        with server.client() as client:
            handle = self._bounded(client, "eta")
            request = dict(session="eta", just="USER", rid="rid-H",
                           entries=[{"var": "v:x", "value": 1},
                                    {"var": "v:x", "value": 2}])
            live = client.call("assign-many", **request)
            assert live["coalesced"] == 1
            self._reopen(client, handle, "eta")
            replay = client.call("assign-many", **request)
            assert replay["replayed"] is True
            assert replay["coalesced"] == live["coalesced"]

    def test_rejected_connect_replays_its_violation(self, server):
        with server.client() as client:
            handle = client.session("iota")
            handle.define_cell("INV")
            handle.define_signal("INV", "a", "in")
            handle.define_cell("TOP")
            handle.define_signal("TOP", "in1", "in")
            handle.instantiate("TOP", "INV", "u1")
            handle.assign("c:TOP:in1.bitWidth", 16)
            handle.assign("c:INV:a.bitWidth", 8)
            handle.add_net("TOP", "n0")
            handle.connect("TOP", "n0", "in1")
            request = dict(session="iota", cell="TOP", net="n0",
                           signal="a", instance="u1", rid="rid-I")
            live = self._error(client, "connect", **request)
            assert live.kind == "violation"
            self._reopen(client, handle, "iota")
            replay = self._error(client, "connect", **request)
            assert (replay.kind, str(replay), replay.detail) \
                == (live.kind, str(live), live.detail)

    def test_rejection_outlives_the_response_cache(self, server):
        from repro.session.server import _RID_CACHE_SIZE

        with server.client() as client:
            self._bounded(client, "theta")
            request = dict(session="theta", var="v:x", value=50,
                           just="USER", rid="rid-T")
            live = self._error(client, "assign", **request)
            for index in range(_RID_CACHE_SIZE + 1):
                client.call("assign", session="theta", var="v:y",
                            value=index, just="USER", rid=f"fill-{index}")
            replay = self._error(client, "assign", **request)
            assert (replay.kind, str(replay), replay.detail) \
                == (live.kind, str(live), live.detail)
