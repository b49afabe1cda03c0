"""The what-if / what-if-commit wire commands: computation spaces
over the session protocol — previews journal nothing, commits land as
one batch frame with rid-keyed exactly-once retry."""

import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.session.client import ServerError, SessionClient


@pytest.fixture(scope="module")
def server():
    root = tempfile.mkdtemp(prefix="repro-server-whatif-")
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


def bounded_session(client, name):
    handle = client.session(name)
    handle.make_var("x")
    handle.make_var("y")
    handle.add_constraint("equality", ["v:x", "v:y"])
    handle.add_constraint("upper-bound", ["v:x"], params={"bound": 10})
    return handle


class TestWhatIf:
    def test_preview_reports_outcome_and_changes_nothing(self, server):
        with client_of(server) as client:
            handle = bounded_session(client, "wi-preview")
            fingerprint = client.call("fingerprint", session="wi-preview")
            before = client.call("stats", session="wi-preview")
            result = handle.what_if([("v:x", 5), ("v:y", 99)])
            assert [(entry["var"], entry["accepted"], entry["value"])
                    for entry in result["entries"]] == \
                   [("v:x", True, 5), ("v:y", False, 5)]
            assert result["violations"] == 1
            assert result["position"] == before["position"]
            # The live session is untouched: values, stats, position.
            assert handle.value("v:x") is None
            after = client.call("stats", session="wi-preview")
            assert after == before
            assert client.call("fingerprint",
                               session="wi-preview") == fingerprint

    def test_preview_shows_propagated_consequences(self, server):
        with client_of(server) as client:
            handle = bounded_session(client, "wi-propagate")
            result = handle.what_if([("v:x", 5)])
            # Inside the space x=5 propagated into y; the echo shows the
            # value as seen in the space.
            assert result["entries"][0]["value"] == 5
            assert handle.value("v:y") is None


class TestWhatIfCommit:
    def test_accepted_entries_commit_as_one_batch(self, server):
        with client_of(server) as client:
            handle = bounded_session(client, "wic-basic")
            before = client.call("stats", session="wic-basic")
            result = handle.what_if_commit([("v:x", 5)])
            assert result["accepted"] is True
            assert result["committed"] == 1
            assert result["position"] == before["position"] + 1  # ONE frame
            assert handle.value("v:x") == 5
            assert handle.value("v:y") == 5

    def test_rejected_entries_dropped_not_fatal(self, server):
        """Unlike assign-many, a violating entry prunes itself instead
        of aborting the whole batch."""
        with client_of(server) as client:
            handle = bounded_session(client, "wic-drop")
            result = handle.what_if_commit([("v:x", 99), ("v:x", 7)])
            assert result["accepted"] is True
            assert result["committed"] == 1
            flags = [entry["accepted"] for entry in result["entries"]]
            assert flags == [False, True]
            assert handle.value("v:x") == 7

    def test_all_rejected_commits_nothing(self, server):
        with client_of(server) as client:
            handle = bounded_session(client, "wic-empty")
            before = client.call("stats", session="wic-empty")
            result = handle.what_if_commit([("v:x", 99)])
            assert result["accepted"] is True
            assert result["committed"] == 0
            assert result["position"] == before["position"]  # no frame
            assert handle.value("v:x") is None

    def test_retry_with_same_rid_applies_once(self, server):
        with client_of(server) as client:
            handle = bounded_session(client, "wic-rid")
            entries = [{"var": "v:x", "value": 7}]
            rid = f"{client.client_id}:wic-dedup"
            first = client.call("what-if-commit", session="wic-rid",
                                entries=entries, rid=rid)
            before = client.call("stats", session="wic-rid")
            replay = client.call("what-if-commit", session="wic-rid",
                                 entries=entries, rid=rid)
            after = client.call("stats", session="wic-rid")
            assert replay == first
            assert after["stats"]["rounds"] == before["stats"]["rounds"]
            assert after["position"] == before["position"]

    def test_bad_request_frames(self, server):
        with client_of(server) as client:
            client.session("wic-bad")
            for payload in ("not-a-list", [{"value": 1}]):
                with pytest.raises(ServerError) as info:
                    client.call("what-if-commit", session="wic-bad",
                                entries=payload)
                assert info.value.kind == "bad-request"


class TestStatsFrame:
    def test_stats_sorted_with_batch_and_island_counters(self, server):
        """The stats frame includes the batch coalescing counter and the
        island partition, keys deterministically sorted."""
        with client_of(server) as client:
            handle = client.session("wi-stats")
            handle.make_var("x")
            handle.assign_many([("v:x", 1), ("v:x", 2)])
            stats = client.call("stats", session="wi-stats")["stats"]
            assert list(stats) == sorted(stats)
            assert stats["coalesced_assignments"] == 1
            assert stats["islands"] == stats["largest_island"] == 1
