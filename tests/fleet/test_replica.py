"""ReplicaStore: shipped WAL lines land in live-session layout.

The decisive property: a replica directory is opened by the ordinary
``Session`` recovery path and must reproduce the primary's fingerprint
bit-identically — replication is just "the same journal, elsewhere".
"""

import os

import pytest

from repro.fleet.replica import ReplicaError, ReplicaGap, ReplicaStore
from repro.session.journal import JournalWriter, encode_entry
from repro.session.session import Session


def ship_lines(directory):
    """All journal lines under ``directory``, as transport strings."""
    lines = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("wal-"):
            with open(os.path.join(directory, name), "rb") as handle:
                lines.extend(line[:-1].decode()
                             for line in handle if line.endswith(b"\n"))
    return lines


class TestApply:
    def test_lines_land_verbatim_and_position_advances(self, tmp_path):
        store = ReplicaStore(str(tmp_path / "replica"))
        lines = [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                               "value": seq})[:-1].decode()
                 for seq in (1, 2, 3)]
        assert store.apply("alpha", lines) == 3
        assert store.position("alpha") == 3
        assert ship_lines(store.session_dir("alpha")) == lines

    def test_reship_is_idempotent(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        lines = [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                               "value": seq})[:-1].decode()
                 for seq in (1, 2)]
        store.apply("alpha", lines)
        assert store.apply("alpha", lines) == 2  # no-op, no error
        assert ship_lines(store.session_dir("alpha")) == lines

    def test_skip_ahead_raises_gap(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        line5 = encode_entry({"op": "assign", "seq": 5, "var": "v:x",
                              "value": 0})[:-1].decode()
        with pytest.raises(ReplicaGap):
            store.apply("alpha", [line5])

    def test_corrupt_line_refused(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        with pytest.raises(ReplicaError):
            store.apply("alpha", ['00000000 {"op":"assign","seq":1}'])

    def test_rotation_honours_segment_budget(self, tmp_path):
        store = ReplicaStore(str(tmp_path), segment_max_bytes=120)
        lines = [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                               "value": seq})[:-1].decode()
                 for seq in range(1, 13)]
        store.apply("alpha", lines)
        segments = [name for name in os.listdir(store.session_dir("alpha"))
                    if name.startswith("wal-")]
        assert len(segments) > 1
        assert ship_lines(store.session_dir("alpha")) == lines


class TestStateRebuild:
    def test_position_rebuilt_from_disk(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        lines = [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                               "value": seq})[:-1].decode()
                 for seq in (1, 2, 3)]
        store.apply("alpha", lines)
        fresh = ReplicaStore(str(tmp_path))
        assert fresh.position("alpha") == 3

    def test_torn_tail_is_repaired_on_scan(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        lines = [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                               "value": seq})[:-1].decode()
                 for seq in (1, 2)]
        store.apply("alpha", lines)
        (segment,) = [os.path.join(store.session_dir("alpha"), name)
                      for name in os.listdir(store.session_dir("alpha"))
                      if name.startswith("wal-")]
        with open(segment, "ab") as handle:
            handle.write(b"deadbeef {\"to")  # torn mid-ship
        fresh = ReplicaStore(str(tmp_path))
        assert fresh.position("alpha") == 2
        line3 = encode_entry({"op": "assign", "seq": 3, "var": "v:x",
                              "value": 3})[:-1].decode()
        assert fresh.apply("alpha", [line3]) == 3
        assert ship_lines(store.session_dir("alpha")) == lines + [line3]


class TestCheckpoints:
    def test_checkpoint_supersedes_older_lines(self, tmp_path):
        """A shipped snapshot newer than everything held replaces the
        segments wholesale — recovery starts from it."""
        primary = tmp_path / "primary"
        session = Session("alpha", directory=str(primary))
        session.make_variable("x", 1)
        for value in range(5):
            session.assign("v:x", value)
        session.checkpoint()
        import json
        (ckpt,) = [os.path.join(primary, name)
                   for name in os.listdir(primary)
                   if name.startswith("ckpt-")]
        snapshot = json.load(open(ckpt))
        position = session.position
        session.close()

        store = ReplicaStore(str(tmp_path / "replica"))
        assert store.apply("alpha", [], checkpoint=snapshot) == position
        assert store.checkpoint_seq("alpha") == position
        # tail lines continue right after the snapshot
        line = encode_entry({"op": "assign", "seq": position + 1,
                             "var": "v:x", "value": 99})[:-1].decode()
        assert store.apply("alpha", [line]) == position + 1

    def test_stale_checkpoint_is_ignored(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        lines = [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                               "value": seq})[:-1].decode()
                 for seq in (1, 2, 3)]
        store.apply("alpha", lines)
        store.apply("alpha", [], checkpoint={"seq": 2, "stale": True})
        store.apply("alpha", [], checkpoint={"seq": 2, "stale": True})
        assert store.position("alpha") == 3

    def test_checkpoint_without_seq_refused(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        with pytest.raises(ReplicaError):
            store.apply("alpha", [], checkpoint={"no": "seq"})

    def test_keep_checkpoints_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep_checkpoints"):
            ReplicaStore(str(tmp_path), keep_checkpoints=0)

    def test_checkpoints_seal_and_prune_like_the_primary(self, tmp_path,
                                                          monkeypatch):
        """A follower kept current seals its segment when a checkpoint
        arrives and prunes by the primary's rule, so its journal stays
        a few checkpoint intervals long and a promotion replays little."""
        from repro.store import base, load_latest_checkpoint, \
            store_tail_lines
        primary = Session("alpha", directory=str(tmp_path / "primary"))
        replica = ReplicaStore(str(tmp_path / "replica"))

        def ship():
            lines = store_tail_lines(primary.store,
                                     after_seq=replica.position("alpha"))
            replica.apply("alpha", [line[:-1].decode()
                                    for _seq, line in lines])
            checkpoint = load_latest_checkpoint(primary.store)
            replica.apply("alpha", [], checkpoint=checkpoint)

        primary.make_variable("x")
        for op in range(1, 500):
            if op % 25 == 0:
                primary.checkpoint()
            else:
                primary.assign("v:x", op)
            if op % 10 == 0:
                ship()
                segments = replica.session_store("alpha").segments()
                assert len(segments) <= 3
        ship()
        fingerprint = primary.fingerprint()
        primary.close()

        decode = base._decode_line
        decoded = []
        monkeypatch.setattr(
            base, "_decode_line",
            lambda line: decoded.append(line) or decode(line))
        promoted = Session("alpha", directory=replica.session_dir("alpha"))
        monkeypatch.setattr(base, "_decode_line", decode)
        assert promoted.fingerprint() == fingerprint
        promoted.close()
        # Checkpoints reach the follower up to one shipping period
        # late, so its segments end up to 10 entries past them.
        assert len(decoded) <= 2 * 25 + 10


class TestPromotion:
    def test_replica_recovers_to_the_primary_fingerprint(self, tmp_path):
        """End to end without a network: run a primary session, ship
        its raw journal bytes, open the replica dir as a session, and
        compare fingerprints — including stats."""
        primary_dir = tmp_path / "primary"
        session = Session("alpha", directory=str(primary_dir))
        session.make_variable("width")
        session.make_variable("height")
        session.make_variable("area")
        session.add_constraint("sum", ["v:area", "v:width", "v:height"])
        for step in range(8):
            session.assign("v:width", step)
            session.assign("v:height", 2 * step)
        fingerprint = session.fingerprint()
        session.close()

        store = ReplicaStore(str(tmp_path / "replica"))
        store.apply("alpha", ship_lines(str(primary_dir)))
        promoted = Session("alpha",
                           directory=store.session_dir("alpha"))
        assert promoted.fingerprint() == fingerprint
        promoted.close()

    def test_verify_rescans_from_disk(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        lines = [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                               "value": seq})[:-1].decode()
                 for seq in (1, 2)]
        store.apply("alpha", lines)
        # another writer (a promoted session) extends the journal
        # behind the store's back
        writer = JournalWriter(store.session_dir("alpha"), next_seq=3)
        writer.append({"op": "assign", "var": "v:x", "value": 9})
        writer.close()
        assert store.verify("alpha") == 3

    def test_forget_drops_the_cache(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        line = encode_entry({"op": "assign", "seq": 1, "var": "v:x",
                             "value": 1})[:-1].decode()
        store.apply("alpha", [line])
        writer = JournalWriter(store.session_dir("alpha"), next_seq=2)
        writer.append({"op": "assign", "var": "v:x", "value": 2})
        writer.close()
        store.forget("alpha")
        assert store.position("alpha") == 2

    def test_names_lists_replicated_sessions(self, tmp_path):
        store = ReplicaStore(str(tmp_path))
        line = encode_entry({"op": "assign", "seq": 1, "var": "v:x",
                             "value": 1})[:-1].decode()
        store.apply("b-session", [line])
        store.apply("a-session", [line])
        assert store.names() == ["a-session", "b-session"]
